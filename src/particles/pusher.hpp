// Particle pushers (the paper's "push phase").
//
// The primary pusher is the relativistic Boris rotation, the standard
// second-order scheme for electromagnetic PIC; a non-relativistic leapfrog
// is provided for electrostatic runs and tests.
//
// Every kernel comes twice: a per-particle scalar form (boris_kick,
// advance_position) and a block pass over up to kBlock particles that the
// PIC drivers run (kick_pass, position_pass). Both are built from the same
// inline formulas below and evaluate every operation in the same order, so
// their results are bit-identical (DESIGN.md §10, "Particle passes").
#pragma once

#include <cmath>
#include <cstddef>

#include "mesh/grid.hpp"
#include "particles/particle_array.hpp"

namespace picpar::particles {

/// Fields interpolated at a particle location.
struct LocalFields {
  double ex = 0.0, ey = 0.0, ez = 0.0;
  double bx = 0.0, by = 0.0, bz = 0.0;
};

/// Half the Boris impulse per unit field, q dt / (2 m).
inline double boris_qmdt2(double q, double m, double dt) {
  return 0.5 * q * dt / m;
}

/// Boris magnetic rotation of the half-accelerated momentum um (whose
/// gamma is `gamma`) followed by the second electric half step; writes the
/// new momentum to u.
inline void boris_rotate(double qmdt2, double gamma, const LocalFields& f,
                         double umx, double umy, double umz, double& ux,
                         double& uy, double& uz) {
  const double tx = qmdt2 * f.bx / gamma;
  const double ty = qmdt2 * f.by / gamma;
  const double tz = qmdt2 * f.bz / gamma;
  const double t2 = tx * tx + ty * ty + tz * tz;
  const double sx = 2.0 * tx / (1.0 + t2);
  const double sy = 2.0 * ty / (1.0 + t2);
  const double sz = 2.0 * tz / (1.0 + t2);

  const double upx = umx + (umy * tz - umz * ty);
  const double upy = umy + (umz * tx - umx * tz);
  const double upz = umz + (umx * ty - umy * tx);

  umx += upy * sz - upz * sy;
  umy += upz * sx - upx * sz;
  umz += upx * sy - upy * sx;

  ux = umx + qmdt2 * f.ex;
  uy = umy + qmdt2 * f.ey;
  uz = umz + qmdt2 * f.ez;
}

/// Relativistic Boris push of momentum u by fields over dt
/// (charge q, mass m; c = 1). Returns the updated momentum.
inline void boris_kick(double q, double m, double dt, const LocalFields& f,
                       double& ux, double& uy, double& uz) {
  const double qmdt2 = boris_qmdt2(q, m, dt);
  // Half electric acceleration, then the rotation at the mid-step gamma.
  const double umx = ux + qmdt2 * f.ex;
  const double umy = uy + qmdt2 * f.ey;
  const double umz = uz + qmdt2 * f.ez;
  boris_rotate(qmdt2, std::sqrt(gamma_sq(umx, umy, umz)), f, umx, umy, umz,
               ux, uy, uz);
}

/// One coordinate's unwrapped position step x + dt u / gamma.
inline double position_step(double x, double u, double gamma, double dt) {
  return x + dt * u / gamma;
}

/// Advance position of particle i by its velocity u/gamma over dt, with
/// periodic wrapping, and refresh nothing else.
inline void advance_position(const mesh::GridDesc& g, ParticleArray& p,
                             std::size_t i, double dt) {
  const double gamma = p.gamma(i);
  p.x[i] = g.wrap_x(position_step(p.x[i], p.ux[i], gamma, dt));
  p.y[i] = g.wrap_y(position_step(p.y[i], p.uy[i], gamma, dt));
}

/// Advance position with an absorbing boundary in x and periodic wrapping
/// in y (open-ended beam scenarios: particles stream in at one edge and
/// leave at the other). Returns false when the particle left the domain in
/// x — the caller removes (absorbs) it; its position is left unchanged.
inline bool advance_position_absorb_x(const mesh::GridDesc& g,
                                      ParticleArray& p, std::size_t i,
                                      double dt) {
  const double gamma = p.gamma(i);
  const double nx = position_step(p.x[i], p.ux[i], gamma, dt);
  if (nx < 0.0 || nx >= g.lx) return false;
  p.x[i] = nx;
  p.y[i] = g.wrap_y(position_step(p.y[i], p.uy[i], gamma, dt));
  return true;
}

/// Particles per block of the pass-structured loops. A block's scratch
/// arrays live on the caller's stack (tens of kB, well inside L2), and 256
/// iterations amortise each pass's loop overhead.
inline constexpr std::size_t kBlock = 256;

/// Fields at a block of particles, one array per component.
struct FieldBlock {
  double ex[kBlock], ey[kBlock], ez[kBlock];
  double bx[kBlock], by[kBlock], bz[kBlock];

  void set(std::size_t i, const LocalFields& f) {
    ex[i] = f.ex;
    ey[i] = f.ey;
    ez[i] = f.ez;
    bx[i] = f.bx;
    by[i] = f.by;
    bz[i] = f.bz;
  }
};

/// g[i] = p.gamma(begin + i) for i < n <= kBlock.
void gamma_pass(const ParticleArray& p, std::size_t begin, std::size_t n,
                double* g);

/// Deposit sources of particles [begin, begin + n), n <= kBlock: qv[i] is
/// the particle's charge per cell area (charge_of(begin + i) * inv_cell;
/// single-species arrays use charge() * inv_cell) and j = qv u / gamma.
void current_pass(const ParticleArray& p, std::size_t begin, std::size_t n,
                  double inv_cell, double* qv, double* jx, double* jy,
                  double* jz);

/// Boris kick of particles [begin, begin + n), n <= kBlock: particle
/// begin + i gets boris_kick with fields f[i] and qmdt2[i] ==
/// boris_qmdt2(q_i, m_i, dt), bit for bit.
void kick_pass(ParticleArray& p, std::size_t begin, std::size_t n,
               const double* qmdt2, const FieldBlock& f);

/// Unwrapped new positions of particles [begin, begin + n), n <= kBlock:
/// px[i], py[i] are the position_step values advance_position wraps.
void position_pass(const ParticleArray& p, std::size_t begin, std::size_t n,
                   double dt, double* px, double* py);

/// Non-relativistic leapfrog kick (E only) for electrostatic runs.
void leapfrog_kick(double q, double m, double dt, double ex, double ey,
                   double& ux, double& uy);

}  // namespace picpar::particles
