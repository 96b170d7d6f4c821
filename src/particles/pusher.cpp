#include "particles/pusher.hpp"

namespace picpar::particles {

void gamma_pass(const ParticleArray& p, std::size_t begin, std::size_t n,
                double* g) {
  const double* ux = p.ux.data() + begin;
  const double* uy = p.uy.data() + begin;
  const double* uz = p.uz.data() + begin;
  for (std::size_t i = 0; i < n; ++i) g[i] = gamma_sq(ux[i], uy[i], uz[i]);
  // The square roots get a scalar loop of their own: with errno-setting
  // math (the default), a sqrt call keeps the loop around it from
  // vectorising.
  for (std::size_t i = 0; i < n; ++i) g[i] = std::sqrt(g[i]);
}

void current_pass(const ParticleArray& p, std::size_t begin, std::size_t n,
                  double inv_cell, double* qv, double* jx, double* jy,
                  double* jz) {
  double g[kBlock];
  gamma_pass(p, begin, n, g);
  if (p.nspecies() > 1) {
    for (std::size_t i = 0; i < n; ++i)
      qv[i] = p.charge_of(begin + i) * inv_cell;
  } else {
    const double q = p.charge();
    for (std::size_t i = 0; i < n; ++i) qv[i] = q * inv_cell;
  }
  const double* ux = p.ux.data() + begin;
  const double* uy = p.uy.data() + begin;
  const double* uz = p.uz.data() + begin;
  for (std::size_t i = 0; i < n; ++i) {
    jx[i] = qv[i] * ux[i] / g[i];
    jy[i] = qv[i] * uy[i] / g[i];
    jz[i] = qv[i] * uz[i] / g[i];
  }
}

void kick_pass(ParticleArray& p, std::size_t begin, std::size_t n,
               const double* qmdt2, const FieldBlock& f) {
  double* ux = p.ux.data() + begin;
  double* uy = p.uy.data() + begin;
  double* uz = p.uz.data() + begin;
  double umx[kBlock]{}, umy[kBlock]{}, umz[kBlock]{}, g[kBlock]{};
  for (std::size_t i = 0; i < n; ++i) {
    umx[i] = ux[i] + qmdt2[i] * f.ex[i];
    umy[i] = uy[i] + qmdt2[i] * f.ey[i];
    umz[i] = uz[i] + qmdt2[i] * f.ez[i];
    g[i] = gamma_sq(umx[i], umy[i], umz[i]);
  }
  for (std::size_t i = 0; i < n; ++i) g[i] = std::sqrt(g[i]);
  for (std::size_t i = 0; i < n; ++i) {
    const LocalFields fi{f.ex[i], f.ey[i], f.ez[i], f.bx[i], f.by[i], f.bz[i]};
    boris_rotate(qmdt2[i], g[i], fi, umx[i], umy[i], umz[i], ux[i], uy[i],
                 uz[i]);
  }
}

void position_pass(const ParticleArray& p, std::size_t begin, std::size_t n,
                   double dt, double* px, double* py) {
  const double* x = p.x.data() + begin;
  const double* y = p.y.data() + begin;
  const double* ux = p.ux.data() + begin;
  const double* uy = p.uy.data() + begin;
  double g[kBlock]{};
  gamma_pass(p, begin, n, g);
  for (std::size_t i = 0; i < n; ++i) {
    px[i] = position_step(x[i], ux[i], g[i], dt);
    py[i] = position_step(y[i], uy[i], g[i], dt);
  }
}

void leapfrog_kick(double q, double m, double dt, double ex, double ey,
                   double& ux, double& uy) {
  const double qmdt = q * dt / m;
  ux += qmdt * ex;
  uy += qmdt * ey;
}

}  // namespace picpar::particles
