#include "mesh/maxwell.hpp"

#include <cmath>
#include <stdexcept>

namespace picpar::mesh {

double FieldState::energy(const LocalGrid& lg, std::size_t begin,
                          std::size_t end) const {
  const double cell = lg.grid().dx() * lg.grid().dy();
  // picpar-lint: allow(float-reduction-order) fixed local-index sum
  double e = 0.0;
  for (std::size_t l = begin; l < end; ++l) {
    e += ex[l] * ex[l] + ey[l] * ey[l] + ez[l] * ez[l];
    e += bx[l] * bx[l] + by[l] * by[l] + bz[l] * bz[l];
  }
  return 0.5 * e * cell;
}

MaxwellSolver::MaxwellSolver(const LocalGrid& lg, double dt)
    : lg_(&lg),
      dt_(dt),
      inv2dx_(0.5 / lg.grid().dx()),
      inv2dy_(0.5 / lg.grid().dy()) {
  if (dt <= 0.0) throw std::invalid_argument("MaxwellSolver: dt must be > 0");
  if (dt > max_dt(lg.grid()))
    throw std::invalid_argument("MaxwellSolver: dt violates CFL limit");
}

double MaxwellSolver::max_dt(const GridDesc& g) {
  return 0.9 * std::min(g.dx(), g.dy()) / std::sqrt(2.0);
}

// 2-D (d/dz = 0) curls with central differences, each node's curl applied
// as it is computed. Only nodes [begin, end) are written; the stencil
// inputs must be fresh (ghosts after a halo exchange).
void MaxwellSolver::half_b(FieldState& f, std::size_t begin,
                           std::size_t end) const {
  const auto& lg = *lg_;
  for (std::size_t l = begin; l < end; ++l) {
    const auto e = lg.east(l), w = lg.west(l), n = lg.north(l), s = lg.south(l);
    const double dez_dy = (f.ez[n] - f.ez[s]) * inv2dy_;
    const double dez_dx = (f.ez[e] - f.ez[w]) * inv2dx_;
    const double dey_dx = (f.ey[e] - f.ey[w]) * inv2dx_;
    const double dex_dy = (f.ex[n] - f.ex[s]) * inv2dy_;
    f.bx[l] -= 0.5 * dt_ * dez_dy;
    f.by[l] -= 0.5 * dt_ * -dez_dx;
    f.bz[l] -= 0.5 * dt_ * (dey_dx - dex_dy);
  }
}

void MaxwellSolver::full_e(FieldState& f, std::size_t begin,
                           std::size_t end) const {
  const auto& lg = *lg_;
  for (std::size_t l = begin; l < end; ++l) {
    const auto e = lg.east(l), w = lg.west(l), n = lg.north(l), s = lg.south(l);
    const double dbz_dy = (f.bz[n] - f.bz[s]) * inv2dy_;
    const double dbz_dx = (f.bz[e] - f.bz[w]) * inv2dx_;
    const double dby_dx = (f.by[e] - f.by[w]) * inv2dx_;
    const double dbx_dy = (f.bx[n] - f.bx[s]) * inv2dy_;
    f.ex[l] += dt_ * (dbz_dy - f.jx[l]);
    f.ey[l] += dt_ * (-dbz_dx - f.jy[l]);
    f.ez[l] += dt_ * ((dby_dx - dbx_dy) - f.jz[l]);
  }
}

void MaxwellSolver::step(sim::Comm& comm, FieldState& f) const {
  const auto& lg = *lg_;
  lg.halo_exchange(comm, {&f.ex, &f.ey, &f.ez});
  half_b(f, 0, lg.owned());
  lg.halo_exchange(comm, {&f.bx, &f.by, &f.bz});
  full_e(f, 0, lg.owned());
  lg.halo_exchange(comm, {&f.ex, &f.ey, &f.ez});
  half_b(f, 0, lg.owned());
}

}  // namespace picpar::mesh
