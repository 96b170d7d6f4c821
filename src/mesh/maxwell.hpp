// Explicit finite-difference Maxwell solver on the partitioned mesh
// (the paper's "field solve" phase: each grid point needs data from its
// four neighboring grid points).
//
// Colocated leapfrog scheme in 2-D (d/dz == 0), full six components (2d3v):
//   B^{n+1/2} = B^n     - dt/2 * curl E^n
//   E^{n+1}   = E^n     + dt   * (curl B^{n+1/2} - J)
//   B^{n+1}   = B^{n+1/2} - dt/2 * curl E^{n+1}
// with central differences over the periodic 4-neighborhood. Requires
// dt <= cfl * min(dx, dy) / sqrt(2).
#pragma once

#include "mesh/fields.hpp"
#include "sim/comm.hpp"

namespace picpar::mesh {

class MaxwellSolver {
public:
  MaxwellSolver(const LocalGrid& lg, double dt);

  /// Advance fields one step; performs the halo exchanges it needs.
  /// J (and rho) must already hold this step's sources on owned nodes.
  void step(sim::Comm& comm, FieldState& f) const;

  /// The leapfrog's stages on local nodes [begin, end), without
  /// communication: B -= dt/2 * curl E (half_b) and E += dt * (curl B - J)
  /// (full_e). step() is half_b, full_e, half_b over all owned nodes, each
  /// after a halo exchange; a replicated mesh runs them on a share of the
  /// nodes and concatenates the shares instead.
  void half_b(FieldState& f, std::size_t begin, std::size_t end) const;
  void full_e(FieldState& f, std::size_t begin, std::size_t end) const;

  double dt() const { return dt_; }

  /// Largest stable time step for this grid.
  static double max_dt(const GridDesc& g);

private:
  const LocalGrid* lg_;
  double dt_;
  double inv2dx_;
  double inv2dy_;
};

}  // namespace picpar::mesh
