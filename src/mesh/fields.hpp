// Electromagnetic field state over a LocalGrid.
//
// Normalized units: c = eps0 = mu0 = 1. All arrays are sized
// LocalGrid::total() (owned + ghost entries); ghosts are refreshed by halo
// exchange before any stencil use.
#pragma once

#include <vector>

#include "mesh/local_grid.hpp"

namespace picpar::mesh {

struct FieldState {
  explicit FieldState(const LocalGrid& lg)
      : ex(lg.make_field()),
        ey(lg.make_field()),
        ez(lg.make_field()),
        bx(lg.make_field()),
        by(lg.make_field()),
        bz(lg.make_field()),
        jx(lg.make_field()),
        jy(lg.make_field()),
        jz(lg.make_field()),
        rho(lg.make_field()) {}

  std::vector<double> ex, ey, ez;
  std::vector<double> bx, by, bz;
  std::vector<double> jx, jy, jz;
  std::vector<double> rho;

  void clear_sources() {
    std::fill(jx.begin(), jx.end(), 0.0);
    std::fill(jy.begin(), jy.end(), 0.0);
    std::fill(jz.begin(), jz.end(), 0.0);
    std::fill(rho.begin(), rho.end(), 0.0);
  }

  /// Field energy over owned nodes: 0.5 * (E^2 + B^2) * cell_area.
  double energy(const LocalGrid& lg) const {
    return energy(lg, 0, lg.owned());
  }
  /// The same over local nodes [begin, end) only.
  double energy(const LocalGrid& lg, std::size_t begin,
                std::size_t end) const;
};

}  // namespace picpar::mesh
