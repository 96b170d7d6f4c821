// Cloud-in-cell (linear) interpolation between particles and the four
// vertex grid points of their cell — the weight computation shared by the
// scatter and gather phases (paper Fig 3).
#pragma once

#include <cstddef>
#include <cstdint>

#include "mesh/grid.hpp"

namespace picpar::particles {

/// The 4 vertex node ids of a particle's cell plus its bilinear weights.
struct CicStencil {
  std::uint64_t node[4];
  double weight[4];
};

/// Compute the CIC stencil for wrapped position (x, y) on a grid with cell
/// size (cdx, cdy) == (g.dx(), g.dy()). Weight order: (x0,y0), (x1,y0),
/// (x0,y1), (x1,y1).
inline CicStencil cic_stencil(const mesh::GridDesc& g, double x, double y,
                              double cdx, double cdy) {
  const double gx = x / cdx;
  const double gy = y / cdy;
  auto cx = static_cast<std::uint32_t>(gx);
  auto cy = static_cast<std::uint32_t>(gy);
  if (cx >= g.nx) cx = g.nx - 1;
  if (cy >= g.ny) cy = g.ny - 1;
  const double fx = gx - static_cast<double>(cx);
  const double fy = gy - static_cast<double>(cy);
  // (c + 1) % n without the integer divide: c < n after the clamp.
  const std::uint32_t cx1 = cx + 1 == g.nx ? 0 : cx + 1;
  const std::uint32_t cy1 = cy + 1 == g.ny ? 0 : cy + 1;

  CicStencil s;
  s.node[0] = g.node_id(cx, cy);
  s.node[1] = g.node_id(cx1, cy);
  s.node[2] = g.node_id(cx, cy1);
  s.node[3] = g.node_id(cx1, cy1);
  s.weight[0] = (1.0 - fx) * (1.0 - fy);
  s.weight[1] = fx * (1.0 - fy);
  s.weight[2] = (1.0 - fx) * fy;
  s.weight[3] = fx * fy;
  return s;
}

inline CicStencil cic_stencil(const mesh::GridDesc& g, double x, double y) {
  return cic_stencil(g, x, y, g.dx(), g.dy());
}

/// Stencil pass: st[i] = cic_stencil(g, x[i], y[i]) for i < n, with the
/// cell size divided out once for the whole pass.
inline void cic_pass(const mesh::GridDesc& g, const double* x,
                     const double* y, std::size_t n, CicStencil* st) {
  const double cdx = g.dx();
  const double cdy = g.dy();
  for (std::size_t i = 0; i < n; ++i)
    st[i] = cic_stencil(g, x[i], y[i], cdx, cdy);
}

}  // namespace picpar::particles
