// Global computational mesh descriptor.
//
// The mesh is a regular nx-by-ny grid of cells over a periodic physical
// domain [0, lx) x [0, ly). Grid points (field nodes) sit at cell corners;
// with periodic boundaries node (i, j) identifies with (i mod nx, j mod ny),
// so there are exactly nx*ny distinct nodes and node id == cell id of the
// cell whose lower-left corner it is.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace picpar::mesh {

struct GridDesc {
  std::uint32_t nx = 0;  ///< cells in x
  std::uint32_t ny = 0;  ///< cells in y
  double lx = 1.0;       ///< physical width
  double ly = 1.0;       ///< physical height

  GridDesc() = default;
  GridDesc(std::uint32_t nx_, std::uint32_t ny_, double lx_ = 0.0,
           double ly_ = 0.0)
      : nx(nx_), ny(ny_), lx(lx_), ly(ly_) {
    if (nx == 0 || ny == 0)
      throw std::invalid_argument("GridDesc: dims must be > 0");
    // Default physical size: unit cells.
    if (lx <= 0.0) lx = static_cast<double>(nx);
    if (ly <= 0.0) ly = static_cast<double>(ny);
  }

  std::uint64_t nodes() const {
    return static_cast<std::uint64_t>(nx) * ny;
  }
  std::uint64_t cells() const { return nodes(); }

  double dx() const { return lx / static_cast<double>(nx); }
  double dy() const { return ly / static_cast<double>(ny); }

  std::uint64_t node_id(std::uint32_t ix, std::uint32_t iy) const {
    return static_cast<std::uint64_t>(iy) * nx + ix;
  }
  std::uint32_t node_x(std::uint64_t id) const {
    return static_cast<std::uint32_t>(id % nx);
  }
  std::uint32_t node_y(std::uint64_t id) const {
    return static_cast<std::uint32_t>(id / nx);
  }

  /// Periodic neighbor node ids.
  std::uint64_t east(std::uint64_t id) const {
    const auto x = node_x(id), y = node_y(id);
    return node_id((x + 1) % nx, y);
  }
  std::uint64_t west(std::uint64_t id) const {
    const auto x = node_x(id), y = node_y(id);
    return node_id((x + nx - 1) % nx, y);
  }
  std::uint64_t north(std::uint64_t id) const {
    const auto x = node_x(id), y = node_y(id);
    return node_id(x, (y + 1) % ny);
  }
  std::uint64_t south(std::uint64_t id) const {
    const auto x = node_x(id), y = node_y(id);
    return node_id(x, (y + ny - 1) % ny);
  }

  /// Wrap a physical position into the periodic domain.
  double wrap_x(double x) const { return wrap(x, lx); }
  double wrap_y(double y) const { return wrap(y, ly); }

  /// Cell containing wrapped position (x, y).
  std::uint64_t cell_of(double x, double y) const {
    return cell_of(x, y, dx(), dy());
  }

  /// cell_of with the cell size passed in: loops hoist dx()/dy() out, so a
  /// position costs one divide per axis (DESIGN.md §10, particle passes).
  std::uint64_t cell_of(double x, double y, double cdx, double cdy) const {
    auto cx = static_cast<std::uint32_t>(x / cdx);
    auto cy = static_cast<std::uint32_t>(y / cdy);
    if (cx >= nx) cx = nx - 1;  // guards x == lx after rounding
    if (cy >= ny) cy = ny - 1;
    return node_id(cx, cy);
  }

private:
  /// In-range positions return unchanged: for 0 <= v < l the quotient v/l
  /// rounds below 1, so the general formula subtracts l * +0.0 and returns
  /// v itself (-0.0 included). Out-of-range and NaN take the formula.
  static double wrap(double v, double l) {
    if (v >= 0.0 && v < l) return v;
    v -= l * static_cast<double>(static_cast<long long>(v / l));
    if (v < 0.0) v += l;
    if (v >= l) v -= l;
    return v;
  }
};

}  // namespace picpar::mesh
