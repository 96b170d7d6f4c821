#include "mesh/grid.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

namespace picpar::mesh {
namespace {

TEST(GridDesc, DefaultPhysicalSizeIsUnitCells) {
  GridDesc g(8, 4);
  EXPECT_DOUBLE_EQ(g.lx, 8.0);
  EXPECT_DOUBLE_EQ(g.ly, 4.0);
  EXPECT_DOUBLE_EQ(g.dx(), 1.0);
  EXPECT_DOUBLE_EQ(g.dy(), 1.0);
}

TEST(GridDesc, ExplicitPhysicalSize) {
  GridDesc g(10, 10, 2.0, 4.0);
  EXPECT_DOUBLE_EQ(g.dx(), 0.2);
  EXPECT_DOUBLE_EQ(g.dy(), 0.4);
}

TEST(GridDesc, RejectsZeroDims) {
  EXPECT_THROW(GridDesc(0, 4), std::invalid_argument);
  EXPECT_THROW(GridDesc(4, 0), std::invalid_argument);
}

TEST(GridDesc, NodeIdRoundTrip) {
  GridDesc g(7, 5);
  for (std::uint32_t y = 0; y < 5; ++y)
    for (std::uint32_t x = 0; x < 7; ++x) {
      const auto id = g.node_id(x, y);
      EXPECT_EQ(g.node_x(id), x);
      EXPECT_EQ(g.node_y(id), y);
    }
}

TEST(GridDesc, PeriodicNeighbors) {
  GridDesc g(4, 3);
  const auto id = g.node_id(0, 0);
  EXPECT_EQ(g.east(id), g.node_id(1, 0));
  EXPECT_EQ(g.west(id), g.node_id(3, 0));   // wraps
  EXPECT_EQ(g.north(id), g.node_id(0, 1));
  EXPECT_EQ(g.south(id), g.node_id(0, 2));  // wraps
}

TEST(GridDesc, NeighborsAreInvolutions) {
  GridDesc g(6, 4);
  for (std::uint64_t id = 0; id < g.nodes(); ++id) {
    EXPECT_EQ(g.west(g.east(id)), id);
    EXPECT_EQ(g.south(g.north(id)), id);
  }
}

TEST(GridDesc, WrapPositionsIntoDomain) {
  GridDesc g(10, 10);
  EXPECT_DOUBLE_EQ(g.wrap_x(-0.5), 9.5);
  EXPECT_DOUBLE_EQ(g.wrap_x(10.5), 0.5);
  EXPECT_DOUBLE_EQ(g.wrap_y(25.0), 5.0);
  EXPECT_DOUBLE_EQ(g.wrap_x(3.0), 3.0);
}

TEST(GridDesc, WrapBoundaryLandsInside) {
  GridDesc g(4, 4);
  const double x = g.wrap_x(4.0);
  EXPECT_GE(x, 0.0);
  EXPECT_LT(x, 4.0);
}

/// The wrap formula without the in-range fast path.
double wrap_reference(double v, double l) {
  v -= l * static_cast<double>(static_cast<long long>(v / l));
  if (v < 0.0) v += l;
  if (v >= l) v -= l;
  return v;
}

TEST(GridDesc, WrapFastPathMatchesFormulaBitForBit) {
  // Power-of-two, unit and inexact extents.
  for (const double l : {8.0, 1.0, 3.3, 0.7}) {
    const GridDesc g(8, 4, l, l);
    for (const double v :
         {-0.0, 0.0, std::nextafter(l, 0.0), l, -1e-300, -l, 3.5 * l, 0.5 * l,
          std::nextafter(0.0, 1.0)}) {
      const double want = wrap_reference(v, l);
      const double gx = g.wrap_x(v);
      const double gy = g.wrap_y(v);
      EXPECT_EQ(std::memcmp(&gx, &want, sizeof want), 0)
          << "l=" << l << " v=" << v << ": " << gx << " vs " << want;
      EXPECT_EQ(std::memcmp(&gy, &want, sizeof want), 0)
          << "l=" << l << " v=" << v << ": " << gy << " vs " << want;
    }
  }
}

TEST(GridDesc, CellOfMapsPositions) {
  GridDesc g(4, 4, 8.0, 8.0);  // dx = dy = 2
  EXPECT_EQ(g.cell_of(0.1, 0.1), g.node_id(0, 0));
  EXPECT_EQ(g.cell_of(2.1, 0.1), g.node_id(1, 0));
  EXPECT_EQ(g.cell_of(7.9, 7.9), g.node_id(3, 3));
}

TEST(GridDesc, CellOfClampsAtUpperEdge) {
  GridDesc g(4, 4);
  // A position exactly at the domain edge (possible after wrap rounding)
  // must still map to a valid cell.
  const auto id = g.cell_of(std::nextafter(4.0, 0.0), std::nextafter(4.0, 0.0));
  EXPECT_LT(id, g.cells());
}

TEST(GridDesc, CountsAreConsistent) {
  GridDesc g(12, 9);
  EXPECT_EQ(g.nodes(), 108u);
  EXPECT_EQ(g.cells(), 108u);
}

}  // namespace
}  // namespace picpar::mesh
