#include "core/indexing.hpp"

namespace picpar::core {

void assign_keys(const sfc::Curve& curve, const mesh::GridDesc& grid,
                 particles::ParticleArray& p) {
  const std::uint64_t stride = p.key_stride();
  if (stride == 1) {
    for (std::size_t i = 0; i < p.size(); ++i)
      p.key[i] = key_of(curve, grid, p.x[i], p.y[i]);
  } else {
    for (std::size_t i = 0; i < p.size(); ++i)
      p.key[i] =
          key_of(curve, grid, p.x[i], p.y[i]) * stride + p.key[i] % stride;
  }
}

void assign_keys(const sfc::IndexCache& cache, const mesh::GridDesc& grid,
                 particles::ParticleArray& p) {
  assign_keys(cache, grid, p, 0, p.size());
}

void assign_keys(const sfc::IndexCache& cache, const mesh::GridDesc& grid,
                 particles::ParticleArray& p, std::size_t begin,
                 std::size_t end) {
  const std::uint64_t stride = p.key_stride();
  const double cdx = grid.dx();
  const double cdy = grid.dy();
  const double* x = p.x.data();
  const double* y = p.y.data();
  std::uint64_t* key = p.key.data();
  if (stride == 1) {
    for (std::size_t i = begin; i < end; ++i)
      key[i] = cache[grid.cell_of(x[i], y[i], cdx, cdy)];
  } else {
    for (std::size_t i = begin; i < end; ++i)
      key[i] = cache[grid.cell_of(x[i], y[i], cdx, cdy)] * stride +
               key[i] % stride;
  }
}

bool is_sorted_by_key(const particles::ParticleArray& p) {
  for (std::size_t i = 1; i < p.size(); ++i)
    if (p.key[i] < p.key[i - 1]) return false;
  return true;
}

}  // namespace picpar::core
