// Particle indexing (Section 5.1, "Particle indexing"): every particle is
// assigned the space-filling-curve index of the cell that encloses it.
// Sorting by this key and cutting the sorted order into p equal runs yields
// the paper's dynamic alignment: particle subdomains that are compact and
// overlap the (identically ordered) mesh subdomains.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mesh/grid.hpp"
#include "particles/particle_array.hpp"
#include "sfc/curve.hpp"
#include "sfc/index_cache.hpp"

namespace picpar::core {

/// Recompute the sort key of every particle from its current position.
/// Costs one cell lookup + one curve evaluation per particle. Multi-species
/// arrays use the species-in-key encoding (key = cell_index * S + species,
/// see particles/particle_array.hpp): the species id is read from the old
/// key and preserved, so keys must carry valid species bits on entry (a
/// freshly generated loadout seeds key = species id).
void assign_keys(const sfc::Curve& curve, const mesh::GridDesc& grid,
                 particles::ParticleArray& p);

/// Same, but through a memoized cell -> index table: one cell lookup + one
/// load per particle (hot-path variant, DESIGN.md §10). Produces exactly
/// the keys of the curve the cache was built from.
void assign_keys(const sfc::IndexCache& cache, const mesh::GridDesc& grid,
                 particles::ParticleArray& p);

/// Key pass: the same over particles [begin, end) only (the push phase
/// re-keys each block after moving it), with the cell size hoisted out of
/// the loop. Keys equal key_of/encode_key of each particle bit for bit.
void assign_keys(const sfc::IndexCache& cache, const mesh::GridDesc& grid,
                 particles::ParticleArray& p, std::size_t begin,
                 std::size_t end);

/// Recompute the key of a single particle (used after the push phase moves
/// it). Returns the new key.
inline std::uint64_t key_of(const sfc::Curve& curve,
                            const mesh::GridDesc& grid, double x, double y) {
  const std::uint64_t cell = grid.cell_of(x, y);
  return curve.index(grid.node_x(cell), grid.node_y(cell));
}

/// Memoized variant of key_of: a table load instead of a curve walk.
inline std::uint64_t key_of(const sfc::IndexCache& cache,
                            const mesh::GridDesc& grid, double x, double y) {
  return cache[grid.cell_of(x, y)];
}

/// Species-in-key encode: curve index of the enclosing cell scaled by the
/// array's key stride, plus the species id in the low bits. With stride 1
/// (single species) this is exactly key_of.
inline std::uint64_t encode_key(const sfc::IndexCache& cache,
                                const mesh::GridDesc& grid, double x,
                                double y, std::uint64_t stride,
                                std::uint64_t species) {
  return cache[grid.cell_of(x, y)] * stride + species;
}

/// True if the key sequence is non-decreasing.
bool is_sorted_by_key(const particles::ParticleArray& p);

}  // namespace picpar::core
