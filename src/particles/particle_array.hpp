// Structure-of-arrays particle storage.
//
// A ParticleArray holds one or more species: per-particle position, momentum
// (u = gamma * v, c = 1) and the sort key. Charge and mass are per-species
// constants held in a small species table.
//
// Species-in-key encoding: with S = nspecies(), a particle's key is
//   key = cell_curve_index * S + species_id
// so keys of the same cell stay adjacent along the curve while the species
// id rides in the low bits (key % S). For S == 1 the encoding degenerates to
// the plain curve index — single-species keys, records and message bytes are
// numerically identical to the pre-multi-species layout, which keeps every
// legacy run bit-identical. ParticleRec stays the 48-byte packed POD used
// when particles travel between ranks; no per-record species field is needed
// because the key carries it.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace picpar::particles {

struct ParticleRec {
  double x = 0.0, y = 0.0;
  double ux = 0.0, uy = 0.0, uz = 0.0;
  std::uint64_t key = 0;
};
static_assert(sizeof(ParticleRec) == 48);

/// gamma^2 = 1 + |u|^2 (c = 1) in the one association order every gamma in
/// the code uses; gamma is its std::sqrt. Split out so the particle passes
/// can take the square roots in a loop of their own (DESIGN.md §10).
inline double gamma_sq(double ux, double uy, double uz) {
  return 1.0 + ux * ux + uy * uy + uz * uz;
}

/// Per-species constants (charge sign included in `charge`).
struct Species {
  double charge = -1.0;
  double mass = 1.0;
};

class ParticleArray {
public:
  ParticleArray(double charge, double mass) : species_{{charge, mass}} {
    if (mass <= 0.0) throw std::invalid_argument("ParticleArray: mass <= 0");
  }

  explicit ParticleArray(std::vector<Species> species)
      : species_(std::move(species)) {
    if (species_.empty())
      throw std::invalid_argument("ParticleArray: empty species table");
    for (const auto& s : species_)
      if (s.mass <= 0.0)
        throw std::invalid_argument("ParticleArray: mass <= 0");
  }

  /// Species-0 constants (the only species of a legacy array).
  double charge() const { return species_[0].charge; }
  double mass() const { return species_[0].mass; }

  const std::vector<Species>& species() const { return species_; }
  std::size_t nspecies() const { return species_.size(); }

  /// Key stride of the species-in-key encoding (== nspecies()).
  std::uint64_t key_stride() const {
    return static_cast<std::uint64_t>(species_.size());
  }

  /// Species id of particle i, decoded from its key.
  std::uint64_t species_of(std::size_t i) const {
    return species_.size() == 1 ? 0 : key[i] % key_stride();
  }

  /// Per-particle charge/mass through the species table. For a
  /// single-species array these return exactly charge()/mass(), so mixed
  /// call sites stay bit-identical to the scalar path.
  double charge_of(std::size_t i) const {
    return species_[static_cast<std::size_t>(species_of(i))].charge;
  }
  double mass_of(std::size_t i) const {
    return species_[static_cast<std::size_t>(species_of(i))].mass;
  }

  std::size_t size() const { return x.size(); }
  bool empty() const { return x.empty(); }

  void reserve(std::size_t n) {
    x.reserve(n);
    y.reserve(n);
    ux.reserve(n);
    uy.reserve(n);
    uz.reserve(n);
    key.reserve(n);
  }

  void push_back(const ParticleRec& p) {
    x.push_back(p.x);
    y.push_back(p.y);
    ux.push_back(p.ux);
    uy.push_back(p.uy);
    uz.push_back(p.uz);
    key.push_back(p.key);
  }

  ParticleRec rec(std::size_t i) const {
    return {x[i], y[i], ux[i], uy[i], uz[i], key[i]};
  }

  void set(std::size_t i, const ParticleRec& p) {
    x[i] = p.x;
    y[i] = p.y;
    ux[i] = p.ux;
    uy[i] = p.uy;
    uz[i] = p.uz;
    key[i] = p.key;
  }

  void clear() {
    x.clear();
    y.clear();
    ux.clear();
    uy.clear();
    uz.clear();
    key.clear();
  }

  /// Remove element i by swapping the last element into its place.
  void swap_remove(std::size_t i) {
    const std::size_t last = size() - 1;
    if (i != last) set(i, rec(last));
    x.pop_back();
    y.pop_back();
    ux.pop_back();
    uy.pop_back();
    uz.pop_back();
    key.pop_back();
  }

  /// Drop every element at index >= n, preserving the order of the rest
  /// (order-preserving removal: compact survivors with set(), then
  /// truncate — unlike swap_remove this keeps the key sort).
  void truncate(std::size_t n) {
    if (n >= size()) return;
    x.resize(n);
    y.resize(n);
    ux.resize(n);
    uy.resize(n);
    uz.resize(n);
    key.resize(n);
  }

  /// Reorder all arrays by `perm` (perm[i] = old index of new element i).
  void apply_permutation(const std::vector<std::uint32_t>& perm);

  /// Relativistic gamma of particle i.
  double gamma(std::size_t i) const {
    return std::sqrt(gamma_sq(ux[i], uy[i], uz[i]));
  }

  /// Total kinetic energy: sum m (gamma - 1), per-particle species mass.
  double kinetic_energy() const;

  std::vector<double> x, y;
  std::vector<double> ux, uy, uz;
  std::vector<std::uint64_t> key;

private:
  std::vector<Species> species_;
};

}  // namespace picpar::particles
