// The block passes the PIC drivers run must reproduce the scalar kernels
// bit for bit: every output double and key is compared with memcmp (so
// -0.0 vs 0.0 and NaN payloads count) against the per-particle loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/indexing.hpp"
#include "particles/interpolate.hpp"
#include "particles/pusher.hpp"
#include "sfc/hilbert.hpp"
#include "sfc/index_cache.hpp"
#include "util/rng.hpp"

namespace picpar::particles {
namespace {

struct Case {
  std::size_t n;
  int nspecies;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << "n" << c.n << "s" << c.nspecies;
}

// Non-dyadic cell size, so hoisting dx()/dy() is tested on values whose
// quotient is inexact.
const mesh::GridDesc kGrid(16, 8, 3.3, 1.7);
constexpr double kDt = 0.37;

std::vector<Species> species_table(int s) {
  const std::vector<Species> all = {{-1.0, 1.0}, {1.0, 1836.0}, {2.0, 4.0}};
  return {all.begin(), all.begin() + s};
}

/// Particles with random state plus the edge cases: positions on cell
/// edges and the domain edges, zero and negative-zero momenta, and
/// momenta large enough that gamma is ~|u|.
ParticleArray make_particles(const Case& c, std::uint64_t seed) {
  ParticleArray p(species_table(c.nspecies));
  Rng rng(seed);
  const double edge_x[] = {0.0, -0.0, kGrid.dx(), 5.0 * kGrid.dx(),
                           std::nextafter(kGrid.lx, 0.0)};
  const double edge_u[] = {0.0, -0.0, 1e6, -3e100, 0.5};
  for (std::size_t i = 0; i < c.n; ++i) {
    ParticleRec r;
    r.x = rng.uniform() * kGrid.lx;
    r.y = rng.uniform() * kGrid.ly;
    r.ux = rng.normal();
    r.uy = rng.normal();
    r.uz = rng.normal();
    switch (i % 7) {
      case 1:
        r.x = edge_x[(i / 7) % 5];
        r.y = 3.0 * kGrid.dy();
        break;
      case 2:
        r.ux = edge_u[(i / 7) % 5];
        r.uy = edge_u[(i / 7 + 1) % 5];
        r.uz = edge_u[(i / 7 + 2) % 5];
        break;
      case 3:
        r.ux = 40.0 * rng.normal();  // fast enough to wrap in one step
        break;
      default:
        break;
    }
    r.key = rng.below(static_cast<std::uint64_t>(c.nspecies));
    p.push_back(r);
  }
  return p;
}

/// Fields at particle i: random, all zero, or all negative zero.
LocalFields fields_at(std::size_t i, Rng& rng) {
  LocalFields f;
  switch (i % 5) {
    case 0:
      break;
    case 1:
      f = {-0.0, -0.0, -0.0, -0.0, -0.0, -0.0};
      break;
    case 2:
      f = {0.0, 0.0, 0.0, 0.0, 0.0, 3e3};
      break;
    default:
      f = {rng.normal(), rng.normal(), rng.normal(),
           rng.normal(), rng.normal(), rng.normal()};
      break;
  }
  return f;
}

void expect_same_bytes(const std::vector<double>& a,
                       const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << what << "[" << i << "]: " << a[i] << " vs " << b[i];
}

class ParticlePasses : public ::testing::TestWithParam<Case> {};

TEST_P(ParticlePasses, KickPassMatchesBorisKick) {
  const Case c = GetParam();
  ParticleArray ref = make_particles(c, 11);
  ParticleArray got = ref;
  std::vector<LocalFields> lf(c.n);
  Rng rng(12);
  for (std::size_t i = 0; i < c.n; ++i) lf[i] = fields_at(i, rng);

  for (std::size_t i = 0; i < c.n; ++i)
    boris_kick(ref.charge_of(i), ref.mass_of(i), kDt, lf[i], ref.ux[i],
               ref.uy[i], ref.uz[i]);

  FieldBlock fb{};
  double qmdt2[kBlock]{};
  for (std::size_t b = 0; b < c.n; b += kBlock) {
    const std::size_t nb = std::min(kBlock, c.n - b);
    for (std::size_t i = 0; i < nb; ++i) {
      fb.set(i, lf[b + i]);
      qmdt2[i] =
          boris_qmdt2(got.charge_of(b + i), got.mass_of(b + i), kDt);
    }
    kick_pass(got, b, nb, qmdt2, fb);
  }
  expect_same_bytes(ref.ux, got.ux, "ux");
  expect_same_bytes(ref.uy, got.uy, "uy");
  expect_same_bytes(ref.uz, got.uz, "uz");
}

TEST_P(ParticlePasses, PositionAndKeyPassesMatchScalarPush) {
  const Case c = GetParam();
  const sfc::HilbertCurve curve(kGrid.nx, kGrid.ny);
  const sfc::IndexCache cache(curve, kGrid.nx, kGrid.ny);
  const std::uint64_t stride = static_cast<std::uint64_t>(c.nspecies);
  ParticleArray ref = make_particles(c, 21);
  ParticleArray got = ref;

  for (std::size_t i = 0; i < c.n; ++i) {
    advance_position(kGrid, ref, i, kDt);
    ref.key[i] = stride == 1 ? core::key_of(cache, kGrid, ref.x[i], ref.y[i])
                             : core::encode_key(cache, kGrid, ref.x[i],
                                                ref.y[i], stride,
                                                ref.key[i] % stride);
  }

  double px[kBlock]{}, py[kBlock]{};
  for (std::size_t b = 0; b < c.n; b += kBlock) {
    const std::size_t nb = std::min(kBlock, c.n - b);
    position_pass(got, b, nb, kDt, px, py);
    for (std::size_t i = 0; i < nb; ++i) {
      got.x[b + i] = kGrid.wrap_x(px[i]);
      got.y[b + i] = kGrid.wrap_y(py[i]);
    }
    core::assign_keys(cache, kGrid, got, b, b + nb);
  }
  expect_same_bytes(ref.x, got.x, "x");
  expect_same_bytes(ref.y, got.y, "y");
  ASSERT_EQ(ref.key, got.key);
}

TEST_P(ParticlePasses, PositionPassMatchesAbsorbingPush) {
  const Case c = GetParam();
  ParticleArray ref = make_particles(c, 31);
  ParticleArray got = ref;
  std::vector<bool> kept(c.n);
  for (std::size_t i = 0; i < c.n; ++i)
    kept[i] = advance_position_absorb_x(kGrid, ref, i, kDt);

  double px[kBlock]{}, py[kBlock]{};
  for (std::size_t b = 0; b < c.n; b += kBlock) {
    const std::size_t nb = std::min(kBlock, c.n - b);
    position_pass(got, b, nb, kDt, px, py);
    for (std::size_t i = 0; i < nb; ++i) {
      ASSERT_EQ(kept[b + i], px[i] >= 0.0 && px[i] < kGrid.lx) << b + i;
      if (!kept[b + i]) continue;
      got.x[b + i] = px[i];
      got.y[b + i] = kGrid.wrap_y(py[i]);
    }
  }
  expect_same_bytes(ref.x, got.x, "x");
  expect_same_bytes(ref.y, got.y, "y");
}

TEST_P(ParticlePasses, StencilPassMatchesCicStencil) {
  const Case c = GetParam();
  const ParticleArray p = make_particles(c, 41);
  CicStencil st[kBlock]{};
  for (std::size_t b = 0; b < c.n; b += kBlock) {
    const std::size_t nb = std::min(kBlock, c.n - b);
    cic_pass(kGrid, p.x.data() + b, p.y.data() + b, nb, st);
    for (std::size_t i = 0; i < nb; ++i) {
      const CicStencil ref = cic_stencil(kGrid, p.x[b + i], p.y[b + i]);
      ASSERT_EQ(std::memcmp(&ref, &st[i], sizeof ref), 0) << b + i;
    }
  }
}

TEST_P(ParticlePasses, GammaPassMatchesGamma) {
  const Case c = GetParam();
  const ParticleArray p = make_particles(c, 51);
  std::vector<double> ref(c.n), got(c.n);
  for (std::size_t i = 0; i < c.n; ++i) ref[i] = p.gamma(i);
  for (std::size_t b = 0; b < c.n; b += kBlock)
    gamma_pass(p, b, std::min(kBlock, c.n - b), got.data() + b);
  expect_same_bytes(ref, got, "gamma");
}

// Particle counts around the block size: empty, one, a block less one, a
// whole block, a block plus one, and several blocks with a partial tail.
INSTANTIATE_TEST_SUITE_P(
    Counts, ParticlePasses,
    ::testing::Values(Case{0, 1}, Case{1, 1}, Case{255, 1}, Case{256, 1},
                      Case{257, 1}, Case{1000, 1}, Case{0, 3}, Case{1, 3},
                      Case{255, 3}, Case{256, 3}, Case{257, 3},
                      Case{1000, 3}),
    [](const ::testing::TestParamInfo<Case>& tp) {
      return "n" + std::to_string(tp.param.n) + "s" +
             std::to_string(tp.param.nspecies);
    });

}  // namespace
}  // namespace picpar::particles
