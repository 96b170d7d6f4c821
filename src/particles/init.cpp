#include "particles/init.hpp"

#include <cmath>
#include <stdexcept>

namespace picpar::particles {

const char* distribution_name(Distribution d) {
  switch (d) {
    case Distribution::kUniform: return "uniform";
    case Distribution::kGaussian: return "gaussian";
    case Distribution::kTwoStream: return "two_stream";
    case Distribution::kRing: return "ring";
  }
  return "?";
}

Distribution parse_distribution(const std::string& name) {
  if (name == "uniform") return Distribution::kUniform;
  if (name == "gaussian" || name == "irregular") return Distribution::kGaussian;
  if (name == "two_stream") return Distribution::kTwoStream;
  if (name == "ring") return Distribution::kRing;
  throw std::invalid_argument("unknown distribution: " + name);
}

double macro_charge(const mesh::GridDesc& grid, std::uint64_t total,
                    double mass, double omega_p) {
  if (total == 0) throw std::invalid_argument("macro_charge: total == 0");
  return omega_p * std::sqrt(mass * grid.lx * grid.ly /
                             static_cast<double>(total));
}

ParticleArray generate(Distribution dist, const mesh::GridDesc& grid,
                       const InitParams& params, double charge, double mass) {
  if (params.omega_p > 0.0)
    charge = -macro_charge(grid, params.total, mass, params.omega_p);
  ParticleArray p(charge, mass);
  p.reserve(params.total);
  Rng rng(params.seed);

  const double cx = 0.5 * grid.lx;
  const double cy = 0.5 * grid.ly;
  const double sigma_x = params.sigma_fraction * grid.lx;
  const double sigma_y = params.sigma_fraction * grid.ly;

  for (std::uint64_t i = 0; i < params.total; ++i) {
    ParticleRec r;
    switch (dist) {
      case Distribution::kUniform:
        r.x = rng.uniform(0.0, grid.lx);
        r.y = rng.uniform(0.0, grid.ly);
        break;
      case Distribution::kGaussian:
        // Center-concentrated blob (the paper's "irregular" case, Fig 15);
        // wrap tails periodically so density stays integrable.
        r.x = grid.wrap_x(rng.normal(cx, sigma_x));
        r.y = grid.wrap_y(rng.normal(cy, sigma_y));
        break;
      case Distribution::kTwoStream:
        r.x = rng.uniform(0.0, grid.lx);
        r.y = rng.uniform(0.0, grid.ly);
        break;
      case Distribution::kRing: {
        const double radius = 0.25 * std::min(grid.lx, grid.ly) *
                              (1.0 + 0.2 * rng.normal());
        const double theta = rng.uniform(0.0, 2.0 * M_PI);
        r.x = grid.wrap_x(cx + radius * std::cos(theta));
        r.y = grid.wrap_y(cy + radius * std::sin(theta));
        break;
      }
    }
    r.ux = params.drift_ux + params.vth * rng.normal();
    r.uy = params.drift_uy + params.vth * rng.normal();
    r.uz = params.vth * rng.normal();
    if (dist == Distribution::kTwoStream) {
      // Counter-streaming beams split by parity.
      const double beam = (i % 2 == 0) ? 1.0 : -1.0;
      r.ux += beam * 0.2;
    }
    p.push_back(r);
  }
  return p;
}

ParticleArray block_slice(const ParticleArray& all, int rank, int nranks) {
  const auto total = static_cast<std::uint64_t>(all.size());
  const std::uint64_t b = static_cast<std::uint64_t>(rank) * total /
                          static_cast<std::uint64_t>(nranks);
  const std::uint64_t e = static_cast<std::uint64_t>(rank + 1) * total /
                          static_cast<std::uint64_t>(nranks);
  ParticleArray out(all.species());
  out.reserve(static_cast<std::size_t>(e - b));
  for (std::uint64_t i = b; i < e; ++i)
    out.push_back(all.rec(static_cast<std::size_t>(i)));
  return out;
}

}  // namespace picpar::particles
