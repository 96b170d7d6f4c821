// The two baseline parallelizations from Section 3, checked for the
// qualitative properties Table 1 attributes to them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pic/eulerian.hpp"
#include "pic/replicated.hpp"
#include "pic/simulation.hpp"
#include "scenario/scenario.hpp"
#include "util/stats.hpp"

namespace picpar::pic {
namespace {

PicParams params(particles::Distribution dist, int nranks) {
  PicParams p;
  p.grid = mesh::GridDesc(32, 16);
  p.nranks = nranks;
  p.dist = dist;
  p.init.total = 2048;
  p.init.drift_ux = 0.1;
  p.iterations = 10;
  p.machine = sim::CostModel::cm5();
  return p;
}

TEST(Replicated, CompletesWithSamePhysicsAsMain) {
  auto p = params(particles::Distribution::kUniform, 4);
  const auto rep = run_replicated(p);
  p.policy = "static";
  const auto main = run_pic(p);
  ASSERT_EQ(rep.iters.size(), 10u);
  EXPECT_NEAR(rep.kinetic_energy, main.kinetic_energy,
              1e-6 * main.kinetic_energy);
  EXPECT_NEAR(rep.field_energy, main.field_energy,
              1e-5 * std::max(1.0, main.field_energy));
}

TEST(Replicated, GlobalOperationsDominateAtScale) {
  // Fixed problem, growing machine: the replicated baseline's overhead
  // (global sums over the full mesh) must grow with p while the
  // distributed version's per-rank mesh share shrinks.
  const auto small = run_replicated(params(particles::Distribution::kUniform, 4));
  const auto large = run_replicated(params(particles::Distribution::kUniform, 16));
  EXPECT_GT(large.overhead_seconds(), small.overhead_seconds());
}

TEST(Replicated, OverheadWorseThanIndependentPartitioning) {
  auto p = params(particles::Distribution::kUniform, 16);
  const auto rep = run_replicated(p);
  p.policy = "periodic:5";
  const auto main = run_pic(p);
  EXPECT_GT(rep.overhead_seconds(), main.overhead_seconds())
      << "replicated-grid global ops should cost more than ghost exchange";
}

TEST(Replicated, ComputeStaysBalanced) {
  // Direct Lagrangian: equal particle counts -> balanced compute.
  const auto r = run_replicated(params(particles::Distribution::kGaussian, 8));
  std::vector<double> compute;
  for (const auto& rank : r.machine.ranks)
    compute.push_back(rank.stats.total().compute_seconds);
  EXPECT_LT(imbalance(compute).factor(), 1.2);
}

/// Max/mean particles per rank right after the Eulerian assignment.
double initial_eulerian_imbalance(particles::Distribution dist) {
  auto p = params(dist, 8);
  p.iterations = 0;
  return run_eulerian(p).final_imbalance;
}

TEST(Eulerian, UniformDistributionIsRoughlyBalanced) {
  EXPECT_LT(initial_eulerian_imbalance(particles::Distribution::kUniform), 1.4);
}

TEST(Eulerian, IrregularDistributionIsSeverelyImbalanced) {
  EXPECT_GT(initial_eulerian_imbalance(particles::Distribution::kGaussian), 2.0)
      << "center-concentrated blob must overload the central ranks";
}

TEST(Eulerian, ImbalanceShowsUpInComputeTime) {
  const auto r = run_eulerian(params(particles::Distribution::kGaussian, 8));
  std::vector<double> compute;
  for (const auto& rank : r.machine.ranks)
    compute.push_back(rank.stats.total().compute_seconds);
  EXPECT_GT(imbalance(compute).factor(), 1.8);
}

TEST(Eulerian, SlowerThanLagrangianOnIrregularInput) {
  auto p = params(particles::Distribution::kGaussian, 8);
  p.iterations = 15;
  const auto eul = run_eulerian(p);
  p.policy = "periodic:5";
  const auto main = run_pic(p);
  EXPECT_GT(eul.total_seconds, main.total_seconds)
      << "load imbalance must dominate the Eulerian baseline";
}

TEST(Eulerian, ParticleCountConservedUnderMigration) {
  auto p = params(particles::Distribution::kUniform, 8);
  p.init.drift_ux = 0.3;  // strong drift => lots of migration
  p.iterations = 20;
  const auto r = run_eulerian(p);
  // kinetic_energy sums over final particles; if particles were lost the
  // energy would drop far below the main simulation's.
  p.policy = "static";
  const auto main = run_pic(p);
  EXPECT_NEAR(r.kinetic_energy, main.kinetic_energy,
              1e-5 * main.kinetic_energy);
}

TEST(Eulerian, PhysicsMatchesMainSimulation) {
  auto p = params(particles::Distribution::kUniform, 4);
  const auto eul = run_eulerian(p);
  p.policy = "periodic:3";
  const auto main = run_pic(p);
  EXPECT_NEAR(eul.kinetic_energy, main.kinetic_energy,
              1e-6 * main.kinetic_energy);
}

/// The run-wide PICPAR_CRASH_* / PICPAR_ANALYZE / PICPAR_TRACE* overrides
/// (the CI chaos job exports crash injection suite-wide) are scrubbed for
/// the tests that pin exact results, and restored afterwards.
class ScrubbedEnv {
public:
  ScrubbedEnv() {
    for (const char* k :
         {"PICPAR_CRASH_RANKS", "PICPAR_CRASH_PROB", "PICPAR_CRASH_MAX_T",
          "PICPAR_CRASH_LEASE", "PICPAR_ANALYZE", "PICPAR_TRACE",
          "PICPAR_TRACE_METRICS"}) {
      const char* v = ::getenv(k);
      saved_.emplace_back(k, v ? std::optional<std::string>(v) : std::nullopt);
      ::unsetenv(k);
    }
  }
  ~ScrubbedEnv() {
    for (const auto& [k, v] : saved_) {
      if (v)
        ::setenv(k.c_str(), v->c_str(), 1);
      else
        ::unsetenv(k.c_str());
    }
  }
  ScrubbedEnv(const ScrubbedEnv&) = delete;
  ScrubbedEnv& operator=(const ScrubbedEnv&) = delete;

private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

/// The virtual-time record of a run, doubles as hex floats: makespan,
/// compute, every iteration's exec/loop time and every rank's total sent
/// messages and bytes. Energies are deliberately left out.
std::string virtual_time_text(const PicResult& r) {
  std::string s;
  char buf[96];
  const auto put = [&](const char* fmt, auto... v) {
    std::snprintf(buf, sizeof buf, fmt, v...);
    s += buf;
  };
  put("total %a compute %a\n", r.total_seconds, r.compute_seconds);
  for (const auto& it : r.iters)
    put("iter %d exec %a loop %a\n", it.iter, it.exec_seconds,
        it.loop_seconds);
  for (const auto& rank : r.machine.ranks) {
    const auto t = rank.stats.total();
    put("rank %d msgs %llu bytes %llu\n", rank.rank,
        static_cast<unsigned long long>(t.msgs_sent),
        static_cast<unsigned long long>(t.bytes_sent));
  }
  return s;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Baselines, VirtualTimeIsPinned) {
  // Pinned from the standalone baseline drivers, before run_eulerian was
  // folded into run_pic's per-rank driver: the fold must not move either
  // baseline's modeled time or traffic by a single bit.
  const ScrubbedEnv env;
  const auto eul = run_eulerian(params(particles::Distribution::kGaussian, 8));
  const auto rep =
      run_replicated(params(particles::Distribution::kGaussian, 8));
  const std::string et = virtual_time_text(eul);
  const std::string rt = virtual_time_text(rep);
  EXPECT_EQ(fnv1a(et), 0x2c6c3bc724df61b5ull) << et;
  EXPECT_EQ(fnv1a(rt), 0x93df58cbbc59d281ull) << rt;
}

TEST(Baselines, RejectEmptyPopulations) {
  auto p = params(particles::Distribution::kUniform, 4);
  p.init.total = 0;
  EXPECT_THROW(run_replicated(p), std::invalid_argument);
  EXPECT_THROW(run_eulerian(p), std::invalid_argument);
}

TEST(Baselines, RejectNegativeIterations) {
  auto p = params(particles::Distribution::kUniform, 4);
  p.iterations = -1;
  EXPECT_THROW(run_replicated(p), std::invalid_argument);
  EXPECT_THROW(run_eulerian(p), std::invalid_argument);
}

TEST(Baselines, ReplicatedRejectsWhatItCannotHonour) {
  const auto base = params(particles::Distribution::kUniform, 4);
  auto p = base;
  p.scenario = "two_stream";
  EXPECT_THROW(run_replicated(p), std::invalid_argument);
  p = base;
  p.solver = FieldSolveKind::kPoisson;
  EXPECT_THROW(run_replicated(p), std::invalid_argument);
  p = base;
  p.faults.memory_fault_prob = 0.1;
  EXPECT_THROW(run_replicated(p), std::invalid_argument);
  p = base;
  p.faults.crash_schedule.push_back({1, 0.5});
  EXPECT_THROW(run_replicated(p), std::invalid_argument);
  p = base;
  p.validate.check_every = 1;
  EXPECT_THROW(run_replicated(p), std::invalid_argument);
  p = base;
  p.validate.checkpoint_every = 2;
  EXPECT_THROW(run_replicated(p), std::invalid_argument);
  p = base;
  p.trace.enabled = true;
  EXPECT_THROW(run_replicated(p), std::invalid_argument);
  p = base;
  p.analyze.enabled = true;
  EXPECT_THROW(run_replicated(p), std::invalid_argument);
  p = base;
  p.analyze.audit_determinism = true;
  EXPECT_THROW(run_replicated(p), std::invalid_argument);
}

TEST(Baselines, ReplicatedCountsParticles) {
  const auto r = run_replicated(params(particles::Distribution::kGaussian, 8));
  EXPECT_EQ(r.initial_particles, 2048u);
  EXPECT_EQ(r.final_particles, 2048u);
}

TEST(Eulerian, EveryScenarioConservesParticles) {
  // The Eulerian rule runs on run_pic's driver, so scenarios (injection,
  // open boundaries, multi-species, field seeds, drivers) apply to it too.
  const ScrubbedEnv env;
  for (const auto& name : scenario::scenario_names()) {
    SCOPED_TRACE(name);
    auto p = params(particles::Distribution::kUniform, 4);
    p.scenario = name;
    p.iterations = 6;
    const auto eul = run_eulerian(p);
    EXPECT_EQ(eul.initial_particles, 2048u);
    EXPECT_EQ(eul.initial_particles + eul.emitted_particles -
                  eul.absorbed_particles,
              eul.final_particles);
    p.policy = "periodic:3";
    const auto main = run_pic(p);
    EXPECT_EQ(eul.emitted_particles, main.emitted_particles);
  }
}

TEST(Eulerian, PoissonSolverActsOnTheField) {
  const ScrubbedEnv env;
  auto p = params(particles::Distribution::kGaussian, 4);
  p.solver = FieldSolveKind::kPoisson;
  const auto r = run_eulerian(p);
  EXPECT_GT(r.field_energy, 0.0);
  p.solver = FieldSolveKind::kNone;
  EXPECT_EQ(run_eulerian(p).field_energy, 0.0);
}

}  // namespace
}  // namespace picpar::pic
