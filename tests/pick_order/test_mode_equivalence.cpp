// Pick-order equivalence: a run under a permuted pick order must produce
// bit-identical results to the cyclic order — same PicResult (clocks,
// traffic, physics, happens-before fingerprint), same delivery order, same
// analyzer report — on every fixture, including runs with fault injection.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "pic/eulerian.hpp"
#include "pic/replicated.hpp"
#include "pic/result_io.hpp"
#include "pic/simulation.hpp"
#include "pick_order.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"

namespace picpar {
namespace {

using sim::Comm;
using sim::CostModel;
using sim::FaultConfig;
using sim::Machine;

void expect_pic_identical(const pic::PicResult& a, const pic::PicResult& b) {
  ASSERT_EQ(a.iters.size(), b.iters.size());
  for (std::size_t i = 0; i < a.iters.size(); ++i) {
    SCOPED_TRACE("iter " + std::to_string(i));
    const auto& x = a.iters[i];
    const auto& y = b.iters[i];
    EXPECT_EQ(x.exec_seconds, y.exec_seconds);
    EXPECT_EQ(x.loop_seconds, y.loop_seconds);
    EXPECT_EQ(x.scatter_max_sent_bytes, y.scatter_max_sent_bytes);
    EXPECT_EQ(x.scatter_max_recv_bytes, y.scatter_max_recv_bytes);
    EXPECT_EQ(x.scatter_max_sent_msgs, y.scatter_max_sent_msgs);
    EXPECT_EQ(x.scatter_max_recv_msgs, y.scatter_max_recv_msgs);
    EXPECT_EQ(x.max_ghost_entries, y.max_ghost_entries);
    EXPECT_EQ(x.redistributed, y.redistributed);
    EXPECT_EQ(x.redist_seconds, y.redist_seconds);
    EXPECT_EQ(x.redist_particles_moved, y.redist_particles_moved);
    EXPECT_EQ(x.violation_mask, y.violation_mask);
    EXPECT_EQ(x.recovered, y.recovered);
  }
  ASSERT_EQ(a.energy_history.size(), b.energy_history.size());
  for (std::size_t i = 0; i < a.energy_history.size(); ++i) {
    EXPECT_EQ(a.energy_history[i].field, b.energy_history[i].field);
    EXPECT_EQ(a.energy_history[i].kinetic, b.energy_history[i].kinetic);
  }
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.compute_seconds, b.compute_seconds);
  EXPECT_EQ(a.redistributions, b.redistributions);
  EXPECT_EQ(a.redist_seconds_total, b.redist_seconds_total);
  EXPECT_EQ(a.initial_distribution_seconds, b.initial_distribution_seconds);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.violation_iterations, b.violation_iterations);
  EXPECT_EQ(a.initial_particles, b.initial_particles);
  EXPECT_EQ(a.final_particles, b.final_particles);
  EXPECT_EQ(a.analysis_findings, b.analysis_findings);
  EXPECT_EQ(a.analysis_report, b.analysis_report);
  EXPECT_EQ(a.hb_fingerprint, b.hb_fingerprint);
  EXPECT_EQ(a.field_energy, b.field_energy);
  EXPECT_EQ(a.kinetic_energy, b.kinetic_energy);
  EXPECT_EQ(a.total_charge, b.total_charge);
  picpar::testing::expect_identical(a.machine, b.machine);
}

pic::PicParams small_pic() {
  pic::PicParams p;
  p.grid = mesh::GridDesc{32, 16};
  p.nranks = 8;
  p.init.total = 512;
  p.iterations = 4;
  p.sample_energy_every = 2;
  return p;
}

pic::PicResult run_seed(pic::PicParams p, std::uint64_t seed) {
  p.exec.pick_seed = seed;
  return pic::run_pic(p);
}

/// Run `p` under the cyclic order and under each permuted one; every
/// PicResult must match. Returns the cyclic-order result.
pic::PicResult expect_pick_order_independent(const pic::PicParams& p) {
  const auto base = run_seed(p, 0);
  for (const std::uint64_t seed : picpar::testing::kPickSeeds) {
    SCOPED_TRACE("pick seed " + std::to_string(seed));
    expect_pic_identical(base, run_seed(p, seed));
  }
  return base;
}

TEST(ModeEquivalence, PicPipelineCurvesAndPolicies) {
  for (const auto curve : {sfc::CurveKind::kHilbert, sfc::CurveKind::kSnake}) {
    for (const char* policy : {"static", "periodic:2", "sar"}) {
      SCOPED_TRACE(std::string(sfc::curve_kind_name(curve)) + "/" + policy);
      pic::PicParams p = small_pic();
      p.curve = curve;
      p.policy = policy;
      expect_pick_order_independent(p);
    }
  }
}

// The baseline drivers build their own machines; their whole serialized
// result must not depend on the pick order either.
TEST(ModeEquivalence, BaselinesAreByteIdenticalAcrossPickSeeds) {
  using Driver = pic::PicResult (*)(const pic::PicParams&);
  const std::pair<const char*, Driver> drivers[] = {
      {"eulerian", pic::run_eulerian}, {"replicated", pic::run_replicated}};
  for (const auto& [name, run] : drivers) {
    SCOPED_TRACE(name);
    pic::PicParams p = small_pic();
    p.dist = particles::Distribution::kGaussian;
    const std::string base = pic::serialize_result(run(p));
    for (const std::uint64_t seed : picpar::testing::kPickSeeds) {
      SCOPED_TRACE("pick seed " + std::to_string(seed));
      p.exec.pick_seed = seed;
      EXPECT_EQ(pic::serialize_result(run(p)), base);
    }
  }
}

TEST(ModeEquivalence, PicPipelineUnderMessageFaults) {
  pic::PicParams p = small_pic();
  p.policy = "periodic:2";
  p.faults.latency_jitter_prob = 0.3;
  p.faults.latency_jitter_max_seconds = 500e-6;
  p.faults.duplicate_prob = 0.15;
  p.faults.reorder_prob = 0.15;
  p.faults.corrupt_prob = 0.02;
  expect_pick_order_independent(p);
}

TEST(ModeEquivalence, PicPipelineWithValidationAndMemoryFaults) {
  pic::PicParams p = small_pic();
  p.policy = "sar";
  p.faults.memory_fault_prob = 0.05;
  p.validate.check_every = 1;
  p.validate.checkpoint_every = 2;
  expect_pick_order_independent(p);
}

TEST(ModeEquivalence, PicPipelineWithAnalyzerAttached) {
  pic::PicParams p = small_pic();
  p.analyze.enabled = true;
  const auto base = expect_pick_order_independent(p);
  ASSERT_GE(base.analysis_findings, 0);  // analyzer attached
  EXPECT_NE(base.hb_fingerprint, 0u);
}

// The determinism audit (two runs, fingerprint + event comparison) must
// also pass when both runs use a permuted pick order.
TEST(ModeEquivalence, DeterminismAuditPassesInParallelMode) {
  pic::PicParams p = small_pic();
  p.analyze.audit_determinism = true;
  EXPECT_EQ(run_seed(p, 1).determinism_audit, 1);
}

// Wildcard-receive stress: heavy any-source traffic whose virtual arrival
// order is scrambled by latency jitter. The receiver's observed (src, val)
// sequence — not just aggregate counters — must be identical under every
// pick order, which fails if a wildcard match is ever committed before the
// lower-bound rule proves no earlier message can still arrive.
TEST(ModeEquivalence, WildcardStressObservesIdenticalDeliverySequence) {
  constexpr int kRounds = 20;
  auto make = [] {
    FaultConfig fc;
    fc.latency_jitter_prob = 0.5;
    fc.latency_jitter_max_seconds = 2e-3;  // >> tau: scrambles arrivals
    return new Machine(8, CostModel::cm5(), fc);
  };
  auto run_one = [&](std::uint64_t seed) {
    std::vector<std::pair<int, int>> seen;
    auto program = [&seen](Comm& c) {
      const int n = c.size();
      if (c.rank() == 0) {
        for (int i = 0; i < (n - 1) * kRounds; ++i) {
          int src = -1;
          const auto v = c.recv<int>(sim::kAnySource, 1, &src);
          seen.emplace_back(src, v.at(0));
        }
      } else {
        for (int k = 0; k < kRounds; ++k) {
          c.charge_ops(static_cast<std::uint64_t>((c.rank() * 13 + k * 7) % 40));
          c.send_value(0, 1, c.rank() * 1000 + k);
        }
      }
    };
    std::unique_ptr<Machine> m(make());
    m->set_pick_seed(seed);
    const auto res = m->run(program);
    return std::make_pair(seen, res);
  };
  const auto [base_seen, base_res] = run_one(0);
  ASSERT_EQ(base_seen.size(), 7u * kRounds);
  for (const std::uint64_t seed : picpar::testing::kPickSeeds) {
    SCOPED_TRACE("pick seed " + std::to_string(seed));
    const auto [seen, res] = run_one(seed);
    EXPECT_EQ(base_seen, seen);
    picpar::testing::expect_identical(base_res, res);
  }
}

// Same stress with duplicates and reordering: transport dedup decisions
// (which copy is discarded) are part of the deterministic contract.
TEST(ModeEquivalence, WildcardStressUnderDupAndReorder) {
  auto make = [] {
    FaultConfig fc;
    fc.latency_jitter_prob = 0.4;
    fc.latency_jitter_max_seconds = 1e-3;
    fc.duplicate_prob = 0.3;
    fc.reorder_prob = 0.3;
    return new Machine(6, CostModel::cm5(), fc);
  };
  auto program = [](Comm& c) {
    const int n = c.size();
    if (c.rank() == 0) {
      std::uint64_t acc = 0;
      for (int i = 0; i < (n - 1) * 10; ++i) {
        int src = -1;
        const auto v = c.recv<int>(sim::kAnySource, 2, &src);
        acc = acc * 1099511628211ULL + static_cast<std::uint64_t>(src * 65536 + v.at(0));
      }
      // acc folds the delivery order; equality across pick orders is
      // enforced by the clock/stats comparison (delivery order drives the
      // clocks).
      EXPECT_NE(acc, 0u);
    } else {
      for (int k = 0; k < 10; ++k) {
        c.charge_ops(static_cast<std::uint64_t>((c.rank() * 29 + k * 11) % 50));
        c.send_value(0, 2, k);
      }
    }
  };
  picpar::testing::run_under_seeds(make, program);
}

// Analyzer equality on a deliberately racy program: every pick order must
// report the same findings, the same counts, and the same fingerprint.
TEST(ModeEquivalence, AnalyzerReportIsByteIdenticalAcrossModes) {
  auto racy = [](Comm& c) {
    if (c.rank() == 0) {
      (void)c.recv<int>(sim::kAnySource, 5);
      (void)c.recv<int>(sim::kAnySource, 5);
    } else {
      c.charge_ops(static_cast<std::uint64_t>(c.rank() * 3));
      c.send_value(0, 5, c.rank());
    }
  };
  auto run_one = [&](std::uint64_t seed) {
    Machine m(3, CostModel::cm5());
    analysis::Analyzer an;
    m.set_observer(&an);
    m.set_pick_seed(seed);
    (void)m.run(racy);
    return std::make_tuple(an.report(), an.total(), an.fingerprint(),
                           an.events());
  };
  const auto base = run_one(0);
  EXPECT_GT(std::get<1>(base), 0u);  // the race is actually reported
  for (const std::uint64_t seed : picpar::testing::kPickSeeds) {
    SCOPED_TRACE("pick seed " + std::to_string(seed));
    EXPECT_EQ(base, run_one(seed));
  }
}

}  // namespace
}  // namespace picpar
