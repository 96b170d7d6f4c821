// Large-p scaling: the machine must stay bit-identical between the cyclic
// pick order and a permuted one at 512 and 1024 simulated ranks, including
// through fail-stop crash recovery — the world sizes the sparse per-peer
// transport state exists for. Workloads are deliberately small per rank
// (the point is the rank count, not the work).
#include <gtest/gtest.h>

#include <vector>

#include "pic/simulation.hpp"
#include "pick_order.hpp"
#include "sim/comm.hpp"
#include "sim/faults.hpp"

namespace picpar {
namespace {

using sim::Comm;
using sim::CostModel;
using sim::FaultConfig;
using sim::Machine;

/// Nearest-neighbor ring plus one allreduce per round: sparse point-to-point
/// traffic with a global synchronization, the PIC loop's communication shape.
void ring_allreduce_rounds(Comm& c, int rounds) {
  const int n = c.size();
  for (int i = 0; i < rounds; ++i) {
    if (n > 1) {
      const int right = (c.rank() + 1) % n;
      const int left = (c.rank() + n - 1) % n;
      c.send(right, 11, std::vector<long>{c.rank() + i});
      (void)c.recv<long>(left, 11);
    }
    (void)c.allreduce_sum<long>(1);
  }
}

TEST(LargeP, BitIdentityAt512) {
  picpar::testing::run_under_seeds(
      [] { return new Machine(512, CostModel::cm5()); },
      [](Comm& c) { ring_allreduce_rounds(c, 3); }, {1});
}

TEST(LargeP, BitIdentityAt1024) {
  picpar::testing::run_under_seeds(
      [] { return new Machine(1024, CostModel::cm5()); },
      [](Comm& c) { ring_allreduce_rounds(c, 2); }, {1});
}

TEST(LargeP, CrashRecoveryBitIdentityAt512) {
  // One scheduled crash mid-run; survivors agree on membership and finish
  // on the shrunken group. The whole recovery trajectory — detection
  // times, purged state, post-shrink traffic — must be bit-identical
  // across pick orders.
  const auto make = [] {
    FaultConfig cfg;
    cfg.crash_schedule = {{100, 3e-4}};
    return new Machine(512, CostModel::cm5(), cfg);
  };
  const auto program = [](Comm& c) {
    int done = 0;
    for (;;) {
      try {
        while (done < 3) {
          ring_allreduce_rounds(c, 1);
          ++done;
        }
        return;
      } catch (const sim::PeerFailedError&) {
        (void)c.agree_on_membership();
        done = c.allreduce_min(done);
      }
    }
  };
  const auto run = picpar::testing::run_under_seeds(make, program, {1});
  ASSERT_EQ(run.crashes.size(), 1u);
  EXPECT_EQ(run.crashes[0].rank, 100);
}

TEST(LargeP, PicPipelineBitIdentityAt1024) {
  // Full PIC pipeline at 1024 ranks on a small mesh: ~2 cells and ~2
  // particles per rank. Physics and accounting must match exactly across
  // pick orders; per-rank memory gauges are size-based and deterministic,
  // so they are part of the comparison (via the machine reports).
  pic::PicParams p;
  p.grid = mesh::GridDesc{64, 32};
  p.nranks = 1024;
  p.init.total = 2048;
  p.iterations = 2;
  p.policy = "periodic:1";

  const auto base = pic::run_pic(p);
  p.exec.pick_seed = 1;
  const auto permuted = pic::run_pic(p);

  EXPECT_EQ(base.final_particles, permuted.final_particles);
  EXPECT_EQ(base.field_energy, permuted.field_energy);
  EXPECT_EQ(base.kinetic_energy, permuted.kinetic_energy);
  EXPECT_EQ(base.total_charge, permuted.total_charge);
  EXPECT_EQ(base.total_seconds, permuted.total_seconds);
  EXPECT_EQ(base.redistributions, permuted.redistributions);
  picpar::testing::expect_identical(base.machine, permuted.machine);
}

}  // namespace
}  // namespace picpar
