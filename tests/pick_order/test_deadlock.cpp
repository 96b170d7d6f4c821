// Deadlock detection under permuted pick orders. Whether a run deadlocks,
// and the wait graph it reports, must not depend on which runnable rank
// the scheduler picks first: a rank still computing toward the send that
// unblocks everyone else is not a deadlock, whenever it gets to run. These
// fixtures seed both that false-alarm shape and real deadlocks and demand
// the same outcome (including the structured wait graph) under every seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "pick_order.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"

namespace picpar {
namespace {

using sim::BlockedInfo;
using sim::Comm;
using sim::CostModel;
using sim::DeadlockError;
using sim::Machine;

std::vector<BlockedInfo> run_expect_deadlock(
    Machine& m, const std::function<void(Comm&)>& program) {
  std::vector<BlockedInfo> blocked;
  try {
    m.run(program);
    ADD_FAILURE() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    blocked = e.blocked();
  }
  std::sort(blocked.begin(), blocked.end(),
            [](const BlockedInfo& a, const BlockedInfo& b) {
              return a.rank < b.rank;
            });
  return blocked;
}

void expect_same_wait_graph(const std::vector<BlockedInfo>& a,
                            const std::vector<BlockedInfo>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    EXPECT_EQ(a[i].rank, b[i].rank);
    EXPECT_EQ(a[i].want_src, b[i].want_src);
    EXPECT_EQ(a[i].want_tag, b[i].want_tag);
    EXPECT_EQ(a[i].mailbox_size, b[i].mailbox_size);
  }
}

TEST(ParallelDeadlock, CycleDeadlockMatchesSequential) {
  auto program = [](Comm& c) {
    // Every rank waits on its clockwise neighbor; nobody ever sends.
    (void)c.recv<int>((c.rank() + 1) % c.size(), 9);
  };
  Machine base(4, CostModel::cm5());
  const auto base_blocked = run_expect_deadlock(base, program);
  ASSERT_EQ(base_blocked.size(), 4u);

  for (const std::uint64_t seed : picpar::testing::kPickSeeds) {
    SCOPED_TRACE("pick seed " + std::to_string(seed));
    Machine permuted(4, CostModel::cm5());
    permuted.set_pick_seed(seed);
    expect_same_wait_graph(base_blocked,
                           run_expect_deadlock(permuted, program));
  }
}

TEST(ParallelDeadlock, PendingMailboxSizesSurviveIntoReport) {
  auto program = [](Comm& c) {
    // Rank 0 parks one unmatched message in rank 1's mailbox before the
    // cycle deadlocks; the wait graph must report it identically.
    if (c.rank() == 0) c.send_value(1, 8, 123);
    (void)c.recv<int>((c.rank() + 1) % c.size(), 9);
  };
  Machine base(3, CostModel::cm5());
  const auto base_blocked = run_expect_deadlock(base, program);
  ASSERT_EQ(base_blocked.size(), 3u);
  EXPECT_EQ(base_blocked[1].mailbox_size, 1u);

  Machine permuted(3, CostModel::cm5());
  permuted.set_pick_seed(1);
  expect_same_wait_graph(base_blocked, run_expect_deadlock(permuted, program));
}

// The false-alarm shape: every other rank is already blocked while one
// slow rank is still computing; its eventual send resolves the system.
TEST(ParallelDeadlock, SlowSenderIsNotADeadlock) {
  auto program = [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 200; ++i) c.charge_ops(50);
      for (int d = 1; d < c.size(); ++d) c.send_value(d, 4, d * 11);
    } else {
      EXPECT_EQ(c.recv_value<int>(0, 4), c.rank() * 11);
    }
  };
  picpar::testing::run_under_seeds(
      [] { return new Machine(6, CostModel::cm5()); }, program);
}

// Same shape, but the slow rank exits without sending: deadlock must be
// declared only after it finishes, with the surviving waiters in the
// report — under every pick order.
TEST(ParallelDeadlock, SlowFinisherStillYieldsDeadlock) {
  auto program = [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 200; ++i) c.charge_ops(50);
      return;  // never sends
    }
    (void)c.recv<int>(0, 4);
  };
  Machine base(4, CostModel::cm5());
  const auto base_blocked = run_expect_deadlock(base, program);
  ASSERT_EQ(base_blocked.size(), 3u);

  Machine permuted(4, CostModel::cm5());
  permuted.set_pick_seed(1);
  expect_same_wait_graph(base_blocked, run_expect_deadlock(permuted, program));
}

}  // namespace
}  // namespace picpar
