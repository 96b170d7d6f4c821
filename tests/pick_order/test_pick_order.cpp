// Pick order: point-to-point matching, commit safety and stall resolution
// must give the same results whichever runnable rank the scheduler picks
// first. Each fixture runs under the cyclic order and under seeded
// permutations of it. The program-level fixtures live in
// test_mode_equivalence.cpp; this file exercises the matching rules.
#include <gtest/gtest.h>

#include <vector>

#include "pick_order.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"

namespace picpar {
namespace {

using sim::Comm;
using sim::CostModel;
using sim::Machine;
using testing::run_under_seeds;

TEST(PickOrder, RingExchangeIsOrderIndependent) {
  auto program = [](Comm& c) {
    const int n = c.size();
    const int next = (c.rank() + 1) % n;
    const int prev = (c.rank() + n - 1) % n;
    for (int round = 0; round < 5; ++round) {
      c.charge_ops(100 + static_cast<std::uint64_t>(c.rank()) * 7);
      std::vector<int> data{c.rank(), round};
      c.send(next, 10 + round, data);
      const auto got = c.recv<int>(prev, 10 + round);
      ASSERT_EQ(got.size(), 2u);
      EXPECT_EQ(got[0], prev);
      EXPECT_EQ(got[1], round);
    }
  };
  run_under_seeds([] { return new Machine(8, CostModel::cm5()); }, program);
}

TEST(PickOrder, CollectivesAreOrderIndependent) {
  auto program = [](Comm& c) {
    const int r = c.rank();
    c.charge_ops(static_cast<std::uint64_t>(r) * 31 + 5);
    const int sum = c.allreduce_sum(r + 1);
    EXPECT_EQ(sum, c.size() * (c.size() + 1) / 2);
    c.barrier();
    const auto all = c.allgather(r * r);
    ASSERT_EQ(static_cast<int>(all.size()), c.size());
    for (int i = 0; i < c.size(); ++i) EXPECT_EQ(all[i], i * i);
    std::vector<std::vector<int>> out(static_cast<std::size_t>(c.size()));
    for (int d = 0; d < c.size(); ++d)
      if ((r + d) % 3 == 0) out[static_cast<std::size_t>(d)] = {r, d};
    const auto in = c.all_to_many(std::move(out));
    for (int s = 0; s < c.size(); ++s) {
      if ((s + r) % 3 == 0) {
        ASSERT_EQ(in[static_cast<std::size_t>(s)].size(), 2u);
        EXPECT_EQ(in[static_cast<std::size_t>(s)][0], s);
      } else {
        EXPECT_TRUE(in[static_cast<std::size_t>(s)].empty());
      }
    }
  };
  run_under_seeds([] { return new Machine(12, CostModel::cm5()); }, program);
}

// Wildcard receives must deliver in virtual-arrival order, not in the
// order the scheduler happens to run the senders. Senders are given
// staggered compute delays so their messages' virtual arrivals are a
// permutation of the send order; the receiver asserts the exact
// permutation.
TEST(PickOrder, WildcardDeliversInVirtualTimeOrder) {
  // delay_units[r] for sender rank r (receiver is rank 0). Larger delay =
  // later virtual arrival even if the scheduler runs that sender first.
  const std::vector<int> delay_units = {0, 400, 100, 300, 200};
  auto program = [&](Comm& c) {
    const int n = c.size();
    if (c.rank() == 0) {
      std::vector<int> order;
      for (int i = 1; i < n; ++i) {
        int src = -1;
        (void)c.recv<int>(sim::kAnySource, 7, &src);
        order.push_back(src);
      }
      // Expected: ascending virtual arrival = ascending delay.
      EXPECT_EQ(order, (std::vector<int>{2, 4, 3, 1}));
    } else {
      c.charge_ops(static_cast<std::uint64_t>(
          delay_units[static_cast<std::size_t>(c.rank())]));
      c.send_value(0, 7, c.rank());
    }
  };
  run_under_seeds([] { return new Machine(5, CostModel::cm5()); }, program,
                  {1, 2, 3, 4, 5, 6, 7, 8});
}

// Two senders whose messages arrive at the exact same virtual time: the
// (arrival, src) tie-break must pick the lower source first in every order.
TEST(PickOrder, ArrivalTiesBreakBySourceRank) {
  auto program = [](Comm& c) {
    if (c.rank() == 0) {
      int first = -1, second = -1;
      (void)c.recv<int>(sim::kAnySource, 3, &first);
      (void)c.recv<int>(sim::kAnySource, 3, &second);
      EXPECT_EQ(first, 1);
      EXPECT_EQ(second, 2);
    } else {
      c.send_value(0, 3, c.rank());  // same clock, same size => same arrival
    }
  };
  run_under_seeds([] { return new Machine(3, CostModel::cm5()); }, program);
}

// A receive whose candidate is unsafe under the lower-bound rule (a third
// rank's clock stays below the candidate arrival) must stall until global
// quiescence, then force-commit the minimal candidate instead of
// deadlocking. Rank 2's wildcard receive sees rank 0's message, but rank 1
// is parked at clock 0 and could (for all the rule knows) still send
// something earlier — only the stall resolution can break the tie.
TEST(PickOrder, StallForceCommitsMinimalCandidate) {
  auto program = [](Comm& c) {
    switch (c.rank()) {
      case 0: {
        c.charge(1.0);  // push arrival far above rank 1's reachable bound
        c.send_value(2, 5, 42);
        const int ack = c.recv_value<int>(2, 6);
        EXPECT_EQ(ack, 42);
        break;
      }
      case 1: {
        const int ack = c.recv_value<int>(2, 6);  // parked at clock 0
        EXPECT_EQ(ack, 42);
        break;
      }
      case 2: {
        int src = -1;
        const auto v = c.recv<int>(sim::kAnySource, 5, &src);
        EXPECT_EQ(src, 0);
        c.send_value(0, 6, v[0]);
        c.send_value(1, 6, v[0]);
        break;
      }
      default:
        break;
    }
  };
  run_under_seeds([] { return new Machine(3, CostModel::cm5()); }, program);
}

// The pick stream restarts at every run, so repeated runs on one Machine
// replay the same schedule.
TEST(PickOrder, RepeatedRunsOnOneMachineStayIdentical) {
  auto program = [](Comm& c) {
    const int s = c.allreduce_sum(c.rank());
    EXPECT_EQ(s, c.size() * (c.size() - 1) / 2);
  };
  Machine m(6, CostModel::cm5());
  m.set_pick_seed(4);
  const auto first = m.run(program);
  const auto second = m.run(program);
  picpar::testing::expect_identical(first, second);

  // And going back to the cyclic order on the same machine still matches.
  m.set_pick_seed(0);
  picpar::testing::expect_identical(first, m.run(program));
}

TEST(PickOrder, RankErrorPropagates) {
  Machine m(4, CostModel::cm5());
  m.set_pick_seed(2);
  EXPECT_THROW(m.run([](Comm& c) {
    if (c.rank() == 2) throw std::runtime_error("boom");
    if (c.rank() == 3) c.send_value(2, 1, 1);  // unreceived; harmless
  }),
               std::runtime_error);
}

}  // namespace
}  // namespace picpar
