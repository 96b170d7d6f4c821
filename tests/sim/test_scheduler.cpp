// The scheduler: rank fibers (stacks, unwinding, exceptions, scale), the
// event-driven ready set and the pick seed. In builds without NDEBUG,
// Machine::pick_next also asserts on every pick that the ready set chose
// exactly the rank a full cyclic scan from the same start would have, so
// the fuzz programs below — run under both the cyclic and a permuted pick
// order — double as a differential test of the ready set.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "../pick_order/pick_order.hpp"
#include "sim/comm.hpp"
#include "sim/faults.hpp"
#include "util/rng.hpp"

namespace picpar::sim {
namespace {

/// Counts destructor runs, to prove a rank's stack was unwound.
struct UnwindCounter {
  int* n;
  ~UnwindCounter() { ++*n; }
};

/// Fill a 1 MiB local array, block on a ring exchange while it is live
/// (so every rank's big frame exists at once), then sum it back.
[[gnu::noinline]] std::uint64_t big_frame_sum(Comm& c) {
  std::array<unsigned char, std::size_t{1} << 20> buf;
  volatile unsigned char* v = buf.data();
  for (std::size_t i = 0; i < buf.size(); ++i)
    v[i] = static_cast<unsigned char>(i * 31 + static_cast<std::size_t>(c.rank()));
  const int p = c.size();
  c.send_value((c.rank() + 1) % p, 1, c.rank());
  (void)c.recv_value<int>((c.rank() + p - 1) % p, 1);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) sum += v[i];
  return sum;
}

TEST(Scheduler, EveryRankOwnsAOneMebibyteFrame) {
  const int p = 8;
  Machine m(p, CostModel::cm5());
  std::vector<std::uint64_t> got(p, 0);
  m.run([&](Comm& c) {
    got[static_cast<std::size_t>(c.rank())] = big_frame_sum(c);
  });
  for (int r = 0; r < p; ++r) {
    std::uint64_t want = 0;
    for (std::size_t i = 0; i < (std::size_t{1} << 20); ++i)
      want += static_cast<unsigned char>(i * 31 + static_cast<std::size_t>(r));
    EXPECT_EQ(got[static_cast<std::size_t>(r)], want) << "rank " << r;
  }
}

TEST(Scheduler, DeadlockUnwindsEveryParkedRankAndMachineIsReusable) {
  const int p = 6;
  Machine m(p, CostModel::cm5());
  int unwound = 0;
  try {
    m.run([&](Comm& c) {
      UnwindCounter guard{&unwound};
      // Everyone waits on its neighbour; nobody sends.
      (void)c.recv_value<int>((c.rank() + 1) % c.size(), 5);
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_EQ(e.blocked().size(), static_cast<std::size_t>(p));
  }
  EXPECT_EQ(unwound, p);

  // The same Machine (and its stacks) runs the next program normally.
  std::vector<int> from(p, -1);
  const RunResult r = m.run([&](Comm& c) {
    c.send_value((c.rank() + 1) % c.size(), 5, c.rank());
    from[static_cast<std::size_t>(c.rank())] =
        c.recv_value<int>((c.rank() + c.size() - 1) % c.size(), 5);
  });
  ASSERT_EQ(r.ranks.size(), static_cast<std::size_t>(p));
  for (int q = 0; q < p; ++q)
    EXPECT_EQ(from[static_cast<std::size_t>(q)], (q + p - 1) % p);
}

TEST(Scheduler, RankExceptionReachesRunWhileOthersUnwind) {
  const int p = 5;
  Machine m(p, CostModel::cm5());
  int unwound = 0;
  try {
    m.run([&](Comm& c) {
      UnwindCounter guard{&unwound};
      c.barrier();
      if (c.rank() == 2) throw std::runtime_error("rank 2 failed");
      // The others wait for rank 2, which will never send.
      (void)c.recv_value<int>(2, 3);
    });
    FAIL() << "expected the rank's exception";
  } catch (const DeadlockError& e) {
    FAIL() << "the deadlock hid the rank's own exception: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 2 failed");
  }
  EXPECT_EQ(unwound, p);
}

TEST(Scheduler, RanksMayBlockInsideCatchHandlers) {
  // Each rank is inside its own catch handler while it blocks, so the
  // handlers interleave; `throw;` must still rethrow the rank's own
  // exception, not whichever rank caught last.
  const int p = 4;
  Machine m(p, CostModel::cm5());
  std::vector<std::string> rethrown(p);
  m.run([&](Comm& c) {
    const std::string mine = "rank " + std::to_string(c.rank());
    try {
      throw std::runtime_error(mine);
    } catch (const std::runtime_error&) {
      c.send_value((c.rank() + 1) % p, 2, c.rank());
      (void)c.recv_value<int>((c.rank() + p - 1) % p, 2);
      c.barrier();
      try {
        throw;
      } catch (const std::runtime_error& again) {
        rethrown[static_cast<std::size_t>(c.rank())] = again.what();
      }
    }
    EXPECT_EQ(std::uncaught_exceptions(), 0);
  });
  for (int r = 0; r < p; ++r)
    EXPECT_EQ(rethrown[static_cast<std::size_t>(r)],
              "rank " + std::to_string(r));
}

TEST(Scheduler, FourThousandNinetySixRankEmptyProgram) {
  const int p = 4096;
  Machine m(p, CostModel::cm5());
  for (int pass = 0; pass < 2; ++pass) {
    const RunResult r = m.run([](Comm&) {});
    ASSERT_EQ(r.ranks.size(), static_cast<std::size_t>(p));
    EXPECT_EQ(r.makespan(), 0.0);
  }
}

/// Switch hook: exactly one rank on the CPU between two switches.
class SwitchRecorder final : public MachineObserver {
public:
  void on_run_start(int) override { switches.clear(); }
  void on_send(Message&, const SendEvent&) override {}
  void on_recv(const Message&, const RecvEvent&,
               const std::deque<Message>&) override {}
  void on_switch(int from, int to) override { switches.push_back({from, to}); }
  std::vector<std::pair<int, int>> switches;
};

TEST(Scheduler, SwitchHookChainsFromMainBackToMain) {
  Machine m(4, CostModel::cm5());
  SwitchRecorder rec;
  m.set_observer(&rec);
  m.run([](Comm& c) { (void)c.allreduce_sum(static_cast<double>(c.rank())); });
  const auto& s = rec.switches;
  ASSERT_GE(s.size(), 5u);
  EXPECT_EQ(s.front(), std::make_pair(-1, 0));
  EXPECT_EQ(s.back().second, -1);
  for (std::size_t i = 1; i < s.size(); ++i) {
    EXPECT_EQ(s[i].first, s[i - 1].second) << "switch " << i;
    EXPECT_NE(s[i].first, s[i].second) << "switch " << i;
  }
}

/// Per round: a wildcard gather to rank 0, a ring exchange and an
/// allreduce, with skewed compute so several ranks are runnable at most
/// picks and the pick order has real choices to make.
void wildcard_ring_allreduce(Comm& c) {
  const int p = c.size();
  for (int round = 0; round < 4; ++round) {
    c.charge_ops(static_cast<std::uint64_t>((c.rank() * 17 + round * 5) % 23));
    if (c.rank() == 0) {
      for (int i = 1; i < p; ++i) (void)c.recv<int>(kAnySource, 7);
    } else {
      c.send_value(0, 7, c.rank());
    }
    c.send_value((c.rank() + 1) % p, 8, round);
    (void)c.recv_value<int>((c.rank() + p - 1) % p, 8);
    (void)c.allreduce_sum(c.rank());
  }
}

// The pick seed must actually change the schedule — otherwise every
// pick-order equivalence test would compare a run with itself — while
// leaving every result alone.
TEST(Scheduler, PickSeedPermutesSwitchesButNotResults) {
  std::vector<std::vector<std::pair<int, int>>> switches;
  std::vector<RunResult> results;
  for (const std::uint64_t seed : {0ULL, 1ULL, 2ULL}) {
    Machine m(16, CostModel::cm5());
    m.set_pick_seed(seed);
    SwitchRecorder rec;
    m.set_observer(&rec);
    results.push_back(m.run(wildcard_ring_allreduce));
    switches.push_back(std::move(rec.switches));
  }
  EXPECT_NE(switches[0], switches[1]);
  EXPECT_NE(switches[0], switches[2]);
  EXPECT_NE(switches[1], switches[2]);
  picpar::testing::expect_identical(results[0], results[1]);
  picpar::testing::expect_identical(results[0], results[2]);
}

constexpr int kTag0 = 10;

/// A program mixing wildcard-source receives, clock skew
/// that keeps wildcard candidates unsafe for a while, and all_to_many.
/// Returns, per rank, the sequence of (src, value) it received, which the
/// deterministic matching fixes independently of the schedule.
std::vector<std::vector<std::pair<int, int>>> wildcard_fuzz(
    Machine& m, std::uint64_t seed, int rounds) {
  const int p = m.size();
  std::vector<std::vector<std::pair<int, int>>> log(static_cast<std::size_t>(p));
  m.run([&](Comm& c) {
    const int me = c.rank();
    auto& mine = log[static_cast<std::size_t>(me)];
    for (int round = 0; round < rounds; ++round) {
      // Every rank derives the same round plan, so receivers know their
      // expected counts without extra traffic.
      Rng plan(seed * 7919 + static_cast<std::uint64_t>(round));
      // expect[d][t]: messages rank d receives with tag kTag0 + t.
      std::vector<std::array<int, 3>> expect(static_cast<std::size_t>(p),
                                             std::array<int, 3>{});
      std::vector<std::vector<int>> dests(static_cast<std::size_t>(p));
      std::vector<double> work(static_cast<std::size_t>(p));
      for (int s = 0; s < p; ++s) {
        const auto k = plan.below(4);
        for (std::uint64_t j = 0; j < k; ++j) {
          const int d = static_cast<int>(plan.below(static_cast<std::uint64_t>(p)));
          dests[static_cast<std::size_t>(s)].push_back(d);
          ++expect[static_cast<std::size_t>(d)][j % 3];
        }
        work[static_cast<std::size_t>(s)] = plan.uniform() * 1e-3;
      }
      c.charge(work[static_cast<std::size_t>(me)]);
      int n = 0;
      for (const int d : dests[static_cast<std::size_t>(me)])
        c.send_value(d, kTag0 + (n++ % 3), me * 1000 + round);
      // Any-source receives, one tag at a time, in a fixed tag order.
      // (Never kAnyTag here: it would also match the collectives' own
      // messages from ranks already inside the all_to_many below.)
      for (const int t : {1, 0, 2}) {
        for (int j = 0; j < expect[static_cast<std::size_t>(me)]
                                  [static_cast<std::size_t>(t)];
             ++j) {
          const Message msg = c.recv_msg(kAnySource, kTag0 + t);
          int v = 0;
          std::memcpy(&v, msg.payload.data(), sizeof v);
          mine.emplace_back(msg.src, v);
        }
      }
      std::vector<std::vector<int>> out(static_cast<std::size_t>(p));
      for (int d = 0; d < p; ++d)
        if (plan.below(3) == 0)
          out[static_cast<std::size_t>(d)].push_back(me * 100 + d);
      const auto in = c.all_to_many(std::move(out));
      for (int s = 0; s < p; ++s)
        for (const int v : in[static_cast<std::size_t>(s)])
          mine.emplace_back(s, v);
    }
  });
  return log;
}

class ReadySetFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ReadySetFuzz, WildcardTrafficIsScheduleIndependent) {
  const int p = GetParam();
  Machine a(p, CostModel::cm5());
  Machine b(p, CostModel::cm5());
  b.set_pick_seed(static_cast<std::uint64_t>(p));
  const auto first = wildcard_fuzz(a, static_cast<std::uint64_t>(p), 6);
  EXPECT_EQ(first, wildcard_fuzz(b, static_cast<std::uint64_t>(p), 6));
  std::size_t received = 0;
  for (const auto& r : first) received += r.size();
  EXPECT_GT(received, static_cast<std::size_t>(p));
}

TEST_P(ReadySetFuzz, WildcardTrafficOverAFaultyFabric) {
  // Jitter reorders arrivals and duplicates exercise the dedup discards
  // find_candidate performs while the scheduler evaluates parked ranks.
  const int p = GetParam();
  FaultConfig cfg;
  cfg.seed = 0xF00D + static_cast<std::uint64_t>(p);
  cfg.latency_jitter_prob = 0.5;
  cfg.latency_jitter_max_seconds = 2e-4;
  cfg.duplicate_prob = 0.2;
  cfg.reorder_prob = 0.2;
  Machine a(p, CostModel::cm5(), cfg);
  Machine b(p, CostModel::cm5(), cfg);
  b.set_pick_seed(static_cast<std::uint64_t>(p) + 1);
  EXPECT_EQ(wildcard_fuzz(a, 3, 5), wildcard_fuzz(b, 3, 5));
}

INSTANTIATE_TEST_SUITE_P(Ranks, ReadySetFuzz, ::testing::Values(2, 3, 7, 16, 33),
                         [](const ::testing::TestParamInfo<int>& i) {
                           return "p" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace picpar::sim
