// Helpers for the pick-order suite: run one program under the default
// cyclic pick order (seed 0) and under permuted ones (nonzero seeds, see
// sim::Machine::set_pick_seed), and demand bit-identical RunResults.
// Doubles are compared with ==: the guarantee is that every pick order
// executes the *same* arithmetic in the *same* order per rank, not that
// the runs land within a tolerance.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>

#include "sim/comm.hpp"
#include "sim/machine.hpp"

namespace picpar::testing {

/// The permuted pick orders each fixture is compared against by default.
inline constexpr std::initializer_list<std::uint64_t> kPickSeeds = {1, 2, 3};

inline void expect_identical(const sim::RunResult& a,
                             const sim::RunResult& b) {
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const auto& x = a.ranks[r];
    const auto& y = b.ranks[r];
    EXPECT_EQ(x.rank, y.rank);
    EXPECT_EQ(x.clock, y.clock);
    for (int p = 0; p < sim::kNumPhases; ++p) {
      SCOPED_TRACE("phase " + std::to_string(p));
      const auto& pa = x.stats.phase(static_cast<sim::Phase>(p));
      const auto& pb = y.stats.phase(static_cast<sim::Phase>(p));
      EXPECT_EQ(pa.msgs_sent, pb.msgs_sent);
      EXPECT_EQ(pa.bytes_sent, pb.bytes_sent);
      EXPECT_EQ(pa.msgs_recv, pb.msgs_recv);
      EXPECT_EQ(pa.bytes_recv, pb.bytes_recv);
      EXPECT_EQ(pa.comm_seconds, pb.comm_seconds);
      EXPECT_EQ(pa.compute_seconds, pb.compute_seconds);
    }
    EXPECT_EQ(x.faults.transient_slowdowns, y.faults.transient_slowdowns);
    EXPECT_EQ(x.faults.jittered_messages, y.faults.jittered_messages);
    EXPECT_EQ(x.faults.corrupted_deliveries, y.faults.corrupted_deliveries);
    EXPECT_EQ(x.faults.duplicated_messages, y.faults.duplicated_messages);
    EXPECT_EQ(x.faults.reordered_messages, y.faults.reordered_messages);
    EXPECT_EQ(x.faults.memory_faults, y.faults.memory_faults);
    ASSERT_EQ(x.links.size(), y.links.size());
    for (std::size_t s = 0; s < x.links.size(); ++s) {
      EXPECT_EQ(x.links[s].retries, y.links[s].retries);
      EXPECT_EQ(x.links[s].dup_discards, y.links[s].dup_discards);
      EXPECT_EQ(x.links[s].corruptions_detected,
                y.links[s].corruptions_detected);
    }
  }
}

/// Run `program` on a fresh machine (identical construction via `make`)
/// under seed 0 and under each of `seeds`, and require bit-identical
/// results. Returns the seed-0 result for further assertions.
inline sim::RunResult run_under_seeds(
    const std::function<sim::Machine*()>& make,
    const std::function<void(sim::Comm&)>& program,
    std::initializer_list<std::uint64_t> seeds = kPickSeeds) {
  std::unique_ptr<sim::Machine> base_m(make());
  const sim::RunResult base = base_m->run(program);
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("pick seed " + std::to_string(seed));
    std::unique_ptr<sim::Machine> m(make());
    m->set_pick_seed(seed);
    expect_identical(base, m->run(program));
  }
  return base;
}

}  // namespace picpar::testing
