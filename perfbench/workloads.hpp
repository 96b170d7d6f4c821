// The benchmark's two workloads. Each is a fixed configuration of the
// public picpar API; the seed from the command line becomes the particle
// loadout seed, and nothing else about the inputs depends on it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pic/config.hpp"
#include "sweep/grid.hpp"

namespace perfbench {

enum class Kind { kPic, kSweep };

struct Workload {
  std::string name;
  Kind kind = Kind::kPic;
  /// kPic: the run_pic configuration. kSweep: the replay shape (one grid
  /// point of the sweep).
  picpar::pic::PicParams params;
  /// kSweep only: grid-file text and worker count.
  std::string grid_text;
  int sweep_workers = 0;
};

/// Build a workload. `toy` shrinks every size so the whole benchmark runs
/// in seconds (self-tests); the full sizes are the ones BENCHMARK.json
/// describes. Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, bool toy);

/// The sweep's job list from its grid text (parse + expand).
std::vector<picpar::sweep::GridJob> sweep_jobs(const Workload& w);

}  // namespace perfbench
