// Layer replay: host cost of each picpar layer at one workload's shape
// (its rank count, mesh, loadout and partitioner settings), measured by
// timing the benchmark's own calls into each module's public functions.
#pragma once

#include <cstdint>

#include "pic/config.hpp"
#include "spans.hpp"

namespace perfbench {

/// Host seconds per call, summed over all simulated ranks, unless a field
/// says otherwise.
struct ReplayCosts {
  std::uint64_t particles = 0;   ///< global particle count of the shape
  double index_cache_s = 0.0;    ///< one sfc::IndexCache build
  double grid_partition_s = 0.0; ///< one mesh::GridPartition::curve build
  double generate_s = 0.0;       ///< one global loadout
  double inject_s = 0.0;         ///< one scenario::injector_batch
  double empty_run_s = 0.0;      ///< sim::Machine::run of an empty program
  double p2p_s_per_msg = 0.0;    ///< source-pinned ring
  double wildcard_s_per_msg = 0.0;  ///< neighbour all_to_many
  double allreduce_s = 0.0;      ///< one Comm::allreduce_sum
  // Pipeline phases, bracketed by barriers with the empty-bracket cost
  // removed. Per call; the per-iteration phases run `iters` times.
  double domain_setup_s = 0.0;   ///< every rank's partition, grids, solvers
  double distribute_s = 0.0;     ///< assign_keys + initial sample sort
  double scatter_s = 0.0;        ///< deposit + GhostExchange::flush_scatter
  double maxwell_s = 0.0;        ///< MaxwellSolver::step
  double gather_s = 0.0;         ///< fetch_fields + interpolate + kick
  double push_s = 0.0;           ///< advance_position + key refresh
  double redistribute_s = 0.0;   ///< incremental redistribute after a push
};

/// Replay the layers of `shape` once, recording one span per measured call
/// group into `spans` (children of the innermost open span).
ReplayCosts run_replay(const picpar::pic::PicParams& shape, int iters,
                       Spans& spans);

}  // namespace perfbench
