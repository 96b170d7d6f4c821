// Baseline: direct Eulerian method on grid partitioning (Gledhill & Storey,
// Section 3 of the paper).
//
// The mesh is partitioned (block or curve) and every particle lives on the
// rank that owns its cell; after each push, particles that crossed into
// another rank's subdomain migrate there. Communication is local and small
// (boundary vertices + migrants), but nothing balances the particle load:
// with an irregular distribution a few ranks hold most particles and the
// per-iteration time is set by the most loaded rank — the load-imbalance
// column of Table 1.
//
// It is run_pic's driver with the Eulerian ownership rule (simulation.cpp),
// so scenarios, solvers, faults, validation, crash recovery, tracing and
// the pick seed all apply.
#pragma once

#include "pic/config.hpp"
#include "pic/result.hpp"

namespace picpar::pic {

/// Run the Eulerian grid-partitioning baseline. The policy and partitioner
/// fields of `params` have no effect: assignment always follows the grid.
/// With iterations = 0, final_imbalance is the load imbalance of the
/// initial assignment.
PicResult run_eulerian(const PicParams& params);

}  // namespace picpar::pic
