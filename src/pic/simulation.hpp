// The three parallel PIC strategies of the paper's Section 3 and Table 1,
// run by one per-rank driver (simulation.cpp):
//   * run_pic — the paper's method: direct Lagrangian particle movement
//     with independent partitioning of the particle and mesh arrays,
//     dynamic alignment via space-filling-curve indexing, and runtime
//     redistribution;
//   * run_eulerian — Gledhill & Storey's direct Eulerian method on grid
//     partitioning;
//   * run_replicated — Lubeck & Faber's direct Lagrangian method on a
//     replicated grid.
// The strategies differ only in who owns a particle and in how the field
// layer works; scenarios, solvers, faults, validation, crash recovery,
// tracing, analysis and the pick seed apply to all three.
//
// Each builds the simulated machine, runs the SPMD program on every rank
// and aggregates per-iteration records. Physics (deposition, field solve,
// push) executes numerically; time is virtual, charged through the
// two-level cost model.
#pragma once

#include <string>
#include <vector>

#include "pic/config.hpp"
#include "pic/result.hpp"

namespace picpar::pic {

/// Run the full simulation described by `params`. Deterministic for a
/// given configuration (same seeds, same schedule, same virtual clocks).
PicResult run_pic(const PicParams& params);

/// Run the Eulerian grid-partitioning baseline. The mesh is partitioned
/// (block or curve) and every particle lives on the rank that owns its
/// cell, migrating after each push. Communication is local and small, but
/// nothing balances the particle load: on an irregular distribution the
/// most loaded rank sets the iteration time (Table 1's load-imbalance
/// column). The policy and partitioner fields of `params` have no effect.
/// With iterations = 0, final_imbalance is that of the initial assignment.
PicResult run_eulerian(const PicParams& params);

/// Run the replicated-grid baseline. Every rank holds the whole mesh and
/// keeps an equal contiguous slice of the particles for good (injected
/// particles go round-robin by batch position). Sources are summed over
/// all ranks and each rank updates a chunk of the field, concatenated to
/// all: efficient on small machines, but the global operations on the full
/// mesh dominate as p grows — the paper's motivation for distributed
/// meshes. The policy and partitioner fields of `params` have no effect.
/// Throws std::invalid_argument for solver = kPoisson, which the
/// replicated field layer does not have.
PicResult run_replicated(const PicParams& params);

/// Parse a crash schedule spec "rank@vtime[,rank@vtime...]" (e.g.
/// "2@0.5,5@1.25") into fault-model crash points. Empty string => empty
/// schedule; malformed entries throw std::invalid_argument.
std::vector<sim::CrashPoint> parse_crash_schedule(const std::string& spec);

/// Fold the PICPAR_CRASH_* environment variables into a fault config:
/// PICPAR_CRASH_RANKS ("rank@vtime,..."), PICPAR_CRASH_PROB,
/// PICPAR_CRASH_MAX_T (per-rank crash probability and latest crash time),
/// PICPAR_CRASH_LEASE (failure-detection lease seconds). Unset variables
/// leave the corresponding fields untouched.
void apply_crash_env(sim::FaultConfig& cfg);

}  // namespace picpar::pic
