#include "pic/simulation.hpp"
#include "pic/eulerian.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "analysis/analyzer.hpp"
#include "analysis/audit.hpp"
#include "core/indexing.hpp"
#include "core/invariants.hpp"
#include "core/policy.hpp"
#include "mesh/local_grid.hpp"
#include "mesh/maxwell.hpp"
#include "mesh/poisson.hpp"
#include "particles/init.hpp"
#include "particles/interpolate.hpp"
#include "particles/pusher.hpp"
#include "scenario/scenario.hpp"
#include "sfc/index_cache.hpp"
#include "sim/comm.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/tracer.hpp"
#include "util/env.hpp"

namespace picpar::pic {

using core::GhostExchange;
using core::ParticlePartitioner;
using mesh::FieldState;
using mesh::GridPartition;
using mesh::LocalGrid;
using particles::ParticleArray;
using sim::Comm;
using sim::Phase;

GridDecomp parse_grid_decomp(const std::string& name) {
  if (name == "block") return GridDecomp::kBlock;
  if (name == "curve") return GridDecomp::kCurve;
  throw std::invalid_argument("unknown grid decomposition: " + name);
}

FieldSolveKind parse_solver(const std::string& name) {
  if (name == "maxwell") return FieldSolveKind::kMaxwell;
  if (name == "poisson") return FieldSolveKind::kPoisson;
  if (name == "none") return FieldSolveKind::kNone;
  throw std::invalid_argument("unknown solver: " + name);
}

std::vector<sim::CrashPoint> parse_crash_schedule(const std::string& spec) {
  std::vector<sim::CrashPoint> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;
    const std::size_t at = entry.find('@');
    if (at == std::string::npos || at == 0 || at + 1 >= entry.size())
      throw std::invalid_argument("crash schedule entry '" + entry +
                                  "' is not rank@vtime");
    std::size_t used = 0;
    sim::CrashPoint cp;
    cp.rank = std::stoi(entry.substr(0, at), &used);
    if (used != at)
      throw std::invalid_argument("crash schedule rank '" + entry +
                                  "' is not an integer");
    const std::string tstr = entry.substr(at + 1);
    cp.vtime = std::stod(tstr, &used);
    if (used != tstr.size())
      throw std::invalid_argument("crash schedule vtime '" + entry +
                                  "' is not a number");
    if (cp.rank < 0 || cp.vtime < 0.0)
      throw std::invalid_argument("crash schedule entry '" + entry +
                                  "' must be nonnegative");
    out.push_back(cp);
  }
  return out;
}

void apply_crash_env(sim::FaultConfig& cfg) {
  if (const char* s = std::getenv("PICPAR_CRASH_RANKS"); s && *s) {
    const auto sched = parse_crash_schedule(s);
    cfg.crash_schedule.insert(cfg.crash_schedule.end(), sched.begin(),
                              sched.end());
  }
  if (const char* s = std::getenv("PICPAR_CRASH_PROB"); s && *s)
    cfg.crash_prob = std::stod(s);
  if (const char* s = std::getenv("PICPAR_CRASH_MAX_T"); s && *s)
    cfg.crash_vtime_max = std::stod(s);
  if (const char* s = std::getenv("PICPAR_CRASH_LEASE"); s && *s)
    cfg.crash_lease_seconds = std::stod(s);
}

namespace {

/// Who owns a particle — the one thing that separates the paper's method
/// from the grid-partitioned Eulerian baseline (Table 1). Everything else
/// (domain, phases, faults, validation, recovery, tracing) is shared.
enum class Ownership {
  /// The paper: the partitioner balances particles along the curve and the
  /// policy decides when to redistribute them (run_pic).
  kAligned,
  /// Gledhill & Storey: the rank that owns the particle's cell; particles
  /// migrate to it after every push (run_eulerian).
  kEulerian,
};

/// Per-rank, per-iteration raw measurements; merged after the run.
struct LocalIter {
  double clock_end = 0.0;
  double loop_seconds_global = 0.0;
  sim::PhaseCounters scatter;  ///< this rank's scatter-phase traffic
  std::uint64_t ghost_entries = 0;
  bool redistributed = false;
  double redist_seconds_global = 0.0;
  std::uint64_t redist_sent = 0;
  std::uint32_t violation_mask = 0;
  bool recovered = false;
  bool crash_recovered = false;
  std::uint64_t injected = 0;  ///< injector particles kept by this rank
  std::uint64_t absorbed = 0;  ///< lost through an open boundary
};

struct RankOutput {
  std::vector<LocalIter> iters;
  double clock_after_init = 0.0;
  double init_seconds_global = 0.0;
  double field_energy = 0.0;
  double kinetic_energy = 0.0;
  double total_charge = 0.0;
  std::uint64_t final_particles = 0;
  int recoveries = 0;
  int crash_recoveries = 0;
  double mttr_total = 0.0;
  std::uint64_t crash_lost = 0;
  std::uint64_t crash_restored = 0;
  std::vector<EnergySample> energy;  // filled by group rank 0 only
  // Per-rank memory budget (peaks over the run), for the PICPAR_MEM_REPORT
  // CSV. Host-side only: deliberately NOT part of PicResult, so the cached
  // sweep serialization format is untouched.
  std::size_t mem_machine_bytes = 0;  ///< sparse transport tables
  std::size_t mem_exchange_bytes = 0;  ///< ghost tables + staged messages
  std::size_t mem_sort_bytes = 0;      ///< partitioner sort scratch
  std::size_t mem_peak_bytes = 0;      ///< legacy ghost+sort peak
  std::size_t transport_peers = 0;     ///< distinct peers with transport state
};

/// Everything a rank's subdomain view depends on the group size: local
/// grid, fields, solvers, partitioner, ghost tables. Rebuilt in place
/// (std::optional::emplace) whenever membership changes — the members
/// reference their siblings, so the object is never moved.
struct Domain {
  const GridPartition& part;  ///< shared by every rank of the group
  LocalGrid lg;
  FieldState f;
  mesh::MaxwellSolver maxwell;
  mesh::PoissonSolver poisson;
  std::vector<double> phi;
  ParticlePartitioner partitioner;
  GhostExchange ghosts;

  Domain(const PicParams& params, const GridPartition& part_,
         const sfc::Curve& curve, double dt, int grank)
      : part(part_),
        lg(part, grank),
        f(lg),
        maxwell(lg, dt),
        poisson(lg),
        phi(lg.make_field()),
        partitioner(curve, part.grid(), params.partitioner),
        ghosts(lg, params.dedup) {}

  /// Eulerian owner of a position: the rank that owns its cell.
  int cell_owner(double x, double y) const {
    return part.owner(part.grid().cell_of(x, y));
  }
};

/// One subdomain's particles in the shared checkpoint store. `valid` is the
/// torn-write seal: it is cleared before the shard contents are rewritten
/// and set only after the write (and its charged virtual time) completed,
/// so a rank that crashes mid-checkpoint leaves a shard the loader rejects.
struct CkptShard {
  int owner_world = -1;
  bool valid = false;
  std::vector<particles::ParticleRec> recs;
};

struct CkptBuffer {
  int seq = -2;   ///< checkpoint sequence number (-2 = never used)
  int iter = -1;  ///< iteration after which it was taken (-1 = baseline)
  int nshards = 0;
  std::vector<CkptShard> shards;  ///< indexed by group rank at take time
};

/// Host-shared, subdomain-addressed particle checkpoints (stands in for
/// shared stable storage). Double-buffered by sequence parity so a write in
/// progress never clobbers the last committed checkpoint. The commit record
/// is collective: a checkpoint counts as committed only once the barrier
/// after the shard seals completes — otherwise survivors could agree on a
/// sequence number whose crashed writer left a missing or torn shard.
struct CheckpointStore {
  int committed_seq = -1;
  CkptBuffer buf[2];
};

/// One bit flipped in one random field of one random particle — the host
/// memory corruption the transport checksums cannot see. Drawn from the
/// fault model's per-rank stream so runs stay reproducible.
void inject_memory_fault(sim::FaultModel& fm, int rank, ParticleArray& p) {
  if (p.empty()) return;
  const auto i = static_cast<std::size_t>(fm.draw_below(rank, p.size()));
  const auto field = fm.draw_below(rank, 6);
  double* fields[5] = {&p.x[i], &p.y[i], &p.ux[i], &p.uy[i], &p.uz[i]};
  if (field < 5) {
    auto* target = reinterpret_cast<std::byte*>(fields[field]);
    fm.flip_random_bit(rank, target, sizeof(double));
  } else {
    auto* target = reinterpret_cast<std::byte*>(&p.key[i]);
    fm.flip_random_bit(rank, target, sizeof(std::uint64_t));
  }
}

/// Last-resort repair when a violation is detected but rollback is
/// unavailable (no checkpoint, or the recovery budget is spent): clamp the
/// state back to validity so the run degrades instead of feeding corrupt
/// positions into the next scatter (whose float-to-int casts assume a
/// wrapped domain). Momenta are zeroed only when non-finite; positions are
/// re-wrapped, with values too large to wrap meaningfully reset to origin.
void scrub_particles(const sfc::IndexCache& keys, const mesh::GridDesc& grid,
                     ParticleArray& p) {
  const std::uint64_t stride = p.key_stride();
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (!std::isfinite(p.ux[i])) p.ux[i] = 0.0;
    if (!std::isfinite(p.uy[i])) p.uy[i] = 0.0;
    if (!std::isfinite(p.uz[i])) p.uz[i] = 0.0;
    double x = p.x[i], y = p.y[i];
    if (!std::isfinite(x) || std::abs(x) > 64.0 * grid.lx) x = 0.0;
    if (!std::isfinite(y) || std::abs(y) > 64.0 * grid.ly) y = 0.0;
    p.x[i] = grid.wrap_x(x);
    p.y[i] = grid.wrap_y(y);
    // Preserve the species-in-key low bits; a corrupted key may carry a
    // bogus species, which the modulo wraps back into range.
    p.key[i] = stride == 1
                   ? core::key_of(keys, grid, p.x[i], p.y[i])
                   : core::encode_key(keys, grid, p.x[i], p.y[i], stride,
                                      p.key[i] % stride);
  }
}

/// Fail-stop crash configuration: params plus the PICPAR_CRASH_* overrides.
/// Env entries aimed at ranks this run does not have are dropped so one
/// schedule can serve sweeps over different rank counts.
sim::FaultConfig crash_faults(const PicParams& params) {
  sim::FaultConfig faults = params.faults;
  apply_crash_env(faults);
  std::erase_if(faults.crash_schedule, [&](const sim::CrashPoint& cp) {
    return cp.rank >= params.nranks;
  });
  return faults;
}

/// Per-cell stencil-destination memo (DESIGN.md §10): particles are kept
/// sorted along the curve, so consecutive particles usually share a cell.
/// The four vertex destinations (owned local index or ghost slot index) are
/// resolved once per cell run instead of per particle. Slot *indices* are
/// memoized, not pointers — the ghost table reallocates as it grows.
/// Identical lookup order on first touch keeps the ghost entry order, and
/// therefore all messages, byte-identical.
struct VertexMemo {
  std::uint64_t cell = ~std::uint64_t{0};
  bool owned[4] = {false, false, false, false};
  std::uint32_t idx[4] = {0, 0, 0, 0};

  /// `ghost_slot(gid)` gives the slot index of a vertex this rank does not
  /// own; it is called only on a cell change, in vertex order.
  template <class GhostSlot>
  void resolve(const LocalGrid& lg, const particles::CicStencil& st,
               GhostSlot&& ghost_slot) {
    if (st.node[0] == cell) return;
    cell = st.node[0];
    for (int k = 0; k < 4; ++k) {
      const auto l = lg.local_of(st.node[k]);
      owned[k] = l != mesh::kNoLocal && l < lg.owned();
      idx[k] = owned[k] ? l : ghost_slot(st.node[k]);
    }
  }
};

/// Immutable run setup plus the host-side state the ranks accumulate into.
struct Run {
  const PicParams& params;
  Ownership rule;
  const mesh::GridDesc& grid = params.grid;
  std::unique_ptr<sfc::Curve> curve =
      sfc::make_curve(params.curve, grid.nx, grid.ny);
  // Cell -> curve-index table, evaluated once and shared read-only by all
  // ranks; replaces per-particle curve evaluations on the push and scrub
  // paths (DESIGN.md §10).
  sfc::IndexCache key_cache{*curve, grid.nx, grid.ny};
  // Scenario resolution: empty name keeps the legacy path (dist-selected
  // loadout, every hook disabled — byte-identical to builds without the
  // scenario subsystem). Unknown names throw before any work happens.
  const scenario::Scenario* sc =
      params.scenario.empty() ? nullptr
                              : &scenario::get_scenario(params.scenario);
  bool inject_on = sc != nullptr && sc->injector.enabled;
  bool absorb_x = sc != nullptr && sc->boundary == scenario::Boundary::kAbsorbX;
  bool driver_on = sc != nullptr && sc->driver.enabled;
  bool seed_on = sc != nullptr && sc->field_seed.enabled;
  /// The global population; every rank derives its particles from it.
  ParticleArray global = sc != nullptr
                             ? sc->loadout(grid, params.init)
                             : particles::generate(params.dist, grid,
                                                   params.init);
  double dt = params.dt > 0.0 ? params.dt : mesh::MaxwellSolver::max_dt(grid);
  sim::FaultConfig faults = crash_faults(params);
  bool crash_mode = faults.any_crash_faults();

  std::vector<RankOutput> outputs{static_cast<std::size_t>(params.nranks)};
  CheckpointStore store{};
  std::map<int, GridPartition> parts{};

  /// The grid partition for a group of p ranks, built on first use (a
  /// recovery shrink adds one entry) and shared read-only by the group's
  /// LocalGrids. Ranks are fibers on one host thread, so no lock.
  const GridPartition& partition(int p) {
    auto it = parts.find(p);
    if (it == parts.end())
      it = parts
               .emplace(p, params.grid_decomp == GridDecomp::kBlock
                               ? GridPartition::block_auto(grid, p)
                               : GridPartition::curve(grid, p, *curve))
               .first;
    return it->second;
  }
};

/// One rank's SPMD program. refresh() rebuilds the group-dependent state,
/// place() puts particles on the ranks the ownership rule names, step()
/// runs one inject → scatter → solve → gather → push → decide iteration;
/// crash recovery (operator()) and invariant rollback (validate()) wrap the
/// step loop.
struct RankDriver {
  Run& run;
  Comm& c;
  const PicParams& params = run.params;
  const mesh::GridDesc& grid = run.grid;
  const ValidationParams& vp = params.validate;
  // The world rank is this rank's permanent identity: it indexes host
  // outputs and the fault streams. c.rank()/c.size() are group coordinates
  // that shrink after a recovery, so they are re-read after every
  // membership change instead of being cached up front.
  const int world = c.world_rank();
  RankOutput& out = run.outputs[static_cast<std::size_t>(world)];

  core::InvariantChecker checker{*run.curve, grid, vp.invariants};
  std::optional<Domain> dom{};
  std::unique_ptr<core::RedistributionPolicy> policy{};
  ParticleArray mine{run.global.species()};
  ParticleArray ckpt{run.global.species()};
  bool ckpt_valid = false;
  int ckpt_seq = -1;  ///< last committed sequence this rank knows about
  int energy_owner_world = 0;  ///< world rank of the current group rank 0
  double pending_crash_vtime = std::numeric_limits<double>::infinity();
  bool just_recovered = false;
  // Per-subsystem peaks behind the mem.* budget breakdown (transport tables
  // inside the machine, ghost-exchange tables, sort scratch): deterministic
  // functions of the rank's history, so the marks and the per-rank CSV
  // they feed are pick-order independent. Published by finish() only, so
  // a crashed rank reports zeros.
  std::size_t mem_peak = 0, mem_machine = 0, mem_exchange = 0, mem_sort = 0;

  /// Rebuild the domain for the current group, the scenario's field seed
  /// and a fresh policy.
  void refresh() {
    dom.emplace(params, run.partition(c.size()), *run.curve, run.dt,
                c.rank());
    if (run.seed_on)
      scenario::apply_field_seed(run.sc->field_seed, grid, dom->lg, dom->f);
    policy = core::make_policy(params.policy);
  }

  /// Eulerian placement: particles whose cell another rank owns move to
  /// that rank (swap_remove out, all_to_many, appended on arrival).
  void migrate() {
    const int rank = c.rank();
    std::vector<std::vector<particles::ParticleRec>> leaving(
        static_cast<std::size_t>(c.size()));
    for (std::size_t i = 0; i < mine.size();) {
      const int o = dom->cell_owner(mine.x[i], mine.y[i]);
      if (o != rank) {
        leaving[static_cast<std::size_t>(o)].push_back(mine.rec(i));
        mine.swap_remove(i);
      } else {
        ++i;
      }
    }
    for (const auto& buf : c.all_to_many(std::move(leaving)))
      for (const auto& r : buf) mine.push_back(r);
  }

  /// Put `mine` on the ranks the ownership rule names: a full sample sort
  /// and balance (aligned), or a migration to the cell owners (Eulerian).
  void place() {
    if (run.rule == Ownership::kEulerian) {
      migrate();
      return;
    }
    dom->partitioner.assign_keys(c, mine);
    dom->partitioner.distribute(c, mine);
  }

  /// Re-anchor the conservation reference to the current global count.
  void reanchor() {
    checker.set_reference_count(c.allreduce_sum<std::uint64_t>(
        static_cast<std::uint64_t>(mine.size())));
  }

  // Take a checkpoint of `mine` as of completed iteration `iter_done`
  // (-1 = post-init baseline). The in-memory copy serves single-rank
  // violation rollback exactly as before crash support existed; the
  // shared-store shard write (crash mode only) additionally makes the
  // subdomain restorable by any survivor.
  void take_checkpoint(int iter_done) {
    ckpt = mine;
    ckpt_valid = true;
    c.charge_ops(static_cast<std::uint64_t>(
        static_cast<double>(mine.size()) * vp.checkpoint_ops_per_particle));
    if (!run.crash_mode) return;
    const int seq = ckpt_seq + 1;
    const int p = c.size();
    const int grank = c.rank();
    auto& store = run.store;
    auto& b = store.buf[seq & 1];
    if (b.seq != seq) {
      b.seq = seq;
      b.iter = iter_done;
      b.nshards = p;
      b.shards.assign(static_cast<std::size_t>(p), CkptShard{});
    }
    auto& sh = b.shards[static_cast<std::size_t>(grank)];
    sh.valid = false;
    sh.owner_world = world;
    sh.recs.clear();
    sh.recs.reserve(mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i)
      sh.recs.push_back(mine.rec(i));
    // Serialization cost — and a fail-stop point: a crash here leaves the
    // shard unsealed (valid == false), the torn write the loader rejects.
    c.charge_ops(static_cast<std::uint64_t>(mine.size()));
    store.buf[seq & 1].shards[static_cast<std::size_t>(grank)].valid = true;
    // Commit is collective. Without this barrier, survivors could all be
    // past their own seals while the crashed rank was still mid-write:
    // they would agree on `seq` as restorable even though one shard is
    // torn. Completing the barrier proves every shard was sealed first.
    c.barrier();
    if (store.committed_seq < seq) store.committed_seq = seq;
    ckpt_seq = seq;
  }

  // (Re)initialize the domain for the current group and set up the initial
  // population. Runs at start and again if a crash precedes the first
  // committed checkpoint.
  void init() {
    const int rank = c.rank();
    refresh();
    out.iters.clear();

    if (run.rule == Ownership::kEulerian) {
      // Every rank filters the global population for the particles whose
      // cell it owns: deterministic, already placed, no communication.
      mine.clear();
      for (std::size_t i = 0; i < run.global.size(); ++i)
        if (dom->cell_owner(run.global.x[i], run.global.y[i]) == rank)
          mine.push_back(run.global.rec(i));
      core::assign_keys(run.key_cache, grid, mine);
    } else {
      // Equal contiguous slices, then the initial distribution (full
      // sample sort + balance).
      mine = particles::block_slice(run.global, rank, c.size());
      c.set_phase(Phase::kRedistribute);
      const double t0 = c.clock();
      place();
      c.set_phase(Phase::kOther);
      out.init_seconds_global = c.allreduce_max(c.clock() - t0);
      policy->notify_redistribution(-1, out.init_seconds_global);
    }
    out.clock_after_init = c.clock();
    if (rank == 0) c.mark(trace::kMarkInit, -1, out.init_seconds_global);

    if (vp.check_every > 0) reanchor();
    ckpt_valid = false;
    // Baseline checkpoint: the freshly placed initial state. Crash mode
    // always keeps one so a failure is never unrecoverable.
    if (vp.checkpoint_every > 0 || run.crash_mode) take_checkpoint(-1);
  }

  // Shrink-to-survivors recovery after a PeerFailedError. Returns the
  // iteration to resume at, or -1 when no committed checkpoint exists and
  // the caller must re-run init() on the shrunken group.
  int recover() {
    c.set_phase(Phase::kRedistribute);
    const sim::MembershipView view = c.agree_on_membership();
    for (const auto& cr : view.failed)
      pending_crash_vtime = std::min(pending_crash_vtime, cr.vtime);
    const int rank = c.rank();
    const int p = c.size();

    // Survivors threw from different program points; align the shared
    // recovery counters before using them.
    const CheckpointStore& store = run.store;
    out.recoveries = c.allreduce_max(out.recoveries);
    int rseq = store.committed_seq;
    int rit = rseq >= 0 ? store.buf[rseq & 1].iter : -1;
    rseq = c.allreduce_min(rseq);
    rit = c.allreduce_min(rit);
    ckpt_seq = rseq;

    refresh();
    ckpt_valid = false;
    energy_owner_world = view.survivors.empty() ? world : view.survivors[0];

    // Time to repair: from the earliest crash to the slowest survivor.
    const auto settle = [&] {
      const double mttr = c.allreduce_max(c.clock()) - pending_crash_vtime;
      pending_crash_vtime = std::numeric_limits<double>::infinity();
      ++out.crash_recoveries;
      out.mttr_total += mttr;
      return mttr;
    };
    if (rseq < 0) {
      // Crash before the first committed checkpoint: restart from the
      // initial conditions on the shrunken group. Nothing is restored —
      // the initial population is regenerated deterministically.
      out.energy.clear();
      const double mttr = settle();
      if (rank == 0) c.mark(trace::kMarkCrashRecovered, 0, mttr);
      c.set_phase(Phase::kOther);
      just_recovered = true;
      return -1;
    }

    // Reload every committed shard round-robin across survivors. Shards
    // are addressed by subdomain, not by rank: a dead owner's particles
    // are restored by whichever survivor the round-robin assigns them to.
    std::uint64_t lost = 0;
    mine.clear();
    {
      const auto& b = store.buf[rseq & 1];
      for (int s = 0; s < b.nshards; ++s) {
        const auto& sh = b.shards[static_cast<std::size_t>(s)];
        if (!sh.valid)
          throw std::runtime_error(
              "checkpoint: committed shard is torn (seq " +
              std::to_string(rseq) + ", subdomain " + std::to_string(s) +
              ")");
        if (!std::binary_search(view.survivors.begin(), view.survivors.end(),
                                sh.owner_world))
          lost += static_cast<std::uint64_t>(sh.recs.size());
        if (s % p == rank) {
          mine.reserve(mine.size() + sh.recs.size());
          for (const auto& r : sh.recs) mine.push_back(r);
        }
      }
    }
    c.charge_ops(static_cast<std::uint64_t>(
        static_cast<double>(mine.size()) * vp.checkpoint_ops_per_particle));

    // Re-place the restored population over the surviving group.
    place();
    if (vp.check_every > 0) reanchor();

    // Iterations after the checkpoint are re-run: truncate this rank's
    // history back to the restore point.
    const int resume = rit + 1;
    if (out.iters.size() > static_cast<std::size_t>(resume))
      out.iters.resize(static_cast<std::size_t>(resume));
    if (rank == 0) {
      // Energy-history ownership follows group rank 0. If the previous
      // owner died, adopt its (completed, pre-checkpoint) samples — it is
      // done, so its output is stable and safe to read.
      if (energy_owner_world != world && out.energy.empty())
        out.energy =
            run.outputs[static_cast<std::size_t>(energy_owner_world)].energy;
      while (!out.energy.empty() && out.energy.back().iter > rit)
        out.energy.pop_back();
    } else {
      out.energy.clear();
    }
    energy_owner_world = view.survivors[0];

    const double mttr = settle();
    out.crash_lost += lost;
    out.crash_restored += lost;
    if (rank == 0) {
      c.mark(trace::kMarkCrashRecovered, resume, mttr);
      c.mark(trace::kMarkCrashLost, resume, static_cast<double>(lost));
      c.mark(trace::kMarkCrashRestored, resume, static_cast<double>(lost));
    }
    c.set_phase(Phase::kOther);
    // Fresh post-recovery baseline so a later crash cannot rewind past
    // this membership change.
    take_checkpoint(rit);
    just_recovered = true;
    return resume;
  }

  // Every rank derives the identical injector batch from (seed, iteration)
  // — no communication — and keeps the particles it owns: the partition
  // range holding the key (aligned) or the particle's cell (Eulerian).
  // Appending unsorted is fine: the array legitimately unsorts between
  // redistributions as the push updates keys in place.
  void inject(int iter, LocalIter& rec) {
    const int rank = c.rank();
    const auto batch =
        scenario::injector_batch(*run.sc, grid, params.init, iter);
    const std::uint64_t stride = mine.key_stride();
    for (const auto& src : batch) {
      auto r = src;
      r.key = stride == 1 ? core::key_of(run.key_cache, grid, r.x, r.y)
                          : core::encode_key(run.key_cache, grid, r.x, r.y,
                                             stride, r.key);
      const int owner = run.rule == Ownership::kEulerian
                            ? dom->cell_owner(r.x, r.y)
                            : dom->partitioner.owner_of(r.key);
      if (owner == rank) {
        mine.push_back(r);
        ++rec.injected;
      }
    }
    c.charge_ops(batch.size());
    // The emitted count is globally known (= batch size), so the
    // conservation reference grows without a collective.
    if (vp.check_every > 0)
      checker.set_reference_count(checker.reference_count() + batch.size());
  }

  LocalIter step(int iter) {
    const bool multi = mine.nspecies() > 1;
    const double dt = run.dt;
    const double delta = params.machine.delta;
    const PhaseCosts& pc = params.costs;
    LocalGrid& lg = dom->lg;
    FieldState& f = dom->f;
    GhostExchange& ghosts = dom->ghosts;

    LocalIter rec;
    rec.crash_recovered = just_recovered;
    just_recovered = false;
    const double t_iter_start = c.clock();

    // ---- Boundary injection ----
    if (run.inject_on) inject(iter, rec);

    // ---- Scatter phase ----
    c.set_phase(Phase::kScatter);
    const auto stats_before = c.stats();
    ghosts.begin_iteration();
    f.clear_sources();
    const std::size_t n = mine.size();
    // The particle loops run as passes over blocks of kBlock particles
    // (DESIGN.md §10, "Particle passes"): branch-free arithmetic in tight
    // loops, order-sensitive work in one scalar loop per block in particle
    // order. Scratch lives on this stack frame.
    constexpr std::size_t kBlock = particles::kBlock;
    const double inv_cell = 1.0 / (grid.dx() * grid.dy());
    particles::CicStencil st[kBlock]{};
    double qv[kBlock]{}, jx[kBlock]{}, jy[kBlock]{}, jz[kBlock]{};
    VertexMemo memo;
    for (std::size_t b = 0; b < n; b += kBlock) {
      const std::size_t nb = std::min(kBlock, n - b);
      particles::cic_pass(grid, mine.x.data() + b, mine.y.data() + b, nb, st);
      particles::current_pass(mine, b, nb, inv_cell, qv, jx, jy, jz);
      for (std::size_t i = 0; i < nb; ++i) {
        memo.resolve(lg, st[i], [&](std::uint64_t gid) {
          return ghosts.deposit_slot_index(gid);
        });
        for (int k = 0; k < 4; ++k) {
          const double w = st[i].weight[k];
          if (memo.owned[k]) {
            const auto l = memo.idx[k];
            f.jx[l] += w * jx[i];
            f.jy[l] += w * jy[i];
            f.jz[l] += w * jz[i];
            f.rho[l] += w * qv[i];
          } else {
            double* slot = ghosts.deposit_data(memo.idx[k]);
            slot[0] += w * jx[i];
            slot[1] += w * jy[i];
            slot[2] += w * jz[i];
            slot[3] += w * qv[i];
          }
        }
      }
    }
    c.charge(static_cast<double>(4 * n) * pc.scatter_per_vertex * delta);
    rec.ghost_entries = ghosts.entries();
    c.mark(trace::kMarkGhostEntries, iter,
           static_cast<double>(rec.ghost_entries));
    ghosts.flush_scatter(c, f);
    rec.scatter = c.stats().diff(stats_before).phase(Phase::kScatter);

    // ---- Field solve phase ----
    c.set_phase(Phase::kFieldSolve);
    switch (params.solver) {
      case FieldSolveKind::kMaxwell:
        dom->maxwell.step(c, f);
        c.charge(static_cast<double>(lg.owned()) * pc.field_per_node * delta);
        break;
      case FieldSolveKind::kPoisson: {
        const auto pr = dom->poisson.solve(c, f.rho, dom->phi);
        dom->poisson.gradient(dom->phi, f.ex, f.ey);
        c.charge(static_cast<double>(lg.owned()) * 0.25 * pc.field_per_node *
                 delta * static_cast<double>(pr.iterations) / 10.0);
        break;
      }
      case FieldSolveKind::kNone:
        break;
    }

    // ---- Gather phase ----
    c.set_phase(Phase::kGather);
    ghosts.fetch_fields(c, f);
    // Same per-cell memo as the scatter loop; positions are unchanged
    // since scatter, so every vertex is either owned or already has a
    // ghost slot from the deposit pass. The stencil is recomputed rather
    // than kept from scatter: keeping it would cost 64 B per particle of
    // memory across the field exchange.
    memo = VertexMemo{};
    {
      const double qmdt2_all =
          particles::boris_qmdt2(mine.charge(), mine.mass(), dt);
      const double t_drive = static_cast<double>(iter) * dt;
      particles::FieldBlock fb{};
      double qmdt2[kBlock]{};
      for (std::size_t b = 0; b < n; b += kBlock) {
        const std::size_t nb = std::min(kBlock, n - b);
        particles::cic_pass(grid, mine.x.data() + b, mine.y.data() + b, nb,
                            st);
        for (std::size_t i = 0; i < nb; ++i) {
          memo.resolve(lg, st[i],
                       [&](std::uint64_t gid) { return ghosts.slot_of(gid); });
          // picpar-lint: allow(float-reduction-order) fixed 4-point stencil
          particles::LocalFields lf;
          for (int k = 0; k < 4; ++k) {
            const double w = st[i].weight[k];
            if (memo.owned[k]) {
              const auto l = memo.idx[k];
              lf.ex += w * f.ex[l];
              lf.ey += w * f.ey[l];
              lf.ez += w * f.ez[l];
              lf.bx += w * f.bx[l];
              lf.by += w * f.by[l];
              lf.bz += w * f.bz[l];
            } else {
              const double* s = ghosts.field_data(memo.idx[k]);
              lf.ex += w * s[0];
              lf.ey += w * s[1];
              lf.ez += w * s[2];
              lf.bx += w * s[3];
              lf.by += w * s[4];
              lf.bz += w * s[5];
            }
          }
          // Scenario driver: analytic E contribution, a pure function of
          // (virtual time, position). Branch-gated so legacy runs never
          // touch the interpolated values (even += 0.0 could flip a -0.0).
          if (run.driver_on) {
            const auto dv = scenario::driver_field(
                run.sc->driver, grid, t_drive, mine.x[b + i], mine.y[b + i]);
            lf.ex += dv.ex;
            lf.ey += dv.ey;
          }
          fb.set(i, lf);
          qmdt2[i] = multi ? particles::boris_qmdt2(mine.charge_of(b + i),
                                                    mine.mass_of(b + i), dt)
                           : qmdt2_all;
        }
        particles::kick_pass(mine, b, nb, qmdt2, fb);
      }
    }
    c.charge(static_cast<double>(4 * n) * pc.gather_per_vertex * delta);

    // ---- Push phase ----
    c.set_phase(Phase::kPush);
    {
      // Absorbed particles are compacted out with a write index,
      // preserving the relative order of the survivors (swap_remove would
      // scramble the curve order the incremental sort relies on). Writes
      // land at or below the particle being read, and a block's positions
      // are read by its position pass before any of its writes.
      const bool absorb_x = run.absorb_x;
      double px[kBlock]{}, py[kBlock]{};
      std::size_t w = 0;
      for (std::size_t b = 0; b < n; b += kBlock) {
        const std::size_t nb = std::min(kBlock, n - b);
        particles::position_pass(mine, b, nb, dt, px, py);
        const std::size_t w0 = w;
        for (std::size_t i = 0; i < nb; ++i) {
          if (absorb_x && (px[i] < 0.0 || px[i] >= grid.lx)) {
            ++rec.absorbed;
            continue;
          }
          mine.x[w] = absorb_x ? px[i] : grid.wrap_x(px[i]);
          mine.y[w] = grid.wrap_y(py[i]);
          if (const std::size_t r = b + i; w != r) {
            mine.ux[w] = mine.ux[r];
            mine.uy[w] = mine.uy[r];
            mine.uz[w] = mine.uz[r];
            mine.key[w] = mine.key[r];
          }
          ++w;
        }
        core::assign_keys(run.key_cache, grid, mine, w0, w);
      }
      if (w != n) mine.truncate(w);
    }
    c.charge(static_cast<double>(n) * pc.push_per_particle * delta);
    // Eulerian ownership follows the cell: migrate before anything can
    // corrupt a position (a memory fault below).
    if (run.rule == Ownership::kEulerian) migrate();
    // Absorption shrinks the conservation reference; the lost count is
    // agreed collectively (scenario runs only — the legacy path never
    // executes this).
    if (run.absorb_x && vp.check_every > 0) {
      const auto lost = c.allreduce_sum<std::uint64_t>(rec.absorbed);
      checker.set_reference_count(checker.reference_count() - lost);
    }

    // Host-memory corruption the transport checksums cannot see: flip a
    // bit in local particle state. Detection is the checker's job. Fault
    // streams are keyed by world rank — a rank keeps its stream identity
    // across membership changes.
    if (params.faults.memory_fault_prob > 0.0) {
      auto& fm = c.fault_model();
      if (fm.should_memory_fault(world)) inject_memory_fault(fm, world, mine);
    }

    // ---- Iteration timing and redistribution decision ----
    c.set_phase(Phase::kOther);
    if (run.rule == Ownership::kAligned) decide(iter, t_iter_start, rec);
    return rec;
  }

  /// Agree on the loop time and let the policy decide whether to
  /// redistribute (aligned ownership; Eulerian particles already moved).
  void decide(int iter, double t_iter_start, LocalIter& rec) {
    const int rank = c.rank();
    rec.loop_seconds_global = c.allreduce_max(c.clock() - t_iter_start);
    if (!policy->should_redistribute(iter, rec.loop_seconds_global)) return;
    if (rank == 0)
      c.mark(trace::kMarkRedistDecision, iter, rec.loop_seconds_global);
    c.set_phase(Phase::kRedistribute);
    const double tr = c.clock();
    const auto rrep = dom->partitioner.redistribute(c, mine);
    c.set_phase(Phase::kOther);
    rec.redist_seconds_global = c.allreduce_max(c.clock() - tr);
    policy->notify_redistribution(iter, rec.redist_seconds_global);
    rec.redistributed = true;
    rec.redist_sent = rrep.sent_particles;
    c.mark(trace::kMarkRedistSent, iter,
           static_cast<double>(rrep.sent_particles));
    if (rank == 0)
      c.mark(trace::kMarkRedistDone, iter, rec.redist_seconds_global);
  }

  /// Invariant check, rollback or scrub, and checkpoint refresh.
  void validate(int iter, LocalIter& rec) {
    const int rank = c.rank();
    bool checked_bad = false;
    if (vp.check_every > 0 && (iter + 1) % vp.check_every == 0) {
      double local_energy = -1.0;
      if (vp.invariants.energy_factor > 0.0)
        local_energy = dom->f.energy(dom->lg) + mine.kinetic_energy();
      const auto report = checker.check(
          c, mine, iter,
          rec.redistributed ? &dom->partitioner.rank_upper_bounds() : nullptr,
          local_energy);
      rec.violation_mask = report.mask;
      checked_bad = !report.ok();
      if (checked_bad && rank == 0)
        c.mark(trace::kMarkViolation, iter, static_cast<double>(report.mask));
      if (checked_bad && ckpt_valid && out.recoveries < vp.max_recoveries) {
        // Every rank saw the same OR-combined mask, so all of them take
        // this branch together: restore the last good checkpoint and
        // re-place it to re-enter a balanced state.
        c.set_phase(Phase::kRedistribute);
        const double tr = c.clock();
        mine = ckpt;
        c.charge_ops(static_cast<std::uint64_t>(
            static_cast<double>(mine.size()) * vp.checkpoint_ops_per_particle));
        place();
        // Rollback rewinds injections/absorptions since the checkpoint;
        // re-anchor the conservation reference to the restored state.
        if (run.inject_on || run.absorb_x) reanchor();
        c.set_phase(Phase::kOther);
        const double cost = c.allreduce_max(c.clock() - tr);
        policy->notify_redistribution(iter, cost);
        rec.recovered = true;
        rec.redistributed = true;
        rec.redist_seconds_global += cost;
        ++out.recoveries;
        if (rank == 0) c.mark(trace::kMarkRecovered, iter, cost);
      } else if (checked_bad) {
        // Rollback unavailable: repair in place so the run continues in a
        // degraded but well-defined state.
        scrub_particles(run.key_cache, grid, mine);
        c.charge_ops(static_cast<std::uint64_t>(mine.size()));
      }
    }
    if (vp.checkpoint_every > 0 && (iter + 1) % vp.checkpoint_every == 0) {
      // With checks enabled, only refresh on an iteration whose check
      // just passed — a rollback target must never itself be corrupt.
      const bool checked_ok = vp.check_every > 0 &&
                              (iter + 1) % vp.check_every == 0 &&
                              !checked_bad && !rec.recovered;
      if (vp.check_every == 0 || checked_ok) take_checkpoint(iter);
    }
  }

  /// Close the iteration: trace samples, its record, memory gauges and the
  /// optional energy sample.
  void record(int iter, LocalIter& rec) {
    const int rank = c.rank();
    // Per-iteration trace samples (free without an observer): local
    // particle count on every rank, global loop time on group rank 0.
    c.mark(trace::kMarkParticles, iter, static_cast<double>(mine.size()));
    if (rank == 0) c.mark(trace::kMarkIter, iter, rec.loop_seconds_global);
    rec.clock_end = c.clock();
    out.iters.push_back(rec);

    const std::size_t ghost_bytes = dom->ghosts.memory_bytes();
    const std::size_t sort_bytes = dom->partitioner.scratch_bytes();
    mem_peak = std::max(mem_peak, ghost_bytes + sort_bytes);
    mem_machine = std::max(mem_machine, c.memory_bytes());
    mem_exchange = std::max(mem_exchange, ghost_bytes);
    mem_sort = std::max(mem_sort, sort_bytes);

    if (params.sample_energy_every > 0 &&
        (iter + 1) % params.sample_energy_every == 0) {
      const double fe = c.allreduce_sum(dom->f.energy(dom->lg));
      const double ke = c.allreduce_sum(mine.kinetic_energy());
      if (rank == 0) out.energy.push_back({iter, fe, ke});
    }
  }

  /// Final physics diagnostics (local sums; merged by the aggregator) and
  /// memory marks.
  void finish() {
    out.final_particles = static_cast<std::uint64_t>(mine.size());
    out.field_energy = dom->f.energy(dom->lg);
    out.kinetic_energy = mine.kinetic_energy();
    // picpar-lint: allow(float-reduction-order) fixed local-index sum
    double charge_sum = 0.0;
    for (std::size_t l = 0; l < dom->lg.owned(); ++l)
      charge_sum += dom->f.rho[l];
    out.total_charge = charge_sum * grid.dx() * grid.dy();
    for (const auto& [mark, bytes] :
         {std::pair{trace::kMarkMemPeak, mem_peak},
          {trace::kMarkMemMachine, mem_machine},
          {trace::kMarkMemExchange, mem_exchange},
          {trace::kMarkMemSort, mem_sort}})
      if (bytes > 0) c.mark(mark, -1, static_cast<double>(bytes));
    out.mem_peak_bytes = mem_peak;
    out.mem_machine_bytes = mem_machine;
    out.mem_exchange_bytes = mem_exchange;
    out.mem_sort_bytes = mem_sort;
    out.transport_peers = c.transport_peers();
  }

  // A crash surfaces on survivors as PeerFailedError thrown from whatever
  // communication they were blocked in. Recovery itself may be interrupted
  // by further crashes (a cascade); the loop simply re-enters recover(),
  // whose membership agreement folds in the newly failed ranks.
  void operator()() {
    out.iters.reserve(static_cast<std::size_t>(params.iterations));
    bool initialized = false, need_recover = false;
    int iter = 0;
    for (;;) {
      try {
        if (need_recover) {
          need_recover = false;  // a throwing recover() sets it again
          const int resume = recover();
          if (resume < 0)
            initialized = false;
          else
            iter = resume;
        }
        if (!initialized) {
          init();
          initialized = true;
          iter = 0;
        }
        while (iter < params.iterations) {
          LocalIter rec = step(iter);
          validate(iter, rec);
          record(iter, rec);
          ++iter;
        }
        break;
      } catch (const sim::PeerFailedError&) {
        need_recover = true;
      }
    }
    finish();
  }
};

PicResult run_driver(const PicParams& params, Ownership rule,
                     const char* name) {
  if (params.init.total == 0 || params.iterations < 0)
    throw std::invalid_argument(
        std::string(name) + ": init.total must be > 0 and iterations >= 0");

  Run shared{params, rule};
  auto& outputs = shared.outputs;
  const auto program = [&](Comm& comm) { RankDriver{shared, comm}(); };

  sim::Machine machine(params.nranks, params.machine, shared.faults);
  machine.set_pick_seed(params.exec.pick_seed);

  // ---- opt-in happens-before analysis (zero cost when off) ----
  const bool analyze_on = params.analyze.enabled ||
                          params.analyze.audit_determinism ||
                          analysis::analyzer_env_enabled();
  analysis::Analyzer::Options aopt;
  aopt.max_findings =
      static_cast<std::size_t>(std::max(0, params.analyze.max_findings));
  analysis::Analyzer analyzer(aopt);

  // ---- opt-in deterministic tracing (zero cost when off) ----
  TraceParams tp = params.trace;
  if (tp.path.empty())
    if (const char* p = trace::trace_env_path()) tp.path = p;
  if (tp.metrics_path.empty())
    if (const char* p = trace::trace_metrics_env_path()) tp.metrics_path = p;
  const bool trace_on = tp.on();
  trace::Tracer::Options topt;
  topt.flows = tp.flows;
  trace::Tracer tracer(topt);

  sim::ObserverChain observers;
  if (analyze_on) observers.add(&analyzer);
  if (trace_on) observers.add(&tracer);
  if (!observers.empty()) machine.set_observer(&observers);

  int audit_state = -1;
  sim::RunResult run;
  if (analyze_on && params.analyze.audit_determinism) {
    // First run establishes the happens-before DAG fingerprint; the second
    // must reproduce it exactly. Per-rank outputs and the checkpoint store
    // are host-side state the program accumulates into, so they reset
    // between runs.
    machine.run(program);
    const auto fp1 = analyzer.fingerprint();
    const auto ev1 = analyzer.events();
    for (auto& o : outputs) o = RankOutput{};
    shared.store = CheckpointStore{};
    run = machine.run(program);
    audit_state =
        (fp1 == analyzer.fingerprint() && ev1 == analyzer.events()) ? 1 : 0;
  } else {
    run = machine.run(program);
  }

  // ---- Aggregate ----
  PicResult result;
  result.machine = std::move(run);
  result.total_seconds = result.machine.makespan();
  result.compute_seconds = result.machine.max_compute();

  // Survivor bookkeeping: crashed ranks' outputs stop mid-run and describe
  // rolled-back state, so only survivors feed the aggregates. The first
  // survivor is the final group rank 0 — the reference for global values.
  std::vector<char> alive(static_cast<std::size_t>(params.nranks), 1);
  for (const auto& cr : result.machine.crashes)
    alive[static_cast<std::size_t>(cr.rank)] = 0;
  const auto survivor = std::find(alive.begin(), alive.end(), 1);
  const int first_survivor =
      survivor == alive.end() ? -1 : static_cast<int>(survivor - alive.begin());
  result.crash_count = static_cast<int>(result.machine.crashes.size());
  result.final_ranks = params.nranks - result.crash_count;

  const RankOutput* ref =
      first_survivor >= 0
          ? &outputs[static_cast<std::size_t>(first_survivor)]
          : nullptr;
  result.initial_distribution_seconds = ref ? ref->init_seconds_global : 0.0;

  // Per-iteration records merge by max / or / sum over survivors; the
  // floating-point sums run in rank order (deterministic by design).
  const auto niters = static_cast<std::size_t>(params.iterations);
  result.iters.resize(niters);
  std::vector<double> end(niters, 0.0);
  double prev_end = 0.0;
  std::uint64_t final_max = 0;
  for (int r = 0; r < params.nranks; ++r) {
    if (!alive[static_cast<std::size_t>(r)]) continue;
    const auto& o = outputs[static_cast<std::size_t>(r)];
    prev_end = std::max(prev_end, o.clock_after_init);
    for (std::size_t i = 0; i < o.iters.size(); ++i) {
      auto& rec = result.iters[i];
      const auto& li = o.iters[i];
      end[i] = std::max(end[i], li.clock_end);
      rec.scatter_max_sent_bytes =
          std::max(rec.scatter_max_sent_bytes, li.scatter.bytes_sent);
      rec.scatter_max_recv_bytes =
          std::max(rec.scatter_max_recv_bytes, li.scatter.bytes_recv);
      rec.scatter_max_sent_msgs =
          std::max(rec.scatter_max_sent_msgs, li.scatter.msgs_sent);
      rec.scatter_max_recv_msgs =
          std::max(rec.scatter_max_recv_msgs, li.scatter.msgs_recv);
      rec.max_ghost_entries =
          std::max(rec.max_ghost_entries, li.ghost_entries);
      rec.redistributed = rec.redistributed || li.redistributed;
      rec.redist_seconds =
          std::max(rec.redist_seconds, li.redist_seconds_global);
      rec.redist_particles_moved += li.redist_sent;
      rec.violation_mask |= li.violation_mask;
      rec.recovered = rec.recovered || li.recovered;
      rec.crash_recovered = rec.crash_recovered || li.crash_recovered;
      // Each injected particle is kept by exactly one rank (its owner is a
      // function of the particle), so summing per-rank counts gives the
      // global emitted/absorbed totals.
      result.emitted_particles += li.injected;
      result.absorbed_particles += li.absorbed;
    }
    result.final_particles += o.final_particles;
    final_max = std::max(final_max, o.final_particles);
    // picpar-lint: allow(float-reduction-order) rank-order merge
    result.field_energy += o.field_energy;
    // picpar-lint: allow(float-reduction-order) rank-order merge
    result.kinetic_energy += o.kinetic_energy;
    // picpar-lint: allow(float-reduction-order) rank-order merge
    result.total_charge += o.total_charge;
  }
  for (std::size_t i = 0; i < niters; ++i) {
    auto& rec = result.iters[i];
    rec.iter = static_cast<int>(i);
    rec.exec_seconds = end[i] - prev_end;
    prev_end = end[i];
    // Eulerian runs agree on no loop time (nothing to decide): the loop
    // is the whole iteration.
    if (rule == Ownership::kEulerian)
      rec.loop_seconds = rec.exec_seconds;
    else if (ref && i < ref->iters.size())
      rec.loop_seconds = ref->iters[i].loop_seconds_global;
    if (rec.redistributed) {
      ++result.redistributions;
      // picpar-lint: allow(float-reduction-order) iteration-order sum
      result.redist_seconds_total += rec.redist_seconds;
    }
    if (rec.violation_mask != 0) ++result.violation_iterations;
  }

  result.initial_particles = static_cast<std::uint64_t>(shared.global.size());
  result.recoveries = ref ? ref->recoveries : 0;
  result.crash_recoveries = ref ? ref->crash_recoveries : 0;
  result.mttr_seconds_total = ref ? ref->mttr_total : 0.0;
  result.crash_lost_particles = ref ? ref->crash_lost : 0;
  result.crash_restored_particles = ref ? ref->crash_restored : 0;
  if (result.final_ranks > 0 && result.final_particles > 0)
    result.final_imbalance =
        static_cast<double>(final_max) /
        (static_cast<double>(result.final_particles) /
         static_cast<double>(result.final_ranks));
  if (ref)
    result.energy_history =
        std::move(outputs[static_cast<std::size_t>(first_survivor)].energy);

  if (analyze_on) {
    result.analysis_findings =
        static_cast<std::int64_t>(analyzer.total());
    if (result.analysis_findings > 0) result.analysis_report = analyzer.report();
    result.hb_fingerprint = analyzer.fingerprint();
    result.determinism_audit = audit_state;
  }

  if (trace_on) {
    result.traced = true;
    result.trace_events = tracer.events();
    result.phase_wall_us.assign(static_cast<std::size_t>(sim::kNumPhases),
                                0.0);
    for (const auto& s : tracer.data().spans)
      result.phase_wall_us[static_cast<std::size_t>(s.phase)] += s.w1 - s.w0;
    // The analyzer's own footprint (vector clocks are O(p) per rank by
    // design — opt-in diagnostics) joins the mem.* breakdown only when both
    // observers ran; folded here, before the snapshot, because the tracer
    // cannot see the analyzer.
    if (analyze_on)
      tracer.metrics().set("mem.analyzer_bytes",
                           static_cast<double>(analyzer.memory_bytes()));
    const trace::MetricsSnapshot snap = tracer.metrics().snapshot();
    result.metrics_json = snap.to_json();
    result.metrics_csv = snap.to_csv();
    result.timeline_csv = tracer.timeline().to_csv();
    if (!tp.path.empty() || !tp.metrics_path.empty()) {
      trace::ChromeTraceOptions copt;
      copt.include_wall = tp.include_wall;
      copt.flows = tp.flows;
      // Concurrent run_pic calls (e.g. a bench's --jobs pool) may target
      // the same file; serialize so each write is whole.
      static std::mutex g_trace_write_mutex;
      std::lock_guard<std::mutex> lk(g_trace_write_mutex);
      if (!tp.path.empty())
        trace::write_chrome_trace(tp.path, tracer.data(), copt,
                                  &tracer.timeline());
      if (!tp.metrics_path.empty()) {
        std::ofstream f(tp.metrics_path, std::ios::binary | std::ios::trunc);
        if (!f)
          throw std::runtime_error("trace: cannot open " + tp.metrics_path);
        f << result.metrics_json;
      }
    }
  }

  // ---- Per-rank memory-budget report (opt-in via PICPAR_MEM_REPORT) ----
  // One CSV row per world rank: the peak per-subsystem bytes published
  // by RankDriver::finish(). Every value is a size-based function of the
  // rank's deterministic history, so two runs of the same program —
  // under any pick seed — write byte-identical files; the large-p CI
  // job relies on that with a straight cmp. Crashed ranks never reach
  // finish() and report zeros, flagged by alive=0.
  if (const char* mr = env_path("PICPAR_MEM_REPORT")) {
    std::ofstream f(mr, std::ios::binary | std::ios::trunc);
    if (!f)
      throw std::runtime_error("mem report: cannot open " + std::string(mr));
    f << "rank,alive,machine_bytes,exchange_bytes,sort_bytes,peak_bytes,"
         "transport_peers\n";
    for (int r = 0; r < params.nranks; ++r) {
      const auto& o = outputs[static_cast<std::size_t>(r)];
      f << r << ',' << static_cast<int>(alive[static_cast<std::size_t>(r)])
        << ',' << o.mem_machine_bytes << ',' << o.mem_exchange_bytes << ','
        << o.mem_sort_bytes << ',' << o.mem_peak_bytes << ','
        << o.transport_peers << '\n';
    }
  }
  return result;
}

}  // namespace

PicResult run_pic(const PicParams& params) {
  return run_driver(params, Ownership::kAligned, "run_pic");
}

PicResult run_eulerian(const PicParams& params) {
  return run_driver(params, Ownership::kEulerian, "run_eulerian");
}

}  // namespace picpar::pic
