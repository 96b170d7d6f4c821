// A deterministic simulated multicomputer.
//
// Each simulated processor ("rank") runs the same SPMD program on its own
// fiber — a stackful coroutine with its own 8 MiB stack — and all fibers
// share the OS thread that called run(), so exactly one rank executes at a
// time. A rank runs until it must wait (a receive with nothing deliverable,
// a membership barrier) or finishes; the scheduler then switches directly
// to the next runnable rank in deterministic round-robin order (or, with a
// pick seed, from a seeded pseudo-random start). Sends are buffered and
// never block.
//
// Time is virtual: every rank owns a clock in seconds that advances through
// explicit compute charges and through the two-level communication model
// (CostModel). A blocking receive advances the receiver clock to
// max(own clock, message arrival time), the standard per-process virtual
// time rule. Wall-clock execution is sequential, so runs are exactly
// reproducible regardless of host load.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/comm_stats.hpp"
#include "sim/cost_model.hpp"
#include "sim/faults.hpp"
#include "sim/message.hpp"
#include "sim/observer.hpp"
#include "util/sparse_rank.hpp"

namespace picpar::sim {

class Comm;

/// One blocked rank in a deadlock: what it was waiting for.
struct BlockedInfo {
  int rank = 0;
  int want_src = kAnySource;
  int want_tag = kAnyTag;
  std::size_t mailbox_size = 0;
  /// The pinned source this rank waits on has fail-stopped: the wait is a
  /// peer failure, not part of a cycle among live ranks.
  bool want_src_crashed = false;
};

/// One fail-stop crash that actually fired: which rank, and the virtual
/// time on its own clock at which it stopped.
struct CrashRecord {
  int rank = -1;
  double vtime = 0.0;
};

/// Internal control flow: thrown out of a rank's program at its fail-stop
/// point and caught only by the scheduler's fiber entry. Deliberately NOT
/// derived from std::exception so no library-level
/// `catch (const std::exception&)` along the unwind path can swallow a
/// crash.
class RankCrashed {
public:
  RankCrashed(int rank, double vtime) : rank_(rank), vtime_(vtime) {}
  int rank() const { return rank_; }
  double vtime() const { return vtime_; }

private:
  int rank_;
  double vtime_;
};

/// Thrown into a survivor blocked on a dead peer once the peer's lease has
/// expired — the ULFM-style "revoked" notification. The survivor's clock is
/// first advanced to the latest lease expiry, so detection costs virtual
/// time like a real heartbeat timeout. Programs that want to continue catch
/// this and call Comm::agree_on_membership().
class PeerFailedError : public std::runtime_error {
public:
  PeerFailedError(const std::string& what, std::vector<CrashRecord> failed,
                  int observer_rank)
      : std::runtime_error(what),
        failed_(std::move(failed)),
        observer_rank_(observer_rank) {}

  /// Crashes newly acknowledged by the observing rank, sorted by rank id.
  const std::vector<CrashRecord>& failed() const { return failed_; }
  int observer_rank() const { return observer_rank_; }

private:
  std::vector<CrashRecord> failed_;
  int observer_rank_ = -1;
};

/// The agreed outcome of one membership change: every survivor receives an
/// identical copy at an identical virtual time, so post-agreement execution
/// is deterministic regardless of who detected the crash first.
struct MembershipView {
  int epoch = 0;      ///< completed agreements this run (starts at 0)
  double vtime = 0.0; ///< agreed clock value every survivor resumes at
  std::vector<int> survivors;       ///< physical ranks, ascending
  std::vector<CrashRecord> failed;  ///< crashes new in this view, by rank
};

/// Thrown by Machine::run when every live rank is blocked in a receive.
/// Carries the per-rank wait graph (who wants what from whom) so callers
/// and tests can diagnose the cycle structurally, not by parsing what().
class DeadlockError : public std::runtime_error {
public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
  DeadlockError(const std::string& what, std::vector<BlockedInfo> blocked)
      : std::runtime_error(what), blocked_(std::move(blocked)) {}

  const std::vector<BlockedInfo>& blocked() const { return blocked_; }

private:
  std::vector<BlockedInfo> blocked_;
};

/// Thrown when the transport exhausts its retransmit budget on one message
/// (every attempt arrived corrupted). Models an unrecoverable link.
class TransportError : public std::runtime_error {
public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Receive-side transport counters for one link (indexed by source rank).
struct LinkStats {
  std::uint64_t retries = 0;               ///< retransmissions requested
  std::uint64_t dup_discards = 0;          ///< duplicate deliveries dropped
  std::uint64_t corruptions_detected = 0;  ///< checksum mismatches caught
};

struct RankReport {
  int rank = 0;
  double clock = 0.0;   ///< final virtual time
  CommStats stats;
  FaultCounters faults;          ///< faults injected *by* this rank
  std::vector<LinkStats> links;  ///< per-source transport recovery counters
                                 ///< (empty when no fault model is active)
  bool crashed = false;          ///< this rank fail-stopped mid-run
  double crash_vtime = 0.0;

  LinkStats transport_total() const;
};

struct RunResult {
  std::vector<RankReport> ranks;
  /// Fail-stop crashes that fired, sorted by rank id.
  std::vector<CrashRecord> crashes;
  /// Membership agreements completed (the final epoch).
  int epochs = 0;

  /// Virtual makespan: max over ranks of the final clock.
  double makespan() const;
  /// Max over ranks of total compute seconds.
  double max_compute() const;
  /// makespan - max_compute: the paper's "overhead" metric.
  double overhead() const { return makespan() - max_compute(); }

  /// Summed transport recovery counters over all ranks and links.
  LinkStats transport_total() const;
  /// Summed injected-fault counters over all ranks.
  FaultCounters faults_total() const;
};

class Machine {
public:
  Machine(int nranks, CostModel cost);
  Machine(int nranks, CostModel cost, const FaultConfig& faults);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  int size() const { return nranks_; }
  const CostModel& cost() const { return cost_; }

  /// Install (or replace) the fault model. Must not be called mid-run.
  void set_fault_model(const FaultConfig& cfg) {
    faults_ = FaultModel(cfg, nranks_);
  }

  /// Attach a passive observer (nullptr detaches). Not owned; must outlive
  /// any run it observes. Off by default: the fast paths then pay a single
  /// pointer test per event and message metadata stays empty, so runs are
  /// bit-identical to a build without the analysis layer.
  void set_observer(MachineObserver* obs) { observer_ = obs; }
  MachineObserver* observer() const { return observer_; }

  /// Tag-space enforcement (default on): user traffic — any send or
  /// explicit-tag receive issued outside a collective — must use tags >= 0;
  /// negative tags are reserved for collective internals and the transport
  /// control channel. Violations throw std::invalid_argument at the call
  /// site. Turn off only to let an attached analyzer *record* violations
  /// as findings instead of faulting the run.
  void set_strict_tags(bool strict) { strict_tags_ = strict; }
  bool strict_tags() const { return strict_tags_; }
  FaultModel& fault_model() { return faults_; }
  const FaultModel& fault_model() const { return faults_; }

  /// Pick order of the scheduler. 0 (the default) scans for the next
  /// runnable rank cyclically from the rank that just parked; any other
  /// value starts each scan at a rank drawn from a stream seeded with it,
  /// restarted at every run. Results never depend on it — the matching
  /// layer fixes every delivery — so a run under a nonzero seed must be
  /// bit-identical to one under 0; tests use that to show that results do
  /// not depend on rank execution order. Must not be called mid-run.
  void set_pick_seed(std::uint64_t seed) { pick_seed_ = seed; }

  /// Run an SPMD program to completion on all ranks; returns per-rank
  /// clocks and traffic. Rethrows the first (lowest-rank) exception a rank
  /// program let escape; otherwise throws DeadlockError on global deadlock.
  /// Either way every rank's stack has unwound first, so destructors in
  /// the program have run. A Machine can run several programs in sequence;
  /// clocks and stats reset between runs, and the rank stacks are reused.
  RunResult run(const std::function<void(Comm&)>& program);

  /// Bytes of per-peer transport state (sequence counters, dedup sets,
  /// link counters, crash acks) held by one rank — the machine's share of
  /// the per-rank memory budget. Size-based and a pure function of the
  /// messages the rank has sent/consumed, so the value is identical under
  /// every pick order at the same program point. Callable from the owning
  /// rank during a run (reads only rank-owned state).
  std::size_t rank_transport_bytes(int rank) const;
  /// Number of distinct peers with transport state on `rank` (the "touched
  /// peers" count the sparse tables are bounded by).
  std::size_t rank_transport_peers(int rank) const;

private:
  friend class Comm;

  struct RankState {
    int id = 0;
    double clock = 0.0;  ///< virtual time, seconds
    std::deque<Message> mailbox;
    bool done = false;
    bool waiting = false;
    int want_src = kAnySource;
    int want_tag = kAnyTag;
    CommStats stats;
    Phase phase = Phase::kOther;
    /// >0 while executing inside a Comm collective (RAII-maintained); used
    /// for reserved-tag enforcement and analyzer exemptions.
    int collective_depth = 0;
    /// >0 inside a Comm::OrderInsensitive scope: wildcard receives here are
    /// declared order-independent (results keyed by source, commutative
    /// accumulation), so the analyzer must not flag them as races.
    int unordered_depth = 0;
    std::exception_ptr error;
    // ---- transport state, sparse in *touched* peers ----
    // Entries exist only for peers this rank actually exchanged messages
    // with, so per-rank transport state is O(neighbors), not O(p). All four
    // maps iterate in ascending rank order, matching the dense loops they
    // replaced, so delivery order and every export stay bit-identical.
    util::SparseRankMap<std::uint64_t> next_seq;  ///< per-destination sender seq
    /// Per-source seqs already delivered (duplicate suppression). Strictly
    /// membership-only — insert/count, never iterated — so its hash order
    /// can never leak into delivery order or any export.
    // picpar-lint: allow(unordered-iteration-escape) membership-only set
    util::SparseRankMap<std::unordered_set<std::uint64_t>> seen_seq;
    util::SparseRankMap<LinkStats> links;  ///< per-source counters
    // ---- fail-stop crash / membership state (crash faults only) ----
    bool crashed = false;
    double crash_vtime = 0.0;
    /// Per-peer acknowledgement: an entry for rank k exists once this rank
    /// has observed rank k's crash (via PeerFailedError or an agreement).
    util::SparseRankMap<char> acked_peer;
    int epoch = 0;               ///< membership epoch this rank executes in
    bool in_membership = false;  ///< parked in agree_on_membership
    bool membership_ready = false;
    /// Ready set: the first live rank whose clock bound kept
    /// this parked wildcard receive unsafe; the receiver sits on that
    /// rank's watch list until the rank next yields. -1 = none.
    int blocked_by = -1;
  };

  // --- used by Comm (only the active rank executes) ---
  void do_send(int src, int dst, int tag, std::vector<std::byte> payload);
  Message do_recv(int rank, int src, int tag, bool fp_payload = false);
  bool do_iprobe(int rank, int src, int tag);
  MembershipView do_agree(int rank);
  void charge(int rank, double seconds, bool is_compute);
  LinkStats& link_stats(RankState& rs, int src);
  void recover_corruption(int rank, const Message& m);

  // --- fail-stop crash machinery ---

  /// Throw RankCrashed once the rank's own clock reaches its pre-drawn
  /// fail-stop time. Called at every communication and compute boundary, so
  /// crash points are rank-local and execution-order independent.
  void check_crash(int rank);
  /// The fiber entry calls this when a RankCrashed unwind reaches it.
  void record_crash(int rank, double vtime);
  /// Lease-expiry detection: acknowledge every not-yet-acked crash on the
  /// calling rank, advance its clock past the latest lease, and throw
  /// PeerFailedError.
  [[noreturn]] void throw_peer_failure(int rank);
  /// Lowest blocked rank that has not yet acknowledged every crash; -1 when
  /// none (stall-resolution step between force-commit and deadlock).
  int pick_failure_victim() const;
  /// Complete the membership barrier once every non-done rank is parked in
  /// it: build the agreed view, advance members to the agreed time, purge
  /// stale-epoch mailboxes, and mark members ready. Returns false when the
  /// barrier is not yet full (or nobody is in it).
  bool try_complete_membership();

  /// Set a rank's phase, firing the observer on an actual change.
  void note_phase(int rank, Phase p) {
    RankState& rs = ranks_[static_cast<std::size_t>(rank)];
    if (observer_ && rs.phase != p) {
      PhaseEvent ev;
      ev.rank = rank;
      ev.from = rs.phase;
      ev.to = p;
      ev.vtime = rs.clock;
      observer_->on_phase(ev);
    }
    rs.phase = p;
  }

  /// Emit a named instant on a rank. Reads only rank-owned state and never
  /// touches clocks or stats; a complete no-op without an observer.
  void note_mark(int rank, const char* name, std::int64_t iter, double value) {
    if (!observer_) return;
    const RankState& rs = ranks_[static_cast<std::size_t>(rank)];
    MarkEvent ev;
    ev.rank = rank;
    ev.name = name;
    ev.phase = rs.phase;
    ev.vtime = rs.clock;
    ev.iter = iter;
    ev.value = value;
    observer_->on_mark(ev);
  }

  // --- deterministic matching layer ---

  /// The pending message a receive would commit: minimum key
  /// (arrival, src, seq, dup) over the per-source flow heads (the lowest
  /// (seq, dup) matching message of each source, which preserves per-link
  /// FIFO under arrival jitter).
  struct Candidate {
    int pos = -1;  ///< index into the receiver's mailbox; -1 = none
    double arrival = 0.0;
    int src = -1;
    std::uint64_t seq = 0;
    bool dup = false;
  };

  /// Select (and, when dedup is active, discard already-seen duplicate
  /// heads from) the receiver's minimal matching candidate.
  Candidate find_candidate(int rank, int src, int tag);
  /// Conservative lower-bound-timestamp rule: may the candidate commit now,
  /// i.e. can no live rank still send a message with a smaller key? Always
  /// true for source-pinned receives (link FIFO fixes the order).
  bool commit_safe(int rank, int src_pattern, const Candidate& c) const {
    return commit_blocker(rank, src_pattern, c) < 0;
  }
  /// The lowest live rank that could still undercut the candidate (whose
  /// clock bound breaks commit_safe), or -1 when the candidate is safe.
  int commit_blocker(int rank, int src_pattern, const Candidate& c) const;
  /// Deliver the candidate: dequeue, advance the receiver clock, run
  /// transport recovery, book stats, fire the observer.
  Message commit_recv(int rank, const Candidate& c, int src, int tag,
                      bool fp_payload);
  /// Whether a parked receive may proceed (candidate exists and is safe,
  /// source-pinned, or force-committed by stall resolution).
  bool recv_deliverable(int rank);
  /// Global stall: every live rank is blocked and nothing is safe. Returns
  /// the receiver owning the globally minimal candidate (to force-commit:
  /// no rank can send until something commits, so the conservative bound is
  /// vacuously resolved in key order), or -1 = true deadlock.
  int stall_pick();

  // --- scheduler (fibers + event-driven ready set) ---
  /// Park the calling rank and run others until it is runnable again.
  /// Throws DeadlockError when the machine deadlocks instead.
  void yield_from(int rank);
  /// Pick the rank to run after `rank` parks or finishes: the ready-set
  /// pick, else the stall-resolution ladder. -1 = completion or deadlock
  /// (deadlocked_ tells which).
  int schedule_next(int rank);
  /// First runnable rank in cyclic order from the scan start (from+1, or a
  /// seeded draw under a pick seed); -1 = none. Evaluates only ranks
  /// flagged ready or dirty.
  int pick_next(int from);
  /// Evaluate one rank's runnability (registers it on its blocker's watch
  /// list when a wildcard candidate is unsafe).
  bool runnable(RankState& rs);
  /// Put a parked wildcard receiver on `blocker`'s watch list.
  void watch(RankState& rs, int blocker);
  /// Queue a parked rank for re-evaluation at the next pick.
  void mark_dirty(int rank);
  /// `rank` is about to stop running: its clock may have moved or it may
  /// have finished, so every receiver it was blocking is re-evaluated.
  void wake_watchers(int rank);
  void switch_rank(int from, int to);
  bool match(const Message& m, int src, int tag) const;
  static void fiber_entry(void* machine, int rank);
  [[noreturn]] void rank_main(int rank);
  [[noreturn]] void exit_rank(int rank);
  std::string deadlock_report() const;
  std::vector<BlockedInfo> blocked_ranks() const;

  RunResult collect_results();

  int nranks_;
  CostModel cost_;
  FaultModel faults_;
  MachineObserver* observer_ = nullptr;
  bool strict_tags_ = true;
  std::vector<RankState> ranks_;
  // Wait-graph snapshot taken at the moment deadlock is detected (ranks
  // may unwind and flip to done before run() gets to look).
  std::string deadlock_report_str_;
  std::vector<BlockedInfo> deadlock_blocked_;

  struct Sched;  // rank fibers + ready set (keeps <ucontext.h> out)
  std::unique_ptr<Sched> sched_;
  /// The program of the run in flight (fibers start in it).
  const std::function<void(Comm&)>* program_ = nullptr;
  int live_ = 0;                    // ranks not yet done
  bool deadlocked_ = false;
  /// Rank allowed to commit its candidate past the safety rule (stall
  /// resolution); -1 = none. Cleared by the rank at commit.
  int force_commit_rank_ = -1;
  /// Blocked rank elected at a stall to observe peer failure; it wakes,
  /// clears the flag and throws PeerFailedError. -1 = none.
  int fail_recv_rank_ = -1;
  int epoch_ = 0;          ///< completed membership agreements this run
  int crashed_count_ = 0;  ///< ranks that have fail-stopped this run
  /// Crashes already published in some MembershipView (index = rank).
  std::vector<char> view_reported_;
  /// The last completed agreement; members copy it on wakeup. Safe as a
  /// single slot: a new agreement cannot complete until every survivor has
  /// consumed the previous one and re-entered the barrier.
  MembershipView pending_view_;
  /// Per-source flow-head scratch for find_candidate: sorted (src, mailbox
  /// position) pairs over the sources present in the scanned mailbox, so
  /// the scratch is O(distinct senders), not O(p). Capacity persists across
  /// calls.
  std::vector<std::pair<int, int>> scratch_heads_;
  std::uint64_t pick_seed_ = 0;
};

}  // namespace picpar::sim
