#include "sim/machine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <sstream>

#include "sim/comm.hpp"
#include "sim/fiber.hpp"
#include "util/rng.hpp"

namespace picpar::sim {

double RunResult::makespan() const {
  double m = 0.0;
  for (const auto& r : ranks) m = std::max(m, r.clock);
  return m;
}

double RunResult::max_compute() const {
  double m = 0.0;
  for (const auto& r : ranks) m = std::max(m, r.stats.total().compute_seconds);
  return m;
}

LinkStats RankReport::transport_total() const {
  LinkStats t;
  for (const auto& l : links) {
    t.retries += l.retries;
    t.dup_discards += l.dup_discards;
    t.corruptions_detected += l.corruptions_detected;
  }
  return t;
}

LinkStats RunResult::transport_total() const {
  LinkStats t;
  for (const auto& r : ranks) {
    const LinkStats rt = r.transport_total();
    t.retries += rt.retries;
    t.dup_discards += rt.dup_discards;
    t.corruptions_detected += rt.corruptions_detected;
  }
  return t;
}

FaultCounters RunResult::faults_total() const {
  FaultCounters t;
  for (const auto& r : ranks) t += r.faults;
  return t;
}

/// Scheduler state: one fiber per rank plus the ready set.
///
/// The ready set replaces a scan of every rank at every yield. A rank's bit
/// in `ready` means "known runnable"; a bit in `dirty` means "parked, and
/// something that can make it runnable happened since it was last
/// evaluated". Only flagged ranks are evaluated when picking, so a parked
/// rank costs nothing until an event concerns it.
struct Machine::Sched {
  FiberSet fibers;
  std::vector<std::uint64_t> ready;
  std::vector<std::uint64_t> dirty;
  /// watchers[b]: parked wildcard receivers with blocked_by == b (plus
  /// stale entries, skipped when their blocked_by no longer matches).
  std::vector<std::vector<int>> watchers;
  /// Scan starts under a nonzero pick seed.
  SplitMix64 pick_rng{0};

  static bool test(const std::vector<std::uint64_t>& v, int r) {
    return (v[static_cast<std::size_t>(r) >> 6] >> (r & 63)) & 1u;
  }
  static void set(std::vector<std::uint64_t>& v, int r) {
    v[static_cast<std::size_t>(r) >> 6] |= std::uint64_t{1} << (r & 63);
  }
  static void clear(std::vector<std::uint64_t>& v, int r) {
    v[static_cast<std::size_t>(r) >> 6] &= ~(std::uint64_t{1} << (r & 63));
  }

  /// Every rank ready (none has run yet), none dirty, no watchers, and the
  /// pick stream restarted.
  void reset(int n, std::uint64_t pick_seed) {
    const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
    ready.assign(words, ~std::uint64_t{0});
    if (n % 64) ready.back() = (std::uint64_t{1} << (n % 64)) - 1;
    dirty.assign(words, 0);
    watchers.resize(static_cast<std::size_t>(n));
    for (auto& w : watchers) w.clear();
    pick_rng = SplitMix64(pick_seed);
  }

  /// Lowest rank in [lo, hi) flagged ready or dirty; -1 = none.
  int first(int lo, int hi) const {
    if (lo >= hi) return -1;
    const std::size_t last = static_cast<std::size_t>(hi - 1) >> 6;
    for (std::size_t w = static_cast<std::size_t>(lo) >> 6; w <= last; ++w) {
      std::uint64_t bits = ready[w] | dirty[w];
      if (w == static_cast<std::size_t>(lo) >> 6) bits &= ~std::uint64_t{0}
                                                           << (lo & 63);
      if (bits == 0) continue;
      const int r = static_cast<int>(w * 64) + std::countr_zero(bits);
      return r < hi ? r : -1;
    }
    return -1;
  }
};

Machine::Machine(int nranks, CostModel cost)
    : nranks_(nranks), cost_(cost), sched_(std::make_unique<Sched>()) {
  if (nranks <= 0) throw std::invalid_argument("Machine: nranks must be > 0");
}

Machine::Machine(int nranks, CostModel cost, const FaultConfig& faults)
    : Machine(nranks, cost) {
  set_fault_model(faults);
}

Machine::~Machine() = default;

bool Machine::match(const Message& m, int src, int tag) const {
  return (src == kAnySource || m.src == src) &&
         (tag == kAnyTag || m.tag == tag);
}

// ---------------------------------------------------------------------------
// Deterministic matching layer.
//
// A receive never takes "the first message the mailbox scan happens to
// meet" — it takes the candidate with the minimum (arrival, src, seq, dup)
// key, where the per-source representative is that source's flow head (the
// lowest (seq, dup) matching message, which keeps per-link FIFO even when
// arrival jitter reorders timestamps). The key is a schedule-independent
// total order: it depends only on message contents, never on the order in
// which the scheduler ran the senders. That is what makes a run's results
// independent of its pick order (Machine::set_pick_seed).
// ---------------------------------------------------------------------------

Machine::Candidate Machine::find_candidate(int rank, int src, int tag) {
  auto& rs = ranks_[static_cast<std::size_t>(rank)];
  const bool dedup =
      faults_.message_faults() && faults_.config().duplicate_prob > 0.0;
  for (;;) {
    // Flow heads of the sources actually present in the mailbox, sorted by
    // source rank — O(distinct senders) instead of an O(p) dense sweep.
    scratch_heads_.clear();
    for (int pos = 0; pos < static_cast<int>(rs.mailbox.size()); ++pos) {
      const Message& m = rs.mailbox[static_cast<std::size_t>(pos)];
      if (!match(m, src, tag)) continue;
      const auto it = std::lower_bound(
          scratch_heads_.begin(), scratch_heads_.end(), m.src,
          [](const std::pair<int, int>& e, int s) { return e.first < s; });
      if (it == scratch_heads_.end() || it->first != m.src) {
        scratch_heads_.insert(it, {m.src, pos});
        continue;
      }
      const Message& h = rs.mailbox[static_cast<std::size_t>(it->second)];
      if (m.seq < h.seq || (m.seq == h.seq && !m.dup && h.dup))
        it->second = pos;
    }
    Candidate best;
    for (const auto& [s, head] : scratch_heads_) {
      const Message& h = rs.mailbox[static_cast<std::size_t>(head)];
      // Sources ascend, so on an arrival tie the lower source rank wins.
      if (best.pos >= 0 && h.arrival >= best.arrival) continue;
      best.pos = head;
      best.arrival = h.arrival;
      best.src = s;
      best.seq = h.seq;
      best.dup = h.dup;
    }
    if (best.pos < 0 || !dedup) return best;
    auto& seen = rs.seen_seq.ref(best.src);
    if (seen.find(best.seq) == seen.end()) return best;
    // Duplicate redelivery of an already-consumed message: the transport
    // silently drops it and matching restarts.
    link_stats(rs, best.src).dup_discards += 1;
    rs.mailbox.erase(rs.mailbox.begin() + best.pos);
  }
}

int Machine::commit_blocker(int rank, int src_pattern,
                            const Candidate& c) const {
  // Source-pinned receives are fixed by link FIFO: any future message from
  // that source carries a higher sequence number, so the candidate can
  // never be displaced.
  if (src_pattern != kAnySource) return -1;
  // Wildcard-source: conservative lower-bound-timestamp rule. Any message
  // a live rank r could still send arrives no earlier than clock_r + tau
  // (message_cost >= tau, jitter >= 0), with key (arrival, r). The
  // candidate (a*, s*) commits only when no such future key can undercut
  // it.
  for (const auto& rs : ranks_) {
    if (rs.id == rank || rs.id == c.src || rs.done) continue;
    const double lb = rs.clock + cost_.tau;
    if (lb > c.arrival) continue;
    if (lb == c.arrival && rs.id > c.src) continue;
    return rs.id;
  }
  return -1;
}

bool Machine::recv_deliverable(int rank) {
  auto& rs = ranks_[static_cast<std::size_t>(rank)];
  const Candidate c = find_candidate(rank, rs.want_src, rs.want_tag);
  if (c.pos < 0) return false;
  return force_commit_rank_ == rank || commit_safe(rank, rs.want_src, c);
}

int Machine::stall_pick() {
  // Quiescent state: every live rank is parked in a receive and nothing is
  // safe. No send can happen until some receive commits, so the messages
  // the safety rule was waiting on can never materialize — commit the
  // globally minimal candidate key. The state itself is deterministic (it
  // is reached by the same commit sequence in every pick order), so the
  // choice is too. No candidate anywhere = true deadlock.
  int best_rank = -1;
  Candidate best;
  for (auto& rs : ranks_) {
    if (rs.done || !rs.waiting) continue;
    const Candidate c = find_candidate(rs.id, rs.want_src, rs.want_tag);
    if (c.pos < 0) continue;
    const bool wins =
        best_rank < 0 || c.arrival < best.arrival ||
        (c.arrival == best.arrival &&
         (c.src < best.src ||
          (c.src == best.src &&
           (c.seq < best.seq ||
            (c.seq == best.seq && (c.dup ? 1 : 0) < (best.dup ? 1 : 0))))));
    if (wins) {
      best = c;
      best_rank = rs.id;
    }
  }
  return best_rank;
}

// ---------------------------------------------------------------------------
// Scheduler: event-driven ready set.
//
// pick_next returns exactly the rank a cyclic scan of runnable() from the
// scan start would return, without evaluating every parked rank. A parked
// rank's runnability can only change through four events, and each flags
// the rank dirty (or ready) for re-evaluation:
//   * a matching message lands in its mailbox (do_send);
//   * it becomes the force-commit or fail-recv target (stall ladder);
//   * a membership agreement completes (stall ladder);
//   * for a wildcard receive whose candidate was unsafe: the first rank
//     whose clock bound blocked it stops running — its clock may have
//     advanced, or it finished (wake_watchers).
// Nothing else moves the inputs of runnable(): a parked rank's mailbox only
// grows through sends, its pattern and dedup set only change when it runs,
// and other ranks' clocks only change while they run. Once runnable, a rank
// stays runnable until it runs: a message that lands later cannot undercut
// a safe candidate (the sender's clock bound already cleared it).
// Dirty ranks are evaluated lazily, in the same cyclic order the scan
// visits them, so transport side effects of find_candidate (duplicate
// discards) happen at the same picks as under a full scan.
// ---------------------------------------------------------------------------

bool Machine::runnable(RankState& rs) {
  if (rs.done) return false;
  if (rs.in_membership) return rs.membership_ready;
  if (!rs.waiting) return true;
  if (fail_recv_rank_ == rs.id) return true;
  const Candidate c = find_candidate(rs.id, rs.want_src, rs.want_tag);
  if (c.pos < 0) return false;
  if (force_commit_rank_ == rs.id) return true;
  const int blocker = commit_blocker(rs.id, rs.want_src, c);
  if (blocker < 0) return true;
  watch(rs, blocker);
  return false;
}

void Machine::watch(RankState& rs, int blocker) {
  if (rs.blocked_by == blocker) return;  // already on that list
  rs.blocked_by = blocker;
  sched_->watchers[static_cast<std::size_t>(blocker)].push_back(rs.id);
}

void Machine::mark_dirty(int rank) { Sched::set(sched_->dirty, rank); }

void Machine::wake_watchers(int rank) {
  auto& list = sched_->watchers[static_cast<std::size_t>(rank)];
  for (const int r : list) {
    RankState& w = ranks_[static_cast<std::size_t>(r)];
    if (w.blocked_by != rank) continue;  // stale: re-registered elsewhere
    w.blocked_by = -1;
    if (w.waiting) mark_dirty(r);
  }
  list.clear();
}

int Machine::pick_next(int from) {
  Sched& s = *sched_;
  // The scan start: the rank after the one that just parked, or under a
  // pick seed a drawn rank, so each pick order is a different schedule.
  const int start =
      pick_seed_ == 0
          ? from + 1
          : static_cast<int>(s.pick_rng.next() %
                             static_cast<std::uint64_t>(nranks_));
  const auto scan = [&](int lo, int hi) {
    for (int r = s.first(lo, hi); r >= 0; r = s.first(r + 1, hi)) {
      if (Sched::test(s.dirty, r)) {
        Sched::clear(s.dirty, r);
        if (runnable(ranks_[static_cast<std::size_t>(r)]))
          Sched::set(s.ready, r);
        else
          Sched::clear(s.ready, r);
      }
      if (Sched::test(s.ready, r)) return r;
    }
    return -1;
  };
  int next = scan(start, nranks_);
  if (next < 0) next = scan(0, start);
#ifndef NDEBUG
  // Reference: the full cyclic scan the ready set replaces, from the same
  // start. Every rank it evaluates before its answer was already evaluated
  // above with unchanged inputs, so the re-evaluation has no side effects.
  int scanned = -1;
  for (int step = 0; step < nranks_ && scanned < 0; ++step) {
    const int cand = (start + step) % nranks_;
    if (runnable(ranks_[static_cast<std::size_t>(cand)])) scanned = cand;
  }
  assert(scanned == next && "ready-set pick diverged from the cyclic scan");
#endif
  return next;
}

std::vector<BlockedInfo> Machine::blocked_ranks() const {
  std::vector<BlockedInfo> blocked;
  for (const auto& rs : ranks_) {
    if (rs.done) continue;
    BlockedInfo bi{rs.id, rs.want_src, rs.want_tag, rs.mailbox.size(), false};
    if (rs.want_src >= 0 && rs.want_src < nranks_)
      bi.want_src_crashed =
          ranks_[static_cast<std::size_t>(rs.want_src)].crashed;
    blocked.push_back(bi);
  }
  return blocked;
}

std::string Machine::deadlock_report() const {
  // Emit the wait graph: each blocked rank, what it wants, and the state of
  // the rank it is waiting on (done ranks can never satisfy a recv — the
  // most common deadlock cause). Fail-stopped ranks are named explicitly:
  // waiting on one is a peer failure, not part of a wait cycle.
  std::ostringstream os;
  os << "simulated machine deadlock: all live ranks blocked in recv\n";
  for (const auto& rs : ranks_)
    if (rs.crashed)
      os << "  rank " << rs.id << " CRASHED (fail-stop) at t=" << rs.crash_vtime
         << " and will never send again\n";
  for (const auto& rs : ranks_) {
    if (rs.done) continue;
    os << "  rank " << rs.id << " waiting for (src=" << rs.want_src
       << ", tag=" << rs.want_tag << "), mailbox holds " << rs.mailbox.size()
       << " message(s)";
    if (rs.want_src >= 0 && rs.want_src < nranks_) {
      const auto& peer = ranks_[static_cast<std::size_t>(rs.want_src)];
      if (peer.crashed)
        os << "; rank " << rs.want_src << " crashed at t=" << peer.crash_vtime
           << " — peer failure, not a wait cycle";
      else if (peer.done)
        os << "; rank " << rs.want_src << " already finished";
      else if (peer.waiting)
        os << "; rank " << rs.want_src << " is itself blocked on (src="
           << peer.want_src << ", tag=" << peer.want_tag << ")";
    }
    os << "\n";
  }
  return os.str();
}

int Machine::schedule_next(int rank) {
  wake_watchers(rank);
  int next = pick_next(rank);
  if (next == -1 && live_ > 0) {
    // Global stall: nobody is runnable under the commit-safety rule. Force
    // the globally minimal candidate (see stall_pick); then run the
    // fail-stop ladder — elect the lowest blocked rank that has not yet
    // acknowledged every crash (it wakes into PeerFailedError), else
    // complete a full membership barrier. Only after all three steps fail
    // is the stall a true deadlock.
    const int forced = stall_pick();
    if (forced >= 0) {
      force_commit_rank_ = forced;
      next = forced;
    } else {
      const int victim = pick_failure_victim();
      if (victim >= 0) {
        fail_recv_rank_ = victim;
        next = victim;
      } else if (try_complete_membership()) {
        for (const auto& rs : ranks_)
          if (!rs.done && rs.membership_ready) Sched::set(sched_->ready, rs.id);
        next = pick_next(rank);
      }
    }
    if (next == -1) {
      // Every live rank is blocked. Snapshot the wait graph now, while the
      // parked ranks still show what they wait for; the main context then
      // unwinds them.
      deadlocked_ = true;
      deadlock_report_str_ = deadlock_report();
      deadlock_blocked_ = blocked_ranks();
    }
  }
  if (next >= 0) {
    Sched::clear(sched_->ready, next);
    Sched::clear(sched_->dirty, next);
  }
  return next;
}

void Machine::switch_rank(int from, int to) {
  if (observer_) observer_->on_switch(from, to);
  sched_->fibers.switch_to(from, to);
}

void Machine::yield_from(int rank) {
  if (deadlocked_)
    throw DeadlockError("rank " + std::to_string(rank) +
                        " unwound due to deadlock");
  const int next = schedule_next(rank);
  if (next < 0)
    throw DeadlockError("rank " + std::to_string(rank) +
                        " participated in a deadlock");
  if (next != rank) switch_rank(rank, next);
  // Resumed: either picked again, or by the main context to unwind.
  if (deadlocked_)
    throw DeadlockError("rank " + std::to_string(rank) +
                        " unwound due to deadlock");
}

void Machine::do_send(int src, int dst, int tag,
                      std::vector<std::byte> payload) {
  if (dst < 0 || dst >= nranks_)
    throw std::out_of_range("send: bad destination rank " +
                            std::to_string(dst));
  check_crash(src);
  auto& s = ranks_[static_cast<std::size_t>(src)];
  if (strict_tags_ && tag < 0 && s.collective_depth == 0)
    throw std::invalid_argument(
        "send: tag " + std::to_string(tag) +
        " is in the reserved (negative) collective tag space; user traffic "
        "must use tags >= 0");
  const auto bytes = payload.size();
  const double cost = cost_.message_cost(bytes);
  s.clock += cost;
  auto& pc = s.stats.phase(s.phase);
  pc.msgs_sent += 1;
  pc.bytes_sent += bytes;
  pc.comm_seconds += cost;

  Message m;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  m.arrival = s.clock;
  m.sent_phase = s.phase;
  m.epoch = s.epoch;
  m.payload = std::move(payload);

  // The link sequence number orders a link's traffic for deterministic
  // matching, so it is assigned on every send, faults or not. Assigned
  // before the observer fires so observers can key on (src, dst, seq).
  m.seq = s.next_seq.ref(dst)++;

  if (observer_) {
    SendEvent ev;
    ev.src = src;
    ev.dst = dst;
    ev.tag = tag;
    ev.bytes = bytes;
    ev.phase = s.phase;
    ev.collective_depth = s.collective_depth;
    ev.vtime = s.clock;
    // Stamped before any fault perturbation so a duplicated delivery
    // carries the same send event (same vector clock).
    observer_->on_send(m, ev);
  }

  // A receiver parked on a matching pattern may have just become runnable:
  // queue it for re-evaluation at the next pick.
  auto& d = ranks_[static_cast<std::size_t>(dst)];
  if (d.waiting && match(m, d.want_src, d.want_tag)) mark_dirty(dst);
  auto& dstbox = d.mailbox;
  if (!faults_.message_faults()) {
    dstbox.push_back(std::move(m));
    return;
  }

  // ---- faulty-fabric path: envelope the payload, then perturb ----
  m.checksum = fnv1a(m.payload.data(), m.payload.size());
  m.arrival += faults_.latency_jitter(src);

  const bool duplicate = faults_.should_duplicate(src);
  // The reorder draw is kept for stream compatibility and counters; under
  // key-based matching the physical queue position is inert — observable
  // reordering comes from jittered arrival timestamps instead.
  const bool reorder_first = faults_.should_reorder(src);
  Message copy;
  if (duplicate) {
    copy = m;
    copy.dup = true;
    copy.arrival += faults_.latency_jitter(src);
  }
  // Cross-flow overtake of the youngest queued message of a different
  // (src, tag) flow — kept for physical-order fidelity (iprobe, reports);
  // matching itself is position-independent.
  if (reorder_first && !dstbox.empty() &&
      (dstbox.back().src != src || dstbox.back().tag != tag)) {
    dstbox.insert(dstbox.end() - 1, std::move(m));
  } else {
    dstbox.push_back(std::move(m));
  }
  if (duplicate) dstbox.push_back(std::move(copy));
}

LinkStats& Machine::link_stats(RankState& rs, int src) {
  return rs.links.ref(src);
}

/// Receiver-side recovery of a delivery the fault model corrupted on the
/// wire: prove detection (flip a real bit, watch the FNV-1a checksum
/// mismatch), then model a NACK on the control channel (kTagRetransmit)
/// plus a retransmission from the sender's NIC buffer, with exponential
/// backoff in virtual time. The sender's *program* is never interrupted —
/// the wire copy is retransmitted below it, so the whole round-trip is
/// charged to the receiver as added latency. Throws TransportError once
/// the retry budget is exhausted.
void Machine::recover_corruption(int rank, const Message& m) {
  auto& rs = ranks_[rank];
  const int max_retries = faults_.config().max_retries;
  static constexpr std::size_t kNackBytes = 16;  // seq + checksum echo
  int attempt = 0;
  std::vector<std::byte> tainted;
  while (faults_.should_corrupt_delivery(rank)) {
    tainted = m.payload;
    faults_.flip_random_bit(rank, tainted.data(), tainted.size());
    if (!tainted.empty() &&
        fnv1a(tainted.data(), tainted.size()) == m.checksum) {
      // Checksum collision: a single flipped bit always changes FNV-1a, so
      // this is unreachable; guard anyway rather than loop on a bad model.
      break;
    }
    ++attempt;
    auto& ls = link_stats(rs, m.src);
    ls.corruptions_detected += 1;
    if (attempt > max_retries)
      throw TransportError(
          "transport: message src=" + std::to_string(m.src) +
          " dst=" + std::to_string(m.dst) + " tag=" + std::to_string(m.tag) +
          " seq=" + std::to_string(m.seq) + " still corrupt after " +
          std::to_string(max_retries) + " retransmissions");
    ls.retries += 1;
    // NACK out, fresh copy back, doubling the wait each attempt.
    const double backoff =
        (cost_.message_cost(kNackBytes) + cost_.message_cost(m.bytes())) *
        static_cast<double>(1ULL << std::min(attempt - 1, 20));
    // The backoff advances the clock here; the caller's arrival-to-delivery
    // delta picks it up as comm time, so only traffic is counted directly.
    rs.clock += backoff;
    auto& pc = rs.stats.phase(rs.phase);
    pc.msgs_sent += 1;
    pc.bytes_sent += kNackBytes;
    pc.msgs_recv += 1;
    pc.bytes_recv += m.bytes();
    // iter slot carries the source rank so traces can attribute the retry
    // to a link; value is the virtual-time cost of this round-trip.
    note_mark(rank, "transport.retry", m.src, backoff);
  }
}

Message Machine::commit_recv(int rank, const Candidate& c, int src, int tag,
                             bool fp_payload) {
  auto& rs = ranks_[static_cast<std::size_t>(rank)];
  const bool mf = faults_.message_faults();
  if (mf && faults_.config().duplicate_prob > 0.0)
    rs.seen_seq.ref(c.src).insert(c.seq);
  auto it = rs.mailbox.begin() + c.pos;
  Message m = std::move(*it);
  rs.mailbox.erase(it);
  const double before = rs.clock;
  rs.clock = std::max<double>(rs.clock, m.arrival);
  if (cost_.recv_copy_mu > 0.0)
    rs.clock += cost_.recv_copy_mu * static_cast<double>(m.bytes());
  if (mf && faults_.config().corrupt_prob > 0.0) recover_corruption(rank, m);
  auto& pc = rs.stats.phase(rs.phase);
  pc.msgs_recv += 1;
  pc.bytes_recv += m.bytes();
  pc.comm_seconds += rs.clock - before;
  rs.waiting = false;
  if (observer_) {
    RecvEvent ev;
    ev.rank = rank;
    ev.want_src = src;
    ev.want_tag = tag;
    ev.fp_payload = fp_payload;
    ev.order_insensitive = rs.unordered_depth > 0;
    ev.phase = rs.phase;
    ev.collective_depth = rs.collective_depth;
    ev.vtime = rs.clock;
    // The matched message is already out of the mailbox: what is left
    // are the still-pending messages (race candidates among them).
    observer_->on_recv(m, ev, rs.mailbox);
  }
  return m;
}

Message Machine::do_recv(int rank, int src, int tag, bool fp_payload) {
  auto& rs = ranks_[static_cast<std::size_t>(rank)];
  if (strict_tags_ && tag != kAnyTag && tag < 0 && rs.collective_depth == 0)
    throw std::invalid_argument(
        "recv: explicit tag " + std::to_string(tag) +
        " is in the reserved (negative) collective tag space; user receives "
        "must use tags >= 0 or kAnyTag");
  check_crash(rank);
  for (;;) {
    if (fail_recv_rank_ == rank) {
      fail_recv_rank_ = -1;
      throw_peer_failure(rank);
    }
    const Candidate c = find_candidate(rank, src, tag);
    int blocker = -1;
    if (c.pos >= 0) {
      if (force_commit_rank_ == rank) {
        force_commit_rank_ = -1;
        return commit_recv(rank, c, src, tag, fp_payload);
      }
      blocker = commit_blocker(rank, src, c);
      if (blocker < 0) return commit_recv(rank, c, src, tag, fp_payload);
    }
    rs.waiting = true;
    rs.want_src = src;
    rs.want_tag = tag;
    if (blocker >= 0) watch(rs, blocker);
    yield_from(rank);
    rs.waiting = false;
  }
}

bool Machine::do_iprobe(int rank, int src, int tag) {
  for (const auto& m : ranks_[static_cast<std::size_t>(rank)].mailbox)
    if (match(m, src, tag)) return true;
  return false;
}

void Machine::charge(int rank, double seconds, bool is_compute) {
  auto& rs = ranks_[rank];
  if (is_compute && faults_.compute_faults())
    seconds *= faults_.compute_factor(rank);
  rs.clock += seconds;
  auto& pc = rs.stats.phase(rs.phase);
  if (is_compute)
    pc.compute_seconds += seconds;
  else
    pc.comm_seconds += seconds;
  // Compute boundaries are fail-stop points too: the stats above stay
  // booked — a real node burns the cycles before it dies.
  check_crash(rank);
}

// ---------------------------------------------------------------------------
// Fail-stop crash machinery. Crash points are pre-drawn per rank (FaultModel)
// and compared against the rank's own clock at rank-local boundaries, so the
// set of crashes reached by any quiescent state is a per-rank property of the
// program — identical under every pick order.
// ---------------------------------------------------------------------------

void Machine::check_crash(int rank) {
  if (!faults_.crash_faults()) return;
  auto& rs = ranks_[static_cast<std::size_t>(rank)];
  if (rs.crashed) return;
  const double now = rs.clock;
  if (now < faults_.crash_time(rank)) return;
  faults_.count_crash(rank);
  note_mark(rank, "fault.crash", -1, now);
  throw RankCrashed(rank, now);
}

void Machine::record_crash(int rank, double vtime) {
  auto& rs = ranks_[static_cast<std::size_t>(rank)];
  rs.crashed = true;
  rs.crash_vtime = vtime;
  ++crashed_count_;
  if (fail_recv_rank_ == rank) fail_recv_rank_ = -1;
  if (force_commit_rank_ == rank) force_commit_rank_ = -1;
}

int Machine::pick_failure_victim() const {
  if (crashed_count_ == 0) return -1;
  for (const auto& rs : ranks_) {
    if (rs.done || !rs.waiting) continue;
    for (const auto& peer : ranks_) {
      if (!peer.crashed) continue;
      if (!rs.acked_peer.find(peer.id)) return rs.id;
    }
  }
  return -1;
}

void Machine::throw_peer_failure(int rank) {
  auto& rs = ranks_[static_cast<std::size_t>(rank)];
  const double lease = faults_.config().crash_lease_seconds;
  std::vector<CrashRecord> fresh;
  double bound = rs.clock;
  for (const auto& peer : ranks_) {
    if (!peer.crashed || rs.acked_peer.find(peer.id)) continue;
    rs.acked_peer.ref(peer.id) = 1;
    fresh.push_back({peer.id, peer.crash_vtime});
    bound = std::max(bound, peer.crash_vtime + lease);
  }
  // Detection costs virtual time: the survivor sits out the dead peer's
  // lease before it may declare the failure, like a heartbeat timeout.
  const double before = rs.clock;
  rs.clock = bound;
  rs.stats.phase(rs.phase).comm_seconds += bound - before;
  rs.waiting = false;
  note_mark(rank, "fault.crash_detected", -1,
            static_cast<double>(fresh.size()));
  std::ostringstream os;
  os << "rank " << rank << " detected fail-stop of peer(s):";
  for (const auto& f : fresh)
    os << " rank " << f.rank << " (crashed at t=" << f.vtime << ")";
  throw PeerFailedError(os.str(), std::move(fresh), rank);
}

bool Machine::try_complete_membership() {
  bool any = false;
  for (const auto& rs : ranks_) {
    if (rs.done) continue;
    // A ready-but-not-yet-woken member is *leaving* the barrier, not in it;
    // counting it would let a quiescent stall build a second view before
    // every survivor consumed the first.
    if (!rs.in_membership || rs.membership_ready) return false;
    any = true;
  }
  if (!any) return false;

  MembershipView v;
  v.epoch = ++epoch_;
  const double lease = faults_.config().crash_lease_seconds;
  double agreed = 0.0;
  if (view_reported_.size() != static_cast<std::size_t>(nranks_))
    view_reported_.assign(static_cast<std::size_t>(nranks_), 0);
  for (const auto& rs : ranks_) {
    if (rs.crashed && !view_reported_[static_cast<std::size_t>(rs.id)]) {
      view_reported_[static_cast<std::size_t>(rs.id)] = 1;
      v.failed.push_back({rs.id, rs.crash_vtime});
      agreed = std::max(agreed, rs.crash_vtime + lease);
    }
    if (!rs.done) {
      v.survivors.push_back(rs.id);
      agreed = std::max(agreed, rs.clock);
    }
  }
  // Deterministic agreement cost: two binomial sweeps (propose + confirm)
  // of small control messages over the survivor group.
  static constexpr std::size_t kAgreeBytes = 16;
  int rounds = 0;
  while ((1 << rounds) < static_cast<int>(v.survivors.size())) ++rounds;
  v.vtime = agreed + 2.0 * rounds * cost_.message_cost(kAgreeBytes);

  for (auto& rs : ranks_) {
    if (rs.done) continue;
    auto& pc = rs.stats.phase(rs.phase);
    pc.comm_seconds += v.vtime - rs.clock;
    rs.clock = v.vtime;
    rs.epoch = v.epoch;
    for (const auto& peer : ranks_) {
      if (!peer.crashed) continue;
      rs.acked_peer.ref(peer.id) = 1;
      // Membership-epoch purge of dead-peer transport state: a crashed rank
      // never sends again and can never receive, so the dedup set and the
      // sequence counter indexed by it are dead weight. Before the tables
      // went sparse these slots (sized to the *initial* world) survived
      // every shrink; now the entries are dropped outright, so post-crash
      // state is indexed by live peers only.
      rs.seen_seq.erase(peer.id);
      rs.next_seq.erase(peer.id);
    }
    // Purge pre-agreement traffic: messages stamped with an older epoch can
    // never be matched again (their senders' epoch has moved on, or died).
    auto& box = rs.mailbox;
    for (auto it = box.begin(); it != box.end();)
      it = (it->epoch < v.epoch) ? box.erase(it) : std::next(it);
    rs.membership_ready = true;
    // Every survivor resumes at the same agreed time in the same epoch; the
    // mark fires at quiescence, so observer buffers are safe to touch.
    note_mark(rs.id, "membership.agree", v.epoch,
              static_cast<double>(v.survivors.size()));
  }
  pending_view_ = std::move(v);
  return true;
}

MembershipView Machine::do_agree(int rank) {
  check_crash(rank);
  auto& rs = ranks_[static_cast<std::size_t>(rank)];
  rs.in_membership = true;
  while (!rs.membership_ready) yield_from(rank);
  rs.in_membership = false;
  rs.membership_ready = false;
  return pending_view_;
}

void Machine::fiber_entry(void* machine, int rank) {
  static_cast<Machine*>(machine)->rank_main(rank);
}

void Machine::rank_main(int rank) {
  bool did_crash = false;
  double crash_vt = 0.0;
  try {
    Comm comm(this, rank);
    (*program_)(comm);
  } catch (const RankCrashed& c) {
    // Fail-stop: the rank simply stops. Not an error — survivors detect it
    // through the lease machinery and may recover.
    did_crash = true;
    crash_vt = c.vtime();
  } catch (const DeadlockError&) {
    // Already recorded globally; just unwind.
  } catch (...) {
    ranks_[static_cast<std::size_t>(rank)].error = std::current_exception();
  }
  if (did_crash) record_crash(rank, crash_vt);
  ranks_[static_cast<std::size_t>(rank)].done = true;
  --live_;
  exit_rank(rank);
}

void Machine::exit_rank(int rank) {
  // -1 hands control back to the main context: the run completed, or it
  // deadlocked and the main context unwinds the parked ranks.
  const int next = deadlocked_ ? -1 : schedule_next(rank);
  if (observer_) observer_->on_switch(rank, next);
  sched_->fibers.exit_to(rank, next);
}

RunResult Machine::collect_results() {
  for (const auto& rs : ranks_)
    if (rs.error) std::rethrow_exception(rs.error);

  if (observer_) {
    std::vector<const std::deque<Message>*> boxes;
    std::vector<double> clocks;
    boxes.reserve(ranks_.size());
    clocks.reserve(ranks_.size());
    for (const auto& rs : ranks_) {
      boxes.push_back(&rs.mailbox);
      clocks.push_back(rs.clock);
    }
    observer_->on_run_end(boxes, clocks);
  }

  RunResult result;
  result.ranks.reserve(ranks_.size());
  for (const auto& rs : ranks_) {
    RankReport rep;
    rep.rank = rs.id;
    rep.clock = rs.clock;
    rep.stats = rs.stats;
    if (faults_.enabled()) rep.faults = faults_.counters(rs.id);
    // The report keeps its dense per-source shape (indexed by world rank,
    // serialized and compared slot-by-slot downstream); only the live
    // machine state is sparse. Materialized here, at collection time.
    if (!rs.links.empty()) {
      rep.links.assign(static_cast<std::size_t>(nranks_), LinkStats{});
      for (const auto& e : rs.links)
        rep.links[static_cast<std::size_t>(e.rank)] = e.value;
    }
    rep.crashed = rs.crashed;
    rep.crash_vtime = rs.crash_vtime;
    if (rs.crashed) result.crashes.push_back({rs.id, rs.crash_vtime});
    result.ranks.push_back(std::move(rep));
  }
  result.epochs = epoch_;
  return result;
}

std::size_t Machine::rank_transport_bytes(int rank) const {
  const auto& rs = ranks_[static_cast<std::size_t>(rank)];
  // Size-based (live entries, not capacity): a deterministic function of
  // the rank's consumed/sent message history, so the value is identical
  // under every pick order at the same program point — safe to export as a
  // metric that must stay bit-identical.
  using NextSeqMap = util::SparseRankMap<std::uint64_t>;
  using SeenMap = util::SparseRankMap<std::unordered_set<std::uint64_t>>;
  using LinkMap = util::SparseRankMap<LinkStats>;
  using AckMap = util::SparseRankMap<char>;
  std::size_t b = rs.next_seq.size() * sizeof(NextSeqMap::Entry) +
                  rs.seen_seq.size() * sizeof(SeenMap::Entry) +
                  rs.links.size() * sizeof(LinkMap::Entry) +
                  rs.acked_peer.size() * sizeof(AckMap::Entry);
  for (const auto& e : rs.seen_seq) {
    // Nodes + bucket array of the dedup set (libstdc++ layout estimate).
    b += e.value.size() * (sizeof(std::uint64_t) + 2 * sizeof(void*)) +
         e.value.bucket_count() * sizeof(void*);
  }
  return b;
}

std::size_t Machine::rank_transport_peers(int rank) const {
  const auto& rs = ranks_[static_cast<std::size_t>(rank)];
  // Union of the peers present in any of the four transport maps; each map
  // iterates in ascending rank order, so a 4-way ascending merge counts
  // distinct peers without any allocation.
  std::size_t n = 0;
  auto a = rs.next_seq.begin();
  auto b = rs.seen_seq.begin();
  auto c = rs.links.begin();
  auto d = rs.acked_peer.begin();
  constexpr int kEnd = std::numeric_limits<int>::max();
  for (;;) {
    const int ra = a != rs.next_seq.end() ? a->rank : kEnd;
    const int rb = b != rs.seen_seq.end() ? b->rank : kEnd;
    const int rc = c != rs.links.end() ? c->rank : kEnd;
    const int rd = d != rs.acked_peer.end() ? d->rank : kEnd;
    const int m = std::min(std::min(ra, rb), std::min(rc, rd));
    if (m == kEnd) return n;
    ++n;
    if (ra == m) ++a;
    if (rb == m) ++b;
    if (rc == m) ++c;
    if (rd == m) ++d;
  }
}

RunResult Machine::run(const std::function<void(Comm&)>& program) {
  ranks_.assign(static_cast<std::size_t>(nranks_), RankState{});
  for (int i = 0; i < nranks_; ++i)
    ranks_[static_cast<std::size_t>(i)].id = i;
  if (observer_) observer_->on_run_start(nranks_);
  faults_.reset();  // identical fault streams on every run of this Machine
  live_ = nranks_;
  deadlocked_ = false;
  force_commit_rank_ = -1;
  fail_recv_rank_ = -1;
  epoch_ = 0;
  crashed_count_ = 0;
  pending_view_ = MembershipView{};
  view_reported_.assign(static_cast<std::size_t>(nranks_), 0);
  deadlock_report_str_.clear();
  deadlock_blocked_.clear();

  Sched& s = *sched_;
  s.reset(nranks_, pick_seed_);
  s.fibers.reset(nranks_, &Machine::fiber_entry, this);
  program_ = &program;
  const int first = pick_next(-1);  // every rank is ready
  Sched::clear(s.ready, first);
  switch_rank(-1, first);
  // Back in the main context: every rank finished, or the run deadlocked.
  // Resume each parked rank once; it throws DeadlockError out of its wait,
  // unwinds its stack (running the program's destructors) and exits.
  if (deadlocked_)
    for (int r = 0; r < nranks_; ++r)
      if (!ranks_[static_cast<std::size_t>(r)].done) switch_rank(-1, r);
  program_ = nullptr;
  if (deadlocked_) {
    // A rank's own exception is the root cause of the peers it left
    // waiting; report it ahead of the deadlock it led to.
    for (const auto& rs : ranks_)
      if (rs.error) std::rethrow_exception(rs.error);
    throw DeadlockError(deadlock_report_str_, std::move(deadlock_blocked_));
  }
  return collect_results();
}

}  // namespace picpar::sim
