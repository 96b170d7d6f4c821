// picpar host-cost benchmark program (one workload per process).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work DIR --details FILE [--toy] [--expect-hash HEX]
//
// --trace 0 times whole workload runs with tracing off and prints the
// end-to-end metrics; --trace 1 makes the traced run plus the layer replay
// and prints the per-layer metrics. Either way the last stdout line is
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// and FILE receives the samples, hashes, failures, spans and counters.
// Scratch cache directories go under DIR and are removed before exit.
//
// A run fails when run_pic or run_sweep throws, when particles are not
// conserved (initial + emitted - absorbed != final), or when the virtual
// output hash differs from --expect-hash or from the first run of this
// process. Host time never enters the hash.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "json.hpp"
#include "pic/result_io.hpp"
#include "pic/simulation.hpp"
#include "replay.hpp"
#include "scenario/scenario.hpp"
#include "sim/faults.hpp"
#include "spans.hpp"
#include "sweep/cache.hpp"
#include "sweep/sweep.hpp"
#include "trace/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using picpar::pic::PicParams;
using picpar::pic::PicResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  std::string expect_hash;
  std::string work;
  std::string details;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--toy") {
      a.toy = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      std::size_t used = 0;
      if (v.empty() || v[0] == '-') throw std::invalid_argument("bad --seed");
      a.seed = std::stoull(v, &used);
      if (used != v.size()) throw std::invalid_argument("bad --seed");
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("bad --trace");
      a.trace = v == "1";
    } else if (k == "--expect-hash") {
      a.expect_hash = v;
    } else if (k == "--work") {
      a.work = v;
    } else if (k == "--details") {
      a.details = v;
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (a.workload.empty() || !have_seed || a.work.empty() || a.details.empty())
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--work DIR --details FILE [--toy] [--expect-hash HEX]");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("bad --seconds");
  return a;
}

std::string fnv1a_hex(const std::string& s) {
  const std::uint64_t h = picpar::sim::fnv1a(
      reinterpret_cast<const std::byte*>(s.data()), s.size());
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Virtual-output hash of a run: every field of the result except the
/// host-clock phase_wall_us.
std::string pic_hash(PicResult r) {
  r.phase_wall_us.clear();
  return fnv1a_hex(picpar::pic::serialize_result(r));
}

std::uint64_t msgs_of(const PicResult& r) {
  std::uint64_t n = 0;
  for (const auto& rk : r.machine.ranks) n += rk.stats.total().msgs_sent;
  return n;
}

bool conserved(const PicResult& r) {
  return r.initial_particles + r.emitted_particles - r.absorbed_particles ==
         r.final_particles;
}

struct Usage {
  double user = 0.0, sys = 0.0;
  long nvcsw = 0;
  double max_rss_mb = 0.0;
};

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {sec(ru.ru_utime), sec(ru.ru_stime), ru.ru_nvcsw,
          static_cast<double>(ru.ru_maxrss) / 1024.0};
}

/// Pass/fail bookkeeping for every checked run.
class Checker {
public:
  explicit Checker(std::string expect) : expect_(std::move(expect)) {}

  /// Check one run: `ok` covers exceptions and invariants; `hash` must
  /// match the expected hash (or, without one, the first hash seen under
  /// the same `stream`).
  void run(const std::string& what, bool ok, const std::string& stream = "",
           const std::string& hash = "") {
    ++attempted_;
    std::string why = ok ? "" : "invariant broken";
    if (ok && !hash.empty()) {
      auto [it, fresh] = first_.emplace(stream, hash);
      if (stream == "virtual" && !expect_.empty() && hash != expect_)
        why = "virtual hash " + hash + " != expected " + expect_;
      else if (!fresh && hash != it->second)
        why = "hash " + hash + " != first run's " + it->second;
    }
    if (!why.empty()) record(what + ": " + why);
  }

  /// Count one attempted run that failed.
  void fail(const std::string& why) {
    ++attempted_;
    record(why);
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failures_.size(); }
  const std::vector<std::string>& failures() const { return failures_; }
  std::string virtual_hash() const {
    auto it = first_.find("virtual");
    return it == first_.end() ? "" : it->second;
  }

private:
  void record(const std::string& why) {
    failures_.push_back(why);
    if (failures_.size() <= 3) std::cerr << "perfbench: FAILED " << why << "\n";
  }

  std::string expect_;
  std::map<std::string, std::string> first_;
  std::uint64_t attempted_ = 0;
  std::vector<std::string> failures_;
};

/// Metric values in output order, with units.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> v;
  void set(const std::string& name, double value, const std::string& unit) {
    v.push_back({name, {value, unit}});
  }
  void write(Json& j) const {
    j.begin_object();
    for (const auto& [name, vu] : v) {
      j.key(name).begin_object();
      j.key("value").num(vu.first);
      j.key("unit").str(vu.second);
      j.end_object();
    }
    j.end_object();
  }
};

/// Set-up samples taken in each repetition, before its full run.
constexpr int kSetupSamples = 2;

/// Repeat `rep` (set-up samples plus one full run) until `seconds` of host
/// time are spent, with at least three and at most 200 repetitions. A
/// repetition that would overrun the budget is not started. An exception
/// fails that repetition only.
void timed_loop(double seconds, Checker& check,
                const std::function<void()>& rep) {
  const double start = now_s();
  double last = 0.0;
  for (int n = 0; n < 200; ++n) {
    if (n >= 3 && now_s() - start + last > seconds) break;
    const double t0 = now_s();
    try {
      rep();
    } catch (const std::exception& e) {
      check.fail(std::string("exception: ") + e.what());
    }
    last = now_s() - t0;
  }
}

class Bench {
public:
  explicit Bench(Args a)
      : a_(std::move(a)),
        w_(make_workload(a_.workload, a_.seed, a_.toy)),
        check_(a_.expect_hash),
        spans_(a_.workload + "-s" + std::to_string(a_.seed) + "-t" +
               (a_.trace ? "1" : "0") + "-pid" + std::to_string(getpid())) {
    work_ = fs::path(a_.work) / ("run-" + std::to_string(getpid()));
    fs::remove_all(work_);
    fs::create_directories(work_);
  }
  ~Bench() {
    std::error_code ec;
    fs::remove_all(work_, ec);
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  void run() {
    spans_.open("perfbench." + w_.name);
    const bool pic = w_.kind == Kind::kPic;
    if (a_.trace) {
      if (pic) traced_pic(); else traced_sweep();
    } else {
      if (pic) timed_pic(); else timed_sweep();
    }
    spans_.close();
  }

  void report() const {
    Json line;
    line.begin_object();
    line.key("correct").boolean(check_.failed() == 0);
    line.key("attempted").num(check_.attempted());
    line.key("failed").num(check_.failed());
    line.key("metrics");
    metrics_.write(line);
    line.end_object();

    Json d;
    d.begin_object();
    d.key("workload").str(w_.name);
    d.key("seed").num(a_.seed);
    d.key("toy").boolean(a_.toy);
    d.key("trace").boolean(a_.trace);
    d.key("virtual_hash").str(check_.virtual_hash());
    d.key("expected_hash").str(a_.expect_hash);
    d.key("failures").begin_array();
    for (const auto& f : check_.failures()) d.str(f);
    d.end_array();
    d.key("samples").begin_object();
    for (const auto& [name, xs] : samples_) {
      d.key(name).begin_array();
      for (double x : xs) d.num(x);
      d.end_array();
    }
    d.end_object();
    d.key("result");
    d.raw(line.text());
    if (a_.trace) {
      d.key("trace");
      spans_.write(d);
      d.key("run_pic_metrics");
      d.raw(counters_json_.empty() ? "{}" : counters_json_);
    }
    d.end_object();
    std::ofstream f(a_.details, std::ios::binary | std::ios::trunc);
    f << d.text() << "\n";
    if (!f) throw std::runtime_error("cannot write " + a_.details);
    std::cout << line.text() << std::endl;
  }

private:
  PicResult checked_pic(const PicParams& q, const std::string& what,
                        const std::string& stream) {
    PicResult r = picpar::pic::run_pic(q);
    check_.run(what, conserved(r), stream, pic_hash(r));
    return r;
  }

  std::string fresh_dir(const std::string& tag) {
    const fs::path d = work_ / (tag + std::to_string(dirs_++));
    fs::remove_all(d);
    return d.string();
  }

  struct SweepPass {
    picpar::sweep::SweepReport cold, warm;
    double cold_s = 0.0, warm_s = 0.0;
  };

  /// Cold pass into a fresh cache, then a warm pass that must read all of
  /// it back: byte-identical comparison CSV, zero simulations.
  SweepPass checked_sweep(const std::vector<picpar::sweep::Job>& jobs) {
    SweepPass s;
    const picpar::sweep::SweepOptions opt{w_.sweep_workers, fresh_dir("cache"),
                                          0};
    double t0 = now_s();
    s.cold = picpar::sweep::run_sweep(jobs, opt);
    s.cold_s = now_s() - t0;
    t0 = now_s();
    s.warm = picpar::sweep::run_sweep(jobs, opt);
    s.warm_s = now_s() - t0;
    const std::string csv = picpar::sweep::comparison_csv(s.cold);
    bool ok = s.cold.stats.simulated == s.cold.stats.unique &&
              s.warm.stats.simulated == 0 &&
              s.warm.stats.hits == s.warm.stats.unique &&
              picpar::sweep::comparison_csv(s.warm) == csv;
    for (const auto& o : s.cold.outcomes) ok = ok && conserved(o.result);
    check_.run("sweep", ok, "virtual", fnv1a_hex(csv));
    fs::remove_all(opt.cache_dir);
    return s;
  }

  std::vector<picpar::sweep::Job> jobs_of(
      const std::vector<picpar::sweep::GridJob>& g) const {
    std::vector<picpar::sweep::Job> jobs;
    for (const auto& j : g) jobs.push_back({j.label, j.params});
    return jobs;
  }

  void end_to_end(double msgs) {
    const double wall = mean(samples_.at("wall_s"));
    metrics_.set("wall_s", wall, "s");
    metrics_.set("setup_s", mean(samples_.at("setup_s")), "s");
    metrics_.set("cpu_s", mean(samples_.at("cpu_s")), "s");
    note_rss();
    metrics_.set("peak_rss_mb", rss_mb_, "MB");
    metrics_.set("msgs_per_s", msgs / wall, "1/s");
    metrics_.set("ok_frac",
                 static_cast<double>(check_.attempted() - check_.failed()) /
                     static_cast<double>(std::max<std::uint64_t>(
                         1, check_.attempted())),
                 "ratio");
  }

  /// Peak RSS once the first repetition has ended: the high-water mark of
  /// a fixed amount of work. Later repetitions only add heap fragmentation,
  /// and how many of them fit in the time budget depends on the host.
  void note_rss() {
    if (rss_mb_ == 0.0) rss_mb_ = usage().max_rss_mb;
  }

  // ---------------- --trace 0: end-to-end ----------------

  /// The workload's config with iterations = 0: its set-up alone.
  PicParams setup_params() const {
    PicParams q = w_.params;
    q.iterations = 0;
    return q;
  }

  void timed_pic() {
    const PicParams setup = setup_params();
    // An untimed set-up first: the first run in a process pays for cold
    // caches and a growing heap.
    checked_pic(setup, "warm-up run", "setup");
    double msgs = 0.0;
    timed_loop(a_.seconds, check_, [&] {
      for (int i = 0; i < kSetupSamples; ++i) {
        const double t0 = now_s();
        checked_pic(setup, "setup run", "setup");
        samples_["setup_s"].push_back(now_s() - t0);
      }
      const Usage u0 = usage();
      const double t0 = now_s();
      const PicResult r = checked_pic(w_.params, "full run", "virtual");
      samples_["wall_s"].push_back(now_s() - t0);
      const Usage u1 = usage();
      samples_["cpu_s"].push_back(u1.user + u1.sys - u0.user - u0.sys);
      samples_["sys_s"].push_back(u1.sys - u0.sys);
      msgs = static_cast<double>(msgs_of(r));
      note_rss();
    });
    end_to_end(msgs);
  }

  /// Sweep set-up: grid parse, expansion, job fingerprinting and opening
  /// the result cache in `dir`. One set-up takes a fraction of a
  /// millisecond, so a sample is the mean over a batch. The batch reopens
  /// one cache directory: a fresh directory per set-up made the file
  /// system's mkdir cost climb from run to run.
  void sweep_setup(const std::string& dir) {
    constexpr int kBatch = 100;
    std::size_t n = 0, jobs = 0;
    const double t0 = now_s();
    for (int i = 0; i < kBatch; ++i) {
      const auto js = sweep_jobs(w_);
      for (const auto& j : js) n += j.params.fingerprint().size();
      const picpar::sweep::ResultCache cache(dir);
      jobs += js.size();
    }
    samples_["setup_s"].push_back((now_s() - t0) / kBatch);
    if (n != 16 * jobs) check_.fail("setup: bad fingerprints");
  }

  void timed_sweep() {
    double msgs = 0.0;
    const std::string dir = fresh_dir("setup");
    sweep_setup(dir);
    samples_["setup_s"].clear();  // warm-up batch
    timed_loop(a_.seconds, check_, [&] {
      for (int i = 0; i < kSetupSamples; ++i) sweep_setup(dir);
      const Usage u0 = usage();
      const double t0 = now_s();
      const SweepPass s = checked_sweep(jobs_of(sweep_jobs(w_)));
      samples_["wall_s"].push_back(now_s() - t0);
      const Usage u1 = usage();
      samples_["cpu_s"].push_back(u1.user + u1.sys - u0.user - u0.sys);
      samples_["sys_s"].push_back(u1.sys - u0.sys);
      msgs = 0.0;
      for (const auto& o : s.cold.outcomes)
        msgs += static_cast<double>(msgs_of(o.result));
      note_rss();
    });
    end_to_end(msgs);
  }

  // ---------------- --trace 1: per-layer ----------------

  /// Everything a per-layer report needs besides the replay's costs.
  struct Layers {
    // Exact counts from the untraced run(s).
    double msgs = 0.0, redists = 0.0, moved = 0.0, ghosts = 0.0;
    double virtual_s = 0.0;
    Usage usage;  ///< getrusage deltas over the untraced run(s)
    // From the traced run(s): observer events, max-over-ranks gauges.
    double events = 0.0;
    std::map<std::string, double> mem;
    // Host seconds.
    double serialize_s = 0.0, fingerprint_s = 0.0, store_s = 0.0,
           load_s = 0.0, warm_s = 0.0, iteration_s = 0.0;
    double unattributed = 0.0, overhead = 0.0, pool_efficiency = 0.0;

    void add_run(const PicResult& r) {
      msgs += static_cast<double>(msgs_of(r));
      redists += r.redistributions;
      virtual_s += r.total_seconds;
      for (const auto& it : r.iters) {
        moved += static_cast<double>(it.redist_particles_moved);
        ghosts = std::max(ghosts, static_cast<double>(it.max_ghost_entries));
      }
    }

    void add_traced(const PicResult& traced) {
      events += static_cast<double>(traced.trace_events);
      const auto snap =
          picpar::trace::MetricsSnapshot::from_json(traced.metrics_json);
      for (const auto& [name, value] : snap.gauges)
        if (name.rfind("mem.", 0) == 0) mem[name] = std::max(mem[name], value);
    }
  };

  /// Host seconds of one checked set-up run of the workload's shape.
  double setup_wall() {
    const double t0 = now_s();
    checked_pic(setup_params(), "setup run", "setup");
    return now_s() - t0;
  }

  /// Replay-estimated host time of one run_pic of `q` that made
  /// `redists` redistributions.
  static double attributed(const ReplayCosts& c, const PicParams& q,
                           int redists) {
    const bool injects =
        !q.scenario.empty() &&
        picpar::scenario::get_scenario(q.scenario).injector.enabled;
    const double per_iter = c.scatter_s + c.maxwell_s + c.gather_s +
                            c.push_s + c.allreduce_s +
                            (injects ? c.inject_s : 0.0);
    return c.empty_run_s + c.generate_s + c.index_cache_s +
           c.domain_setup_s + c.distribute_s + c.allreduce_s +
           q.iterations * per_iter +
           redists * (c.redistribute_s + c.allreduce_s);
  }

  void layer_metrics(const ReplayCosts& c, const Layers& l) {
    metrics_.set("sim.msgs", l.msgs, "count");
    metrics_.set("sim.vol_ctx_switches", static_cast<double>(l.usage.nvcsw),
                 "count");
    metrics_.set("sim.sys_s", l.usage.sys, "s");
    metrics_.set("sim.empty_run_ms", c.empty_run_s * 1e3, "ms");
    metrics_.set("sim.p2p_ns_per_msg", c.p2p_s_per_msg * 1e9, "ns");
    metrics_.set("sim.wildcard_ns_per_msg", c.wildcard_s_per_msg * 1e9, "ns");
    metrics_.set("comm.allreduce_us", c.allreduce_s * 1e6, "us");
    metrics_.set("core.distribute_s", c.distribute_s, "s");
    metrics_.set("core.redistribute_s", c.redistribute_s, "s");
    metrics_.set("core.particles_moved", l.moved, "count");
    metrics_.set("core.redistributions", l.redists, "count");
    metrics_.set("core.scatter_s", c.scatter_s, "s");
    metrics_.set("core.gather_s", c.gather_s, "s");
    metrics_.set("core.ghost_entries", l.ghosts, "count");
    metrics_.set("mesh.maxwell_step_ms", c.maxwell_s * 1e3, "ms");
    metrics_.set("particles.push_ns_per_particle",
                 c.push_s * 1e9 / static_cast<double>(c.particles), "ns");
    metrics_.set("particles.generate_s", c.generate_s, "s");
    metrics_.set("sfc.index_cache_ms", c.index_cache_s * 1e3, "ms");
    metrics_.set("sfc.grid_partition_ms", c.grid_partition_s * 1e3, "ms");
    metrics_.set("scenario.inject_us", c.inject_s * 1e6, "us");
    metrics_.set("pic.virtual_s", l.virtual_s, "s");
    metrics_.set("pic.serialize_ms", l.serialize_s * 1e3, "ms");
    metrics_.set("pic.iteration_ms", l.iteration_s * 1e3, "ms");
    metrics_.set("pic.unattributed_frac", l.unattributed, "ratio");
    metrics_.set("sweep.fingerprint_us", l.fingerprint_s * 1e6, "us");
    metrics_.set("sweep.cache_store_ms", l.store_s * 1e3, "ms");
    metrics_.set("sweep.cache_load_ms", l.load_s * 1e3, "ms");
    metrics_.set("sweep.warm_s", l.warm_s, "s");
    metrics_.set("sweep.pool_efficiency", l.pool_efficiency, "ratio");
    metrics_.set("trace.overhead_frac", l.overhead, "ratio");
    metrics_.set("trace.events", l.events, "count");
    for (const char* m : {"mem.peak_bytes", "mem.machine_bytes",
                          "mem.exchange_bytes", "mem.sort_bytes"}) {
      const auto it = l.mem.find(m);
      metrics_.set(m, it == l.mem.end() ? 0.0 : it->second, "bytes");
    }
  }

  static double serialize_round_trip(const PicResult& r) {
    double t0 = now_s();
    const std::string text = picpar::pic::serialize_result(r);
    const PicResult back = picpar::pic::parse_result(text);
    const double s = now_s() - t0;
    if (picpar::pic::serialize_result(back) != text)
      throw std::runtime_error("serialize_result round trip differs");
    return s;
  }

  static double fingerprint_each(const std::vector<picpar::sweep::Job>& jobs) {
    constexpr int kReps = 20;
    std::size_t n = 0;
    const double t0 = now_s();
    for (int k = 0; k < kReps; ++k)
      for (const auto& j : jobs) n += j.params.fingerprint().size();
    const double s = (now_s() - t0) / static_cast<double>(kReps * jobs.size());
    if (n != 16 * kReps * jobs.size())
      throw std::runtime_error("fingerprint is not 16 hex digits");
    return s;
  }

  /// Store every result into a fresh cache and load it back; records the
  /// mean seconds per store and per load.
  void cache_round_trip(const std::vector<picpar::sweep::Outcome>& outs,
                        Layers& l) {
    const picpar::sweep::ResultCache cache(fresh_dir("rt"));
    {
      Scope s(spans_, "sweep.cache_store");
      const double t0 = now_s();
      for (const auto& o : outs)
        if (!cache.store(o.fingerprint, o.params.canonical(), o.result))
          check_.fail("cache store of " + o.label);
      l.store_s = (now_s() - t0) / static_cast<double>(outs.size());
    }
    {
      Scope s(spans_, "sweep.cache_load");
      bool ok = true;
      const double t0 = now_s();
      for (const auto& o : outs) {
        PicResult back;
        ok = ok && cache.load(o.fingerprint, back) ==
                       picpar::sweep::CacheLoad::kHit &&
             pic_hash(back) == pic_hash(o.result);
      }
      l.load_s = (now_s() - t0) / static_cast<double>(outs.size());
      check_.run("cache load", ok);
    }
    fs::remove_all(cache.dir());
  }

  void traced_pic() {
    const PicParams& q = w_.params;
    Layers l;
    // Untraced reference run: counters and the attribution base.
    PicResult r;
    double wall = 0.0;
    {
      Scope s(spans_, "pic.run_pic");
      const Usage u0 = usage();
      const double t0 = now_s();
      r = checked_pic(q, "untraced run", "virtual");
      wall = now_s() - t0;
      const Usage u1 = usage();
      l.usage = {u1.user - u0.user, u1.sys - u0.sys, u1.nvcsw - u0.nvcsw, 0.0};
      l.add_run(r);
    }
    {
      Scope s(spans_, "pic.run_pic.setup");
      l.iteration_s = (wall - setup_wall()) / q.iterations;
    }
    {
      Scope s(spans_, "pic.run_pic.traced");
      PicParams qt = q;
      qt.trace.enabled = true;
      const double t0 = now_s();
      const PicResult rt = picpar::pic::run_pic(qt);
      l.overhead = (now_s() - t0) / wall - 1.0;
      check_.run("traced run", rt.traced &&
                                   rt.total_seconds == r.total_seconds &&
                                   rt.redistributions == r.redistributions &&
                                   rt.final_particles == r.final_particles);
      l.add_traced(rt);
      counters_json_ = rt.metrics_json;
    }
    // The sweep layer at this shape: one job, one worker.
    {
      Scope s(spans_, "sweep");
      const std::vector<picpar::sweep::Job> one{{w_.name, q}};
      {
        Scope f(spans_, "sweep.fingerprint");
        l.fingerprint_s = fingerprint_each(one);
      }
      const picpar::sweep::SweepOptions opt{1, fresh_dir("cache"), 0};
      picpar::sweep::SweepReport cold;
      {
        Scope f(spans_, "sweep.cold");
        const double t0 = now_s();
        cold = picpar::sweep::run_sweep(one, opt);
        l.pool_efficiency = wall / (now_s() - t0);
      }
      {
        Scope f(spans_, "sweep.warm");
        const double t0 = now_s();
        const auto warm = picpar::sweep::run_sweep(one, opt);
        l.warm_s = now_s() - t0;
        const std::string h = pic_hash(r);
        check_.run("one-job sweep",
                   cold.stats.simulated == 1 && warm.stats.hits == 1 &&
                       pic_hash(cold.outcomes[0].result) == h &&
                       pic_hash(warm.outcomes[0].result) == h);
      }
      fs::remove_all(opt.cache_dir);
      cache_round_trip(cold.outcomes, l);
    }
    ReplayCosts costs;
    {
      Scope s(spans_, "replay");
      costs = run_replay(q, 3, spans_);
    }
    {
      Scope s(spans_, "pic.serialize");
      l.serialize_s = serialize_round_trip(r);
    }
    l.unattributed = 1.0 - attributed(costs, q, r.redistributions) / wall;
    samples_["wall_s"] = {wall};
    layer_metrics(costs, l);
  }

  void traced_sweep() {
    const auto jobs = jobs_of(sweep_jobs(w_));
    const std::string shape = w_.params.canonical();
    Layers l;
    SweepPass s;
    {
      Scope sc(spans_, "sweep.run_sweep");
      const Usage u0 = usage();
      s = checked_sweep(jobs);
      const Usage u1 = usage();
      l.usage = {u1.user - u0.user, u1.sys - u0.sys, u1.nvcsw - u0.nvcsw, 0.0};
      l.warm_s = s.warm_s;
    }
    // Serial job walls: the pool's ideal is their sum over the workers.
    double serial = 0.0;
    {
      Scope sc(spans_, "sweep.serial_jobs");
      bool same = true;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const double t0 = now_s();
        const PicResult r = picpar::pic::run_pic(jobs[i].params);
        const double job_s = now_s() - t0;
        serial += job_s;
        same = same && pic_hash(r) == pic_hash(s.cold.outcomes[i].result);
        if (jobs[i].params.canonical() == shape)
          l.iteration_s = (job_s - setup_wall()) / w_.params.iterations;
      }
      check_.run("serial jobs", same);
      l.pool_efficiency = serial / (w_.sweep_workers * s.cold_s);
    }
    {
      Scope sc(spans_, "pic.run_pic.traced");
      auto traced = jobs;
      for (auto& j : traced) j.params.trace.enabled = true;
      const double t0 = now_s();
      const auto rep =
          picpar::sweep::run_sweep(traced, {w_.sweep_workers, "", 0});
      l.overhead = (now_s() - t0) / s.cold_s - 1.0;
      bool same = true;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const PicResult& rt = rep.outcomes[i].result;
        same = same && rt.traced &&
               rt.total_seconds == s.cold.outcomes[i].result.total_seconds;
        l.add_traced(rt);
        if (jobs[i].params.canonical() == shape) counters_json_ = rt.metrics_json;
      }
      check_.run("traced sweep", same);
    }
    {
      Scope sc(spans_, "sweep.fingerprint");
      l.fingerprint_s = fingerprint_each(jobs);
    }
    cache_round_trip(s.cold.outcomes, l);
    ReplayCosts costs;
    {
      Scope sc(spans_, "replay");
      costs = run_replay(w_.params, 3, spans_);
    }
    double attr = 0.0;
    bool found = false;
    for (const auto& o : s.cold.outcomes) {
      l.add_run(o.result);
      attr += attributed(costs, o.params, o.result.redistributions);
      if (o.params.canonical() == shape) {
        Scope sc(spans_, "pic.serialize");
        l.serialize_s = serialize_round_trip(o.result);
        found = true;
      }
    }
    if (!found) throw std::runtime_error("sweep lost its replay shape");
    l.unattributed = 1.0 - attr / w_.sweep_workers / s.cold_s;
    samples_["wall_s"] = {s.cold_s + s.warm_s};
    samples_["serial_jobs_s"] = {serial};
    layer_metrics(costs, l);
  }

  Args a_;
  Workload w_;
  Checker check_;
  Spans spans_;
  Metrics metrics_;
  std::map<std::string, std::vector<double>> samples_;
  std::string counters_json_;
  double rss_mb_ = 0.0;
  fs::path work_;
  int dirs_ = 0;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    perfbench::Bench b(perfbench::parse_args(argc, argv));
    b.run();
    b.report();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
