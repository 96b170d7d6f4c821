#include "replay.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/ghost_exchange.hpp"
#include "core/indexing.hpp"
#include "core/partitioner.hpp"
#include "mesh/fields.hpp"
#include "mesh/local_grid.hpp"
#include "mesh/maxwell.hpp"
#include "mesh/partition.hpp"
#include "mesh/poisson.hpp"
#include "particles/init.hpp"
#include "particles/interpolate.hpp"
#include "particles/pusher.hpp"
#include "scenario/scenario.hpp"
#include "sfc/index_cache.hpp"
#include "sim/comm.hpp"

namespace perfbench {

using namespace picpar;

namespace {

/// Median host seconds of `fn`, repeated until `budget_s` is spent (at
/// least `min_reps`, at most `max_reps` times).
double repeat_median(const std::function<void()>& fn, double budget_s,
                     int min_reps, int max_reps) {
  std::vector<double> t;
  const double start = now_s();
  while (static_cast<int>(t.size()) < min_reps ||
         (static_cast<int>(t.size()) < max_reps && now_s() - start < budget_s)) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

std::uint64_t delivered(const sim::RunResult& r) {
  std::uint64_t n = 0;
  for (const auto& rk : r.ranks) n += rk.stats.total().msgs_recv;
  return n;
}

/// Every rank's subdomain state, built exactly as run_pic builds it.
struct Domain {
  mesh::GridPartition part;
  mesh::LocalGrid lg;
  mesh::FieldState f;
  mesh::MaxwellSolver maxwell;
  mesh::PoissonSolver poisson;
  std::vector<double> phi;
  core::ParticlePartitioner partitioner;
  core::GhostExchange ghosts;

  Domain(const pic::PicParams& q, const sfc::Curve& curve, double dt, int p,
         int rank)
      : part(mesh::GridPartition::curve(q.grid, p, curve)),
        lg(part, rank),
        f(lg),
        maxwell(lg, dt),
        poisson(lg),
        phi(lg.make_field()),
        partitioner(curve, q.grid, q.partitioner),
        ghosts(lg, q.dedup) {}
};

/// CIC deposit of every particle into owned nodes or ghost slots.
void deposit(const mesh::GridDesc& grid, const particles::ParticleArray& pa,
             Domain& d) {
  const double inv_cell = 1.0 / (grid.dx() * grid.dy());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const auto st = particles::cic_stencil(grid, pa.x[i], pa.y[i]);
    const double gamma = pa.gamma(i);
    const double qv = pa.charge_of(i) * inv_cell;
    const double j[4] = {qv * pa.ux[i] / gamma, qv * pa.uy[i] / gamma,
                         qv * pa.uz[i] / gamma, qv};
    for (int k = 0; k < 4; ++k) {
      const double w = st.weight[k];
      if (d.lg.owns(st.node[k])) {
        const auto l = d.lg.local_of(st.node[k]);
        d.f.jx[l] += w * j[0];
        d.f.jy[l] += w * j[1];
        d.f.jz[l] += w * j[2];
        d.f.rho[l] += w * j[3];
      } else {
        double* s = d.ghosts.deposit_slot(st.node[k]);
        for (int c = 0; c < 4; ++c) s[c] += w * j[c];
      }
    }
  }
}

/// Interpolate E and B at every particle and apply the Boris kick.
void gather_kick(const mesh::GridDesc& grid, double dt,
                 particles::ParticleArray& pa, const Domain& d) {
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const auto st = particles::cic_stencil(grid, pa.x[i], pa.y[i]);
    double e[6] = {0, 0, 0, 0, 0, 0};
    for (int k = 0; k < 4; ++k) {
      const double w = st.weight[k];
      if (d.lg.owns(st.node[k])) {
        const auto l = d.lg.local_of(st.node[k]);
        const double v[6] = {d.f.ex[l], d.f.ey[l], d.f.ez[l],
                             d.f.bx[l], d.f.by[l], d.f.bz[l]};
        for (int c = 0; c < 6; ++c) e[c] += w * v[c];
      } else {
        const double* s = d.ghosts.field_slot(st.node[k]);
        for (int c = 0; c < 6; ++c) e[c] += w * s[c];
      }
    }
    const particles::LocalFields lf{e[0], e[1], e[2], e[3], e[4], e[5]};
    particles::boris_kick(pa.charge_of(i), pa.mass_of(i), dt, lf, pa.ux[i],
                          pa.uy[i], pa.uz[i]);
  }
}

void push(const mesh::GridDesc& grid, const sfc::IndexCache& keys, double dt,
          particles::ParticleArray& pa) {
  const std::uint64_t stride = pa.key_stride();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    particles::advance_position(grid, pa, i, dt);
    pa.key[i] = core::encode_key(keys, grid, pa.x[i], pa.y[i], stride,
                                 pa.key[i] % stride);
  }
}

}  // namespace

ReplayCosts run_replay(const pic::PicParams& q, int iters, Spans& spans) {
  ReplayCosts out;
  const mesh::GridDesc& grid = q.grid;
  const int p = q.nranks;
  const auto curve = sfc::make_curve(q.curve, grid.nx, grid.ny);
  const scenario::Scenario* sc =
      q.scenario.empty() ? nullptr : &scenario::get_scenario(q.scenario);

  // ---- sfc: the two per-rank tables run_pic builds ----
  {
    Scope s(spans, "sfc.index_cache");
    out.index_cache_s = repeat_median(
        [&] { sfc::IndexCache c(*curve, grid.nx, grid.ny); }, 0.05, 3, 200);
  }
  {
    Scope s(spans, "sfc.grid_partition");
    out.grid_partition_s = repeat_median(
        [&] { (void)mesh::GridPartition::curve(grid, p, *curve); }, 0.05, 3,
        200);
  }

  // ---- particles: the global loadout ----
  std::optional<particles::ParticleArray> global;
  {
    Scope s(spans, "particles.generate");
    out.generate_s = repeat_median(
        [&] {
          global.emplace(sc ? sc->loadout(grid, q.init)
                            : particles::generate(q.dist, grid, q.init));
        },
        0.2, 1, 3);
  }
  out.particles = global->size();

  // ---- scenario: one injector batch per iteration. Shapes without an
  // injector time the beam_into_plasma injector at the same mesh and
  // population, i.e. what injection would cost there. ----
  {
    Scope s(spans, "scenario.inject");
    const scenario::Scenario& inj =
        sc && sc->injector.enabled ? *sc
                                   : scenario::get_scenario("beam_into_plasma");
    constexpr int kBatches = 50;
    std::size_t emitted = 0;
    const double t0 = now_s();
    for (int it = 0; it < kBatches; ++it)
      emitted += scenario::injector_batch(inj, grid, q.init, it).size();
    out.inject_s = (now_s() - t0) / kBatches;
    if (emitted == 0) throw std::runtime_error("replay: injector emitted none");
  }

  // ---- sim and sim/comm at p ----
  sim::Machine machine(p, q.machine);
  {
    Scope s(spans, "sim.empty_run");
    out.empty_run_s =
        repeat_median([&] { machine.run([](sim::Comm&) {}); }, 0.0, 3, 3);
  }
  const auto per_msg = [&](const char* name, const auto& program) {
    Scope s(spans, name);
    const double t0 = now_s();
    const auto r = machine.run(program);
    const double busy = std::max(0.0, now_s() - t0 - out.empty_run_s);
    return busy / static_cast<double>(std::max<std::uint64_t>(1, delivered(r)));
  };
  const int ring_rounds = std::max(2, 20000 / p);
  out.p2p_s_per_msg = per_msg("sim.p2p_ring", [&](sim::Comm& c) {
    const int r = c.rank();
    for (int k = 0; k < ring_rounds; ++k) {
      c.send_value((r + 1) % p, 0, k);
      (void)c.recv_value<int>((r + p - 1) % p, 0);
    }
  });
  const int a2m_rounds = std::max(2, 4000 / p);
  out.wildcard_s_per_msg = per_msg("sim.wildcard", [&](sim::Comm& c) {
    const int r = c.rank();
    std::vector<int> peers{(r + p - 1) % p, (r + 1) % p};
    std::sort(peers.begin(), peers.end());
    peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
    for (int k = 0; k < a2m_rounds; ++k) {
      std::vector<std::pair<int, std::vector<double>>> send;
      for (int d : peers) send.emplace_back(d, std::vector<double>(8, 1.0 * k));
      (void)c.all_to_many(std::move(send));
    }
  });
  {
    Scope s(spans, "comm.allreduce");
    const int calls = std::max(3, 2048 / p);
    const double t0 = now_s();
    machine.run([&](sim::Comm& c) {
      double v = 0.0;
      for (int k = 0; k < calls; ++k) v += c.allreduce_sum(1.0);
      if (v != static_cast<double>(calls) * p)
        throw std::runtime_error("replay: allreduce sum is wrong");
    });
    out.allreduce_s =
        std::max(0.0, now_s() - t0 - out.empty_run_s) / calls;
  }

  // ---- the PIC pipeline at p: core, mesh, particles ----
  {
    Scope s(spans, "replay.pipeline");
    const double dt = q.dt > 0.0 ? q.dt : mesh::MaxwellSolver::max_dt(grid);
    const sfc::IndexCache keys(*curve, grid.nx, grid.ny);
    std::map<std::string, std::vector<double>> phase;
    machine.run([&](sim::Comm& c) {
      const int rank = c.rank();
      // Barrier-to-barrier on rank 0: with one simulated rank running at a
      // time, the interval holds every rank's share of the phase.
      const auto bracket = [&](const char* name, const auto& fn) {
        c.barrier();
        const std::int64_t t0 = now_ns();
        fn();
        c.barrier();
        if (rank == 0) {
          const std::int64_t t1 = now_ns();
          spans.add(name, t0, t1);
          phase[name].push_back(static_cast<double>(t1 - t0) * 1e-9);
        }
      };
      std::optional<Domain> dom;
      bracket("replay.domain_setup",
              [&] { dom.emplace(q, *curve, dt, p, rank); });
      particles::ParticleArray mine(global->species());
      {
        const std::size_t n = global->size();
        const std::size_t b = static_cast<std::size_t>(rank) * n /
                              static_cast<std::size_t>(p);
        const std::size_t e = static_cast<std::size_t>(rank + 1) * n /
                              static_cast<std::size_t>(p);
        for (std::size_t i = b; i < e; ++i) mine.push_back(global->rec(i));
      }
      bracket("core.distribute", [&] {
        dom->partitioner.assign_keys(c, mine);
        dom->partitioner.distribute(c, mine);
      });
      for (int it = 0; it < iters; ++it) {
        bracket("replay.barrier", [] {});
        bracket("core.scatter", [&] {
          dom->ghosts.begin_iteration();
          dom->f.clear_sources();
          deposit(grid, mine, *dom);
          dom->ghosts.flush_scatter(c, dom->f);
        });
        bracket("mesh.maxwell_step", [&] { dom->maxwell.step(c, dom->f); });
        bracket("core.gather", [&] {
          dom->ghosts.fetch_fields(c, dom->f);
          gather_kick(grid, dt, mine, *dom);
        });
        bracket("particles.push", [&] { push(grid, keys, dt, mine); });
        bracket("core.redistribute",
                [&] { dom->partitioner.redistribute(c, mine); });
      }
    });
    const double barrier = median(phase["replay.barrier"]);
    const auto cost = [&](const char* name) {
      return std::max(0.0, median(phase[name]) - barrier);
    };
    out.domain_setup_s = cost("replay.domain_setup");
    out.distribute_s = cost("core.distribute");
    out.scatter_s = cost("core.scatter");
    out.maxwell_s = cost("mesh.maxwell_step");
    out.gather_s = cost("core.gather");
    out.push_s = cost("particles.push");
    out.redistribute_s = cost("core.redistribute");
  }
  return out;
}

}  // namespace perfbench
