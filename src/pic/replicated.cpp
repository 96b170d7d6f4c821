#include "pic/replicated.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mesh/maxwell.hpp"
#include "particles/init.hpp"
#include "particles/interpolate.hpp"
#include "particles/pusher.hpp"
#include "sim/comm.hpp"

namespace picpar::pic {

using particles::ParticleArray;
using sim::Comm;
using sim::Phase;

namespace {

/// Colocated-curl helpers over the FULL replicated arrays, computing only
/// global node ids in [b, e).
struct FullMesh {
  const mesh::GridDesc* g;
  std::vector<double> ex, ey, ez, bx, by, bz, jx, jy, jz, rho;

  explicit FullMesh(const mesh::GridDesc& grid) : g(&grid) {
    const auto m = static_cast<std::size_t>(grid.nodes());
    for (auto* v : {&ex, &ey, &ez, &bx, &by, &bz, &jx, &jy, &jz, &rho})
      v->assign(m, 0.0);
  }

  void half_b(std::uint64_t b, std::uint64_t e, double dt) {
    const double i2dx = 0.5 / g->dx();
    const double i2dy = 0.5 / g->dy();
    for (std::uint64_t id = b; id < e; ++id) {
      const auto E = g->east(id), W = g->west(id), N = g->north(id),
                 S = g->south(id);
      const double cx = (ez[N] - ez[S]) * i2dy;
      const double cy = -(ez[E] - ez[W]) * i2dx;
      const double cz = (ey[E] - ey[W]) * i2dx - (ex[N] - ex[S]) * i2dy;
      bx[id] -= 0.5 * dt * cx;
      by[id] -= 0.5 * dt * cy;
      bz[id] -= 0.5 * dt * cz;
    }
  }

  void step_e(std::uint64_t b, std::uint64_t e, double dt) {
    const double i2dx = 0.5 / g->dx();
    const double i2dy = 0.5 / g->dy();
    for (std::uint64_t id = b; id < e; ++id) {
      const auto E = g->east(id), W = g->west(id), N = g->north(id),
                 S = g->south(id);
      const double cx = (bz[N] - bz[S]) * i2dy;
      const double cy = -(bz[E] - bz[W]) * i2dx;
      const double cz = (by[E] - by[W]) * i2dx - (bx[N] - bx[S]) * i2dy;
      ex[id] += dt * (cx - jx[id]);
      ey[id] += dt * (cy - jy[id]);
      ez[id] += dt * (cz - jz[id]);
    }
  }
};

/// Element-wise global sum of several full arrays (binomial allreduce).
void global_sum(Comm& comm, std::vector<std::vector<double>*> arrays) {
  std::vector<double> packed;
  std::size_t total = 0;
  for (auto* a : arrays) total += a->size();
  packed.reserve(total);
  for (auto* a : arrays) packed.insert(packed.end(), a->begin(), a->end());
  packed = comm.allreduce(std::move(packed),
                          [](double a, double b) { return a + b; });
  std::size_t pos = 0;
  for (auto* a : arrays) {
    std::copy(packed.begin() + static_cast<long>(pos),
              packed.begin() + static_cast<long>(pos + a->size()), a->begin());
    pos += a->size();
  }
}

/// Concatenate per-rank chunks [b, e) of several full arrays to everyone.
void global_concat(Comm& comm, std::uint64_t b, std::uint64_t e,
                   const std::vector<std::uint64_t>& bounds,
                   std::vector<std::vector<double>*> arrays) {
  std::vector<double> mine;
  mine.reserve((e - b) * arrays.size());
  for (auto* a : arrays)
    mine.insert(mine.end(), a->begin() + static_cast<long>(b),
                a->begin() + static_cast<long>(e));
  std::vector<std::size_t> offsets;
  auto cat = comm.allgatherv(mine, &offsets);
  for (int r = 0; r < comm.size(); ++r) {
    const std::uint64_t rb = bounds[static_cast<std::size_t>(r)];
    const std::uint64_t re = bounds[static_cast<std::size_t>(r) + 1];
    std::size_t pos = offsets[static_cast<std::size_t>(r)];
    for (auto* a : arrays) {
      std::copy(cat.begin() + static_cast<long>(pos),
                cat.begin() + static_cast<long>(pos + (re - rb)),
                a->begin() + static_cast<long>(rb));
      pos += re - rb;
    }
  }
}

}  // namespace

PicResult run_replicated(const PicParams& params) {
  if (params.init.total == 0 || params.iterations < 0)
    throw std::invalid_argument(
        "run_replicated: init.total must be > 0 and iterations >= 0");
  // The replicated field layer has no Poisson solver, injector, checkpoints
  // or observers: refuse the settings it would otherwise silently drop.
  if (!params.scenario.empty() || params.solver == FieldSolveKind::kPoisson ||
      params.faults.any() || params.validate.enabled() || params.trace.on() ||
      params.analyze.enabled || params.analyze.audit_determinism)
    throw std::invalid_argument(
        "run_replicated: scenarios, the Poisson solver, faults, validation, "
        "tracing and analysis are not supported");

  const mesh::GridDesc grid = params.grid;
  const ParticleArray global =
      particles::generate(params.dist, grid, params.init);
  const double dt =
      params.dt > 0.0 ? params.dt : mesh::MaxwellSolver::max_dt(grid);
  const double delta = params.machine.delta;
  const PhaseCosts& pc = params.costs;
  const double inv_cell = 1.0 / (grid.dx() * grid.dy());
  const std::uint64_t m = grid.nodes();

  // Host-side outputs. Ranks are fibers on one host thread, so they write
  // shared slots without locks; floating-point sums merge in rank order.
  std::vector<double> iter_end(static_cast<std::size_t>(params.iterations),
                               0.0);  ///< latest rank clock per iteration
  std::vector<double> kinetic(static_cast<std::size_t>(params.nranks), 0.0);
  double field_energy = 0.0;
  std::uint64_t final_particles = 0;

  auto program = [&](Comm& comm) {
    const int rank = comm.rank();
    const int p = comm.size();

    FullMesh f(grid);
    // Field-solve chunk boundaries (contiguous node-id ranges).
    std::vector<std::uint64_t> bounds(static_cast<std::size_t>(p) + 1);
    for (int r = 0; r <= p; ++r)
      bounds[static_cast<std::size_t>(r)] =
          static_cast<std::uint64_t>(r) * m / static_cast<std::uint64_t>(p);
    const std::uint64_t cb = bounds[static_cast<std::size_t>(rank)];
    const std::uint64_t ce = bounds[static_cast<std::size_t>(rank) + 1];

    // Lagrangian assignment: equal contiguous slices, fixed forever.
    ParticleArray mine = particles::block_slice(global, rank, p);
    constexpr std::size_t kBlock = particles::kBlock;
    double qmdt2[kBlock]{};
    std::fill(qmdt2, qmdt2 + kBlock,
              particles::boris_qmdt2(mine.charge(), mine.mass(), dt));
    // Block-pass scratch (the same passes run_pic runs, DESIGN.md §10).
    particles::CicStencil st[kBlock]{};
    double qv[kBlock]{}, jx[kBlock]{}, jy[kBlock]{}, jz[kBlock]{};
    double px[kBlock]{}, py[kBlock]{};
    particles::FieldBlock fb{};

    for (int iter = 0; iter < params.iterations; ++iter) {
      // ---- Scatter: local deposition + global element-wise sum ----
      comm.set_phase(Phase::kScatter);
      std::fill(f.jx.begin(), f.jx.end(), 0.0);
      std::fill(f.jy.begin(), f.jy.end(), 0.0);
      std::fill(f.jz.begin(), f.jz.end(), 0.0);
      std::fill(f.rho.begin(), f.rho.end(), 0.0);
      const std::size_t n = mine.size();
      for (std::size_t b = 0; b < n; b += kBlock) {
        const std::size_t nb = std::min(kBlock, n - b);
        particles::cic_pass(grid, mine.x.data() + b, mine.y.data() + b, nb,
                            st);
        particles::current_pass(mine, b, nb, inv_cell, qv, jx, jy, jz);
        for (std::size_t i = 0; i < nb; ++i) {
          for (int k = 0; k < 4; ++k) {
            const double w = st[i].weight[k];
            const auto id = static_cast<std::size_t>(st[i].node[k]);
            f.jx[id] += w * jx[i];
            f.jy[id] += w * jy[i];
            f.jz[id] += w * jz[i];
            f.rho[id] += w * qv[i];
          }
        }
      }
      comm.charge(static_cast<double>(4 * n) * pc.scatter_per_vertex * delta);
      global_sum(comm, {&f.jx, &f.jy, &f.jz, &f.rho});

      // ---- Field solve: chunk update + global concatenation ----
      comm.set_phase(Phase::kFieldSolve);
      if (params.solver == FieldSolveKind::kMaxwell) {
        f.half_b(cb, ce, dt);
        global_concat(comm, cb, ce, bounds, {&f.bx, &f.by, &f.bz});
        f.step_e(cb, ce, dt);
        global_concat(comm, cb, ce, bounds, {&f.ex, &f.ey, &f.ez});
        f.half_b(cb, ce, dt);
        global_concat(comm, cb, ce, bounds, {&f.bx, &f.by, &f.bz});
        comm.charge(static_cast<double>(ce - cb) * pc.field_per_node * delta);
      }

      // ---- Gather + push: purely local ----
      comm.set_phase(Phase::kGather);
      for (std::size_t b = 0; b < n; b += kBlock) {
        const std::size_t nb = std::min(kBlock, n - b);
        particles::cic_pass(grid, mine.x.data() + b, mine.y.data() + b, nb,
                            st);
        for (std::size_t i = 0; i < nb; ++i) {
          // picpar-lint: allow(float-reduction-order) fixed 4-point stencil
          particles::LocalFields lf;
          for (int k = 0; k < 4; ++k) {
            const double w = st[i].weight[k];
            const auto id = static_cast<std::size_t>(st[i].node[k]);
            lf.ex += w * f.ex[id];
            lf.ey += w * f.ey[id];
            lf.ez += w * f.ez[id];
            lf.bx += w * f.bx[id];
            lf.by += w * f.by[id];
            lf.bz += w * f.bz[id];
          }
          fb.set(i, lf);
        }
        particles::kick_pass(mine, b, nb, qmdt2, fb);
      }
      comm.charge(static_cast<double>(4 * n) * pc.gather_per_vertex * delta);

      comm.set_phase(Phase::kPush);
      for (std::size_t b = 0; b < n; b += kBlock) {
        const std::size_t nb = std::min(kBlock, n - b);
        particles::position_pass(mine, b, nb, dt, px, py);
        for (std::size_t i = 0; i < nb; ++i) {
          mine.x[b + i] = grid.wrap_x(px[i]);
          mine.y[b + i] = grid.wrap_y(py[i]);
        }
      }
      comm.charge(static_cast<double>(n) * pc.push_per_particle * delta);
      comm.set_phase(Phase::kOther);

      double& end = iter_end[static_cast<std::size_t>(iter)];
      end = std::max(end, comm.clock());
    }

    // Replicated fields: charge the energy to rank 0 only.
    if (rank == 0) {
      // picpar-lint: allow(float-reduction-order) fixed node-index sum
      double e = 0.0;
      for (std::uint64_t id = 0; id < m; ++id)
        e += f.ex[id] * f.ex[id] + f.ey[id] * f.ey[id] + f.ez[id] * f.ez[id] +
             f.bx[id] * f.bx[id] + f.by[id] * f.by[id] + f.bz[id] * f.bz[id];
      field_energy = 0.5 * e * grid.dx() * grid.dy();
    }
    kinetic[static_cast<std::size_t>(rank)] = mine.kinetic_energy();
    final_particles += mine.size();
  };

  sim::Machine machine(params.nranks, params.machine);
  machine.set_pick_seed(params.exec.pick_seed);
  auto run = machine.run(program);

  PicResult result;
  result.machine = std::move(run);
  result.total_seconds = result.machine.makespan();
  result.compute_seconds = result.machine.max_compute();
  result.iters.resize(static_cast<std::size_t>(params.iterations));
  double prev = 0.0;
  for (int i = 0; i < params.iterations; ++i) {
    auto& rec = result.iters[static_cast<std::size_t>(i)];
    rec.iter = i;
    rec.exec_seconds = iter_end[static_cast<std::size_t>(i)] - prev;
    rec.loop_seconds = rec.exec_seconds;
    prev = iter_end[static_cast<std::size_t>(i)];
  }
  result.initial_particles = static_cast<std::uint64_t>(global.size());
  result.final_particles = final_particles;
  result.field_energy = field_energy;
  // picpar-lint: allow(float-reduction-order) rank-order merge
  for (double k : kinetic) result.kinetic_energy += k;
  return result;
}

}  // namespace picpar::pic
