#include "pic/eulerian.hpp"

#include <algorithm>

#include "core/ghost_exchange.hpp"
#include "mesh/local_grid.hpp"
#include "mesh/maxwell.hpp"
#include "particles/interpolate.hpp"
#include "particles/pusher.hpp"
#include "sim/comm.hpp"

namespace picpar::pic {

using core::GhostExchange;
using mesh::FieldState;
using mesh::GridPartition;
using mesh::LocalGrid;
using particles::ParticleArray;
using particles::ParticleRec;
using sim::Comm;
using sim::Phase;

namespace {
GridPartition make_partition(const PicParams& params) {
  if (params.grid_decomp == GridDecomp::kBlock)
    return GridPartition::block_auto(params.grid, params.nranks);
  const auto curve =
      sfc::make_curve(params.curve, params.grid.nx, params.grid.ny);
  return GridPartition::curve(params.grid, params.nranks, *curve);
}
}  // namespace

std::vector<std::size_t> eulerian_particle_counts(const PicParams& params) {
  const auto part = make_partition(params);
  const auto global = particles::generate(params.dist, params.grid, params.init);
  std::vector<std::size_t> counts(static_cast<std::size_t>(params.nranks), 0);
  for (std::size_t i = 0; i < global.size(); ++i) {
    const auto cell = params.grid.cell_of(global.x[i], global.y[i]);
    ++counts[static_cast<std::size_t>(part.owner(cell))];
  }
  return counts;
}

PicResult run_eulerian(const PicParams& params) {
  if (params.init.total == 0)
    throw std::invalid_argument("run_eulerian: init.total must be > 0");

  const mesh::GridDesc grid = params.grid;
  const GridPartition part = make_partition(params);
  const ParticleArray global =
      particles::generate(params.dist, grid, params.init);
  const double dt =
      params.dt > 0.0 ? params.dt : mesh::MaxwellSolver::max_dt(grid);
  const double delta = params.machine.delta;
  const PhaseCosts& pc = params.costs;
  const double inv_cell = 1.0 / (grid.dx() * grid.dy());

  const auto iters_sz = static_cast<std::size_t>(std::max(params.iterations, 1));
  std::vector<double> clock_end(
      static_cast<std::size_t>(params.nranks) * iters_sz, 0.0);
  std::vector<double> field_energy(static_cast<std::size_t>(params.nranks), 0.0);
  std::vector<double> kinetic(static_cast<std::size_t>(params.nranks), 0.0);

  auto program = [&](Comm& comm) {
    const int rank = comm.rank();
    LocalGrid lg(part, rank);
    FieldState f(lg);
    mesh::MaxwellSolver maxwell(lg, dt);
    GhostExchange ghosts(lg, params.dedup);

    // Eulerian assignment: every rank filters the global population for
    // particles whose cell it owns (deterministic, no communication).
    ParticleArray mine(global.charge(), global.mass());
    for (std::size_t i = 0; i < global.size(); ++i) {
      const auto cell = grid.cell_of(global.x[i], global.y[i]);
      if (part.owner(cell) == rank) mine.push_back(global.rec(i));
    }
    const double q = mine.charge();
    constexpr std::size_t kBlock = particles::kBlock;
    double qmdt2[kBlock]{};
    std::fill(qmdt2, qmdt2 + kBlock,
              particles::boris_qmdt2(q, mine.mass(), dt));

    for (int iter = 0; iter < params.iterations; ++iter) {
      // ---- Scatter ----
      comm.set_phase(Phase::kScatter);
      ghosts.begin_iteration();
      f.clear_sources();
      const std::size_t n = mine.size();
      for (std::size_t i = 0; i < n; ++i) {
        const auto st = particles::cic_stencil(grid, mine.x[i], mine.y[i]);
        const double gamma = mine.gamma(i);
        const double qv = q * inv_cell;
        for (int k = 0; k < 4; ++k) {
          const double w = st.weight[k];
          const auto l = lg.local_of(st.node[k]);
          if (l != mesh::kNoLocal && l < lg.owned()) {
            f.jx[l] += w * qv * mine.ux[i] / gamma;
            f.jy[l] += w * qv * mine.uy[i] / gamma;
            f.jz[l] += w * qv * mine.uz[i] / gamma;
            f.rho[l] += w * qv;
          } else {
            double* slot = ghosts.deposit_slot(st.node[k]);
            slot[0] += w * qv * mine.ux[i] / gamma;
            slot[1] += w * qv * mine.uy[i] / gamma;
            slot[2] += w * qv * mine.uz[i] / gamma;
            slot[3] += w * qv;
          }
        }
      }
      comm.charge(static_cast<double>(4 * n) * pc.scatter_per_vertex * delta);
      ghosts.flush_scatter(comm, f);

      // ---- Field solve ----
      comm.set_phase(Phase::kFieldSolve);
      if (params.solver == FieldSolveKind::kMaxwell) {
        maxwell.step(comm, f);
        comm.charge(static_cast<double>(lg.owned()) * pc.field_per_node *
                    delta);
      }

      // ---- Gather ----
      comm.set_phase(Phase::kGather);
      ghosts.fetch_fields(comm, f);
      particles::CicStencil st[kBlock]{};
      particles::FieldBlock fb{};
      for (std::size_t b = 0; b < n; b += kBlock) {
        const std::size_t nb = std::min(kBlock, n - b);
        particles::cic_pass(grid, mine.x.data() + b, mine.y.data() + b, nb,
                            st);
        for (std::size_t i = 0; i < nb; ++i) {
          // picpar-lint: allow(float-reduction-order) fixed 4-point stencil
          particles::LocalFields lf;
          for (int k = 0; k < 4; ++k) {
            const double w = st[i].weight[k];
            const auto l = lg.local_of(st[i].node[k]);
            if (l != mesh::kNoLocal && l < lg.owned()) {
              lf.ex += w * f.ex[l];
              lf.ey += w * f.ey[l];
              lf.ez += w * f.ez[l];
              lf.bx += w * f.bx[l];
              lf.by += w * f.by[l];
              lf.bz += w * f.bz[l];
            } else {
              const double* s = ghosts.field_slot(st[i].node[k]);
              lf.ex += w * s[0];
              lf.ey += w * s[1];
              lf.ez += w * s[2];
              lf.bx += w * s[3];
              lf.by += w * s[4];
              lf.bz += w * s[5];
            }
          }
          fb.set(i, lf);
        }
        particles::kick_pass(mine, b, nb, qmdt2, fb);
      }
      comm.charge(static_cast<double>(4 * n) * pc.gather_per_vertex * delta);

      // ---- Push + migration ----
      comm.set_phase(Phase::kPush);
      std::vector<std::vector<ParticleRec>> migrate(
          static_cast<std::size_t>(comm.size()));
      for (std::size_t i = 0; i < mine.size();) {
        particles::advance_position(grid, mine, i, dt);
        const auto cell = grid.cell_of(mine.x[i], mine.y[i]);
        const int o = part.owner(cell);
        if (o != rank) {
          migrate[static_cast<std::size_t>(o)].push_back(mine.rec(i));
          mine.swap_remove(i);
        } else {
          ++i;
        }
      }
      comm.charge(static_cast<double>(n) * pc.push_per_particle * delta);
      auto arrived = comm.all_to_many(std::move(migrate));
      for (const auto& buf : arrived)
        for (const auto& r : buf) mine.push_back(r);
      comm.set_phase(Phase::kOther);

      clock_end[static_cast<std::size_t>(rank) * iters_sz +
                static_cast<std::size_t>(iter)] = comm.clock();
    }

    field_energy[static_cast<std::size_t>(rank)] = f.energy(lg);
    kinetic[static_cast<std::size_t>(rank)] = mine.kinetic_energy();
  };

  sim::Machine machine(params.nranks, params.machine);
  auto run = machine.run(program);

  PicResult result;
  result.machine = std::move(run);
  result.total_seconds = result.machine.makespan();
  result.compute_seconds = result.machine.max_compute();
  result.iters.resize(static_cast<std::size_t>(params.iterations));
  double prev = 0.0;
  for (int i = 0; i < params.iterations; ++i) {
    double end = 0.0;
    for (int r = 0; r < params.nranks; ++r)
      end = std::max(end, clock_end[static_cast<std::size_t>(r) * iters_sz +
                                    static_cast<std::size_t>(i)]);
    auto& rec = result.iters[static_cast<std::size_t>(i)];
    rec.iter = i;
    rec.exec_seconds = end - prev;
    rec.loop_seconds = rec.exec_seconds;
    prev = end;
  }
  // Rank-order merge of per-rank partials: a fixed, mode-independent
  // summation order by construction.
  // picpar-lint: allow(float-reduction-order) rank-order merge
  for (double e : field_energy) result.field_energy += e;
  // picpar-lint: allow(float-reduction-order) rank-order merge
  for (double k : kinetic) result.kinetic_energy += k;
  return result;
}

}  // namespace picpar::pic
