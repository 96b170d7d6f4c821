#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

using picpar::pic::PicParams;

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool toy) {
  Workload w;
  w.name = name;
  if (name == "kernels_p4") {
    // Physics kernels: many particles, few ranks, no redistribution.
    PicParams& q = w.params;
    q.grid = toy ? picpar::mesh::GridDesc(64, 32)
                 : picpar::mesh::GridDesc(256, 128);
    q.nranks = 4;
    q.init.total = toy ? 8192 : 262144;
    q.init.seed = seed;
    q.iterations = toy ? 3 : 20;
    q.policy = "static";
    q.solver = picpar::pic::FieldSolveKind::kMaxwell;
  } else if (name == "sweep18") {
    // Every scenario under three balancers through the cached sweep pool.
    const std::string mesh = toy ? "16x8" : "64x32";
    const std::string particles = toy ? "500" : "8000";
    const std::string ranks = toy ? "4" : "16";
    const std::string iters = toy ? "10" : "120";
    w.kind = Kind::kSweep;
    w.sweep_workers = 2;
    w.grid_text =
        "scenario = uniform, irregular_beam, two_stream, weibel, "
        "beam_into_plasma, moving_hotspot\n"
        "mesh = " + mesh + "\n"
        "particles = " + particles + "\n"
        "ranks = " + ranks + "\n"
        "curve = hilbert\n"
        "policy = sar, sar+eulerian, sar+sfcweight:2\n"
        "seed = " + std::to_string(seed) + "\n"
        "iterations = " + iters + "\n";
    // Replay shape: the grid point with an injector, so the scenario
    // layer is measured on the path the sweep really runs.
    for (auto& j : sweep_jobs(w))
      if (j.params.scenario == "beam_into_plasma" &&
          j.params.partitioner.balancer == "lagrange")
        w.params = j.params;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

std::vector<picpar::sweep::GridJob> sweep_jobs(const Workload& w) {
  return picpar::sweep::expand_grid(picpar::sweep::parse_grid(w.grid_text));
}

}  // namespace perfbench
