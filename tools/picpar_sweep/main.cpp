// picpar_sweep — run a declarative parameter grid through the sweep
// service (src/sweep) with content-addressed result caching.
//
//   picpar_sweep --grid fig16.grid --cache /tmp/picpar-cache
//                --jobs 0 --csv fig16.csv
//
// Reads the grid file (see src/sweep/grid.hpp for the format), expands it
// to jobs, runs them through run_sweep, prints the comparison table plus a
// one-line cache summary to stdout, and optionally writes the comparison
// CSV/JSON and the per-job provenance CSV. Rerunning against a warm cache
// performs zero simulations and writes byte-identical comparison files.
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>

#include "sweep/grid.hpp"
#include "sweep/sweep.hpp"
#include "util/cli.hpp"

namespace {

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  f.flush();
  if (!f.good()) {
    std::cerr << "picpar_sweep: cannot write " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  picpar::Cli cli("picpar_sweep",
                  "Expand a parameter grid and run it through the cached "
                  "sweep service");
  auto grid_path = cli.flag<std::string>("grid", "", "grid file (required)");
  auto cache_dir = cli.flag<std::string>(
      "cache", "", "result cache directory (\"\" = uncached)");
  auto jobs = cli.flag<int>(
      "jobs", 1, "worker threads for cache misses (0 = all host cores)");
  auto csv = cli.flag<std::string>("csv", "", "write comparison CSV here");
  auto json = cli.flag<std::string>("json", "", "write comparison JSON here");
  auto provenance = cli.flag<std::string>(
      "provenance", "", "write per-job cache-provenance CSV here");
  auto max_entries = cli.flag<int>(
      "max-entries", 0, "evict oldest cache entries past this count (0 = keep all)");
  auto quiet = cli.flag<bool>("quiet", false, "suppress the comparison table");

  try {
    cli.parse(argc, argv);
    if (grid_path->empty()) {
      std::cerr << "picpar_sweep: --grid is required\n" << cli.usage();
      return 2;
    }
    std::ifstream f(*grid_path, std::ios::binary);
    if (!f) {
      std::cerr << "picpar_sweep: cannot read " << *grid_path << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << f.rdbuf();

    const auto grid_jobs =
        picpar::sweep::expand_grid(picpar::sweep::parse_grid(buf.str()));
    std::vector<picpar::sweep::Job> sweep_jobs;
    sweep_jobs.reserve(grid_jobs.size());
    for (const auto& gj : grid_jobs)
      sweep_jobs.push_back({gj.label, gj.params});

    picpar::sweep::SweepOptions opt;
    opt.jobs = *jobs;
    opt.cache_dir = *cache_dir;
    opt.max_entries =
        *max_entries > 0 ? static_cast<std::size_t>(*max_entries) : 0;
    const auto report = picpar::sweep::run_sweep(sweep_jobs, opt);

    if (!*quiet) std::cout << picpar::sweep::comparison_table(report);
    const auto& s = report.stats;
    std::cout << "sweep: " << s.jobs << " jobs, " << s.unique << " unique, "
              << s.hits << " cache hits, " << s.simulated << " simulated";
    if (s.corrupt > 0) std::cout << ", " << s.corrupt << " corrupt replaced";
    if (s.evicted > 0) std::cout << ", " << s.evicted << " evicted";
    std::cout << "\n";

    bool ok = true;
    if (!csv->empty())
      ok = write_file(*csv, picpar::sweep::comparison_csv(report)) && ok;
    if (!json->empty())
      ok = write_file(*json, picpar::sweep::comparison_json(report)) && ok;
    if (!provenance->empty())
      ok = write_file(*provenance, picpar::sweep::provenance_csv(report)) && ok;
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "picpar_sweep: " << e.what() << "\n";
    return 2;
  }
}
