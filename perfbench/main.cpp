// mlmd_perfbench — the workload driver behind perfbench/run.py.
//
//   mlmd_perfbench --workload=sweep|superlattice|dcmesh --seed=N
//                  --seconds=S --trace=0|1 --work-dir=DIR
//                  [--setup-only] [--serial-probe] [--tiny] [--corrupt]
//                  [--record]
//
// Prints three JSON lines on stdout: the host context, the physics outputs
// per input configuration, and the result
// {"correct", "attempted", "failed", "metrics"} with every metric the run
// measured (--trace=0: the end-to-end ones, --trace=1: the per-layer ones
// of the layers the workload exercises). Exit code 0 whenever a result was
// printed; the result says whether it was correct.

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Args;
using perfbench::Report;

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    const auto eq = s.find('=');
    const std::string key = s.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : s.substr(eq + 1);
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = std::stoi(val) != 0;
    else if (key == "--work-dir") a.work_dir = val;
    else if (key == "--setup-only") a.setup_only = true;
    else if (key == "--serial-probe") a.serial_probe = true;
    else if (key == "--tiny") a.tiny = true;
    else if (key == "--record") a.record = true;
    else if (key == "--corrupt") a.corrupt = true;
    else {
      std::fprintf(stderr, "mlmd_perfbench: unknown argument %s\n", argv[i]);
      return false;
    }
  }
  if (a.workload != "sweep" && a.workload != "superlattice" &&
      a.workload != "dcmesh") {
    std::fprintf(stderr, "mlmd_perfbench: --workload must be sweep, "
                         "superlattice or dcmesh\n");
    return false;
  }
  if (a.work_dir.empty() || !(a.seconds > 0)) {
    std::fprintf(stderr, "mlmd_perfbench: --work-dir and --seconds > 0 "
                         "are required\n");
    return false;
  }
  return true;
}

} // namespace

int main(int argc, char** argv) {
  perfbench::mark_start();
  Args a;
  try {
    if (!parse(argc, argv, a)) return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mlmd_perfbench: bad argument: %s\n", e.what());
    return 2;
  }

  Report r;
  try {
    if (a.workload == "dcmesh")
      perfbench::run_dcmesh(a, r);
    else
      perfbench::run_served(a, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mlmd_perfbench: %s\n", e.what());
    std::filesystem::remove_all(a.work_dir);
    return 1;
  }
  std::filesystem::remove_all(a.work_dir);

  std::printf("%s\n", perfbench::context_json(a, r).c_str());
  if (a.trace && !a.setup_only && !a.serial_probe && !a.record) {
    r.set("host.cpu_canary_s", perfbench::cpu_canary_s(), "s");
    r.set("host.loadavg_1m", perfbench::load_average_1m(), "load");
  }

  std::string phys = "{\"physics\": [";
  for (std::size_t i = 0; i < r.physics.size(); ++i)
    phys += (i ? ", " : "") + r.physics[i];
  std::printf("%s]}\n", phys.c_str());
  for (const auto& f : r.failures)
    std::fprintf(stderr, "mlmd_perfbench: check failed: %s\n", f.c_str());

  // Every metric the run measured; run.py selects the set BENCHMARK.json
  // names (end-to-end or per-layer) and checks the units.
  std::string m;
  for (const auto& [name, v] : r.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v.value);
    m += (m.empty() ? "" : ", ") + std::string("\"") + name +
         "\": {\"value\": " + buf + ", \"unit\": \"" + v.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              r.failed == 0 ? "true" : "false", r.attempted, r.failed,
              m.c_str());
  return 0;
}
