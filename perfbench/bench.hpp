#pragma once
// Shared pieces of the repo benchmark driver (see perfbench/NOTES.md):
// the run arguments, the report every workload fills, exact statistics,
// host/context probes, and the span accounting of the traced runs.
//
// The driver calls the program only through its public entry points
// (serve::Server, pipeline::Session / run_pipeline, nnq batched forces,
// mesh::run_parallel_mesh) and reads the instruments the program already
// publishes; it adds no instrumentation to the program.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mlmd/obs/trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  bool tiny = false;     ///< self-test sizes: seconds of work, not minutes
  bool corrupt = false;  ///< self-test: corrupt one served result pre-gate
  bool serial_probe = false; ///< dcmesh: one run, report md_step_s only
  bool record = false;   ///< print the physics of every input configuration
  std::string work_dir;  ///< scratch directory (checkpoints), created here
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. Every attempted unit of work (scenario, DC-MESH
/// run) and every correctness check counts as attempted; a failure of
/// either counts as failed.
struct Report {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;
  /// Physics outputs per distinct input configuration, as JSON objects;
  /// run.py checks them against perfbench/reference.json.
  std::vector<std::string> physics;
  /// Extra host-context entries ("key": JSON value) printed beside the
  /// result, e.g. the traced run's self-time breakdown.
  std::vector<std::pair<std::string, std::string>> context;

  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, const char* unit);
};

// --- time and statistics ----------------------------------------------------

/// Steady-clock seconds (arbitrary epoch).
double now_s();
/// Seconds since the driver's main() started.
double since_start_s();
void mark_start();
void sleep_until(double t_s);

/// Exact quantile of the samples, linear interpolation between closest
/// ranks (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);
/// "[x, y, ...]" with 4 significant digits (context entries).
std::string json_array(const std::vector<double>& v);

// --- host context -----------------------------------------------------------

double peak_rss_mb();
/// Median of three timings of a fixed serial floating-point loop.
double cpu_canary_s();
double load_average_1m();

/// Whole-machine CPU time counters (/proc/stat, all zero where absent),
/// for the share of CPU time the hypervisor gave to other guests (steal).
struct CpuTimes {
  double total = 0.0, steal = 0.0;
  static CpuTimes read();
  double steal_share_since(const CpuTimes& before) const;
};
/// Steal share since mark_start().
double steal_share_since_start();

/// How long an end-to-end run measures, in segments (a block of
/// scenarios, a cohort, a run).
struct SegmentPlan {
  std::size_t min_segments = 3, max_segments = 1000;
  double seconds = 0.0;     ///< measure at least this long
  double max_seconds = 1e9; ///< never extend past this
};

/// Runs `segment` repeatedly and returns the steal share over each: at
/// least plan.min_segments and plan.seconds; then on while fewer than two
/// thirds of the segments were quiet (steal below 2% of all CPU time), up
/// to plan.max_segments and plan.max_seconds. A segment during which
/// another guest took CPU time is not a measurement of this program.
std::vector<double> run_segments(const std::function<void()>& segment,
                                 const SegmentPlan& plan);

/// Indices, in order, of the segments to keep: every quiet one, and at
/// least the `min_keep` with the lowest steal share.
std::vector<std::size_t> quietest(const std::vector<double>& steal,
                                  std::size_t min_keep);
/// One JSON object: canary, load average, CPU steal, SIMD target, thread counts,
/// plus the report's extra context entries.
std::string context_json(const Args& a, const Report& r);

/// Seeded Fisher-Yates permutation of [0, n).
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

// --- registry instruments -------------------------------------------------------

/// The always-on registry instruments the per-layer metrics read, as
/// running sums. Phases measure deltas (after - before), so phases that
/// must not count can run in between.
struct Instruments {
  double lfd_kin = 0, lfd_nlp = 0, lfd_vloc = 0, lfd_hartree = 0;
  double md_steps = 0, shadow_bytes = 0;
  double pool_launches = 0, pool_wait = 0, pool_wait_n = 0;
  double pool_imbalance = 0, pool_imbalance_n = 0;
  double ckpt_writes = 0, ckpt_bytes = 0, ckpt_s = 0;
  double fused_evals = 0;

  static Instruments read();
  Instruments& operator+=(Instruments o);
  Instruments operator-(Instruments o) const;

private:
  std::array<double*, 15> fields();
};

// --- span accounting (traced runs) --------------------------------------------

/// Time intervals [t0, t1) in tracer nanoseconds.
struct Interval {
  std::uint64_t t0 = 0, t1 = 0;
};

/// Accumulates the spans of a traced phase: inclusive and self time per
/// span name, span counts, and the root-span intervals of the driving
/// thread (the blocking path). Fed in batches from Tracer::snapshot() so
/// the per-thread rings never fill.
class SpanAccount {
public:
  /// Fold in a snapshot. Spans on thread `path_tid` at depth 0 are
  /// recorded as blocking-path intervals.
  void add(const std::vector<mlmd::obs::SpanEvent>& ev, std::uint32_t path_tid);
  /// Snapshot the tracer, fold it in, and clear the tracer. Call only
  /// while no other thread is recording.
  void drain(std::uint32_t path_tid);

  /// Self time per layer (span names mapped to modules: bench.forces ->
  /// nnq, gemm* -> la, ...), as a JSON object of seconds, each divided
  /// by `per`; spans whose name starts with `skip` are left out.
  std::string self_by_layer_json(double per, const std::string& skip = {}) const;
  /// Self time summed over every span except those starting with `skip`.
  double self_total_s(const std::string& skip = {}) const;

  double inclusive_s(const std::string& prefix) const;
  double self_s(const std::string& prefix) const;
  std::uint64_t count(const std::string& prefix) const;
  /// Span-covered time of the blocking path inside [t0, t1).
  double covered_s(std::uint64_t t0, std::uint64_t t1) const;
  std::uint64_t dropped = 0;

private:
  struct Acc {
    std::uint64_t n = 0;
    double incl = 0.0, self = 0.0;
  };
  std::map<std::string, Acc> by_name_;
  std::vector<Interval> roots_; ///< sorted by t0 (appended in time order)
};

/// The tracer thread id of the calling thread (records one zero-length
/// probe span; the tracer must be enabled).
std::uint32_t current_tid();

// --- workloads ----------------------------------------------------------------

void run_served(const Args& a, Report& r); ///< sweep and superlattice
void run_dcmesh(const Args& a, Report& r);

} // namespace perfbench
