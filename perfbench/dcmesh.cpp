// The dcmesh workload (perfbench/NOTES.md): the scientific batch run.
// mesh::run_parallel_mesh with 4 ranks on the default transport, a 16^3
// grid and 16 orbitals per domain, 16 MD steps per run, repeated for the
// measured time; the seed picks one of 8 pulse amplitudes. serve and nnq are bypassed; lfd propagation, complex la
// GEMMs, par collectives and the pool/OpenMP threading carry the work.

#include <cmath>
#include <cstring>

#include "bench.hpp"
#include "mlmd/mesh/multidomain.hpp"

namespace perfbench {
namespace {

using namespace mlmd;

constexpr int kRanks = 4;

mesh::ParallelMeshOptions options(const Args& a, std::size_t config) {
  mesh::ParallelMeshOptions o;
  o.grid_n = a.tiny ? 8 : 16;
  o.norb = a.tiny ? 4 : 16;
  o.nfilled = o.norb / 2;
  o.md_steps = a.tiny ? 2 : 16;
  o.mesh.nqd_per_md = 10;
  o.pulse.e0 = 0.01 * static_cast<double>(1 + config);
  return o;
}

/// Computed GEMM work per MD step per domain: the LFD nonlocal correction
/// (two complex GEMMs of ng x norb x norb every nlp_every QD steps) plus
/// the two subspace projections at each MD boundary (surface-hopping
/// Hamiltonian, n_exc overlap). Bytes: operand traffic of each GEMM.
void computed_gemm(const mesh::ParallelMeshOptions& o, double* flops,
                   double* bytes) {
  const double ng = std::pow(static_cast<double>(o.grid_n), 3);
  const double no = static_cast<double>(o.norb);
  const double gemms =
      2.0 * o.mesh.nqd_per_md / std::max(o.mesh.lfd.nlp_every, 1) + 2.0;
  *flops = gemms * 8.0 * ng * no * no;
  *bytes = gemms * 8.0 * (2.0 * ng * no + no * no);
}

struct Run {
  double wall = 0.0;
  mesh::ParallelMeshResult res;
};

Run one_run(const mesh::ParallelMeshOptions& o) {
  Run r;
  const double t0 = now_s();
  {
    obs::ObsScope span("bench.run_parallel_mesh", obs::Cat::kStep);
    r.res = mesh::run_parallel_mesh(kRanks, o);
  }
  r.wall = now_s() - t0;
  return r;
}

std::string key_of(const mesh::ParallelMeshOptions& o, std::size_t config) {
  return "dcmesh/G" + std::to_string(o.grid_n) + "/N" +
         std::to_string(o.norb) + "/M" + std::to_string(o.md_steps) +
         "/config=" + std::to_string(config);
}

std::string physics_json(const std::string& key, double total) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "{\"key\": \"%s\", \"total_n_exc\": %.17g}",
                key.c_str(), total);
  return buf;
}

} // namespace

void run_dcmesh(const Args& a, Report& r) {
  if (a.record) {
    // Reference total_n_exc of every configuration a seed can draw.
    for (std::size_t c = 0; c < 8; ++c) {
      const auto o = options(a, c);
      r.physics.push_back(
          physics_json(key_of(o, c), one_run(o).res.total_n_exc));
      r.check(true, key_of(o, c));
    }
    return;
  }
  const std::size_t config = a.seed % 8;
  const auto opt = options(a, config);
  const std::string key = key_of(opt, config);
  const double steps = static_cast<double>(opt.md_steps);

  // ---- set-up: lazy initialisation (pool, OpenMP, arenas, transport) and
  // one warm-up MD step of the same problem.
  {
    auto warm = opt;
    warm.md_steps = 1;
    one_run(warm);
  }
  r.set("setup_s", since_start_s(), "s");
  if (a.setup_only) return;

  if (a.serial_probe) {
    const Run run = one_run(opt);
    r.check(std::isfinite(run.res.total_n_exc), "serial probe n_exc");
    r.set("par.serial_md_step_s", run.wall / steps, "s");
    return;
  }

  // Every run must reproduce the first run's total_n_exc bit for bit.
  double first_total = 0.0;
  bool have_first = false;
  auto check_run = [&](const Run& run) {
    r.check(true, "dcmesh run");
    double total = run.res.total_n_exc;
    if (a.corrupt && !have_first) total += 1e-9;
    if (!have_first) {
      first_total = total;
      have_first = true;
      r.physics.push_back(physics_json(key, total));
      return;
    }
    r.check(std::memcmp(&total, &first_total, sizeof total) == 0,
            "total_n_exc differs between identical runs");
  };

  auto walls = [](const std::vector<Run>& runs) {
    std::vector<double> w;
    for (const auto& run : runs) w.push_back(run.wall);
    return w;
  };

  if (!a.trace) {
    // Runs for --seconds (at least 3), extended up to 1.5x while too few
    // were quiet; the quiet runs count, and at least the 3 quietest.
    std::vector<Run> runs;
    SegmentPlan plan;
    plan.seconds = a.seconds;
    plan.max_seconds = 1.5 * a.seconds;
    const std::vector<double> steal = run_segments(
        [&] {
          runs.push_back(one_run(opt));
          check_run(runs.back());
        },
        plan);
    std::vector<double> w;
    double total = 0.0;
    for (std::size_t k : quietest(steal, 3)) {
      w.push_back(runs[k].wall);
      total += runs[k].wall;
    }
    r.set("latency_p50_s", quantile(w, 0.50), "s");
    r.set("latency_p95_s", quantile(w, 0.95), "s");
    r.set("scenarios_per_s", static_cast<double>(w.size()) / total, "1/s");
    r.set("md_step_s", quantile(w, 0.50) / steps, "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    r.context.emplace_back("segment_steal", json_array(steal));
    return;
  }

  // ---- traced run: untraced and traced runs alternate (so host drift
  // hits both alike) for the measured time; at most four traced runs,
  // since every run spawns fresh rank threads, each with its own span ring.
  obs::Tracer::clear();
  obs::Tracer::enable(true);
  const std::uint32_t tid = current_tid();
  obs::Tracer::enable(false);
  SpanAccount acc;
  Instruments inst;
  std::vector<Run> plain, traced;
  const double t0 = now_s();
  while (traced.size() < 2 ||
         (now_s() - t0 < a.seconds && traced.size() < 4)) {
    plain.push_back(one_run(opt));
    check_run(plain.back());
    const Instruments before = Instruments::read();
    obs::Tracer::enable(true);
    traced.push_back(one_run(opt));
    obs::Tracer::enable(false);
    inst += Instruments::read() - before;
    check_run(traced.back());
    acc.drain(tid); // rank threads have joined: nothing is recording
  }

  const double n = static_cast<double>(traced.size());
  const double dom_steps = n * steps * kRanks; // MD steps x domains
  r.set("lfd.kin_prop_s", inst.lfd_kin / dom_steps, "s");
  r.set("lfd.nlp_prop_s", inst.lfd_nlp / dom_steps, "s");
  r.set("lfd.vloc_prop_s", inst.lfd_vloc / dom_steps, "s");
  r.set("lfd.hartree_s", inst.lfd_hartree / dom_steps, "s");
  r.set("mesh.md_step_self_s", acc.self_s("mesh.md_step") / dom_steps, "s");
  r.set("mesh.bytes_per_step", inst.shadow_bytes / dom_steps, "bytes");
  const double gemm_s = acc.inclusive_s("gemm");
  double flops = 0.0, bytes = 0.0;
  computed_gemm(opt, &flops, &bytes);
  r.set("la.gemm_s", gemm_s / dom_steps, "s");
  r.set("la.gemm_gflops", gemm_s > 0 ? flops * dom_steps / gemm_s * 1e-9 : 0.0,
        "GFLOP/s");
  r.set("la.gemm_bytes", bytes, "bytes");

  // par transport: per-rank accounts of every traced run.
  double wait = 0.0, overlap = 0.0, calls = 0.0, comm_bytes = 0.0;
  for (const auto& run : traced) {
    double w = 0.0, o = 0.0, c = 0.0;
    for (const auto& rt : run.res.rank_traffic) {
      w = std::max(w, rt.wait_seconds);
      o = std::max(o, rt.overlap_seconds);
      double rc = 0.0;
      for (const auto& [op, st] : rt.ops) {
        rc += static_cast<double>(st.calls);
        comm_bytes += static_cast<double>(st.bytes);
      }
      c = std::max(c, rc);
    }
    wait += w;
    overlap += o;
    calls += c;
  }
  r.set("par.comm_wait_s", wait / (n * steps), "s");
  r.set("par.overlap_s", overlap / (n * steps), "s");
  r.set("par.comm_calls_per_step", calls / (n * steps), "count");
  r.set("par.comm_bytes_per_step", comm_bytes / (n * steps), "bytes");
  r.set("par.pool_launches", inst.pool_launches / (n * steps), "count");
  r.set("par.pool_queue_wait_s",
        inst.pool_wait_n ? inst.pool_wait / inst.pool_wait_n : 0.0, "s");
  r.set("par.pool_imbalance",
        inst.pool_imbalance_n ? inst.pool_imbalance / inst.pool_imbalance_n
                              : 0.0,
        "ratio");

  const double plain_wall = mean(walls(plain));
  const double traced_wall = mean(walls(traced));
  r.set("trace.overhead_pct", (traced_wall - plain_wall) / plain_wall * 100.0,
        "%");
  // Blocking path: the driving thread's run_parallel_mesh span, whose
  // self time plus the rank spans it waits on tile the whole run.
  r.set("trace.self_time_coverage",
        acc.inclusive_s("bench.run_parallel_mesh") / n / plain_wall, "ratio");
  // Self time per run by layer: rank spans averaged over the ranks; what
  // the average rank does not cover is run_parallel_mesh's own (mesh).
  const double rank_self = acc.self_total_s("bench.") / (n * kRanks);
  r.context.emplace_back("self_time_per_rank_run_s",
                         acc.self_by_layer_json(n * kRanks, "bench."));
  char buf[128];
  std::snprintf(buf, sizeof buf, "%.6g", traced_wall - rank_self);
  r.context.emplace_back("mesh_driver_self_per_run_s", buf);
}

} // namespace perfbench
