// The two served workloads (perfbench/NOTES.md):
//
//   sweep         open loop: scenarios arrive on an absolute schedule at a
//                 fixed rate from 4 round-robin tenants; small lattices,
//                 half dark, a grid of 5 fluences, so every scenario shares
//                 its stage-1 inputs and most share their stage-2 inputs.
//   superlattice  closed loop in cohorts: max_inflight scenarios submitted
//                 together, equal in length, so they complete together;
//                 48x48 lattices with a 3x3 skyrmion superlattice, every
//                 scenario unique (own fluence and ferro coupling), warm-
//                 restart checkpoints every 10 steps as mlmd_serve deploys
//                 them.
//
// Untraced runs measure the end-to-end metrics through serve::Server.
// Traced runs add two direct phases that drive the same scenarios through
// pipeline::Session and nnq::xs_mixed_forces_multi with the scheduler's
// discipline (admit up to max_inflight, one fused Eq. (4) batch and one
// step per session per round), with spans around prepare / forces / step:
// one traced (per-layer self times) and one untraced (tracing overhead).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>

#include "bench.hpp"
#include "mlmd/nnq/train.hpp"
#include "mlmd/obs/metrics.hpp"
#include "mlmd/serve/server.hpp"

namespace perfbench {
namespace {

using namespace mlmd;

struct Shape {
  bool open = false;           ///< open loop (sweep) or closed (superlattice)
  double rate = 0.0;           ///< open loop: scenarios per second
  std::size_t segment = 0;     ///< open loop: scenarios per measured segment
  std::size_t segments = 3;    ///< measured segments (at least; see --seconds)
  std::size_t lattice = 16, superlattice = 1;
  int relax_steps = 60, xs_steps = 120;
  int checkpoint_every = 0;    ///< > 0: server warm-restart checkpoints
  std::size_t inflight = 8;    ///< ServerOptions::max_inflight default
  int train_epochs = 10;
};

Shape shape_for(const Args& a) {
  Shape s;
  if (a.workload == "sweep") {
    s.open = true;
    s.rate = a.tiny ? 10.0 : 6.0;
    // 10 segments of 25: 250 samples when the host is quiet. Short
    // segments let the steal share single out the quiet stretches of a
    // noisy host.
    s.segment = a.tiny ? 4 : 25;
    s.segments = a.tiny ? 3 : 10;
    s.lattice = a.tiny ? 8 : 16;
    s.xs_steps = a.tiny ? 20 : 120;
  } else {
    s.lattice = a.tiny ? 12 : 48;
    s.superlattice = a.tiny ? 2 : 3;
    s.xs_steps = a.tiny ? 20 : 300;
    s.checkpoint_every = 10;
    // 4 cohorts: a cohort takes 7-10 s and host noise comes in stretches
    // of seconds to minutes.
    s.segments = a.tiny ? 3 : 4;
  }
  if (a.tiny) s.train_epochs = 2;
  return s;
}

struct Scenario {
  long id = 0;
  int tenant = 0;
  bool dark = false;
  std::string key;            ///< physics reference key (input config)
  std::string stage1, stage2; ///< prefix keys: stages 1 and 1+2 inputs
  pipeline::PipelineOptions opt;
};

pipeline::PipelineOptions base_options(const Shape& s) {
  pipeline::PipelineOptions opt;
  opt.backend = pipeline::ForceBackend::kNeural;
  opt.lattice = s.lattice;
  opt.superlattice = s.superlattice;
  opt.relax_steps = s.relax_steps;
  opt.grid_n = 8;
  opt.norb = 4;
  opt.nfilled = 2;
  opt.mesh_md_steps = 2;
  opt.mesh.nqd_per_md = 10;
  opt.mesh.lfd.dt_qd = 0.06;
  opt.xs_steps = s.xs_steps;
  opt.record_every = 10;
  opt.pulse.omega = 0.15;
  opt.pulse.fwhm = 30.0;
  opt.n_sat = 0.02;
  return opt;
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

/// The i-th scenario of the run. sweep: 2 in 5 dark, the light ones
/// cycling through a grid of 5 fluences; superlattice: a seeded walk over a 12 x 8
/// (fluence x ferro coupling) grid, unique within a run of <= 96.
Scenario make_scenario(const Args& a, const Shape& s, std::size_t i) {
  Scenario sc;
  sc.id = static_cast<long>(i) + 1;
  sc.tenant = static_cast<int>(i % 4);
  sc.opt = base_options(s);
  const std::string geo = "L" + std::to_string(s.lattice) + "/S" +
                          std::to_string(s.superlattice) + "/X" +
                          std::to_string(s.xs_steps);
  if (a.workload == "sweep") {
    // Blocks of 5 in a seeded order: 3 light (the next 3 of the 5 fluences,
    // round-robin across blocks) and 2 dark.
    const std::size_t block = i / 5;
    const std::size_t slot = permutation(5, a.seed * 1000003u + block)[i % 5];
    sc.dark = slot >= 3;
    const double e0 = 0.10 + 0.01 * static_cast<double>((3 * block + slot) % 5);
    sc.opt.pulse.e0 = e0;
    sc.key = "sweep/" + geo + (sc.dark ? "/dark" : fmt("/e0=%.2f", e0));
    sc.stage1 = "default-ferro";
    sc.stage2 = sc.dark ? "" : fmt("e0=%.2f", e0);
  } else {
    const auto perm = permutation(96, a.seed);
    const std::size_t cell = perm[i % 96];
    const double e0 = 0.06 + 0.01 * static_cast<double>(cell % 12);
    const double j = 0.50 + 0.02 * static_cast<double>(cell / 12);
    sc.opt.pulse.e0 = e0;
    sc.opt.ferro.j = j;
    sc.key = "superlattice/" + geo + fmt("/e0=%.2f", e0) + fmt("/j=%.2f", j);
    sc.stage1 = fmt("j=%.2f", j);
    sc.stage2 = sc.stage1 + fmt("/e0=%.2f", e0);
  }
  return sc;
}

std::shared_ptr<serve::ModelRegistry> train_models(const Shape& s) {
  auto models = std::make_shared<serve::ModelRegistry>();
  auto gs_data = nnq::sample_ferro_dataset(8, 8, 0.05, 10, 5, 0.0, 81);
  auto xs_data = nnq::sample_ferro_dataset(8, 8, 0.05, 10, 5, 0.45, 82);
  auto gs = std::make_shared<nnq::LatticeModel>(
      std::vector<std::size_t>{12, 12}, 5);
  auto xs = std::make_shared<nnq::LatticeModel>(
      std::vector<std::size_t>{12, 12}, 6);
  nnq::TrainOptions topt;
  topt.epochs = s.train_epochs;
  nnq::train_energy(gs->net(), gs_data, topt);
  nnq::train_energy(xs->net(), xs_data, topt);
  models->add("gs", std::move(gs));
  models->add("xs", std::move(xs));
  return models;
}

serve::Request to_request(const Scenario& sc) {
  serve::Request req;
  req.tenant = sc.tenant;
  req.id = sc.id;
  req.dark = sc.dark;
  req.opt = sc.opt;
  req.gs_model = "gs";
  req.xs_model = "xs";
  return req;
}

/// One finished scenario of a measured phase.
struct Done {
  std::size_t idx = 0; ///< scenario index
  double due = 0.0, sent = 0.0, done = 0.0; ///< steady-clock seconds
  bool ok = false;
  std::string error;
  pipeline::PipelineResult result;
  double latency() const { return done - due; }
};

struct Phase {
  std::vector<Done> done;
  double t0 = 0.0, t1 = 0.0; ///< first due .. last completion
  long rejected = 0;
};

/// Served phase through serve::Server. Open loop: scenario i is due at
/// t0 + i / rate and is timed from that due time; a waiter thread
/// collects outcomes in submission order (the scheduler completes
/// sessions in activation order). Closed loop: one cohort — max_inflight
/// equal-length scenarios submitted together, which complete together.
Phase serve_phase(const Args& a, const Shape& s, serve::Server& server,
                  std::size_t first, std::size_t n_open) {
  Phase ph;
  ph.t0 = now_s() + (s.open ? 0.02 : 0.0); // open loop: first due time
  if (s.open) {
    ph.done.resize(n_open);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t submitted = 0;
    std::thread waiter([&] {
      for (std::size_t k = 0; k < n_open; ++k) {
        {
          std::unique_lock lk(mu);
          cv.wait(lk, [&] { return submitted > k; });
        }
        Done& d = ph.done[k];
        if (!d.error.empty()) continue; // rejected at submit
        auto out = server.wait(make_scenario(a, s, first + k).id);
        d.done = now_s();
        d.ok = out.ok;
        d.error = out.ok ? "" : (out.error.empty() ? "failed" : out.error);
        d.result = std::move(out.result);
      }
    });
    for (std::size_t k = 0; k < n_open; ++k) {
      Done& d = ph.done[k];
      d.idx = first + k;
      d.due = ph.t0 + static_cast<double>(k) / s.rate;
      const Scenario sc = make_scenario(a, s, d.idx);
      sleep_until(d.due);
      d.sent = now_s();
      const auto t = server.submit(to_request(sc));
      if (!t.accepted) {
        ++ph.rejected;
        d.done = d.sent;
        d.error = std::string("rejected: ") + serve::reject_name(t.reason);
      }
      {
        std::lock_guard lk(mu);
        submitted = k + 1;
      }
      cv.notify_one();
    }
    waiter.join();
  } else {
    for (std::size_t k = 0; k < s.inflight; ++k) {
      Done d;
      d.idx = first + k;
      d.due = d.sent = now_s();
      const auto t = server.submit(to_request(make_scenario(a, s, d.idx)));
      if (!t.accepted) {
        ++ph.rejected;
        d.done = d.sent;
        d.error = std::string("rejected: ") + serve::reject_name(t.reason);
      }
      ph.done.push_back(std::move(d));
    }
    for (auto& d : ph.done) {
      if (!d.error.empty()) continue;
      auto out = server.wait(make_scenario(a, s, d.idx).id);
      d.done = now_s();
      d.ok = out.ok;
      d.error = out.ok ? "" : (out.error.empty() ? "failed" : out.error);
      d.result = std::move(out.result);
    }
  }
  ph.t1 = ph.t0;
  for (const auto& d : ph.done) ph.t1 = std::max(ph.t1, d.done);
  return ph;
}

/// Direct phase: the same scenarios driven through pipeline::Session with
/// the scheduler's round discipline, spans around each public call.
struct DirectPhase {
  std::vector<double> latency;           ///< per scenario, seconds
  std::vector<double> covered;           ///< span-covered path, seconds
  long scenarios = 0, xs_steps = 0, force_calls = 0;
  double gemm_flops = 0.0, gemm_bytes = 0.0; ///< computed, Eq. (4) GEMMs

  void append(const DirectPhase& o) {
    latency.insert(latency.end(), o.latency.begin(), o.latency.end());
    covered.insert(covered.end(), o.covered.begin(), o.covered.end());
    scenarios += o.scenarios;
    xs_steps += o.xs_steps;
    force_calls += o.force_calls;
    gemm_flops += o.gemm_flops;
    gemm_bytes += o.gemm_bytes;
  }
};

DirectPhase direct_phase(const Args& a, const Shape& s,
                         const serve::ModelRegistry& models,
                         std::size_t first, std::size_t n_open, bool traced,
                         SpanAccount* acc) {
  using obs::Tracer;
  DirectPhase out;
  const auto gs = models.get("gs");
  const auto xs = models.get("xs");
  // Computed GEMM work of one Eq. (4) evaluation per cell: the force is
  // the input gradient of each model's energy MLP (one forward and one
  // backward GEMM per layer), for both models.
  double w_sum = 0.0, w_cols = 0.0;
  const auto& sz = gs->net().sizes();
  for (std::size_t l = 0; l + 1 < sz.size(); ++l) {
    w_sum += static_cast<double>(sz[l] * sz[l + 1]);
    w_cols += static_cast<double>(sz[l] + sz[l + 1]);
  }

  struct Live {
    std::size_t idx;
    double due;
    std::uint64_t due_ns;
    std::unique_ptr<pipeline::Session> session;
  };
  std::vector<Live> active;
  std::size_t next = first;
  const std::size_t end_open = first + n_open;
  const double t0 = now_s() + 0.02;
  if (traced) Tracer::enable(true);
  const std::uint32_t tid = traced ? current_tid() : 0;
  if (traced) acc->drain(tid);

  auto due_of = [&](std::size_t idx) {
    return t0 + static_cast<double>(idx - first) / s.rate;
  };
  auto admit = [&](std::size_t idx, double due) {
    Scenario sc = make_scenario(a, s, idx);
    sc.opt.gs_model = gs;
    sc.opt.xs_model = xs;
    if (s.checkpoint_every > 0) {
      sc.opt.checkpoint_every = s.checkpoint_every;
      sc.opt.checkpoint_path =
          a.work_dir + "/direct-" + std::to_string(sc.id) + ".ckpt";
    }
    Live l{idx, due, 0, nullptr};
    l.due_ns = traced ? Tracer::now_ns() -
                            static_cast<std::uint64_t>(
                                std::max(0.0, now_s() - due) * 1e9)
                      : 0;
    l.session = std::make_unique<pipeline::Session>(std::move(sc.opt), sc.dark);
    {
      obs::ObsScope span("bench.prepare", obs::Cat::kStep);
      l.session->prepare();
    }
    active.push_back(std::move(l));
  };

  if (!s.open)
    for (std::size_t k = 0; k < s.inflight; ++k) admit(next++, now_s());
  while (!active.empty() || (s.open && next < end_open)) {
    if (s.open) {
      while (active.size() < s.inflight && next < end_open &&
             due_of(next) <= now_s()) {
        admit(next, due_of(next));
        ++next;
      }
      if (active.empty()) {
        obs::ObsScope idle("loadgen.idle", obs::Cat::kStep);
        sleep_until(due_of(next));
        continue;
      }
    }
    // One round: a fused Eq. (4) evaluation for every session, then one
    // stage-3 step each.
    std::vector<const ferro::FerroLattice*> lats;
    std::vector<double> n_exc, n_sat;
    double cells = 0.0;
    for (auto& l : active) {
      lats.push_back(&l.session->lattice());
      n_exc.push_back(l.session->n_exc());
      n_sat.push_back(l.session->n_sat());
      cells += static_cast<double>(l.session->lattice().ncells());
    }
    std::vector<std::vector<ferro::Vec3>> f;
    {
      obs::ObsScope span("bench.forces", obs::Cat::kStep);
      f = nnq::xs_mixed_forces_multi(*gs, *xs, lats, n_exc, n_sat);
    }
    ++out.force_calls;
    out.gemm_flops += 2.0 * 4.0 * cells * w_sum;
    out.gemm_bytes += 2.0 * 2.0 * 8.0 * (cells * w_cols + w_sum);
    for (std::size_t i = 0; i < active.size(); ++i) {
      obs::ObsScope span("bench.step", obs::Cat::kStep);
      active[i].session->step_with(std::move(f[i]));
      ++out.xs_steps;
    }
    for (std::size_t i = 0; i < active.size();) {
      if (!active[i].session->done()) {
        ++i;
        continue;
      }
      const double t = now_s();
      out.latency.push_back(t - active[i].due);
      if (traced) {
        acc->drain(tid);
        out.covered.push_back(acc->covered_s(active[i].due_ns, Tracer::now_ns()));
      }
      ++out.scenarios;
      std::filesystem::remove(a.work_dir + "/direct-" +
                              std::to_string(active[i].idx + 1) + ".ckpt");
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (traced) acc->drain(tid);
  }
  if (traced) {
    acc->drain(tid);
    Tracer::enable(false);
  }
  return out;
}

bool same_bytes(const pipeline::PipelineResult& x,
                const pipeline::PipelineResult& y) {
  auto eq = [](double p, double q) { return std::memcmp(&p, &q, sizeof p) == 0; };
  return eq(x.n_exc, y.n_exc) && eq(x.w, y.w) && eq(x.q_initial, y.q_initial) &&
         eq(x.q_final, y.q_final) && x.q_history.size() == y.q_history.size() &&
         (x.q_history.empty() ||
          std::memcmp(x.q_history.data(), y.q_history.data(),
                      x.q_history.size() * sizeof(double)) == 0) &&
         x.switched == y.switched && x.start_step == y.start_step &&
         x.checkpoints_written == y.checkpoints_written &&
         x.rollbacks == y.rollbacks && x.degraded == y.degraded;
}

std::string physics_json(const std::string& key,
                         const pipeline::PipelineResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"key\": \"%s\", \"n_exc\": %.17g, \"q_initial\": %.17g, "
                "\"q_final\": %.17g}",
                key.c_str(), r.n_exc, r.q_initial, r.q_final);
  return buf;
}

/// Correctness gate over a served phase: every scenario completed; every
/// repeat of an input configuration gave the same bytes; a deterministic
/// sample replays byte-identically through pipeline::run_pipeline.
void gate(const Args& a, const Shape& s, const serve::ModelRegistry& models,
          Phase& ph, Report& r) {
  if (a.corrupt && !ph.done.empty()) ph.done.front().result.q_final += 1e-3;

  std::map<std::string, const Done*> first_of;
  bool repeats_agree = true;
  for (const auto& d : ph.done) {
    r.check(d.ok, "scenario " + std::to_string(d.idx) + ": " + d.error);
    if (!d.ok) continue;
    const std::string key = make_scenario(a, s, d.idx).key;
    auto [it, fresh] = first_of.emplace(key, &d);
    if (fresh)
      r.physics.push_back(physics_json(key, d.result));
    else if (!same_bytes(it->second->result, d.result))
      repeats_agree = false;
  }
  r.check(repeats_agree, "repeated input configurations differ");

  // Sample: the first scenario, then seeded others, each of a
  // configuration not sampled yet — 4, or 2 when every replay is a full
  // superlattice scenario.
  const std::size_t want = s.checkpoint_every > 0 ? 2 : 4;
  std::vector<std::size_t> candidates{0};
  for (std::size_t k : permutation(ph.done.size(), a.seed ^ 0x5eed))
    candidates.push_back(k);
  std::vector<const Done*> sample;
  std::set<std::string> keys;
  for (std::size_t k : candidates) {
    if (sample.size() == want || k >= ph.done.size()) break;
    const Done& d = ph.done[k];
    if (d.ok && keys.insert(make_scenario(a, s, d.idx).key).second)
      sample.push_back(&d);
  }
  for (const Done* d : sample) {
    Scenario sc = make_scenario(a, s, d->idx);
    sc.opt.gs_model = models.get("gs");
    sc.opt.xs_model = models.get("xs");
    if (s.checkpoint_every > 0) {
      sc.opt.checkpoint_every = s.checkpoint_every;
      sc.opt.checkpoint_path = a.work_dir + "/replay.ckpt";
    }
    const auto ref = pipeline::run_pipeline(sc.opt, sc.dark);
    r.check(same_bytes(ref, d->result),
            "scenario " + std::to_string(d->idx) +
                ": served result differs from run_pipeline");
  }
}

/// Share of scenarios whose key repeats an earlier scenario's (empty keys
/// — dark scenarios have no stage 2 — are skipped).
double prefix_share(const Args& a, const Shape& s, std::size_t n, bool stage2) {
  std::set<std::string> seen;
  std::size_t counted = 0, repeats = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Scenario sc = make_scenario(a, s, i);
    const std::string& k = stage2 ? sc.stage2 : sc.stage1;
    if (k.empty()) continue;
    ++counted;
    if (!seen.insert(k).second) ++repeats;
  }
  return counted ? static_cast<double>(repeats) / static_cast<double>(counted)
                 : 0.0;
}

void served_layer_metrics(const Args& a, const Shape& s, const Phase& ph,
                          const Instruments& inst, Report& r) {
  auto& reg = obs::Registry::global();
  const double n = static_cast<double>(std::max<std::size_t>(ph.done.size(), 1));
  std::vector<double> late;
  for (const auto& d : ph.done) late.push_back(d.sent - d.due);
  r.set("loadgen.lateness_p95_s", quantile(late, 0.95), "s");
  // Only the served phases touch the serve.* instruments.
  const auto& qw = reg.histogram("serve.queue.wait_seconds");
  r.set("serve.queue_wait_p50_s", qw.quantile(0.50), "s");
  r.set("serve.queue_wait_p95_s", qw.quantile(0.95), "s");
  r.set("serve.rejected", static_cast<double>(ph.rejected), "count");
  r.set("serve.batch_occupancy_mean",
        reg.histogram("serve.batch.occupancy").mean(), "sessions");
  r.set("serve.fused_evals", inst.fused_evals / n, "count");
  r.set("ft.checkpoint_writes", inst.ckpt_writes / n, "count");
  r.set("ft.checkpoint_bytes", inst.ckpt_bytes / n, "bytes");
  r.set("ft.checkpoint_s", inst.ckpt_s / n, "s");
  r.set("par.pool_launches", inst.pool_launches / n, "count");
  r.set("par.pool_queue_wait_s",
        inst.pool_wait_n ? inst.pool_wait / inst.pool_wait_n : 0.0, "s");
  r.set("par.pool_imbalance",
        inst.pool_imbalance_n ? inst.pool_imbalance / inst.pool_imbalance_n
                              : 0.0,
        "ratio");
  const double md = std::max(inst.md_steps, 1.0);
  r.set("lfd.kin_prop_s", inst.lfd_kin / md, "s");
  r.set("lfd.nlp_prop_s", inst.lfd_nlp / md, "s");
  r.set("lfd.vloc_prop_s", inst.lfd_vloc / md, "s");
  r.set("lfd.hartree_s", inst.lfd_hartree / md, "s");
  r.set("mesh.bytes_per_step", inst.shadow_bytes / md, "bytes");
  r.set("pipeline.prefix_share", prefix_share(a, s, ph.done.size(), false),
        "ratio");
  r.set("pipeline.prefix_share_stage2", prefix_share(a, s, ph.done.size(), true),
        "ratio");
}

void direct_layer_metrics(const DirectPhase& d, const DirectPhase& untraced,
                          const SpanAccount& acc, double served_mean_latency,
                          Report& r) {
  const double n = static_cast<double>(std::max<long>(d.scenarios, 1));
  const double calls = static_cast<double>(std::max<long>(d.force_calls, 1));
  r.set("pipeline.gs_prepare_s",
        acc.inclusive_s("pipeline.gs_prepare") /
            static_cast<double>(std::max<std::uint64_t>(
                acc.count("pipeline.gs_prepare"), 1)),
        "s");
  r.set("pipeline.mesh_probe_s",
        acc.inclusive_s("pipeline.mesh_probe") /
            static_cast<double>(std::max<std::uint64_t>(
                acc.count("pipeline.mesh_probe"), 1)),
        "s");
  r.set("pipeline.step_s",
        acc.inclusive_s("bench.step") /
            static_cast<double>(std::max<long>(d.xs_steps, 1)),
        "s");
  r.set("nnq.forces_s", acc.inclusive_s("bench.forces") / calls, "s");
  r.set("nnq.forces_calls", static_cast<double>(d.force_calls) / n, "count");
  const double gemm_s = acc.inclusive_s("gemm");
  r.set("la.gemm_s", gemm_s / n, "s");
  const double gemm_d = acc.inclusive_s("gemm.d");
  r.set("la.gemm_gflops", gemm_d > 0 ? d.gemm_flops / gemm_d * 1e-9 : 0.0,
        "GFLOP/s");
  r.set("la.gemm_bytes", d.gemm_bytes / n, "bytes");
  const double md = static_cast<double>(
      std::max<std::uint64_t>(acc.count("mesh.md_step"), 1));
  r.set("mesh.md_step_self_s", acc.self_s("mesh.md_step") / md, "s");
  const double lat_t = mean(d.latency), lat_u = mean(untraced.latency);
  r.set("trace.overhead_pct", lat_u > 0 ? (lat_t - lat_u) / lat_u * 100.0 : 0.0,
        "%");
  r.set("trace.self_time_coverage",
        served_mean_latency > 0 ? mean(d.covered) / served_mean_latency : 0.0,
        "ratio");
  if (acc.dropped)
    std::fprintf(stderr, "perfbench: %llu spans dropped\n",
                 static_cast<unsigned long long>(acc.dropped));
}

} // namespace

void run_served(const Args& a, Report& r) {
  const Shape s = shape_for(a);
  std::filesystem::create_directories(a.work_dir);

  // ---- set-up: models, server, lazy initialisation, one warm-up scenario
  auto models = train_models(s);
  if (a.record) {
    // Reference physics of every input configuration a seed can draw.
    std::set<std::string> seen;
    for (std::size_t i = 0; i < (s.open ? 25 : 96); ++i) {
      Scenario sc = make_scenario(a, s, i);
      if (!seen.insert(sc.key).second) continue;
      sc.opt.gs_model = models->get("gs");
      sc.opt.xs_model = models->get("xs");
      r.physics.push_back(
          physics_json(sc.key, pipeline::run_pipeline(sc.opt, sc.dark)));
      r.check(true, sc.key);
    }
    return;
  }
  serve::ServerOptions sopt;
  if (s.checkpoint_every > 0) {
    sopt.checkpoint_dir = a.work_dir + "/ckpt";
    sopt.checkpoint_every = s.checkpoint_every;
  }
  serve::Server server(sopt, models);
  server.start();
  {
    // The same light scenario for every seed, so set-up does the same work.
    Args fixed = a;
    fixed.seed = 0;
    std::size_t i = 0;
    while (make_scenario(fixed, s, i).dark) ++i;
    Scenario warm = make_scenario(fixed, s, i);
    warm.id = 0;
    const auto t = server.submit(to_request(warm));
    const auto out = server.wait(0);
    r.check(t.accepted && out.ok, "warm-up scenario failed: " + out.error);
  }
  r.set("setup_s", since_start_s(), "s");
  if (a.setup_only) return;

  if (!a.trace) {
    // Segments (open loop: `segment` scenarios on the schedule; closed
    // loop: one cohort of max_inflight), each from an idle server; the
    // quiet ones count, or the quietest by steal share if none was quiet,
    // and every segment still goes through the gate. In a stretch of heavy
    // steal the open loop queues and the p95 grows several-fold, and a
    // cohort slows by a third or more, so one quiet segment measures the
    // program better than a median that takes in noisy ones.
    obs::Registry::global().reset();
    const std::size_t seg_n = s.open ? s.segment : s.inflight;
    std::vector<Phase> segs;
    SegmentPlan plan;
    plan.min_segments = s.segments;
    plan.max_segments = s.segments;
    plan.seconds = a.seconds;
    const std::vector<double> steal = run_segments(
        [&] {
          segs.push_back(
              serve_phase(a, s, server, segs.size() * seg_n, seg_n));
        },
        plan);
    server.stop();
    // Each statistic is taken per kept segment (exact quantiles of its
    // samples) and reported as the median over the kept segments: the p95
    // of a 25-scenario segment swings with the program's own tail, and the
    // median over segments steadies it where pooling all samples did not.
    std::vector<double> p50, p95, rate, step;
    for (std::size_t k : quietest(steal, 1)) {
      std::vector<double> lat;
      for (const auto& d : segs[k].done)
        if (d.ok) lat.push_back(d.latency());
      const double wall = segs[k].t1 - segs[k].t0;
      if (lat.empty() || !(wall > 0)) continue;
      const double n = static_cast<double>(lat.size());
      p50.push_back(quantile(lat, 0.50));
      p95.push_back(quantile(lat, 0.95));
      rate.push_back(n / wall);
      step.push_back(wall / (n * s.xs_steps));
    }
    r.set("latency_p50_s", quantile(p50, 0.5), "s");
    r.set("latency_p95_s", quantile(p95, 0.5), "s");
    r.set("scenarios_per_s", quantile(rate, 0.5), "1/s");
    r.set("md_step_s", quantile(step, 0.5), "s");
    r.context.emplace_back("segment_steal", json_array(steal));
    r.context.emplace_back("kept_segment_p95_s", json_array(p95));
    Phase all;
    for (auto& seg : segs)
      for (auto& d : seg.done) all.done.push_back(std::move(d));
    gate(a, s, *models, all, r);
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // ---- traced run: served (A), direct traced (C) and direct untraced (D)
  // phases in the order A C D D C A, so a linear drift of the host hits all
  // three alike; each takes its own range of the scenario stream and a
  // sixth of the time, at least 3 s of arrivals (closed loop: one cohort).
  // The correctness gate runs last.
  const std::string order = "ACDDCA";
  const double part =
      std::max(a.tiny ? 0.0 : 3.0, a.seconds / static_cast<double>(order.size()));
  const std::size_t n_phase =
      s.open ? std::max<std::size_t>(
                   8, static_cast<std::size_t>(std::ceil(s.rate * part)))
             : 0;
  const std::size_t stride = s.open ? n_phase : 2 * s.inflight;
  // Every phase drives the program from a thread that exists only for that
  // phase (a fresh server's scheduler, or a fresh direct-drive thread): a
  // second thread that keeps an OpenMP team alive makes libgomp stop
  // spinning for work, which slowed the stage-2 probe 4x in a direct phase
  // while the served phase's scheduler thread lived on.
  server.stop();
  obs::Registry::global().reset();
  Phase served;
  Instruments inst; // registry deltas of the served phases only
  SpanAccount acc;
  DirectPhase traced, untraced;
  for (std::size_t p = 0; p < order.size(); ++p) {
    const std::size_t first = p * stride;
    if (order[p] == 'A') {
      serve::Server phase_server(sopt, models);
      phase_server.start();
      const Instruments before = Instruments::read();
      Phase ph = serve_phase(a, s, phase_server, first, n_phase);
      inst += Instruments::read() - before;
      phase_server.stop();
      served.rejected += ph.rejected;
      for (auto& d : ph.done) served.done.push_back(std::move(d));
    } else {
      const bool with_trace = order[p] == 'C';
      DirectPhase d;
      std::thread([&] {
        d = direct_phase(a, s, *models, first, n_phase, with_trace,
                         with_trace ? &acc : nullptr);
      }).join();
      (with_trace ? traced : untraced).append(d);
    }
  }

  std::vector<double> served_lat;
  for (const auto& d : served.done)
    if (d.ok) served_lat.push_back(d.latency());
  served_layer_metrics(a, s, served, inst, r);
  direct_layer_metrics(traced, untraced, acc, mean(served_lat), r);
  const double n = static_cast<double>(std::max<long>(traced.scenarios, 1));
  r.context.emplace_back("self_time_per_scenario_s",
                         acc.self_by_layer_json(n));
  r.context.emplace_back("latency_mean_s",
                         "{\"served\": " + fmt("%.6g", mean(served_lat)) +
                             ", \"direct_traced\": " +
                             fmt("%.6g", mean(traced.latency)) +
                             ", \"direct_untraced\": " +
                             fmt("%.6g", mean(untraced.latency)) + "}");
  gate(a, s, *models, served, r);
}

} // namespace perfbench
