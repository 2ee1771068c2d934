// mlmd_serve — the multi-tenant serving daemon (DESIGN.md Sec. 14).
//
// Runs a deterministic synthetic workload through the mlmd::serve
// scheduler: --tenants clients each submit --per-tenant kNeural pipeline
// scenarios (alternating pumped/dark, per-request pulse amplitudes) that
// interleave on one process, share one copy of the GS/XS model weights,
// and batch their force inference across requests. Each completed
// scenario's physics results are written to --out/result-<id>.txt in
// hexfloat (bit-exact across runs), and with --checkpoint-dir a killed
// daemon warm-restarts: re-running the same command skips scenarios whose
// result files exist and resumes the rest from their checkpoints —
// results are bitwise-identical to an uninterrupted run (tested by
// serve_warm_restart_test.sh and the ServeFork gtests).
//
// Operational robustness (DESIGN.md Sec. 15): --deadline-ms bounds every
// scenario (expired ones are reaped with their checkpoint kept, so a
// rerun resumes them); SIGTERM drains gracefully — admission closes,
// every live session checkpoints, obs flushes, and the daemon exits 0;
// --shed-watermark-ms sheds load once the p95 queue wait crosses it.
//
//   mlmd_serve [--tenants=4] [--per-tenant=2] [--out=DIR]
//              [--checkpoint-dir=DIR] [--checkpoint-every=10]
//              [--lattice=16] [--xs-steps=40] [--inflight=8]
//              [--queue-cap=64] [--quota=0] [--batch-max=8]
//              [--verify-batching] [--threads=N] [--trace=PATH]
//              [--deadline-ms=MS] [--shed-watermark-ms=MS]
//              [--kill-at-round=N]   (test hook: SIGKILL mid-load)
//              [--term-at-round=N]   (test hook: SIGTERM mid-load)

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mlmd/common/cli.hpp"
#include "mlmd/ft/io.hpp"
#include "mlmd/nnq/train.hpp"
#include "mlmd/obs/obs.hpp"
#include "mlmd/par/thread_pool.hpp"
#include "mlmd/serve/server.hpp"

namespace {

using namespace mlmd;

/// SIGTERM latch: the handler only sets the flag; the drain watcher
/// thread does the actual work (drain() takes locks a handler must not).
volatile std::sig_atomic_t g_sigterm = 0;

std::string result_path(const std::string& dir, long id) {
  return dir + "/result-" + std::to_string(id) + ".txt";
}

/// Physics fields only, printed as hexfloats: byte-identical whenever the
/// scenario's dynamics are bit-identical. Fault-tolerance bookkeeping
/// (start_step, checkpoints_written) legitimately differs across a warm
/// restart and is deliberately excluded.
void write_result(const std::string& dir, const serve::Request& req,
                  const pipeline::PipelineResult& res) {
  ft::AtomicFile out(result_path(dir, req.id), "w");
  std::FILE* fp = out.get();
  std::fprintf(fp, "id %ld\ntenant %d\ndark %d\n", req.id, req.tenant,
               req.dark ? 1 : 0);
  std::fprintf(fp, "n_exc %a\nw %a\nq_initial %a\nq_final %a\nswitched %d\n",
               res.n_exc, res.w, res.q_initial, res.q_final,
               res.switched ? 1 : 0);
  std::fprintf(fp, "q_history %zu", res.q_history.size());
  for (double q : res.q_history) std::fprintf(fp, " %a", q);
  std::fprintf(fp, "\n");
  out.commit();
}

/// The deterministic synthetic workload: scenario ids, tenants and
/// options are pure functions of the flags, so a restarted daemon
/// regenerates exactly the work a killed one was doing.
std::vector<serve::Request> make_workload(int tenants, int per_tenant,
                                          std::size_t lattice, int xs_steps) {
  std::vector<serve::Request> reqs;
  for (int t = 0; t < tenants; ++t) {
    for (int r = 0; r < per_tenant; ++r) {
      serve::Request req;
      req.tenant = t;
      req.id = static_cast<long>(t) * per_tenant + r + 1;
      req.dark = (r % 2) == 1;
      req.gs_model = "gs";
      req.xs_model = "xs";
      auto& opt = req.opt;
      opt.backend = pipeline::ForceBackend::kNeural;
      opt.lattice = lattice;
      opt.superlattice = 1;
      opt.relax_steps = 60;
      opt.grid_n = 8;
      opt.norb = 4;
      opt.nfilled = 2;
      opt.mesh_md_steps = 2;
      opt.mesh.nqd_per_md = 10;
      opt.mesh.lfd.dt_qd = 0.06;
      opt.xs_steps = xs_steps;
      opt.record_every = 10;
      opt.pulse.e0 = 0.10 + 0.01 * static_cast<double>(r % 5);
      opt.pulse.omega = 0.15;
      opt.pulse.fwhm = 30.0;
      opt.n_sat = 0.02;
      reqs.push_back(std::move(req));
    }
  }
  return reqs;
}

void usage() {
  std::puts(
      "usage: mlmd_serve [--key=value ...]\n"
      "  --tenants=N --per-tenant=M   synthetic workload shape (default 4x2)\n"
      "  --out=DIR                    result files (default mlmd_serve_out)\n"
      "  --checkpoint-dir=DIR         enable warm restart via checkpoints\n"
      "  --checkpoint-every=N         steps between checkpoints (default 10)\n"
      "  --lattice=N --xs-steps=N     scenario size (default 16 / 40)\n"
      "  --inflight=N --queue-cap=N   scheduler slots / queue bound\n"
      "  --quota=N                    per-tenant queued+in-flight cap (0=off)\n"
      "  --batch-max=N                sessions per fused inference batch\n"
      "  --verify-batching            memcmp fused vs single-lattice forces\n"
      "  --threads=N --trace=PATH     ThreadPool size / Chrome trace\n"
      "  --deadline-ms=MS             per-request deadline (reaped with\n"
      "                               checkpoint kept; rerun resumes)\n"
      "  --shed-watermark-ms=MS       reject new work while p95 queue wait\n"
      "                               exceeds MS (load shedding)\n"
      "  --kill-at-round=N            test hook: SIGKILL at scheduler round N\n"
      "  --term-at-round=N            test hook: SIGTERM at scheduler round N\n"
      "                               (graceful drain, exit 0)");
}

} // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  if (cli.flag("help")) {
    usage();
    return 0;
  }
  if (!cli.check_known(
          {"tenants", "per-tenant", "out", "checkpoint-dir",
           "checkpoint-every", "lattice", "xs-steps", "inflight", "queue-cap",
           "quota", "batch-max", "verify-batching", "threads",
           "trace", "deadline-ms", "shed-watermark-ms", "kill-at-round",
           "term-at-round", "help"},
          "run 'mlmd_serve --help' for usage"))
    return 1;

  try {
    if (cli.has("threads"))
      par::ThreadPool::set_global_threads(
          static_cast<int>(cli.integer("threads", 0)));
    const std::string trace_path =
        obs::init_tracing(cli.has("trace") ? cli.str("trace") : "");

    const int tenants = static_cast<int>(cli.integer("tenants", 4));
    const int per_tenant = static_cast<int>(cli.integer("per-tenant", 2));
    const auto lattice =
        static_cast<std::size_t>(cli.integer("lattice", 16));
    const int xs_steps = static_cast<int>(cli.integer("xs-steps", 40));
    const std::string out_dir = cli.str("out", "mlmd_serve_out");
    std::filesystem::create_directories(out_dir);

    // One copy of the weights serves every tenant. Deterministic tiny
    // training so a restarted daemon rebuilds the identical models.
    auto registry = std::make_shared<serve::ModelRegistry>();
    {
      auto gs_data = nnq::sample_ferro_dataset(8, 8, 0.05, 10, 5, 0.0, 81);
      auto xs_data = nnq::sample_ferro_dataset(8, 8, 0.05, 10, 5, 0.45, 82);
      auto gs = std::make_shared<nnq::LatticeModel>(
          std::vector<std::size_t>{12, 12}, 5);
      auto xs = std::make_shared<nnq::LatticeModel>(
          std::vector<std::size_t>{12, 12}, 6);
      nnq::TrainOptions topt;
      topt.epochs = 10;
      nnq::train_energy(gs->net(), gs_data, topt);
      nnq::train_energy(xs->net(), xs_data, topt);
      registry->add("gs", std::move(gs));
      registry->add("xs", std::move(xs));
    }

    serve::ServerOptions sopt;
    sopt.queue_capacity = static_cast<std::size_t>(cli.integer(
        "queue-cap", static_cast<long>(tenants) * per_tenant + 8));
    sopt.tenant_quota = static_cast<std::size_t>(cli.integer("quota", 0));
    sopt.max_inflight = static_cast<std::size_t>(cli.integer("inflight", 8));
    sopt.batch_max = static_cast<std::size_t>(cli.integer("batch-max", 8));
    sopt.verify_batching = cli.flag("verify-batching");
    sopt.checkpoint_dir = cli.str("checkpoint-dir", "");
    sopt.checkpoint_every =
        static_cast<int>(cli.integer("checkpoint-every", 10));
    sopt.kill_at_round = cli.integer("kill-at-round", 0);
    sopt.term_at_round = cli.integer("term-at-round", 0);
    sopt.shed_watermark_ms = cli.real("shed-watermark-ms", 0.0);
    sopt.default_deadline_ms = cli.real("deadline-ms", 0.0);

    serve::Server server(sopt, registry);
    server.start();

    // SIGTERM = graceful drain: the handler latches, this watcher drains
    // (checkpoint everything, close admission), and main falls through
    // its wait loop to exit 0 — the orchestrator contract.
    std::signal(SIGTERM, [](int) { g_sigterm = 1; });
    std::atomic<bool> watcher_stop{false};
    std::thread term_watcher([&] {
      while (!watcher_stop.load(std::memory_order_relaxed)) {
        if (g_sigterm) {
          server.drain();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });

    auto workload = make_workload(tenants, per_tenant, lattice, xs_steps);
    std::vector<const serve::Request*> submitted;
    int skipped = 0;
    for (auto& req : workload) {
      // Warm restart: scenarios that already produced results are done.
      if (std::filesystem::exists(result_path(out_dir, req.id))) {
        ++skipped;
        continue;
      }
      serve::Request copy = req;
      auto ticket = server.submit(std::move(copy));
      if (!ticket.accepted) {
        std::fprintf(stderr, "request %ld rejected: %s\n", req.id,
                     serve::reject_name(ticket.reason));
        continue;
      }
      submitted.push_back(&req);
    }

    int failed = 0, drained = 0, expired = 0;
    for (const serve::Request* req : submitted) {
      auto out = server.wait(req->id);
      if (out.ok) {
        write_result(out_dir, *req, out.result);
        std::printf(
            "id=%ld tenant=%d %s: n_exc=%.4f w=%.3f Q %.3f -> %.3f%s\n",
            req->id, req->tenant, req->dark ? "dark" : "pumped",
            out.result.n_exc, out.result.w, out.result.q_initial,
            out.result.q_final, out.result.switched ? " SWITCHED" : "");
        continue;
      }
      if (out.reject == serve::Reject::kStopped) {
        // Drained at SIGTERM with its checkpoint kept: degraded service,
        // not an error — a rerun resumes it bit-identically.
        ++drained;
        continue;
      }
      if (out.reject == serve::Reject::kDeadline) {
        ++expired;
        std::fprintf(stderr,
                     "request %ld deadline exceeded (checkpoint kept)\n",
                     req->id);
        continue;
      }
      ++failed;
      std::fprintf(stderr, "request %ld failed: %s\n", req->id,
                   out.error.c_str());
    }
    watcher_stop.store(true, std::memory_order_relaxed);
    term_watcher.join();
    server.stop();

    // Server::stats() lumps every !ok outcome into failed; the summary
    // uses the loop's taxonomy so drained/expired don't read as failures.
    const auto st = server.stats();
    std::printf("served %ld scenarios (%d skipped, %d failed)\n",
                st.completed, skipped, failed);
    if (drained > 0)
      std::printf("drained %d scenarios (checkpoints kept; rerun resumes)\n",
                  drained);
    if (expired > 0)
      std::printf("%d scenarios hit their deadline (checkpoints kept)\n",
                  expired);
    int rc = failed == 0 ? 0 : 2;
    if (!obs::finish_tracing(trace_path) && rc == 0) rc = 1;
    return rc;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::fprintf(stderr, "run 'mlmd_serve --help' for usage\n");
    return 1;
  }
}
