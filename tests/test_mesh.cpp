// Tests for DC-MESH: the shadow-dynamics contract, photoexcitation vs
// dark dynamics, the Table I baseline runners, and the SimComm
// multi-domain driver with Maxwell coupling.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "mlmd/mesh/baseline.hpp"
#include "mlmd/mesh/dcmesh.hpp"
#include "mlmd/mesh/multidomain.hpp"
#include "mlmd/par/thread_pool.hpp"
#include "mlmd/par/transport.hpp"

namespace {

using namespace mlmd;
using namespace mlmd::mesh;

MeshOptions fast_options() {
  MeshOptions opt;
  opt.lfd.dt_qd = 0.06;
  opt.nqd_per_md = 10;
  opt.lfd.hartree_every = 5;
  opt.lfd.nlp_every = 5;
  return opt;
}

DcMeshDomain make_domain(MeshOptions opt = fast_options()) {
  grid::Grid3 g{8, 8, 8, 0.7, 0.7, 0.7};
  std::vector<lfd::Ion> ions = {
      {0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.0, 1.6, 2.0}};
  return DcMeshDomain(g, 4, 2, ions, opt);
}

TEST(DcMesh, DarkStepKeepsOccupationsSane) {
  auto dom = make_domain();
  auto stats = dom.md_step(nullptr);
  for (double f : dom.lfd().occupations()) {
    EXPECT_GE(f, -1e-9);
    EXPECT_LE(f, 2.0 + 1e-9);
  }
  EXPECT_GE(stats.n_exc, 0.0);
  EXPECT_GT(dom.time(), 0.0);
}

TEST(DcMesh, ShadowTrafficTinyVsWavefunctions) {
  auto dom = make_domain();
  auto stats = dom.md_step(nullptr);
  // The paper's claim (Sec. V.A.3): occupation traffic is negligible
  // compared to the resident wavefunction arrays.
  EXPECT_GT(stats.wavefunction_bytes, 100 * stats.bytes_lfd_to_qxmd);
  // delta_v_loc is one scalar field: N_grid doubles.
  EXPECT_EQ(stats.bytes_qxmd_to_lfd, 8u * 8 * 8 * 8);
  // delta_f is N_orb doubles.
  EXPECT_EQ(stats.bytes_lfd_to_qxmd, 4u * 8);
}

TEST(DcMesh, PulseExcitesMoreThanDark) {
  auto lit = make_domain();
  auto dark = make_domain();
  maxwell::Pulse pulse;
  pulse.e0 = 0.15;
  pulse.omega = 0.15;
  pulse.fwhm = 30.0;
  pulse.t0 = 1.5 * lit.md_dt();
  double n_lit = 0, n_dark = 0;
  for (int s = 0; s < 3; ++s) {
    n_lit = lit.md_step(&pulse).n_exc;
    n_dark = dark.md_step(nullptr).n_exc;
  }
  EXPECT_GE(n_lit, n_dark);
}

TEST(DcMesh, FixedVectorPotentialPath) {
  auto dom = make_domain();
  auto pending = dom.md_step_begin();
  auto stats = dom.md_step_finish(pending, 0.3);
  EXPECT_GE(stats.n_exc, 0.0);
  auto j = dom.current(0.3);
  EXPECT_TRUE(std::isfinite(j[0]) && std::isfinite(j[1]) && std::isfinite(j[2]));
}

TEST(DcMesh, IonsStayBounded) {
  auto dom = make_domain();
  for (int s = 0; s < 5; ++s) {
    auto stats = dom.md_step(nullptr);
    EXPECT_LT(stats.ion_max_disp, 1.0); // spring keeps the toy lattice bound
  }
}

TEST(Baseline, GlobalAndDcProduceTimings) {
  auto base = run_global_baseline(8, 4, 2);
  EXPECT_GT(base.seconds_per_qd_step, 0.0);
  EXPECT_EQ(base.electrons, 8u);
  auto dc = run_dc_domain(8, 4, 2);
  EXPECT_GT(dc.seconds_per_qd_step, 0.0);
}

TEST(Baseline, GlobalPerElectronCostGrowsWithSize) {
  // The structural Table I claim: baseline T2S/electron grows with the
  // orbital count (O(N^2) orthogonalization); allow generous margin but
  // require clear growth over a 8x size ratio. Each side is the best of 5
  // runs: the small case is ~0.1 ms of wall time, so one preemption of a
  // pool worker in a single sample can inflate it past the large case.
  auto best = [](std::size_t n, std::size_t norb) {
    double t = run_global_baseline(n, norb, 3).t2s_per_electron;
    for (int r = 1; r < 5; ++r)
      t = std::min(t, run_global_baseline(n, norb, 3).t2s_per_electron);
    return t;
  };
  const double small = best(8, 4);
  const double large = best(12, 32);
  EXPECT_GT(large, 1.5 * small);
}

TEST(Multidomain, RunsAndGathersNexc) {
  ParallelMeshOptions opt;
  opt.md_steps = 1;
  opt.grid_n = 8;
  opt.norb = 4;
  opt.nfilled = 2;
  opt.mesh = fast_options();
  auto res = run_parallel_mesh(3, opt);
  ASSERT_EQ(res.n_exc_per_domain.size(), 3u);
  for (double v : res.n_exc_per_domain) EXPECT_GE(v, 0.0);
  // Communication pattern: per MD step one current allgather (per rank)
  // plus one final gather per rank.
  EXPECT_GE(res.traffic.collective_ops, 3u * 2u);
  EXPECT_GT(res.traffic.collective_bytes, 0u);
}

TEST(Multidomain, SingleRankWorks) {
  ParallelMeshOptions opt;
  opt.md_steps = 1;
  opt.mesh = fast_options();
  auto res = run_parallel_mesh(1, opt);
  ASSERT_EQ(res.n_exc_per_domain.size(), 1u);
}

TEST(Multidomain, BitIdenticalAcrossPoolThreads) {
  // One DC-MESH code path (overlapped current allgather, kernels on the
  // rank thread or the shared pool): every gathered observable must be
  // bit-identical for any pool size, over either transport, and across
  // repeated runs — compared as bytes, not within ULPs.
  ParallelMeshOptions opt;
  opt.md_steps = 2;
  opt.grid_n = 8;
  opt.norb = 4;
  opt.nfilled = 2;
  opt.mesh = fast_options();
  struct Restore {
    int threads = par::ThreadPool::global().num_threads();
    par::TransportKind transport = par::default_transport();
    ~Restore() {
      par::ThreadPool::set_global_threads(threads);
      par::set_default_transport(transport);
    }
  } restore;
  const auto run_with = [&](int threads, par::TransportKind transport) {
    par::ThreadPool::set_global_threads(threads);
    par::set_default_transport(transport);
    return run_parallel_mesh(3, opt);
  };
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::vector<ParallelMeshResult> runs;
  for (int threads : {1, 2, hw})
    runs.push_back(run_with(threads, par::TransportKind::kInproc));
  for (auto transport : {par::TransportKind::kInproc, par::TransportKind::kShm})
    runs.push_back(run_with(restore.threads, transport));

  const auto& ref = runs.front();
  ASSERT_EQ(ref.n_exc_per_domain.size(), 3u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    ASSERT_EQ(r.n_exc_per_domain.size(), ref.n_exc_per_domain.size());
    EXPECT_EQ(std::memcmp(r.n_exc_per_domain.data(),
                          ref.n_exc_per_domain.data(),
                          ref.n_exc_per_domain.size() * sizeof(double)),
              0)
        << "run " << i;
    EXPECT_EQ(std::memcmp(&r.total_n_exc, &ref.total_n_exc, sizeof(double)), 0)
        << "run " << i;
    // Every run went through the nonblocking path, leaking no handle.
    for (const auto& rt : r.rank_traffic) {
      EXPECT_GT(rt.handles_posted, 0u);
      EXPECT_EQ(rt.handles_posted, rt.handles_completed);
    }
  }
}

} // namespace
