// Cross-cutting edge-case coverage: identities at zero time step, cutoff
// continuity, linearity of the EM solver, and misc container/model
// invariants that the per-module suites don't pin down.

#include <gtest/gtest.h>

#include <cmath>

#include "mlmd/lfd/fermi.hpp"
#include "mlmd/lfd/kin_prop.hpp"
#include "mlmd/lfd/vloc.hpp"
#include "mlmd/common/units.hpp"
#include "mlmd/la/gemm.hpp"
#include "mlmd/maxwell/maxwell1d.hpp"
#include "mlmd/qxmd/pair_potential.hpp"
#include "mlmd/topo/topology.hpp"

namespace {

using namespace mlmd;

TEST(ZeroStep, KinPropIdentity) {
  grid::Grid3 g{6, 6, 6, 0.6, 0.6, 0.6};
  lfd::SoAWave<double> w(g, 3);
  lfd::init_plane_waves(w);
  auto before = w.psi;
  lfd::KinParams p;
  p.dt = 0.0;
  lfd::kin_prop(w, p, lfd::KinVariant::kReordered);
  EXPECT_LT(la::max_abs_diff(w.psi, before), 1e-15);
  lfd::kin_prop(w, p, lfd::KinVariant::kParallel);
  EXPECT_LT(la::max_abs_diff(w.psi, before), 1e-15);
}

TEST(ZeroStep, VlocPropIdentity) {
  grid::Grid3 g{6, 6, 6, 0.6, 0.6, 0.6};
  lfd::SoAWave<double> w(g, 2);
  lfd::init_plane_waves(w);
  auto before = w.psi;
  std::vector<double> v(g.size(), 1.7);
  lfd::vloc_prop(w, v, 0.0);
  EXPECT_LT(la::max_abs_diff(w.psi, before), 1e-15);
}

TEST(LjCutoff, ShiftedForceContinuity) {
  // The shifted-force form: both U and dU vanish at the cutoff, so a pair
  // crossing rc contributes continuously.
  qxmd::LjParams p;
  p.rc = 9.0;
  qxmd::Atoms atoms;
  atoms.resize(2);
  atoms.box = {40, 40, 40};
  atoms.pos(0)[0] = atoms.pos(0)[1] = atoms.pos(0)[2] = 20;
  atoms.pos(1)[1] = atoms.pos(1)[2] = 20;

  auto energy_at = [&](double r) {
    atoms.pos(1)[0] = 20 + r;
    qxmd::NeighborList nl(atoms, p.rc + 1.0);
    std::vector<double> f;
    return qxmd::lj_energy_forces(atoms, nl, p, f);
  };
  EXPECT_NEAR(energy_at(p.rc - 1e-6), 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(energy_at(p.rc + 0.1), 0.0);
}

TEST(Maxwell1D, LinearSuperpositionOfSources) {
  // The vacuum solver is linear: the field of two current sources equals
  // the sum of their individual fields.
  const std::size_t n = 48;
  const double dx = 10.0, dt = 0.4 * dx / units::c_light;
  auto run = [&](bool s1, bool s2) {
    maxwell::Maxwell1D em(n, dx, dt);
    std::vector<double> j(n, 0.0);
    for (int step = 0; step < 60; ++step) {
      j.assign(n, 0.0);
      if (s1) j[10] = 1e-3 * std::sin(0.3 * step);
      if (s2) j[30] = 2e-3 * std::cos(0.2 * step);
      em.step(j);
    }
    std::vector<double> a(em.a().begin(), em.a().end());
    return a;
  };
  auto a1 = run(true, false);
  auto a2 = run(false, true);
  auto a12 = run(true, true);
  for (std::size_t c = 0; c < n; ++c)
    EXPECT_NEAR(a12[c], a1[c] + a2[c], 1e-12) << c;
}

TEST(Fermi, SpinlessChannel) {
  std::vector<double> e = {-1.0, 0.0, 1.0};
  auto r = lfd::fermi_occupations(e, 2.0, 0.01, /*f_max=*/1.0);
  EXPECT_NEAR(r.f[0], 1.0, 1e-6);
  EXPECT_NEAR(r.f[1], 1.0, 1e-6);
  EXPECT_NEAR(r.f[2], 0.0, 1e-6);
}

TEST(Topo, ChargeDensitySumsToTotalCharge) {
  ferro::FerroLattice lat(24, 24);
  topo::init_skyrmion_superlattice(lat, 2, 2);
  auto q = topo::charge_density(lat.field(), 24, 24);
  double sum = 0;
  for (double v : q) sum += v;
  EXPECT_NEAR(sum, topo::topological_charge(lat), 1e-12);
}

TEST(Matrix, FroNormKnownValue) {
  la::Matrix<double> m(2, 2);
  m(0, 0) = 3.0;
  m(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(la::fro_norm(m), 5.0);
}

TEST(Pulse, PeakVectorPotentialScale) {
  maxwell::Pulse p;
  p.e0 = 0.02;
  p.omega = 0.1;
  p.t0 = 500.0;
  p.fwhm = 4000.0; // long envelope: A0 ~ c E0/omega
  double max_a = 0;
  for (double t = 400; t < 600; t += 1.0) max_a = std::max(max_a, std::abs(p.apot(t)));
  EXPECT_NEAR(max_a, units::c_light * p.e0 / p.omega, 0.05 * max_a);
}

TEST(IonicPotential, SuperpositionOfWells) {
  grid::Grid3 g{8, 8, 8, 0.7, 0.7, 0.7};
  lfd::Ion a{1.0, 1.0, 1.0, 2.0, 1.0, 2.0};
  lfd::Ion b{4.0, 4.0, 4.0, 1.0, 1.5, 2.0};
  auto va = lfd::ionic_potential(g, {a});
  auto vb = lfd::ionic_potential(g, {b});
  auto vab = lfd::ionic_potential(g, {a, b});
  for (std::size_t i = 0; i < vab.size(); ++i)
    EXPECT_NEAR(vab[i], va[i] + vb[i], 1e-12);
}

} // namespace
