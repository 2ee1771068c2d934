// Tests for the sixth extension batch: virial pressure and the Berendsen
// barostat.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mlmd/common/rng.hpp"
#include "mlmd/qxmd/pair_potential.hpp"
#include "mlmd/qxmd/structures.hpp"

namespace {

using namespace mlmd;

// --- virial pressure / barostat ----------------------------------------------

TEST(Virial, IdealGasLimitPressure) {
  // Dilute gas far beyond the LJ cutoff interactions: P ~ N kT / V.
  qxmd::Atoms atoms = qxmd::make_cubic_lattice(3, 3, 3, 30.0, 200.0);
  qxmd::thermalize(atoms, 0.005, 3);
  qxmd::LjParams p;
  p.rc = 8.0;
  qxmd::NeighborList nl(atoms, p.rc);
  const double ideal =
      static_cast<double>(atoms.n()) * atoms.temperature() / atoms.box.volume();
  EXPECT_NEAR(qxmd::pressure(atoms, nl, p), ideal, 0.05 * ideal);
}

TEST(Virial, CompressionRaisesPressure) {
  auto make = [](double a0) {
    auto atoms = qxmd::make_cubic_lattice(3, 3, 3, a0, 200.0);
    return atoms;
  };
  qxmd::LjParams p;
  p.sigma = 3.8;
  p.epsilon = 0.01;
  p.rc = 8.0;
  auto loose = make(5.2);
  auto tight = make(3.9);
  qxmd::NeighborList nl_l(loose, p.rc), nl_t(tight, p.rc);
  EXPECT_GT(qxmd::pressure(tight, nl_t, p), qxmd::pressure(loose, nl_l, p));
}

TEST(Virial, MatchesVolumeDerivativeOfEnergy) {
  // W = -3V dU/dV under uniform scaling (no kinetic part at rest).
  auto atoms = qxmd::make_cubic_lattice(3, 3, 3, 4.4, 200.0);
  mlmd::Rng rng(5);
  for (auto& x : atoms.r) x += 0.15 * rng.normal();
  qxmd::LjParams p;
  p.sigma = 3.8;
  p.epsilon = 0.01;
  p.rc = 7.5;

  auto energy_scaled = [&](double mu) {
    qxmd::Atoms scaled = atoms;
    scaled.box.lx *= mu;
    scaled.box.ly *= mu;
    scaled.box.lz *= mu;
    for (double& x : scaled.r) x *= mu;
    qxmd::NeighborList nl(scaled, p.rc);
    std::vector<double> f;
    return qxmd::lj_energy_forces(scaled, nl, p, f);
  };
  const double eps = 1e-5;
  // dU/dmu at mu=1 equals -W (since r dU/dr summed = -W).
  const double du_dmu = (energy_scaled(1 + eps) - energy_scaled(1 - eps)) / (2 * eps);
  qxmd::NeighborList nl(atoms, p.rc);
  EXPECT_NEAR(qxmd::lj_virial(atoms, nl, p), -du_dmu, 1e-3 * std::abs(du_dmu) + 1e-8);
}

TEST(Barostat, RelaxesTowardTargetPressure) {
  auto atoms = qxmd::make_cubic_lattice(4, 4, 4, 4.1, 200.0);
  qxmd::thermalize(atoms, 0.003, 7);
  qxmd::LjParams p;
  p.sigma = 3.8;
  p.epsilon = 0.01;
  p.rc = 8.0;
  qxmd::NeighborList nl0(atoms, p.rc);
  const double p0 = qxmd::pressure(atoms, nl0, p);
  const double target = 0.5 * p0;
  for (int s = 0; s < 50; ++s) {
    qxmd::NeighborList nl(atoms, p.rc);
    const double pn = qxmd::pressure(atoms, nl, p);
    qxmd::berendsen_barostat(atoms, pn, target, 1.0, 50.0);
  }
  qxmd::NeighborList nl1(atoms, p.rc);
  const double p1 = qxmd::pressure(atoms, nl1, p);
  EXPECT_LT(std::abs(p1 - target), std::abs(p0 - target));
}

} // namespace
