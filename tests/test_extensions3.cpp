// Tests for the third extension batch: angular (three-body) descriptors
// and forces, perovskite structures, radial distribution functions, and
// Fermi-Dirac occupations.

#include <gtest/gtest.h>

#include <cmath>

#include "mlmd/analysis/rdf.hpp"
#include "mlmd/common/rng.hpp"
#include "mlmd/nnq/allegro.hpp"
#include "mlmd/nnq/angular.hpp"
#include "mlmd/qxmd/structures.hpp"
#include "mlmd/lfd/fermi.hpp"

namespace {

using namespace mlmd;

// --- angular descriptors -----------------------------------------------------

qxmd::Atoms jittered(std::size_t n, double a0, unsigned long long seed) {
  auto atoms = qxmd::make_cubic_lattice(n, n, n, a0, 100.0);
  mlmd::Rng rng(seed);
  for (auto& x : atoms.r) x += 0.25 * rng.normal();
  for (std::size_t i = 0; i < atoms.n(); ++i) atoms.box.wrap(atoms.pos(i));
  return atoms;
}

TEST(Angular, BasisLadderShape) {
  auto b = nnq::AngularBasis::make(3, 6.0, 0.05);
  EXPECT_EQ(b.size(), 6u); // 3 zeta x 2 lambda
  EXPECT_DOUBLE_EQ(b.channels[0].first, 1.0);
  EXPECT_DOUBLE_EQ(b.channels[4].first, 4.0);
  EXPECT_DOUBLE_EQ(b.channels[1].second, -1.0);
}

TEST(Angular, InvariantUnderTranslation) {
  auto atoms = jittered(3, 4.2, 1);
  auto basis = nnq::AngularBasis::make(2, 5.5, 0.05);
  qxmd::NeighborList nl(atoms, basis.rc);
  std::vector<double> d1(atoms.n() * basis.size());
  nnq::angular_descriptors(atoms, nl, basis, d1, basis.size(), 0);

  for (std::size_t i = 0; i < atoms.n(); ++i) {
    atoms.pos(i)[1] += 2.3;
    atoms.box.wrap(atoms.pos(i));
  }
  qxmd::NeighborList nl2(atoms, basis.rc);
  std::vector<double> d2(atoms.n() * basis.size());
  nnq::angular_descriptors(atoms, nl2, basis, d2, basis.size(), 0);
  for (std::size_t i = 0; i < d1.size(); ++i) EXPECT_NEAR(d1[i], d2[i], 1e-9);
}

TEST(Angular, ThreeAtomTriangleAnalytic) {
  // Equilateral triangle, side r0: one triplet per vertex with cos = 1/2.
  qxmd::Atoms atoms;
  atoms.resize(3);
  atoms.box = {40.0, 40.0, 40.0};
  const double r0 = 3.0;
  atoms.pos(0)[0] = 20.0;
  atoms.pos(0)[1] = 20.0;
  atoms.pos(1)[0] = 20.0 + r0;
  atoms.pos(1)[1] = 20.0;
  atoms.pos(2)[0] = 20.0 + 0.5 * r0;
  atoms.pos(2)[1] = 20.0 + 0.5 * std::sqrt(3.0) * r0;
  for (std::size_t i = 0; i < 3; ++i) atoms.pos(i)[2] = 20.0;

  nnq::AngularBasis basis;
  basis.rc = 6.0;
  basis.eta = 0.05;
  basis.channels = {{2.0, +1.0}};
  qxmd::NeighborList nl(atoms, basis.rc);
  std::vector<double> d(3, 0.0);
  nnq::angular_descriptors(atoms, nl, basis, d, 1, 0);

  const double fc = basis.fc(r0);
  const double expect = std::pow(2.0, -1.0) * std::pow(1.5, 2.0) *
                        std::exp(-basis.eta * 2.0 * r0 * r0) * fc * fc;
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(d[static_cast<std::size_t>(i)], expect, 1e-12);
}

TEST(Angular, ModelForcesMatchEnergyGradient) {
  auto atoms = jittered(2, 4.4, 2);
  nnq::AtomModel model(nnq::RadialBasis::make(4, 1.5, 5.5, 1.2),
                       nnq::AngularBasis::make(2, 5.5, 0.06), {10, 6}, 7);
  EXPECT_EQ(model.feature_width(), 4u + 4u);
  qxmd::NeighborList nl(atoms, 5.5);
  std::vector<double> f;
  model.energy_forces(atoms, nl, f);

  const double eps = 1e-5;
  for (std::size_t i : {0ul, 3ul, 6ul}) {
    for (int k = 0; k < 3; ++k) {
      qxmd::Atoms moved = atoms;
      moved.pos(i)[k] += eps;
      qxmd::NeighborList nlp(moved, 5.5);
      std::vector<double> tmp;
      const double ep = model.energy_forces(moved, nlp, tmp);
      moved.pos(i)[k] -= 2 * eps;
      qxmd::NeighborList nlm(moved, 5.5);
      const double em = model.energy_forces(moved, nlm, tmp);
      EXPECT_NEAR(f[3 * i + static_cast<std::size_t>(k)], -(ep - em) / (2 * eps),
                  2e-4) << i << "," << k;
    }
  }
}

TEST(Angular, NewtonsThirdLawWithTriplets) {
  auto atoms = jittered(3, 4.2, 3);
  nnq::AtomModel model(nnq::RadialBasis::make(4, 1.5, 5.0, 1.2),
                       nnq::AngularBasis::make(2, 5.0, 0.06), {8}, 9);
  qxmd::NeighborList nl(atoms, 5.0);
  std::vector<double> f;
  model.energy_forces(atoms, nl, f);
  double total[3] = {0, 0, 0};
  for (std::size_t i = 0; i < atoms.n(); ++i)
    for (int k = 0; k < 3; ++k) total[k] += f[3 * i + static_cast<std::size_t>(k)];
  for (double t : total) EXPECT_NEAR(t, 0.0, 1e-9);
}

// --- perovskite structures -----------------------------------------------------

TEST(Perovskite, Stoichiometry) {
  auto atoms = qxmd::make_perovskite(3, 3, 3);
  EXPECT_EQ(atoms.n(), 135u); // 5 per cell
  EXPECT_EQ(qxmd::count_type(atoms, 0), 27u);
  EXPECT_EQ(qxmd::count_type(atoms, 1), 27u);
  EXPECT_EQ(qxmd::count_type(atoms, 2), 81u);
}

TEST(Perovskite, BOctahedralCoordination) {
  // Each B cation's nearest neighbours are 6 oxygens at a0/2.
  qxmd::PerovskiteSpec spec;
  auto atoms = qxmd::make_perovskite(3, 3, 3, spec);
  qxmd::NeighborList nl(atoms, 0.55 * spec.a0);
  for (std::size_t i = 0; i < atoms.n(); ++i) {
    if (atoms.type[i] != 1) continue;
    std::size_t noxy = 0;
    for (auto j : nl.neighbors(i))
      if (atoms.type[j] == 2) ++noxy;
    EXPECT_EQ(noxy, 6u) << "B cation " << i;
  }
}

TEST(Perovskite, PolarizationDisplacesSublattices) {
  auto atoms = qxmd::make_perovskite(2, 2, 2);
  auto ref = atoms;
  qxmd::polarize_perovskite(atoms, 0.3);
  for (std::size_t i = 0; i < atoms.n(); ++i) {
    // Minimum image: displaced atoms at z = 0 wrap across the boundary.
    const double dz = atoms.box.mic(atoms.pos(i), ref.pos(i))[2];
    if (atoms.type[i] == 1)
      EXPECT_NEAR(dz, 0.3, 1e-12);
    else if (atoms.type[i] == 2)
      EXPECT_NEAR(dz, -0.15, 1e-12);
    else
      EXPECT_NEAR(dz, 0.0, 1e-12);
  }
}

// --- radial distribution function ------------------------------------------------

TEST(Rdf, LatticeFirstShellAtLatticeConstant) {
  auto atoms = qxmd::make_cubic_lattice(5, 5, 5, 4.0, 100.0);
  auto rdf = analysis::radial_distribution(atoms, 9.9, 99);
  EXPECT_NEAR(analysis::first_peak(rdf, 2.0), 4.0, 0.2);
}

TEST(Rdf, IdealGasIsFlat) {
  qxmd::Atoms atoms;
  atoms.resize(4000);
  atoms.box = {20.0, 20.0, 20.0};
  mlmd::Rng rng(5);
  for (auto& x : atoms.r) x = rng.uniform(0.0, 20.0);
  auto rdf = analysis::radial_distribution(atoms, 9.0, 30);
  // Away from the smallest bins (poor statistics), g ~ 1.
  for (std::size_t k = 5; k < rdf.g.size(); ++k)
    EXPECT_NEAR(rdf.g[k], 1.0, 0.15) << rdf.r[k];
}

TEST(Rdf, PartialSelectsSpecies) {
  qxmd::PerovskiteSpec spec;
  auto atoms = qxmd::make_perovskite(3, 3, 3, spec);
  // B-O first shell at a0/2; A-B first shell at sqrt(3)/2 a0.
  auto bo = analysis::radial_distribution(atoms, 0.5 * 3 * spec.a0 * 0.99, 150, 1, 2);
  EXPECT_NEAR(analysis::first_peak(bo, 1.0), 0.5 * spec.a0, 0.15);
  auto ab = analysis::radial_distribution(atoms, 0.5 * 3 * spec.a0 * 0.99, 150, 0, 1);
  EXPECT_NEAR(analysis::first_peak(ab, 1.0), 0.5 * std::sqrt(3.0) * spec.a0, 0.2);
}

TEST(Rdf, RejectsBadArguments) {
  auto atoms = qxmd::make_cubic_lattice(2, 2, 2, 4.0, 100.0);
  EXPECT_THROW(analysis::radial_distribution(atoms, 100.0, 10),
               std::invalid_argument);
  EXPECT_THROW(analysis::radial_distribution(atoms, 3.0, 0), std::invalid_argument);
}

// --- Fermi occupations -----------------------------------------------------------

TEST(Fermi, CountExactAtFiniteTemperature) {
  std::vector<double> e = {-1.0, -0.5, -0.1, 0.3, 0.8};
  for (double nelec : {1.0, 3.0, 6.0, 9.5}) {
    auto r = lfd::fermi_occupations(e, nelec, 0.05);
    double total = 0;
    for (double f : r.f) {
      total += f;
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 2.0);
    }
    EXPECT_NEAR(total, nelec, 1e-8) << nelec;
  }
}

TEST(Fermi, ZeroTemperatureStep) {
  std::vector<double> e = {-1.0, -0.5, 0.0, 0.5};
  auto r = lfd::fermi_occupations(e, 4.0, 0.0);
  EXPECT_DOUBLE_EQ(r.f[0], 2.0);
  EXPECT_DOUBLE_EQ(r.f[1], 2.0);
  EXPECT_NEAR(r.f[2] + r.f[3], 0.0, 1e-9);
}

TEST(Fermi, DegenerateFrontierSharesFractionally) {
  std::vector<double> e = {-1.0, 0.0, 0.0, 1.0};
  auto r = lfd::fermi_occupations(e, 3.0, 0.0);
  EXPECT_DOUBLE_EQ(r.f[0], 2.0);
  EXPECT_NEAR(r.f[1] + r.f[2], 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.f[3], 0.0);
}

TEST(Fermi, SmearingBroadensWithTemperature) {
  std::vector<double> e = {-0.1, 0.1};
  auto cold = lfd::fermi_occupations(e, 2.0, 0.005);
  auto hot = lfd::fermi_occupations(e, 2.0, 0.2);
  // Hotter -> occupations closer to each other.
  EXPECT_LT(hot.f[0] - hot.f[1], cold.f[0] - cold.f[1]);
}

TEST(Fermi, EntropyNegativeAndVanishesAtFullOrEmpty) {
  EXPECT_NEAR(lfd::fermi_entropy_term({2.0, 0.0}, 0.1), 0.0, 1e-12);
  EXPECT_LT(lfd::fermi_entropy_term({1.0, 1.0}, 0.1), -1e-3);
}

TEST(Fermi, BadArgsThrow) {
  EXPECT_THROW(lfd::fermi_occupations({}, 1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(lfd::fermi_occupations({0.0}, 5.0, 0.1), std::invalid_argument);
}

} // namespace
