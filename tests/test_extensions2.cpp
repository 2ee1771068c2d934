// Tests for the second extension batch: Nose-Hoover thermostat,
// Anderson-accelerated SCF mixing, and multi-species descriptors/models.

#include <gtest/gtest.h>

#include <cmath>

#include "mlmd/nnq/allegro.hpp"
#include "mlmd/qxmd/pair_potential.hpp"
#include "mlmd/qxmd/verlet.hpp"
#include "mlmd/scf/dc_scf.hpp"

namespace {

using namespace mlmd;

// --- Nose-Hoover --------------------------------------------------------------

TEST(NoseHoover, SamplesTargetTemperature) {
  auto atoms = qxmd::make_cubic_lattice(4, 4, 4, 4.3, 200.0);
  qxmd::thermalize(atoms, 0.002, 3);
  qxmd::LjParams p;
  p.epsilon = 0.002;
  auto forces_fn = [&](const qxmd::Atoms& a, std::vector<double>& f) {
    qxmd::NeighborList nl(a, p.rc);
    return qxmd::lj_energy_forces(a, nl, p, f);
  };
  qxmd::VerletOptions opt;
  opt.dt = 10.0;
  opt.thermostat = qxmd::Thermostat::kNoseHoover;
  opt.target_kt = 0.004;
  opt.tau = 400.0;
  qxmd::VelocityVerlet vv(forces_fn, opt);
  double t_avg = 0;
  int count = 0;
  for (int s = 0; s < 600; ++s) {
    vv.step(atoms);
    if (s >= 200) {
      t_avg += atoms.temperature();
      ++count;
    }
  }
  EXPECT_NEAR(t_avg / count, opt.target_kt, 0.25 * opt.target_kt);
}

TEST(NoseHoover, DeterministicUnlikeLangevin) {
  auto run_once = [] {
    auto atoms = qxmd::make_cubic_lattice(3, 3, 3, 4.3, 200.0);
    qxmd::thermalize(atoms, 0.002, 7);
    qxmd::LjParams p;
    auto forces_fn = [&](const qxmd::Atoms& a, std::vector<double>& f) {
      qxmd::NeighborList nl(a, p.rc);
      return qxmd::lj_energy_forces(a, nl, p, f);
    };
    qxmd::VerletOptions opt;
    opt.dt = 10.0;
    opt.thermostat = qxmd::Thermostat::kNoseHoover;
    opt.target_kt = 0.003;
    qxmd::VelocityVerlet vv(forces_fn, opt);
    for (int s = 0; s < 50; ++s) vv.step(atoms);
    return atoms.pos(5)[0];
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

// --- Anderson mixing ------------------------------------------------------------

TEST(Anderson, ConvergesNoSlowerThanLinear) {
  grid::Grid3 g{12, 12, 12, 0.8, 0.8, 0.8};
  grid::DcDecomposition dec(g, 1, 1, 1, 0);
  std::vector<lfd::Ion> ions = {
      {0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.5, 1.5, 2.0}};
  scf::ScfOptions opt;
  opt.norb = 3;
  opt.nfilled = 1;
  opt.mix = 0.5;
  opt.tol = 1e-4;
  opt.max_outer = 60;

  scf::DcScf linear(dec, ions, opt);
  auto r_lin = linear.run();

  opt.anderson = true;
  scf::DcScf accel(dec, ions, opt);
  auto r_and = accel.run();

  EXPECT_TRUE(r_and.converged);
  ASSERT_TRUE(r_lin.converged);
  EXPECT_LE(r_and.outer_iters, r_lin.outer_iters);
}

// --- multi-species descriptors ---------------------------------------------------

qxmd::Atoms two_species_lattice(unsigned long long seed) {
  auto atoms = qxmd::make_cubic_lattice(3, 3, 3, 4.2, 100.0);
  for (std::size_t i = 0; i < atoms.n(); ++i) atoms.type[i] = i % 2;
  mlmd::Rng rng(seed);
  for (auto& x : atoms.r) x += 0.2 * rng.normal();
  return atoms;
}

TEST(MultiSpecies, DescriptorWidthAndChannels) {
  auto atoms = two_species_lattice(1);
  auto basis = nnq::RadialBasis::make(4, 1.5, 6.0, 1.2);
  qxmd::NeighborList nl(atoms, basis.rc);
  auto d1 = nnq::atom_descriptors(atoms, nl, basis, 1);
  auto d2 = nnq::atom_descriptors(atoms, nl, basis, 2);
  EXPECT_EQ(d1.size(), atoms.n() * 4);
  EXPECT_EQ(d2.size(), atoms.n() * 8);
  // Channel sum equals the species-blind descriptor.
  for (std::size_t i = 0; i < atoms.n(); ++i)
    for (std::size_t k = 0; k < 4; ++k)
      EXPECT_NEAR(d2[i * 8 + k] + d2[i * 8 + 4 + k], d1[i * 4 + k], 1e-10);
}

TEST(MultiSpecies, SpeciesSwapChangesEnergy) {
  auto atoms = two_species_lattice(2);
  nnq::AtomModel model(nnq::RadialBasis::make(4, 1.5, 6.0, 1.2), {10, 6}, 3, 2);
  qxmd::NeighborList nl(atoms, 6.0);
  std::vector<double> f;
  const double e1 = model.energy_forces(atoms, nl, f);
  std::swap(atoms.type[0], atoms.type[1]); // unlike species swapped
  const double e2 = model.energy_forces(atoms, nl, f);
  EXPECT_NE(e1, e2);
}

TEST(MultiSpecies, ForcesMatchEnergyGradient) {
  auto atoms = two_species_lattice(3);
  nnq::AtomModel model(nnq::RadialBasis::make(4, 1.5, 6.0, 1.2), {10, 6}, 5, 2);
  qxmd::NeighborList nl(atoms, 6.0);
  std::vector<double> f;
  model.energy_forces(atoms, nl, f);
  const double eps = 1e-5;
  for (std::size_t i : {0ul, 7ul, 13ul}) {
    for (int k = 0; k < 3; ++k) {
      qxmd::Atoms moved = atoms;
      moved.pos(i)[k] += eps;
      qxmd::NeighborList nlp(moved, 6.0);
      std::vector<double> tmp;
      const double ep = model.energy_forces(moved, nlp, tmp);
      moved.pos(i)[k] -= 2 * eps;
      qxmd::NeighborList nlm(moved, 6.0);
      const double em = model.energy_forces(moved, nlm, tmp);
      EXPECT_NEAR(f[3 * i + static_cast<std::size_t>(k)], -(ep - em) / (2 * eps),
                  1e-4);
    }
  }
}

TEST(MultiSpecies, BadNtypesThrows) {
  EXPECT_THROW(nnq::AtomModel(nnq::RadialBasis::make(4, 1.5, 6.0, 1.2), {8}, 1, 0),
               std::invalid_argument);
}

} // namespace
