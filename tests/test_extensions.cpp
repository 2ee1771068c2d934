// Tests for the extension batch: the PZ81 LDA functional and polar
// vortex textures with their in-plane winding.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "mlmd/lfd/vloc.hpp"
#include "mlmd/topo/topology.hpp"

namespace {

using namespace mlmd;

// --- PZ81 LDA ---------------------------------------------------------------

TEST(LdaPz, PotentialIsDensityDerivativeOfEnergy) {
  // v_xc = d(rho * exc)/drho: check against a numerical derivative on
  // both sides of the rs = 1 seam.
  for (double rho : {0.001, 0.01, 0.1, 0.2385, 0.5, 2.0}) {
    const double eps = 1e-7 * rho;
    const double num = ((rho + eps) * lfd::lda_pz_exc(rho + eps) -
                        (rho - eps) * lfd::lda_pz_exc(rho - eps)) /
                       (2.0 * eps);
    EXPECT_NEAR(lfd::lda_pz_vxc(rho), num, 5e-5 * std::abs(num) + 1e-9) << rho;
  }
}

TEST(LdaPz, CorrelationLowersEnergyBelowExchange) {
  for (double rho : {0.01, 0.1, 1.0}) {
    const double ex_only = -0.75 * std::cbrt(3.0 * rho * std::numbers::inv_pi);
    EXPECT_LT(lfd::lda_pz_exc(rho), ex_only) << rho;
  }
}

TEST(LdaPz, ZeroDensitySafe) {
  EXPECT_DOUBLE_EQ(lfd::lda_pz_exc(0.0), 0.0);
  EXPECT_DOUBLE_EQ(lfd::lda_pz_vxc(0.0), 0.0);
}

TEST(LdaPz, AddPotentialDeepensSlater) {
  std::vector<double> rho = {0.05, 0.2, 1.0};
  std::vector<double> v_x(3, 0.0), v_xc(3, 0.0);
  lfd::add_xc_potential(rho, v_x);
  lfd::add_xc_potential_pz(rho, v_xc);
  for (int i = 0; i < 3; ++i) EXPECT_LT(v_xc[static_cast<std::size_t>(i)],
                                        v_x[static_cast<std::size_t>(i)]);
}

// --- vortices ---------------------------------------------------------------

TEST(Vortex, WindingMatchesPainted) {
  ferro::FerroLattice lat(24, 24);
  topo::paint_vortex(lat, 12, 12, 0.8, +1);
  EXPECT_NEAR(topo::in_plane_winding(lat, 12, 12, 8.0), 1.0, 0.05);
  topo::paint_vortex(lat, 12, 12, 0.8, -1);
  EXPECT_NEAR(topo::in_plane_winding(lat, 12, 12, 8.0), -1.0, 0.05);
  topo::paint_vortex(lat, 12, 12, 0.8, +2);
  EXPECT_NEAR(topo::in_plane_winding(lat, 12, 12, 8.0), 2.0, 0.1);
}

TEST(Vortex, EscapedCoreHasMeronHalfCharge) {
  // A vortex whose core escapes into +z covers half the sphere: the
  // charge density integrated over the core disc is |Q| = 1/2 (a meron).
  // (The lattice-total charge is an integer on a torus — the compensating
  // density lives at the periodic seam — so the measurement is local.)
  ferro::FerroLattice lat(32, 32);
  topo::paint_vortex(lat, 16, 16, 0.8, +1, 3.0);
  auto q = topo::charge_density(lat.field(), 32, 32);
  double q_core = 0.0;
  for (int x = 0; x < 32; ++x)
    for (int y = 0; y < 32; ++y) {
      const double dx = x - 16.0, dy = y - 16.0;
      if (dx * dx + dy * dy < 100.0)
        q_core += q[static_cast<std::size_t>(x * 32 + y)];
    }
  EXPECT_NEAR(std::abs(q_core), 0.5, 0.1);
}

TEST(Vortex, UniformFieldHasNoWinding) {
  ferro::FerroLattice lat(16, 16);
  for (auto& u : lat.field()) u = {0.3, 0.1, 0.5};
  EXPECT_NEAR(topo::in_plane_winding(lat, 8, 8, 5.0), 0.0, 1e-9);
}

} // namespace
