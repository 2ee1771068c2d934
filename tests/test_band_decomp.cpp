// Tests for the hybrid band decomposition: distributed orbital-space
// operations over SimComm must reproduce the serial results.

#include <gtest/gtest.h>

#include <complex>

#include "mlmd/common/rng.hpp"
#include "mlmd/la/ortho.hpp"
#include "mlmd/lfd/band_decomp.hpp"
#include "mlmd/lfd/nlp_prop.hpp"

namespace {

using namespace mlmd;
using namespace mlmd::lfd;
using cd = std::complex<double>;

la::Matrix<cd> random_psi(std::size_t ngrid, std::size_t norb, unsigned long long seed) {
  mlmd::Rng rng(seed);
  la::Matrix<cd> psi(ngrid, norb);
  for (std::size_t i = 0; i < psi.size(); ++i)
    psi.data()[i] = cd(rng.normal(), rng.normal());
  return psi;
}

la::Matrix<cd> slice_cols(const la::Matrix<cd>& m, std::size_t c0, std::size_t c1) {
  la::Matrix<cd> s(m.rows(), c1 - c0);
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = c0; c < c1; ++c) s(r, c - c0) = m(r, c);
  return s;
}

TEST(BandLayout, SplitCoversAllOrbitals) {
  for (int p = 1; p <= 5; ++p) {
    std::size_t covered = 0;
    std::size_t prev_end = 0;
    for (int r = 0; r < p; ++r) {
      auto [s0, s1] = BandLayout::slice_of(r, p, 10);
      EXPECT_EQ(s0, prev_end);
      EXPECT_GE(s1, s0);
      covered += s1 - s0;
      prev_end = s1;
    }
    EXPECT_EQ(covered, 10u);
  }
}

TEST(BandLayout, NearEqualSlices) {
  auto [a0, a1] = BandLayout::slice_of(0, 3, 10); // 4
  auto [b0, b1] = BandLayout::slice_of(2, 3, 10); // 3
  EXPECT_EQ(a1 - a0, 4u);
  EXPECT_EQ(b1 - b0, 3u);
  (void)b0;
  (void)a0;
}

class BandSweep : public ::testing::TestWithParam<int> {};

TEST_P(BandSweep, DistributedOverlapMatchesSerial) {
  const int nranks = GetParam();
  const std::size_t ngrid = 64, norb = 7;
  const double dv = 0.3;
  auto a = random_psi(ngrid, norb, 1);
  auto b = random_psi(ngrid, norb, 2);

  la::Matrix<cd> serial(norb, norb);
  la::gemm(la::Trans::kC, la::Trans::kN, cd(dv, 0.0), a, b, cd{}, serial);

  par::run(nranks, [&](par::Comm& comm) {
    auto layout = BandLayout::split(comm, norb);
    auto a_slice = slice_cols(a, layout.s0, layout.s1);
    auto b_slice = slice_cols(b, layout.s0, layout.s1);
    auto s = distributed_overlap(comm, layout, a_slice, b_slice, dv);
    EXPECT_LT(la::max_abs_diff(s, serial), 1e-11);
  });
}

TEST_P(BandSweep, DistributedLowdinMatchesSerial) {
  const int nranks = GetParam();
  const std::size_t ngrid = 48, norb = 6;
  const double dv = 0.2;
  auto psi = random_psi(ngrid, norb, 3);

  auto serial = psi;
  la::lowdin_orthonormalize(serial, dv);

  par::run(nranks, [&](par::Comm& comm) {
    auto layout = BandLayout::split(comm, norb);
    auto my = slice_cols(psi, layout.s0, layout.s1);
    distributed_lowdin(comm, layout, my, dv);
    auto expect = slice_cols(serial, layout.s0, layout.s1);
    EXPECT_LT(la::max_abs_diff(my, expect), 1e-9);
  });
}

TEST_P(BandSweep, DistributedNlpPropMatchesSerial) {
  const int nranks = GetParam();
  const grid::Grid3 g{4, 4, 4, 0.6, 0.6, 0.6};
  const std::size_t norb = 6;
  SoAWave<double> serial_wave(g, norb);
  init_plane_waves(serial_wave);
  auto psi0 = serial_wave.psi;
  // Perturb so the correction is nontrivial.
  mlmd::Rng rng(4);
  for (std::size_t i = 0; i < serial_wave.psi.size(); ++i)
    serial_wave.psi.data()[i] += cd(0.01 * rng.normal(), 0.01 * rng.normal());
  auto psi_t = serial_wave.psi;

  const cd delta(0.0, -0.03);
  nlp_prop(serial_wave, psi0, delta);

  par::run(nranks, [&](par::Comm& comm) {
    auto layout = BandLayout::split(comm, norb);
    auto my_psi = slice_cols(psi_t, layout.s0, layout.s1);
    auto my_psi0 = slice_cols(psi0, layout.s0, layout.s1);
    distributed_nlp_prop(comm, layout, g, my_psi, my_psi0, delta);
    auto expect = slice_cols(serial_wave.psi, layout.s0, layout.s1);
    EXPECT_LT(la::max_abs_diff(my_psi, expect), 1e-10);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, BandSweep, ::testing::Values(1, 2, 3, 4));

TEST(BandDecomp, RingTrafficScalesWithRanks) {
  const std::size_t ngrid = 32, norb = 8;
  auto psi = random_psi(ngrid, norb, 5);
  auto traffic2 = par::run(2, [&](par::Comm& comm) {
    auto layout = BandLayout::split(comm, norb);
    auto my = slice_cols(psi, layout.s0, layout.s1);
    distributed_overlap(comm, layout, my, my, 0.1);
  });
  auto traffic4 = par::run(4, [&](par::Comm& comm) {
    auto layout = BandLayout::split(comm, norb);
    auto my = slice_cols(psi, layout.s0, layout.s1);
    distributed_overlap(comm, layout, my, my, 0.1);
  });
  // More ranks -> more ring messages.
  EXPECT_GT(traffic4.messages, traffic2.messages);
}

} // namespace
