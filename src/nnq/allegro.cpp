#include "mlmd/nnq/allegro.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "mlmd/common/flops.hpp"
#include "mlmd/obs/trace.hpp"

namespace mlmd::nnq {

AtomModel::AtomModel(RadialBasis basis, std::vector<std::size_t> hidden,
                     unsigned long long seed, int ntypes)
    : basis_(std::move(basis)), net_([&] {
        std::vector<std::size_t> sizes;
        sizes.push_back(basis_.size() * static_cast<std::size_t>(ntypes));
        for (auto h : hidden) sizes.push_back(h);
        sizes.push_back(1);
        return sizes;
      }(), seed),
      ntypes_(ntypes) {
  if (ntypes < 1) throw std::invalid_argument("AtomModel: ntypes >= 1");
}

AtomModel::AtomModel(RadialBasis basis, Mlp net, int ntypes)
    : basis_(std::move(basis)), net_(std::move(net)), ntypes_(ntypes) {
  if (ntypes < 1) throw std::invalid_argument("AtomModel: ntypes >= 1");
  if (net_.n_in() != basis_.size() * static_cast<std::size_t>(ntypes))
    throw std::invalid_argument("AtomModel: network input != basis*ntypes");
  if (net_.n_out() != 1)
    throw std::invalid_argument("AtomModel: network must be scalar-output");
}

AtomModel::AtomModel(RadialBasis basis, AngularBasis angular,
                     std::vector<std::size_t> hidden, unsigned long long seed,
                     int ntypes)
    : basis_(std::move(basis)), angular_(std::move(angular)), net_([&] {
        std::vector<std::size_t> sizes;
        sizes.push_back(basis_.size() * static_cast<std::size_t>(ntypes) +
                        angular_.size());
        for (auto h : hidden) sizes.push_back(h);
        sizes.push_back(1);
        return sizes;
      }(), seed),
      ntypes_(ntypes) {
  if (ntypes < 1) throw std::invalid_argument("AtomModel: ntypes >= 1");
}

double AtomModel::energy_forces(const qxmd::Atoms& atoms,
                                const qxmd::NeighborList& nl,
                                std::vector<double>& forces,
                                std::size_t block_size) const {
  obs::ObsScope span("nnq.energy_forces", obs::Cat::kKernel);
  const std::size_t n = atoms.n();
  const std::size_t nb = basis_.size();
  const std::size_t nbt = nb * static_cast<std::size_t>(ntypes_);
  const std::size_t width = feature_width();
  forces.assign(3 * n, 0.0);
  peak_scratch_ = 0;
  if (n == 0) return 0.0;
  if (block_size == 0) block_size = n;

  double energy = 0.0;
  // dE/dG for every atom, filled block by block; the per-block scratch
  // (descriptors + pair cache of one batch) is what block inference bounds.
  std::vector<double> de_dg(n * width);
  std::vector<double> g(nb), dg(nb);
  // Block inference (Sec. V.B.9), GEMM-bound: descriptors for a whole
  // block are assembled into one feature matrix and pushed through the
  // network with Mlp::grad_input_batch (one gemm per layer) instead of
  // per-atom scalar passes. The batched pass is bitwise identical to the
  // per-atom one (gemm ascending-k contract), so block size still cannot
  // change results. While assembling descriptors we cache each surviving
  // pair's (j, displacement, r, dG/dr) so radial force assembly replays the
  // cache instead of re-evaluating the basis — the eval is the dominant
  // non-GEMM cost. All buffers are hoisted out of the block loop, so every
  // block after the first reuses their capacity.
  la::Matrix<double> feats, dedg_blk, y_blk;
  std::vector<std::size_t> pair_off, pair_j;
  std::vector<double> pair_geo; // 4 per pair: d0, d1, d2, r
  std::vector<double> pair_dg;  // nb per pair
  flops::add(12ull * nb * nl.pair_count());

  for (std::size_t b0 = 0; b0 < n; b0 += block_size) {
    const std::size_t b1 = std::min(b0 + block_size, n);
    const std::size_t bn = b1 - b0;
    feats.resize(bn, width);
    feats.fill(0.0);
    pair_off.assign(1, 0);
    pair_j.clear();
    pair_geo.clear();
    pair_dg.clear();
    for (std::size_t i = b0; i < b1; ++i) {
      double* feat = feats.row(i - b0);
      for (auto j : nl.neighbors(i)) {
        const auto d = atoms.box.mic(atoms.pos(i), atoms.pos(j));
        const double r = std::sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
        if (r <= 0 || r >= basis_.rc) continue;
        basis_.eval(r, g, dg);
        const std::size_t ch =
            static_cast<std::size_t>(atoms.type[j] % ntypes_) * nb;
        for (std::size_t k = 0; k < nb; ++k) feat[ch + k] += g[k];
        pair_j.push_back(j);
        pair_geo.insert(pair_geo.end(), {d[0], d[1], d[2], r});
        pair_dg.insert(pair_dg.end(), dg.begin(), dg.end());
      }
      if (has_angular())
        angular_features_for_atom(atoms, nl, angular_, i, feat + nbt);
      pair_off.push_back(pair_j.size());
    }
    const std::size_t scratch =
        bn * width * sizeof(double) +
        pair_j.size() * (sizeof(std::size_t) + (4 + nb) * sizeof(double));
    peak_scratch_ = std::max(peak_scratch_, scratch);

    net_.grad_input_batch(feats, dedg_blk, &y_blk);
    for (std::size_t r = 0; r < bn; ++r) energy += y_blk(r, 0);
    std::copy(dedg_blk.data(), dedg_blk.data() + bn * width,
              de_dg.data() + b0 * width);

    // Radial force assembly: F_i -= dE_i/dG_ik * dG_ik/dr over the cached
    // pairs; each directed pair (i, j) moves both endpoints (Newton's
    // third law built in). Pair order matches the descriptor pass, so
    // results are independent of block size.
    for (std::size_t i = b0; i < b1; ++i) {
      const double* dedg_i = dedg_blk.data() + (i - b0) * width;
      for (std::size_t p = pair_off[i - b0]; p < pair_off[i - b0 + 1]; ++p) {
        const std::size_t j = pair_j[p];
        const double* geo = pair_geo.data() + 4 * p;
        const double* pdg = pair_dg.data() + nb * p;
        const std::size_t ch =
            static_cast<std::size_t>(atoms.type[j] % ntypes_) * nb;
        double c = 0.0;
        for (std::size_t k = 0; k < nb; ++k) c += dedg_i[ch + k] * pdg[k];
        // dr/dr_i = d/r (d = r_i - r_j).
        for (int k = 0; k < 3; ++k) {
          const double comp = c * geo[static_cast<std::size_t>(k)] / geo[3];
          forces[3 * i + static_cast<std::size_t>(k)] -= comp;
          forces[3 * j + static_cast<std::size_t>(k)] += comp;
        }
      }
    }
  }

  // Angular force contributions (three-body chain rule). Note: these now
  // accumulate after the radial terms instead of before; addition order
  // into `forces` changed once with this rewrite but remains fixed and
  // block-size independent.
  if (has_angular())
    angular_forces(atoms, nl, angular_, de_dg, width, nbt, forces);
  return energy;
}

LatticeModel::LatticeModel(std::vector<std::size_t> hidden, unsigned long long seed)
    : net_([&] {
        std::vector<std::size_t> sizes;
        sizes.push_back(kLatticeFeatures);
        for (auto h : hidden) sizes.push_back(h);
        sizes.push_back(1);
        return sizes;
      }(), seed) {}

namespace {

/// Cells are processed in bounded batches so the feature matrix stays
/// cache-sized no matter how large the lattice is.
constexpr std::size_t kCellBlock = 8192;

} // namespace

double LatticeModel::energy(const ferro::FerroLattice& lat) const {
  // Batched inference over cell blocks (x-major cell order, as before).
  // The previous omp-reduction version summed per-cell energies in a
  // thread-count-dependent order; the batched sum is strictly ascending,
  // so the total is now deterministic for any thread count.
  const std::size_t ly = lat.ly();
  const std::size_t ncell = lat.lx() * ly;
  double e = 0.0;
  std::vector<double> feat;
  la::Matrix<double> feats, y;
  for (std::size_t c0 = 0; c0 < ncell; c0 += kCellBlock) {
    const std::size_t c1 = std::min(c0 + kCellBlock, ncell);
    feats.resize(c1 - c0, kLatticeFeatures);
    for (std::size_t c = c0; c < c1; ++c) {
      lattice_features(lat, c / ly, c % ly, feat);
      std::copy(feat.begin(), feat.end(), feats.row(c - c0));
    }
    net_.forward_batch(feats, y);
    for (std::size_t r = 0; r < c1 - c0; ++r) e += y(r, 0);
  }
  return e;
}

namespace {

/// Accumulate -dE/du into `f` for the cells [c0, c1) of one lattice,
/// reading their input gradients from dedg rows row0, row0+1, ... (cells
/// strictly ascending, so the FP accumulation order per lattice does not
/// depend on where a block boundary falls).
void scatter_lattice_forces(const ferro::FerroLattice& lat,
                            const la::Matrix<double>& dedg, std::size_t row0,
                            std::size_t c0, std::size_t c1,
                            std::vector<ferro::Vec3>& f) {
  const std::size_t lx = lat.lx(), ly = lat.ly();
  for (std::size_t c = c0; c < c1; ++c) {
    const std::size_t x = c / ly, y = c % ly;
    const std::size_t xp = (x + 1) % lx, xm = (x + lx - 1) % lx;
    const std::size_t yp = (y + 1) % ly, ym = (y + ly - 1) % ly;
    const double* gi = dedg.row(row0 + (c - c0));
    const auto& ui = lat.u(x, y);
    // Feature layout (descriptor.cpp): [u_i (3), |u_i|^2, u_xp (3),
    // u_xm (3), u_yp (3), u_ym (3)].
    auto& fi = f[lat.index(x, y)];
    for (int k = 0; k < 3; ++k)
      fi[static_cast<std::size_t>(k)] -=
          gi[static_cast<std::size_t>(k)] +
          2.0 * gi[3] * ui[static_cast<std::size_t>(k)];
    const std::size_t nbr[4] = {lat.index(xp, y), lat.index(xm, y),
                                lat.index(x, yp), lat.index(x, ym)};
    for (int nbi = 0; nbi < 4; ++nbi)
      for (int k = 0; k < 3; ++k)
        f[nbr[nbi]][static_cast<std::size_t>(k)] -=
            gi[4 + static_cast<std::size_t>(nbi) * 3 + static_cast<std::size_t>(k)];
  }
}

} // namespace

std::vector<ferro::Vec3> LatticeModel::forces(const ferro::FerroLattice& lat) const {
  return std::move(forces_multi(*this, {&lat})[0]);
}

std::vector<std::vector<ferro::Vec3>> forces_multi(
    const LatticeModel& model,
    const std::vector<const ferro::FerroLattice*>& lats) {
  const std::size_t n = lats.size();
  // Prefix offsets of each lattice's cells in the concatenated stream.
  std::vector<std::size_t> offset(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    offset[i + 1] = offset[i] + lats[i]->ncells();
  const std::size_t total = offset[n];

  std::vector<std::vector<ferro::Vec3>> f(n);
  for (std::size_t i = 0; i < n; ++i)
    f[i].assign(lats[i]->ncells(), ferro::Vec3{0, 0, 0});

  std::vector<double> feat;
  la::Matrix<double> feats, dedg;
  std::size_t li = 0; // lattice holding the next cell to scatter
  for (std::size_t g0 = 0; g0 < total; g0 += kCellBlock) {
    const std::size_t g1 = std::min(g0 + kCellBlock, total);
    feats.resize(g1 - g0, kLatticeFeatures);
    {
      std::size_t lj = li;
      for (std::size_t g = g0; g < g1; ++g) {
        while (g >= offset[lj + 1]) ++lj;
        const auto& lat = *lats[lj];
        const std::size_t c = g - offset[lj];
        lattice_features(lat, c / lat.ly(), c % lat.ly(), feat);
        std::copy(feat.begin(), feat.end(), feats.row(g - g0));
      }
    }
    // One batched gradient pass over every scenario's cells in the block.
    model.net().grad_input_batch(feats, dedg);
    // A block may straddle lattice boundaries: scatter each sub-range.
    std::size_t g = g0;
    while (g < g1) {
      while (g >= offset[li + 1]) ++li;
      const std::size_t c0 = g - offset[li];
      const std::size_t gend = std::min(g1, offset[li + 1]);
      scatter_lattice_forces(*lats[li], dedg, g - g0, c0, c0 + (gend - g),
                             f[li]);
      g = gend;
    }
  }
  return f;
}

double excitation_weight(double n_exc, double n_sat) {
  if (n_sat <= 0) return 0.0;
  return std::min(1.0, std::max(0.0, n_exc / n_sat));
}

std::vector<ferro::Vec3> xs_mixed_forces(const LatticeModel& gs,
                                         const LatticeModel& xs,
                                         const ferro::FerroLattice& lat,
                                         double n_exc, double n_sat) {
  return std::move(
      xs_mixed_forces_multi(gs, xs, {&lat}, {n_exc}, {n_sat})[0]);
}

std::vector<std::vector<ferro::Vec3>> xs_mixed_forces_multi(
    const LatticeModel& gs, const LatticeModel& xs,
    const std::vector<const ferro::FerroLattice*>& lats,
    const std::vector<double>& n_exc, const std::vector<double>& n_sat) {
  if (n_exc.size() != lats.size() || n_sat.size() != lats.size())
    throw std::invalid_argument("xs_mixed_forces_multi: size mismatch");
  auto fg = forces_multi(gs, lats);
  auto fx = forces_multi(xs, lats);
  for (std::size_t s = 0; s < lats.size(); ++s) {
    const double w = excitation_weight(n_exc[s], n_sat[s]);
    for (std::size_t i = 0; i < fg[s].size(); ++i)
      for (int k = 0; k < 3; ++k)
        fg[s][i][static_cast<std::size_t>(k)] =
            (1.0 - w) * fg[s][i][static_cast<std::size_t>(k)] +
            w * fx[s][i][static_cast<std::size_t>(k)];
  }
  return fg;
}

} // namespace mlmd::nnq
