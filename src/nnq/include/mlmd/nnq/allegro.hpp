#pragma once
// Allegro-style NNQMD potentials (paper Secs. V.A.6-7, V.B.9): strictly
// local descriptors + a per-site MLP, with forces from the analytic chain
// rule. Two flavours:
//
//  - AtomModel: atomistic potential over qxmd::Atoms (drives Table II and
//    Fig. 5 accounting, and the LJ-surrogate training demos). Inference
//    supports *block model inference* (Sec. V.B.9): atoms are processed
//    in bounded-size batches so scratch memory stays flat regardless of
//    system size; results are bitwise identical to unblocked inference.
//
//  - LatticeModel: potential over the ferroelectric polarization lattice
//    (the degrees of freedom the Fig. 3 switching pipeline propagates).
//    GS and XS variants are trained on ground-state and photoexcited
//    ferro data; xs_mixed_forces applies Eq. (4).

#include <array>
#include <cstddef>
#include <vector>

#include "mlmd/ferro/lattice.hpp"
#include "mlmd/nnq/angular.hpp"
#include "mlmd/nnq/descriptor.hpp"
#include "mlmd/nnq/mlp.hpp"
#include "mlmd/qxmd/atoms.hpp"
#include "mlmd/qxmd/neighbor.hpp"

namespace mlmd::nnq {

// --- atomistic model -------------------------------------------------------

class AtomModel {
public:
  AtomModel(RadialBasis basis, std::vector<std::size_t> hidden,
            unsigned long long seed = 99, int ntypes = 1);
  /// Wrap an externally trained network (input size must equal
  /// basis.size() * ntypes).
  AtomModel(RadialBasis basis, Mlp net, int ntypes = 1);
  /// Radial + three-body angular channels (angular.hpp): the G4-accuracy
  /// configuration. Input width = basis.size()*ntypes + angular.size().
  AtomModel(RadialBasis basis, AngularBasis angular,
            std::vector<std::size_t> hidden, unsigned long long seed = 99,
            int ntypes = 1);

  Mlp& net() { return net_; }
  const Mlp& net() const { return net_; }
  const RadialBasis& basis() const { return basis_; }
  const AngularBasis& angular() const { return angular_; }
  bool has_angular() const { return angular_.size() > 0; }
  int ntypes() const { return ntypes_; }
  std::size_t n_weights() const { return net_.n_params(); }
  std::size_t feature_width() const {
    return basis_.size() * static_cast<std::size_t>(ntypes_) + angular_.size();
  }

  /// Total energy and per-atom forces. `block_size` = 0 disables blocking
  /// (all atoms in one batch); otherwise atoms are processed in batches of
  /// that size (Sec. V.B.9). Forces are overwritten (3N).
  double energy_forces(const qxmd::Atoms& atoms, const qxmd::NeighborList& nl,
                       std::vector<double>& forces, std::size_t block_size = 0) const;

  /// Peak scratch bytes of the last energy_forces call (block accounting).
  std::size_t last_peak_scratch_bytes() const { return peak_scratch_; }

private:
  RadialBasis basis_;
  AngularBasis angular_; ///< empty = radial-only model
  Mlp net_;
  int ntypes_ = 1;
  mutable std::size_t peak_scratch_ = 0;
};

// --- lattice model -----------------------------------------------------------

class LatticeModel {
public:
  explicit LatticeModel(std::vector<std::size_t> hidden, unsigned long long seed = 7);
  explicit LatticeModel(Mlp net) : net_(std::move(net)) {}

  Mlp& net() { return net_; }
  const Mlp& net() const { return net_; }
  std::size_t n_weights() const { return net_.n_params(); }

  /// Total predicted energy of the polarization field.
  double energy(const ferro::FerroLattice& lat) const;

  /// Predicted generalized forces F = -dE/du per cell: forces_multi over
  /// a batch of one lattice.
  std::vector<ferro::Vec3> forces(const ferro::FerroLattice& lat) const;

private:
  Mlp net_;
};

/// Eq. (4): F_i = (1-w) F_GS,i + w F_XS,i, with the excitation fraction
/// w = min(1, n_exc / n_sat) derived from DC-MESH's gathered excitation
/// count (paper Sec. V.A.8). xs_mixed_forces_multi over a batch of one.
std::vector<ferro::Vec3> xs_mixed_forces(const LatticeModel& gs,
                                         const LatticeModel& xs,
                                         const ferro::FerroLattice& lat,
                                         double n_exc, double n_sat);

// --- cross-lattice batched inference ----------------------------------------
//
// The one Eq. (4) force path. The cells of many lattices (one per
// concurrent scenario in the mlmd::serve micro-batcher, a single one in
// run_pipeline) are concatenated into one feature stream and pushed
// through Mlp::grad_input_batch in shared kCellBlock GEMM batches. Because
// every batched Mlp pass is bitwise-identical per row to the scalar pass
// (mlp.hpp contract, asserted in test_nnq), the per-cell gradients — and
// therefore the scattered forces — do not depend on which lattices share
// a batch: forces_multi(model, {&a, &b})[0] is byte-identical to
// model.forces(a) == forces_multi(model, {&a})[0]. Asserted in test_serve.

/// Per-lattice forces for every lattice, evaluated through shared
/// inference batches. Bitwise-identical to model.forces(*lats[i]) per i.
std::vector<std::vector<ferro::Vec3>> forces_multi(
    const LatticeModel& model,
    const std::vector<const ferro::FerroLattice*>& lats);

/// Batched Eq. (4) across scenarios: element i mixes with the weight
/// derived from (n_exc[i], n_sat[i]). Bitwise-identical per element to
/// xs_mixed_forces(gs, xs, *lats[i], n_exc[i], n_sat[i]).
std::vector<std::vector<ferro::Vec3>> xs_mixed_forces_multi(
    const LatticeModel& gs, const LatticeModel& xs,
    const std::vector<const ferro::FerroLattice*>& lats,
    const std::vector<double>& n_exc, const std::vector<double>& n_sat);

/// Excitation weight used by xs_mixed_forces.
double excitation_weight(double n_exc, double n_sat);

} // namespace mlmd::nnq
