#pragma once
// The end-to-end MLMD multiscale pipeline (paper Sec. VI.A, Fig. 3):
//
//   Stage 1  GS-NNQMD: prepare a relaxed skyrmion-superlattice polar
//            texture on the ferroelectric lattice.
//   Stage 2  DC-MESH: hit a microscopic domain with a femtosecond pulse
//            and measure the photoexcited electron count n_exc.
//   Stage 3  XS-NNQMD: propagate the texture with Eq. (4) force mixing
//            F = (1-w) F_GS + w F_XS, w derived from n_exc, and track the
//            topological charge Q(t) of the superlattice.
//
// "Switched" means the light pulse destroyed/changed the topological
// charge while an identical dark run preserved it — the paper's
// light-induced topological switching result.
//
// Two force backends exist for stage 3: kNeural runs the trained GS/XS
// LatticeModels (the paper's actual XS-NNQMD path); kExact runs the
// second-principles ferro Hamiltonian with the excitation folded into its
// well coefficient (the ground truth the models were trained on). Tests
// compare the two.
//
// Execution comes in two shapes:
//
//   run_pipeline(opt, dark)   one scenario, start to finish — the batch
//                             front door mlmd_run uses.
//   pipeline::Session         the same pipeline as an explicit state
//                             machine: prepare() runs stages 1-2 (or a
//                             checkpoint restore), then each step()
//                             advances stage 3 by one XS step. Many
//                             Sessions interleave on one thread (and one
//                             par::ThreadPool) — the substrate of the
//                             mlmd::serve multi-tenant service. The
//                             split-phase wants_neural_forces() /
//                             step_with() surface lets a cross-request
//                             micro-batcher supply Eq. (4) forces computed
//                             in one batched MLP pass; results are
//                             bitwise-identical to step() either way.

#include <memory>
#include <string>
#include <vector>

#include "mlmd/ferro/lattice.hpp"
#include "mlmd/ft/guard.hpp"
#include "mlmd/maxwell/pulse.hpp"
#include "mlmd/mesh/dcmesh.hpp"
#include "mlmd/nnq/allegro.hpp"

namespace mlmd::pipeline {

enum class ForceBackend { kExact, kNeural };

struct PipelineOptions {
  // Stage 1: texture preparation.
  std::size_t lattice = 48;       ///< lattice extent (lattice x lattice)
  std::size_t superlattice = 3;   ///< skyrmions per axis
  int relax_steps = 300;
  ferro::FerroParams ferro;

  // Stage 2: DC-MESH photoexcitation probe.
  std::size_t grid_n = 8;
  std::size_t norb = 6;
  std::size_t nfilled = 3;
  int mesh_md_steps = 3;
  mesh::MeshOptions mesh;
  maxwell::Pulse pulse;

  // Stage 3: XS dynamics. Models are shared (not borrowed): a Session
  // enqueued into mlmd::serve outlives the scope that built its options,
  // so raw pointers would dangle — shared ownership keeps the weights
  // alive for as long as any queued or running scenario needs them.
  ForceBackend backend = ForceBackend::kExact;
  std::shared_ptr<const nnq::LatticeModel> gs_model; ///< required for kNeural
  std::shared_ptr<const nnq::LatticeModel> xs_model;
  double n_sat = 1.0;   ///< excitation count that saturates w at 1
  int xs_steps = 400;
  int record_every = 20;

  // Fault tolerance (DESIGN.md Sec. 10). All off by default: the
  // zero-fault path costs nothing beyond one disarmed-hook load per step.
  int checkpoint_every = 0;    ///< > 0: checkpoint stage 3 every N steps
  std::string checkpoint_path; ///< file for --checkpoint-every writes
  std::string restore_path;    ///< non-empty: skip stages 1-2, resume
                               ///< stage 3 from this checkpoint
  ft::GuardOptions guard;      ///< stage-3 step sentinel + recovery policy
};

struct PipelineResult {
  double n_exc = 0.0;     ///< from DC-MESH
  double w = 0.0;         ///< Eq. (4) mixing weight
  double q_initial = 0.0; ///< topological charge before the pulse
  double q_final = 0.0;
  std::vector<double> q_history;
  bool switched = false;  ///< Q moved by more than half its initial value
                          ///< (collapse or inversion of the superlattice)

  // Fault-tolerance bookkeeping.
  long start_step = 0;         ///< stage-3 step the run (re)started from
  int checkpoints_written = 0; ///< stage-3 checkpoint files written
  int rollbacks = 0;           ///< kRollback recoveries performed
  bool degraded = false;       ///< kDegrade swapped kNeural -> kExact
};

namespace detail {
/// Stage-3 dynamic state: everything the XS loop evolves. Held in memory
/// as the rollback target; serialized for checkpoint files.
struct Stage3Snapshot {
  long step = 0;
  double n_exc = 0.0, w = 0.0, q_initial = 0.0;
  std::vector<double> q_history;
  bool degraded = false;
  std::vector<ferro::Vec3> field, velocity;
  std::vector<double> excitation;
};
} // namespace detail

/// Re-entrant pipeline scenario. Not thread-safe (one thread drives a
/// Session at a time), but any number of Sessions interleave on one
/// thread: every run_pipeline invariant — checkpoint/restore bit-identity,
/// guard policies, fault hooks — holds per Session, per step.
class Session {
 public:
  /// When `dark` is true the pulse is suppressed (n_exc forced to zero).
  explicit Session(PipelineOptions opt, bool dark = false);

  /// Stages 1-2, or the checkpoint restore when opt.restore_path is set.
  /// Idempotent; called lazily by step()/step_with() when skipped.
  void prepare();
  bool prepared() const { return prepared_; }

  /// All xs_steps done and the result finalized (q_final, switched).
  bool done() const { return finalized_; }
  /// Next stage-3 step to execute (== xs_steps once done).
  long step_index() const { return step_; }
  bool dark() const { return dark_; }
  const PipelineOptions& options() const { return opt_; }

  /// Advance one stage-3 step, computing forces internally (exactly what
  /// run_pipeline does per loop iteration, including guard recovery — a
  /// rollback/degrade reaction consumes the call without advancing).
  /// Returns false once done().
  bool step();

  // --- split-phase stepping (the mlmd::serve micro-batcher) ---------------

  /// True when the next step would evaluate the neural Eq. (4) forces —
  /// i.e. the Session can join a cross-request inference batch. False for
  /// kExact, after kDegrade tripped, before prepare(), or when done.
  bool wants_neural_forces() const {
    return prepared_ && !finalized_ &&
           opt_.backend == ForceBackend::kNeural && !degraded_;
  }
  /// The lattice to featurize for a batched force evaluation.
  const ferro::FerroLattice& lattice() const { return lat_; }
  double n_exc() const { return res_.n_exc; }
  double n_sat() const { return opt_.n_sat; }

  /// Advance one step with externally supplied mixed forces — `f` must be
  /// what nnq::xs_mixed_forces would have produced (that is the batched
  /// path with a batch of one, so this holds by construction). Taken by
  /// value: the fault-injection hooks may corrupt the array in place.
  /// Throws std::logic_error unless wants_neural_forces().
  bool step_with(std::vector<ferro::Vec3> f);

  /// Write a stage-3 checkpoint of the current state to `path` (the same
  /// container checkpoint_every writes; serve warm restarts read it back
  /// through opt.restore_path).
  void write_checkpoint(const std::string& path);

  /// Result so far; q_final/switched are meaningful once done().
  const PipelineResult& result() const { return res_; }

 private:
  bool advance(std::vector<ferro::Vec3>* forces);
  void finalize();

  PipelineOptions opt_;
  bool dark_;
  ferro::FerroLattice lat_;
  PipelineResult res_;
  ft::StepSentinel sentinel_;
  detail::Stage3Snapshot snapshot_; ///< rollback target
  bool have_snapshot_ = false;
  long step_ = 0;
  bool degraded_ = false;
  bool prepared_ = false;
  bool finalized_ = false;
};

/// Run the full pipeline. When `dark` is true the pulse is suppressed
/// (n_exc forced to zero): the control run for the switching claim.
PipelineResult run_pipeline(const PipelineOptions& opt, bool dark = false);

} // namespace mlmd::pipeline
