#pragma once
// Cross-request inference micro-batcher (DESIGN.md Sec. 14.3). Concurrent
// kNeural sessions all stop at the same place each step — an Eq. (4)
// mixed-force evaluation — so their lattices' cells are concatenated into
// one feature stream and pushed through shared Mlp::grad_input_batch GEMM
// blocks (nnq::xs_mixed_forces_multi). Bigger GEMMs are the whole point:
// the batched MLP path is the PR-3 2.4x lever, and serving many tenants
// is what finally keeps its batches full.
//
// Correctness is free, not approximate: every batched Mlp pass is
// bitwise-identical per row to the scalar pass (mlp.hpp contract), so the
// forces each session receives do not depend on who shared its batch.
// run_pipeline evaluates Eq. (4) through the same multi-lattice kernel
// with a batch of one lattice, so served == run_pipeline by construction.
// `verify` re-derives each session's forces as a batch of one and
// memcmps — it catches a fused block that straddles lattices wrongly.
// The serve tests run with it on.

#include <cstddef>
#include <vector>

#include "mlmd/mlmd/pipeline.hpp"

namespace mlmd::serve {

class MicroBatcher {
 public:
  /// `max_batch` caps sessions per fused evaluation (chunking bound, not a
  /// drop); `verify` memcmps every fused force set against the same
  /// session evaluated alone (nnq::xs_mixed_forces, a batch of one) and
  /// throws std::logic_error on any mismatch.
  explicit MicroBatcher(std::size_t max_batch = 8, bool verify = false);

  /// Advance every session in `group` by one step with batch-evaluated
  /// forces. All sessions must wants_neural_forces() and share one
  /// (gs_model, xs_model) pair — the caller groups by model identity.
  /// Returns the number of sessions stepped. Observes
  /// serve.batch.occupancy per fused evaluation.
  ///
  /// A session whose step trips its guard (GuardTripped under kAbort) is
  /// reported through `failures` — the scheduler fails that scenario
  /// while the rest of the batch proceeds. With failures == nullptr the
  /// exception propagates.
  std::size_t step_group(
      const std::vector<pipeline::Session*>& group,
      std::vector<std::pair<pipeline::Session*, std::string>>* failures =
          nullptr);

  std::size_t max_batch() const { return max_batch_; }

 private:
  std::size_t max_batch_;
  bool verify_;
};

} // namespace mlmd::serve
