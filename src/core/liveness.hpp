// Liveness Analysis (paper §3.2).
//
// For the 2N-step execution route (its per-step use/def tables are the
// Net's StepProgram), compute each tensor's live interval
// [first_occurrence, last_occurrence]. The runtime
// frees a tensor immediately after its last-use step, which reduces peak
// memory from the baseline Σ l_f + Σ l_b to Σ l_f + l_b_N.
//
// The paper constructs per-layer `in`/`out` sets by scanning all subsequent
// layers for each layer (N(N-1)/2 ≈ O(N²) dependency checks); we derive the
// same sets from the live intervals and additionally expose them in the
// paper's form (Fig. 5) for tests and the Fig. 10 bench. Parameters and
// parameter gradients are excluded: they persist across iterations.
#pragma once

#include <cstdint>
#include <ranges>
#include <vector>

#include "graph/net.hpp"

namespace sn::core {

/// The uids of a StepProgram span, as a view.
inline auto tensor_uids(graph::StepProgram::Tensors ts) {
  return ts | std::views::transform([](const tensor::Tensor* t) { return t->uid(); });
}

class Liveness {
 public:
  /// `extend_for_recompute`: when cost-aware recomputation is active, replay
  /// of a segment may read any forward tensor up to the moment its producer's
  /// own backward step completes — so data/aux lifetimes are extended to
  /// `2N-1 - producer_step` (the paper's invariant that the nearest
  /// checkpoint stays resident until its segment's backward finishes).
  explicit Liveness(const graph::Net& net, bool extend_for_recompute = false);

  /// Tensor uids read / written at step s (s indexes Net::steps()): views
  /// over the Net's StepProgram, which must outlive this object.
  auto uses(int step) const { return tensor_uids(program_.uses(step)); }
  auto defs(int step) const { return tensor_uids(program_.defs(step)); }

  /// Tensors whose last occurrence is step s — safe to free afterwards.
  const std::vector<uint64_t>& free_after(int step) const { return free_after_[step]; }

  /// Live interval of a tensor; -1 when the tensor never appears (e.g. an
  /// unused gradient) or is persistent (param / param grad).
  int first_occurrence(uint64_t uid) const { return first_[uid]; }
  int last_occurrence(uint64_t uid) const { return last_[uid]; }

  bool is_persistent(uint64_t uid) const { return persistent_[uid]; }

  /// The paper's in/out sets (Fig. 5): tensors live strictly before / after
  /// step s executes.
  std::vector<uint64_t> in_set(int step) const;
  std::vector<uint64_t> out_set(int step) const;

  int num_steps() const { return program_.num_steps(); }

  /// Number of pairwise dependency checks the paper's O(N²) construction
  /// would perform (kept to document and test the complexity claim).
  uint64_t quadratic_checks() const { return quadratic_checks_; }

 private:
  const graph::StepProgram& program_;
  std::vector<std::vector<uint64_t>> free_after_;
  std::vector<int> first_;
  std::vector<int> last_;
  std::vector<bool> persistent_;
  uint64_t quadratic_checks_ = 0;
};

}  // namespace sn::core
