// StepProgram: a Net compiled once into flat per-step use/def tables.
//
// A training iteration is the 2N-step route (forward steps 0..N-1, then the
// mirrored backward steps N..2N-1). Which tensors a step reads and writes is
// fixed once the graph is finalized, but the Layer interface reports it
// through virtual calls that build a fresh std::vector each time. The
// program asks each layer exactly once, in Net::finalize(), and stores the
// answers CSR-style: one Tensor* array holding every step's uses then defs,
// plus an offset table. Everything that walks the route (the Runtime's step
// loop and recompute replays, Liveness, the Prefetcher) reads these spans;
// none of them calls Layer::*_uses/*_defs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace sn::graph {

class Layer;

/// One scheduling step: a layer pass. A training iteration is the forward
/// route (steps 0..N-1) followed by the mirrored backward route (N..2N-1).
struct Step {
  Layer* layer = nullptr;
  bool forward = true;
  int index = -1;  ///< position in the 2N-step iteration
};

class StepProgram {
 public:
  using Tensors = std::span<tensor::Tensor* const>;

  StepProgram() = default;

  /// Compile `steps` (Net::steps(): forward route then mirrored backward
  /// route); `num_layers` sizes the layer -> forward-step index.
  StepProgram(const std::vector<Step>& steps, size_t num_layers);

  int num_steps() const { return static_cast<int>(offsets_.size() / 2); }

  /// Tensors step `s` reads / writes, in the layer's declared order
  /// (Layer::forward_uses/defs for forward steps, backward_* otherwise).
  Tensors uses(int s) const { return slice(2 * static_cast<size_t>(s)); }
  Tensors defs(int s) const { return slice(2 * static_cast<size_t>(s) + 1); }

  /// Forward step of `layer` (its position in Net::route()); its backward
  /// step is num_steps() - 1 - forward_step(layer).
  int forward_step(const Layer* layer) const;

 private:
  Tensors slice(size_t k) const {
    const uint32_t b = k == 0 ? 0 : offsets_[k - 1];
    return {tensors_.data() + b, offsets_[k] - b};
  }

  std::vector<tensor::Tensor*> tensors_;
  /// offsets_[2s] ends step s's uses, offsets_[2s + 1] ends its defs.
  std::vector<uint32_t> offsets_;
  std::vector<int> forward_step_;  ///< layer id -> forward step
};

}  // namespace sn::graph
