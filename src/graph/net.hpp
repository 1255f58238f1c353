// Net: a non-linear layer graph plus its execution route.
//
// Networks are DAGs with fan (one output consumed by several layers) and
// join (a layer with several inputs) connections — Fig. 1/3 of the paper.
// `finalize()` runs the paper's Algorithm 1 (DFS with join counters) to
// linearize the graph into forward steps, mirrors them into backward steps,
// infers shapes, registers every tensor, and compiles the steps' use/def
// sets into one StepProgram.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/layers.hpp"
#include "graph/step_program.hpp"
#include "tensor/tensor.hpp"

namespace sn::graph {

class Net {
 public:
  Net() = default;

  /// Add a layer; `inputs` wires prev/next edges (empty only for DataLayer).
  Layer* add(std::unique_ptr<Layer> layer, const std::vector<Layer*>& inputs);

  // Convenience builders (thin wrappers over add()).
  Layer* data(const std::string& name, tensor::Shape shape);
  Layer* conv(const std::string& name, Layer* in, int k, int kh, int stride, int pad,
              bool bias = true);
  Layer* pool_max(const std::string& name, Layer* in, int kh, int stride, int pad = 0);
  Layer* pool_avg(const std::string& name, Layer* in, int kh, int stride, int pad = 0);
  Layer* relu(const std::string& name, Layer* in);
  Layer* sigmoid(const std::string& name, Layer* in);
  Layer* tanh_act(const std::string& name, Layer* in);
  Layer* lrn(const std::string& name, Layer* in, int size = 5);
  Layer* bn(const std::string& name, Layer* in);
  Layer* fc(const std::string& name, Layer* in, int k, bool bias = true);
  Layer* dropout(const std::string& name, Layer* in, float ratio = 0.5f);
  Layer* softmax_loss(const std::string& name, Layer* in);
  Layer* eltwise(const std::string& name, const std::vector<Layer*>& ins);
  Layer* concat(const std::string& name, const std::vector<Layer*>& ins);

  /// Build the execution route (Algorithm 1), infer shapes, create tensors,
  /// compile the StepProgram. Must be called exactly once after the full
  /// graph is wired.
  void finalize();

  bool finalized() const { return finalized_; }
  size_t num_layers() const { return layers_.size(); }
  const std::vector<std::unique_ptr<Layer>>& layers() const { return layers_; }

  /// Forward execution order (Algorithm 1 output).
  const std::vector<Layer*>& route() const { return route_; }

  /// The 2N-step iteration: forward route then mirrored backward route
  /// (paper Fig. 6: left digit = forward step, right digit = backward step).
  const std::vector<Step>& steps() const { return steps_; }

  /// Every step's use/def tensors, compiled once by finalize(): the single
  /// source of per-step dependency data for the runtime and its analyses.
  const StepProgram& program() const { return program_; }

  Layer* input_layer() const { return input_; }
  Layer* loss_layer() const { return loss_; }

  /// Architecture tag (e.g. "vgg16", "resnet50") set by the zoo builders.
  /// Policy tables key off it (per-net prefetch-lookahead defaults); empty
  /// for hand-built nets, which fall back to the generic default.
  const std::string& arch() const { return arch_; }
  void set_arch(std::string arch) { arch_ = std::move(arch); }

  tensor::TensorRegistry& registry() { return registry_; }
  const tensor::TensorRegistry& registry() const { return registry_; }

  /// Total bytes of all registered tensors (the paper's baseline peak_m:
  /// every tensor allocated independently, nothing freed).
  uint64_t total_tensor_bytes() const;

  /// max_i(l_i): the layer-wise lower bound on peak memory (paper §3).
  uint64_t max_layer_bytes() const;

 private:
  void build_route();

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Layer*> route_;
  std::vector<Step> steps_;
  StepProgram program_;
  tensor::TensorRegistry registry_;
  Layer* input_ = nullptr;
  Layer* loss_ = nullptr;
  std::string arch_;
  bool finalized_ = false;
};

}  // namespace sn::graph
