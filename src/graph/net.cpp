#include "graph/net.hpp"

#include <cassert>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "util/logging.hpp"

namespace sn::graph {

Layer* Net::add(std::unique_ptr<Layer> layer, const std::vector<Layer*>& inputs) {
  assert(!finalized_ && "cannot add layers after finalize()");
  Layer* l = layer.get();
  l->id_ = static_cast<int>(layers_.size());
  layers_.push_back(std::move(layer));
  for (Layer* in : inputs) {
    l->prevs_.push_back(in);
    in->nexts_.push_back(l);
  }
  if (l->type() == LayerType::kData) {
    assert(!input_ && "a Net supports a single data layer");
    input_ = l;
  }
  if (l->type() == LayerType::kSoftmax) loss_ = l;
  return l;
}

Layer* Net::data(const std::string& name, tensor::Shape shape) {
  return add(std::make_unique<DataLayer>(name, shape), {});
}
Layer* Net::conv(const std::string& name, Layer* in, int k, int kh, int stride, int pad,
                 bool bias) {
  return add(std::make_unique<ConvLayer>(name, k, kh, kh, stride, pad, pad, bias), {in});
}
Layer* Net::pool_max(const std::string& name, Layer* in, int kh, int stride, int pad) {
  return add(std::make_unique<PoolLayer>(name, kh, kh, stride, pad, true), {in});
}
Layer* Net::pool_avg(const std::string& name, Layer* in, int kh, int stride, int pad) {
  return add(std::make_unique<PoolLayer>(name, kh, kh, stride, pad, false), {in});
}
Layer* Net::relu(const std::string& name, Layer* in) {
  return add(std::make_unique<ActLayer>(name, ActKind::kRelu), {in});
}
Layer* Net::sigmoid(const std::string& name, Layer* in) {
  return add(std::make_unique<ActLayer>(name, ActKind::kSigmoid), {in});
}
Layer* Net::tanh_act(const std::string& name, Layer* in) {
  return add(std::make_unique<ActLayer>(name, ActKind::kTanh), {in});
}
Layer* Net::lrn(const std::string& name, Layer* in, int size) {
  return add(std::make_unique<LrnLayer>(name, size), {in});
}
Layer* Net::bn(const std::string& name, Layer* in) {
  return add(std::make_unique<BnLayer>(name), {in});
}
Layer* Net::fc(const std::string& name, Layer* in, int k, bool bias) {
  return add(std::make_unique<FcLayer>(name, k, bias), {in});
}
Layer* Net::dropout(const std::string& name, Layer* in, float ratio) {
  return add(std::make_unique<DropoutLayer>(name, ratio), {in});
}
Layer* Net::softmax_loss(const std::string& name, Layer* in) {
  return add(std::make_unique<SoftmaxLossLayer>(name), {in});
}
Layer* Net::eltwise(const std::string& name, const std::vector<Layer*>& ins) {
  return add(std::make_unique<EltwiseLayer>(name), ins);
}
Layer* Net::concat(const std::string& name, const std::vector<Layer*>& ins) {
  return add(std::make_unique<ConcatLayer>(name), ins);
}

// Algorithm 1 (paper §3.1): DFS from the data layer; a layer enters the route
// only once all of its predecessors have been visited (join counter).
// Implemented with an explicit stack so ResNet-2500-scale graphs (10^4
// layers) cannot overflow the call stack.
void Net::build_route() {
  route_.clear();
  route_.reserve(layers_.size());
  std::unordered_map<const Layer*, size_t> counter;
  std::vector<Layer*> stack{input_};
  while (!stack.empty()) {
    Layer* l = stack.back();
    stack.pop_back();
    size_t& cnt = counter[l];
    ++cnt;  // paper: layer->counter_inc()
    if (cnt < l->prevs().size()) continue;  // join: wait for remaining branches
    route_.push_back(l);
    // Push nexts in reverse so the first-listed branch is explored first,
    // matching the recursive DFS order of Algorithm 1.
    const auto& nexts = l->nexts();
    for (auto it = nexts.rbegin(); it != nexts.rend(); ++it) stack.push_back(*it);
  }
  if (route_.size() != layers_.size()) {
    SN_ERROR << "route covers " << route_.size() << " of " << layers_.size()
             << " layers; graph is disconnected or has an unreachable join";
    throw std::logic_error("Net::build_route: incomplete route");
  }
}

void Net::finalize() {
  assert(!finalized_);
  if (!input_) throw std::logic_error("Net::finalize: no data layer");
  // Layer (and therefore tensor) names must be unique: per-tensor-name
  // seeded weight initialization would hand duplicate names bit-identical
  // draws (parallel branches could never break symmetry), and pipeline
  // stage extraction matches layers across nets by name.
  {
    std::unordered_set<std::string> names;
    for (const auto& l : layers_) {
      if (!names.insert(l->name()).second) {
        throw std::logic_error("Net::finalize: duplicate layer name " + l->name());
      }
    }
  }
  build_route();
  for (Layer* l : route_) l->infer_shape();
  for (Layer* l : route_) l->create_tensors(registry_);
  steps_.clear();
  steps_.reserve(route_.size() * 2);
  int idx = 0;
  for (Layer* l : route_) steps_.push_back(Step{l, true, idx++});
  for (auto it = route_.rbegin(); it != route_.rend(); ++it) {
    steps_.push_back(Step{*it, false, idx++});
  }
  program_ = StepProgram(steps_, layers_.size());
  // Record producer steps (used by recomputation to replay segments).
  for (int s = 0; s < static_cast<int>(route_.size()); ++s) {
    for (tensor::Tensor* t : program_.defs(s)) t->producer_step = s;
  }
  finalized_ = true;
}

uint64_t Net::total_tensor_bytes() const {
  uint64_t b = 0;
  for (const auto& t : registry_.all()) b += t->bytes();
  return b;
}

uint64_t Net::max_layer_bytes() const {
  uint64_t best = 0;
  for (const auto& l : layers_) {
    uint64_t b = l->layer_tensor_bytes();
    if (b > best) best = b;
  }
  return best;
}

}  // namespace sn::graph
