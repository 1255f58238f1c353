#include "graph/step_program.hpp"

#include "graph/layer.hpp"

namespace sn::graph {

StepProgram::StepProgram(const std::vector<Step>& steps, size_t num_layers) {
  offsets_.reserve(2 * steps.size());
  forward_step_.assign(num_layers, -1);
  auto append = [&](const std::vector<tensor::Tensor*>& ts) {
    tensors_.insert(tensors_.end(), ts.begin(), ts.end());
    offsets_.push_back(static_cast<uint32_t>(tensors_.size()));
  };
  for (const Step& st : steps) {
    const Layer* l = st.layer;
    if (st.forward) {
      forward_step_[static_cast<size_t>(l->id())] = st.index;
      append(l->forward_uses());
      append(l->forward_defs());
    } else {
      append(l->backward_uses());
      append(l->backward_defs());
    }
  }
  tensors_.shrink_to_fit();
}

int StepProgram::forward_step(const Layer* layer) const {
  return forward_step_[static_cast<size_t>(layer->id())];
}

}  // namespace sn::graph
