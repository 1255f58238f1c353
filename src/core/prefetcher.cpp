#include "core/prefetcher.hpp"

#include <algorithm>

#include "core/recompute.hpp"

namespace sn::core {

Prefetcher::Prefetcher(const graph::Net& net, int lookahead)
    : net_(net),
      lookahead_(std::max(0, lookahead)),
      plan_of_step_(net.steps().size(), -1),
      stamp_(net.registry().size(), 0) {
  if (lookahead_ == 0) return;
  const int nfwd = static_cast<int>(net.route().size());
  for (const graph::Step& st : net.steps()) {
    if (st.index < nfwd || !RecomputePlan::is_checkpoint_layer(st.layer)) continue;
    scan(st.index, plans_);
    plan_of_step_[static_cast<size_t>(st.index)] = static_cast<int>(plan_end_.size());
    plan_end_.push_back(static_cast<uint32_t>(plans_.size()));
  }
  plans_.shrink_to_fit();
}

void Prefetcher::scan(int step, std::vector<Entry>& out) const {
  const graph::StepProgram& prog = net_.program();
  const auto& steps = net_.steps();
  const int nsteps = prog.num_steps();
  const int nfwd = static_cast<int>(net_.route().size());
  if (++epoch_ == 0) {  // wrapped: stale stamps could alias the new epoch
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  int checkpoints = 0;
  for (int s = step + 1; s < nsteps; ++s) {
    // The backward step of this step's layer (itself on the backward half).
    const int bwd = s < nfwd ? nsteps - 1 - s : s;
    for (tensor::Tensor* u : prog.uses(bwd)) {
      uint32_t& stamp = stamp_[u->uid()];
      if (stamp == epoch_) continue;
      stamp = epoch_;
      out.push_back(Entry{u, checkpoints});
    }
    if (RecomputePlan::is_checkpoint_layer(steps[static_cast<size_t>(s)].layer) &&
        ++checkpoints >= lookahead_) {
      break;
    }
  }
}

std::vector<Prefetcher::Entry> Prefetcher::plan_spans(int step) const {
  std::vector<Entry> out;
  if (lookahead_ == 0) return out;
  const int k = plan_of_step_[static_cast<size_t>(step)];
  if (k < 0) {
    scan(step, out);
  } else {
    const uint32_t b = k == 0 ? 0 : plan_end_[static_cast<size_t>(k) - 1];
    out.assign(plans_.begin() + b, plans_.begin() + plan_end_[static_cast<size_t>(k)]);
  }
  // Gating after the dedupe drops exactly the entries a gated scan would
  // skip: a gated uid is gated at every occurrence.
  if (remote_gate_) {
    std::erase_if(out, [&](const Entry& e) { return remote_gate_(e.tensor->uid()); });
  }
  return out;
}

int default_prefetch_lookahead(const graph::Net& net) {
  const std::string& a = net.arch();
  if (a == "alexnet" || a == "vgg16" || a == "vgg19") return 1;
  if (a == "inception_v4" || a == "densenet121") return 2;
  if (a.rfind("resnet", 0) == 0) return 2;
  return 1;  // the paper's policy for anything the bench has not ranked
}

std::vector<tensor::Tensor*> Prefetcher::plan(int step) const {
  std::vector<tensor::Tensor*> out;
  for (const Entry& e : plan_spans(step)) out.push_back(e.tensor);
  return out;
}

}  // namespace sn::core
