#include "core/liveness.hpp"

namespace sn::core {

Liveness::Liveness(const graph::Net& net, bool extend_for_recompute)
    : program_(net.program()) {
  const size_t ntensors = net.registry().size();
  const int nsteps = program_.num_steps();

  free_after_.resize(nsteps);
  first_.assign(ntensors, -1);
  last_.assign(ntensors, -1);
  persistent_.assign(ntensors, false);

  for (const auto& t : net.registry().all()) {
    auto k = t->kind();
    persistent_[t->uid()] =
        k == tensor::TensorKind::kParam || k == tensor::TensorKind::kParamGrad;
  }

  auto note = [&](uint64_t uid, int step) {
    if (persistent_[uid]) return;
    if (first_[uid] < 0) first_[uid] = step;
    if (step > last_[uid]) last_[uid] = step;
  };

  for (int s = 0; s < nsteps; ++s) {
    for (const tensor::Tensor* t : program_.uses(s)) note(t->uid(), s);
    for (const tensor::Tensor* t : program_.defs(s)) note(t->uid(), s);
  }

  if (extend_for_recompute) {
    for (const auto& t : net.registry().all()) {
      uint64_t uid = t->uid();
      if (persistent_[uid] || first_[uid] < 0) continue;
      if (t->kind() != tensor::TensorKind::kData && t->kind() != tensor::TensorKind::kAux)
        continue;
      if (t->producer_step < 0) continue;
      int bwd_of_producer = nsteps - 1 - t->producer_step;
      if (bwd_of_producer > last_[uid]) last_[uid] = bwd_of_producer;
    }
  }

  for (uint64_t uid = 0; uid < ntensors; ++uid) {
    if (last_[uid] >= 0) free_after_[last_[uid]].push_back(uid);
  }

  // The paper's construction populates each layer's out set by checking the
  // dependencies of all subsequent layers: N-1 + N-2 + ... + 1 checks.
  quadratic_checks_ = static_cast<uint64_t>(nsteps) * (nsteps - 1) / 2;
}

std::vector<uint64_t> Liveness::in_set(int step) const {
  std::vector<uint64_t> s;
  for (uint64_t uid = 0; uid < first_.size(); ++uid) {
    if (first_[uid] >= 0 && first_[uid] < step && last_[uid] >= step) s.push_back(uid);
  }
  return s;
}

std::vector<uint64_t> Liveness::out_set(int step) const {
  std::vector<uint64_t> s;
  for (uint64_t uid = 0; uid < first_.size(); ++uid) {
    if (first_[uid] >= 0 && first_[uid] <= step && last_[uid] > step) s.push_back(uid);
  }
  return s;
}

}  // namespace sn::core
