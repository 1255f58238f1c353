// Table 4 — Going deeper: the deepest trainable ResNet per framework policy
// on a 12 GB device at batch 16.
//
// Paper parameterization: depth = 3*(n1+n2+n3+n4) + 2 with n1=6, n2=32,
// n4=6 fixed and n3 swept. Paper result: Caffe 148, MXNet 480, Torch 152,
// TensorFlow 592, SuperNeurons 1920.
#include <cstdio>

#include "bench/common.hpp"

using namespace sn;

namespace {

constexpr int kMaxN3 = 1200;
/// Consecutive failing n3 values that end the upward probe.
constexpr int kProbeMisses = 8;

bool depth_runs(core::PolicyPreset preset, int n3) {
  return bench::runs_without_oom(
      [n3] { return graph::build_resnet(6, 32, n3, 6, /*batch=*/16); },
      core::make_policy(preset));
}

/// Deepest trainable n3. Trainability is not monotone in depth (an n3 can
/// run out of memory where n3 + 1 trains), so the bisection may stop below
/// the true maximum: probe upward from its answer until kProbeMisses
/// consecutive n3 values fail and keep the deepest that trained.
int max_trainable_n3(core::PolicyPreset preset) {
  int best = bench::search_max(1, kMaxN3, [&](int n3) { return depth_runs(preset, n3); });
  if (best < 1) return best;
  for (int n3 = best + 1, misses = 0; misses < kProbeMisses && n3 <= kMaxN3; ++n3) {
    if (depth_runs(preset, n3)) {
      best = n3;
      misses = 0;
    } else {
      ++misses;
    }
  }
  return best;
}

}  // namespace

int main() {
  std::printf("Table 4: deepest trainable ResNet on 12 GB (batch 16)\n");
  std::printf("depth = 3*(n1+n2+n3+n4)+2, n1=6 n2=32 n4=6, n3 swept\n\n");

  util::Table t({"Framework policy", "max n3", "ResNet depth"});
  const core::PolicyPreset presets[] = {core::PolicyPreset::kCaffeLike,
                                        core::PolicyPreset::kMxnetLike,
                                        core::PolicyPreset::kTorchLike,
                                        core::PolicyPreset::kTfLike,
                                        core::PolicyPreset::kSuperNeurons};
  int sn_depth = 0, best_other = 0;
  for (auto preset : presets) {
    int max_n3 = max_trainable_n3(preset);
    int depth = max_n3 >= 1 ? graph::resnet_depth(6, 32, max_n3, 6) : 0;
    t.add_row({core::policy_name(preset), std::to_string(max_n3), std::to_string(depth)});
    if (preset == core::PolicyPreset::kSuperNeurons) {
      sn_depth = depth;
    } else if (depth > best_other) {
      best_other = depth;
    }
  }
  t.print();
  std::printf(
      "\nShape check vs paper (148 / 480 / 152 / 592 / 1920): SuperNeurons trains %.2fx\n"
      "deeper than the best static policy (paper: 3.24x over TensorFlow).\n",
      best_other ? static_cast<double>(sn_depth) / best_other : 0.0);
  return 0;
}
