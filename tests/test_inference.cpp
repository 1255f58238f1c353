// Forward-only (inference) scheduling tests, plus activation-kind dependency
// coverage: sigmoid/tanh keep their outputs alive into backward while ReLU
// keeps its input — the scheduler must honour both shapes.
#include <gtest/gtest.h>

#include <numeric>

#include "core/liveness.hpp"
#include "core/runtime.hpp"
#include "graph/zoo.hpp"
#include "train/dataset.hpp"
#include "train/trainer.hpp"

namespace {

using namespace sn;
namespace tensor = sn::tensor;

core::RuntimeOptions real_opts(uint64_t cap) {
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = true;
  o.device_capacity = cap;
  o.host_capacity = 64ull << 20;
  return o;
}

TEST(Inference, ForwardPeakFarBelowTraining) {
  auto net1 = graph::build_alexnet(64);
  auto net2 = graph::build_alexnet(64);
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = false;
  o.allow_workspace = false;
  o.device_capacity = 48ull << 30;
  uint64_t persistent = 0;
  for (const auto& t : net1->registry().all()) {
    if (t->kind() == tensor::TensorKind::kParam || t->kind() == tensor::TensorKind::kParamGrad)
      persistent += t->bytes();
  }
  core::Runtime train_rt(*net1, o);
  core::Runtime infer_rt(*net2, o);
  auto train_st = train_rt.train_iteration(nullptr, nullptr);
  auto infer_st = infer_rt.forward_iteration(nullptr, nullptr);
  // Compare the *scheduled* (non-persistent) footprint: params and their
  // grads stay resident in both modes by design.
  EXPECT_LT(infer_st.peak_mem - persistent, (train_st.peak_mem - persistent) / 2);
  EXPECT_LT(infer_st.seconds, train_st.seconds);
}

TEST(Inference, ProbabilitiesAreValidDistributions) {
  auto net = graph::build_tiny_linear(4, 8, 5);
  core::Runtime rt(*net, real_opts(16ull << 20));
  train::SyntheticDataset ds(tensor::Shape{1, 3, 8, 8}, 5, 7);
  std::vector<float> data(4 * 3 * 64);
  std::vector<int32_t> labels(4);
  ds.fill_batch(4, 0, data.data(), labels.data());
  std::vector<float> probs;
  auto st = rt.forward_iteration(data.data(), labels.data(), &probs);
  ASSERT_EQ(probs.size(), 4u * 5u);
  for (int i = 0; i < 4; ++i) {
    double row = 0;
    for (int c = 0; c < 5; ++c) {
      EXPECT_GE(probs[i * 5 + c], 0.0f);
      row += probs[i * 5 + c];
    }
    EXPECT_NEAR(row, 1.0, 1e-4);
  }
  EXPECT_GT(st.loss, 0.0);
}

TEST(Inference, MatchesTrainingForwardLoss) {
  // The forward pass of an iteration and a pure inference pass over the same
  // weights and batch must report the same loss.
  auto make = [] {
    auto net = graph::build_tiny_linear(4, 8, 5);
    auto rt = std::make_unique<core::Runtime>(*net, real_opts(16ull << 20));
    return std::pair(std::move(net), std::move(rt));
  };
  auto [net1, rt1] = make();
  auto [net2, rt2] = make();
  train::SyntheticDataset ds(tensor::Shape{1, 3, 8, 8}, 5, 7);
  std::vector<float> data(4 * 3 * 64);
  std::vector<int32_t> labels(4);
  ds.fill_batch(4, 0, data.data(), labels.data());
  auto t = rt1->train_iteration(data.data(), labels.data());
  auto f = rt2->forward_iteration(data.data(), labels.data());
  EXPECT_EQ(t.loss, f.loss);
}

TEST(Inference, RepeatedCallsAreStable) {
  auto net = graph::build_mini_alexnet(4);
  core::Runtime rt(*net, real_opts(32ull << 20));
  train::SyntheticDataset ds(tensor::Shape{1, 3, 16, 16}, 8, 7);
  std::vector<float> data(4 * 3 * 256);
  std::vector<int32_t> labels(4);
  ds.fill_batch(4, 0, data.data(), labels.data());
  auto a = rt.forward_iteration(data.data(), labels.data());
  auto b = rt.forward_iteration(data.data(), labels.data());
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(a.peak_mem, b.peak_mem);
}

TEST(Inference, ReportsAllocatorAndCacheCounters) {
  // A skip connection keeps conv A's output alive across X1 and X2 until
  // its pooled branch joins: a capacity between the largest single step and
  // that live set forces the tensor cache to evict A and fetch it back.
  auto build = [] {
    auto net = std::make_unique<graph::Net>();
    auto* d = net->data("DATA", tensor::Shape{4, 3, 16, 16});
    auto* a = net->conv("A", d, 16, 3, 1, 1);
    auto* x1 = net->conv("X1", a, 16, 3, 1, 1);
    auto* x2 = net->conv("X2", x1, 16, 3, 1, 1);
    auto* pa = net->pool_max("PA", a, 2, 2);
    auto* px = net->pool_max("PX", x2, 2, 2);
    net->softmax_loss("SM", net->fc("FC", net->eltwise("J", {pa, px}), 4));
    net->finalize();
    return net;
  };
  train::SyntheticDataset ds(tensor::Shape{1, 3, 16, 16}, 4, 7);
  std::vector<float> data(4 * 3 * 256);
  std::vector<int32_t> labels(4);
  ds.fill_batch(4, 0, data.data(), labels.data());
  auto run = [&](uint64_t activation_budget) {
    auto net = build();
    uint64_t params = 0;
    for (const auto& t : net->registry().all()) {
      if (t->kind() == tensor::TensorKind::kParam || t->kind() == tensor::TensorKind::kParamGrad)
        params += t->bytes();
    }
    auto o = real_opts(params + activation_budget);
    o.allow_workspace = false;
    core::Runtime rt(*net, o);
    return rt.forward_iteration(data.data(), labels.data());
  };
  const uint64_t act = 4ull * 16 * 16 * 16 * sizeof(float);  // one conv output
  const core::IterationStats ample = run(16 * act);
  EXPECT_GT(ample.allocs, 0u);
  EXPECT_EQ(ample.evictions, 0u);

  const core::IterationStats tight = run(act * 11 / 4);
  EXPECT_GT(tight.allocs, 0u);
  EXPECT_GT(tight.evictions, 0u);
  EXPECT_GT(tight.cache_misses, 0u);
  EXPECT_GT(tight.bytes_d2h, 0u);
  EXPECT_LT(tight.peak_mem, ample.peak_mem);
  EXPECT_EQ(tight.loss, ample.loss);  // eviction never changes numerics
}

uint64_t persistent_bytes(const graph::Net& net) {
  uint64_t b = 0;
  for (const auto& t : net.registry().all()) {
    if (t->kind() == tensor::TensorKind::kParam || t->kind() == tensor::TensorKind::kParamGrad)
      b += t->bytes();
  }
  return b;
}

TEST(Inference, RecomputeUnderPressureIsACleanOom) {
  // Inference frees each tensor at its last forward use, so the replay that
  // would regenerate a recompute-dropped tensor can find its producer's
  // input already freed. At this budget a forward-only pass under the
  // kSuperNeurons default (recompute on) used to throw
  // logic_error("use of never-defined tensor CONV0:y"); it must evict by
  // offloading instead, which here ends in a proper OomError (the residual
  // join needs three activations resident at once).
  for (bool real : {false, true}) {
    auto net = graph::build_tiny_resnet(8, 2, 16, 4);
    core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
    ASSERT_NE(o.recompute, core::RecomputeMode::kNone);
    o.real = real;
    o.allow_workspace = false;
    o.device_capacity = persistent_bytes(*net) + net->max_layer_bytes() / 2;
    o.host_capacity = 16ull << 20;
    train::SyntheticDataset ds(tensor::Shape{1, 3, 16, 16}, 4, 7);
    std::vector<float> data(8 * 3 * 256);
    std::vector<int32_t> labels(8);
    ds.fill_batch(8, 0, data.data(), labels.data());
    core::Runtime rt(*net, o);
    EXPECT_THROW(rt.forward_iteration(real ? data.data() : nullptr, real ? labels.data() : nullptr),
                 core::OomError)
        << (real ? "real" : "sim");
  }
}

TEST(Inference, EveryCapacityIsACorrectRunOrAnOom) {
  // The class-closing oracle: for each tiny zoo net x policy preset x a
  // capacity ladder from below the layer floor to all-resident, a training
  // iteration and an inference pass each either throw OomError or complete.
  // Anything else (a logic_error from a replay) is a scheduler bug. Every
  // preset runs the ladder in simulation mode; kSuperNeurons (recompute,
  // offload and the tensor cache together) also runs it in real mode, where
  // a completed run must match the ample-capacity loss bit for bit.
  struct Case {
    const char* name;
    std::unique_ptr<graph::Net> (*build)();
    int image;
    int classes;
  };
  const Case cases[] = {
      {"tiny_linear", [] { return graph::build_tiny_linear(4, 8, 4); }, 8, 4},
      {"tiny_fanjoin", [] { return graph::build_tiny_fanjoin(4, 8, 4); }, 8, 4},
      {"tiny_resnet", [] { return graph::build_tiny_resnet(8, 2, 16, 4); }, 16, 4},
      {"mini_alexnet", [] { return graph::build_mini_alexnet(4, 16, 8); }, 16, 8},
  };
  const core::PolicyPreset presets[] = {
      core::PolicyPreset::kBaselineNaive, core::PolicyPreset::kCaffeLike,
      core::PolicyPreset::kTorchLike,     core::PolicyPreset::kMxnetLike,
      core::PolicyPreset::kTfLike,        core::PolicyPreset::kSuperNeurons};
  for (const Case& c : cases) {
    const auto probe = c.build();
    const int batch = probe->input_layer()->out_shape().n;
    train::SyntheticDataset ds(tensor::Shape{1, 3, c.image, c.image}, c.classes, 7);
    std::vector<float> data(static_cast<size_t>(batch) * 3 * c.image * c.image);
    std::vector<int32_t> labels(static_cast<size_t>(batch));
    ds.fill_batch(batch, 0, data.data(), labels.data());
    // Parameters round up to whole pool blocks, so the ladder starts from
    // twice their bytes.
    const uint64_t floor = 2 * persistent_bytes(*probe);
    const uint64_t step = probe->max_layer_bytes() / 10;
    const uint64_t ample = floor + 4 * probe->total_tensor_bytes();
    for (core::PolicyPreset p : presets) {
      for (bool real : {false, true}) {
        if (real && p != core::PolicyPreset::kSuperNeurons) continue;
        for (bool infer : {false, true}) {
          auto run = [&](uint64_t cap) {
            auto net = c.build();
            core::RuntimeOptions o = core::make_policy(p);
            o.real = real;
            o.allow_workspace = false;
            o.device_capacity = cap;
            o.host_capacity = 16ull << 20;
            core::Runtime rt(*net, o);
            const float* x = real ? data.data() : nullptr;
            const int32_t* y = real ? labels.data() : nullptr;
            return infer ? rt.forward_iteration(x, y).loss : rt.train_iteration(x, y).loss;
          };
          const double ref = run(ample);
          // Real mode takes every other rung: it runs the kernels.
          for (int k = real ? 2 : 1; k <= 14; k += real ? 2 : 1) {
            const std::string where = std::string(c.name) + " " + core::policy_name(p) +
                                      (real ? " real" : " sim") +
                                      (infer ? " inference" : " training") + " rung " +
                                      std::to_string(k);
            try {
              EXPECT_EQ(run(floor + step * static_cast<uint64_t>(k)), ref) << where;
            } catch (const core::OomError&) {
              // A clean OOM is a correct answer.
            } catch (const std::exception& e) {
              ADD_FAILURE() << where << ": " << e.what();
            }
          }
        }
      }
    }
  }
}

TEST(ActKinds, DependencyShapesDiffer) {
  graph::Net net;
  auto* d = net.data("d", tensor::Shape{2, 3, 8, 8});
  auto* c = net.conv("c", d, 4, 3, 1, 1);
  auto* r = net.relu("r", c);
  auto* s = net.sigmoid("s", r);
  auto* t = net.tanh_act("t", s);
  net.softmax_loss("sm", net.fc("f", t, 3));
  net.finalize();

  auto uses_of = [](const graph::Layer* l) {
    return const_cast<graph::Layer*>(l)->backward_uses();
  };
  // ReLU backward reads its input (conv output).
  auto ru = uses_of(r);
  EXPECT_NE(std::find(ru.begin(), ru.end(), c->output()), ru.end());
  EXPECT_EQ(std::find(ru.begin(), ru.end(), r->output()), ru.end());
  // Sigmoid/tanh backward read their own outputs.
  auto su = uses_of(s);
  EXPECT_NE(std::find(su.begin(), su.end(), s->output()), su.end());
  auto tu = uses_of(t);
  EXPECT_NE(std::find(tu.begin(), tu.end(), t->output()), tu.end());
}

TEST(ActKinds, SigmoidTanhNetworkTrains) {
  graph::Net net;
  auto* d = net.data("d", tensor::Shape{8, 3, 8, 8});
  auto* c = net.conv("c1", d, 8, 3, 1, 1);
  auto* s = net.sigmoid("sig", c);
  auto* p = net.pool_max("p", s, 2, 2);
  auto* f1 = net.fc("f1", p, 16);
  auto* th = net.tanh_act("tanh", f1);
  net.softmax_loss("sm", net.fc("f2", th, 4));
  net.finalize();

  core::Runtime rt(net, real_opts(16ull << 20));
  train::Trainer trainer(rt, {.iterations = 30, .lr = 0.1f, .momentum = 0.9f});
  auto rep = trainer.run();
  EXPECT_LT(rep.last_loss(), rep.first_loss());
}

TEST(ActKinds, SigmoidTanhInvariantUnderPressure) {
  auto build = [] {
    auto net = std::make_unique<graph::Net>();
    auto* d = net->data("d", tensor::Shape{4, 3, 8, 8});
    auto* c = net->conv("c1", d, 8, 3, 1, 1);
    auto* s = net->sigmoid("sig", c);
    auto* c2 = net->conv("c2", s, 8, 3, 1, 1);
    auto* th = net->tanh_act("tanh", c2);
    net->softmax_loss("sm", net->fc("f", th, 4));
    net->finalize();
    return net;
  };
  auto run = [&](uint64_t cap) {
    auto net = build();
    auto o = real_opts(cap);
    o.allow_workspace = false;
    core::Runtime rt(*net, o);
    train::Trainer trainer(rt, {.iterations = 4, .lr = 0.05f});
    auto rep = trainer.run();
    return rep.losses;
  };
  auto ample = run(32ull << 20);
  auto tight = run(300ull << 10);
  EXPECT_EQ(ample, tight);
}

}  // namespace
