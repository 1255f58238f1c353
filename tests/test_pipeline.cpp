// Pipeline-parallel tests: the S x 1 column geometry of
// dist::HybridParallelTrainer. Flagship invariant: cutting a net across
// pool-backed pipeline stages and microbatching the batch NEVER changes
// training results — 2-stage x M-microbatch training is bit-identical to a
// single-device run over the combined batch (losses AND weights), extending
// the paper's "memory scheduling never changes training results" across the
// P2P fabric. Plus: fill/drain bubble telemetry, memory-pressure
// invariance inside stages, explicit boundaries, and sim-mode scale-out.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "dist/hybrid_parallel.hpp"
#include "graph/zoo.hpp"
#include "train/trainer.hpp"

namespace {

using namespace sn;

core::RuntimeOptions parity_options() {
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = true;
  o.device_capacity = 32ull << 20;
  // Pin convolutions to the workspace-free algorithm: the dynamic choice
  // depends on free device memory, which legitimately differs between the
  // full-batch and microbatch runs.
  o.allow_workspace = false;
  return o;
}

train::TrainConfig parity_train_config(int iterations) {
  train::TrainConfig tc;
  tc.iterations = iterations;
  tc.lr = 0.05f;
  tc.momentum = 0.9f;
  return tc;
}

/// A plain pipeline is one replica column of the grid.
dist::HybridParallelConfig pipe_config(int stages, int microbatches, int global_batch,
                                       int iterations) {
  dist::HybridParallelConfig cfg;
  cfg.stages = stages;
  cfg.replicas = 1;
  cfg.microbatches = microbatches;
  cfg.global_batch = global_batch;
  cfg.cluster = sim::pcie_cluster_spec(stages);
  cfg.train = parity_train_config(iterations);
  return cfg;
}

/// Per-stage stats of one iteration: the single column of its cell grid.
std::vector<core::IterationStats> stage_stats(
    const std::vector<std::vector<core::IterationStats>>& grid) {
  std::vector<core::IterationStats> column;
  for (const auto& row : grid) column.push_back(row.front());
  return column;
}

void expect_params_match(core::Runtime& single, dist::HybridParallelTrainer& pipe) {
  // Every stage parameter must end bit-identical to its full-net namesake.
  for (int s = 0; s < pipe.stages(); ++s) {
    core::Runtime& rt = pipe.runtime(s, 0);
    for (const auto& l : rt.net().layers()) {
      for (const auto* p : l->params()) {
        const tensor::Tensor* ref = nullptr;
        for (const auto& ol : single.net().layers()) {
          for (const auto* op : ol->params()) {
            if (op->name() == p->name()) ref = op;
          }
        }
        ASSERT_NE(ref, nullptr) << p->name();
        EXPECT_EQ(single.read_tensor(ref), rt.read_tensor(p))
            << "stage " << s << " param " << p->name();
      }
    }
  }
}

TEST(PipelineParallel, TwoStagesFourMicrobatchesMatchSingleDeviceBitForBit) {
  const int kGlobalBatch = 8, kMicrobatches = 4, kIters = 5;
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  core::RuntimeOptions o = parity_options();
  train::TrainConfig tc = parity_train_config(kIters);

  // Single device, combined batch.
  auto net = factory(kGlobalBatch);
  core::Runtime rt(*net, o);
  train::Trainer trainer(rt, tc);
  auto single = trainer.run();

  // Two pipeline stages, microbatched.
  dist::HybridParallelTrainer pipe(factory, o, pipe_config(2, kMicrobatches, kGlobalBatch, kIters));
  auto piped = pipe.run();

  ASSERT_EQ(single.losses.size(), piped.losses.size());
  for (size_t i = 0; i < single.losses.size(); ++i) {
    EXPECT_EQ(single.losses[i], piped.losses[i]) << "iteration " << i;
  }
  expect_params_match(rt, pipe);
}

TEST(PipelineParallel, MicrobatchCountDoesNotChangeResults) {
  // Power-of-two microbatch sizes are subtrees of the same pairwise
  // reduction: M=2 and M=4 must produce identical trajectories.
  auto run = [&](int microbatches) {
    auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
    dist::HybridParallelTrainer pipe(factory, parity_options(), pipe_config(2, microbatches, 8, 4));
    return pipe.run().losses;
  };
  EXPECT_EQ(run(2), run(4));
}

TEST(PipelineParallel, FanJoinNetMatchesSingleDevice) {
  const int kGlobalBatch = 8, kIters = 4;
  auto factory = [](int batch) { return graph::build_tiny_fanjoin(batch); };
  core::RuntimeOptions o = parity_options();
  auto net = factory(kGlobalBatch);
  core::Runtime rt(*net, o);
  train::Trainer trainer(rt, parity_train_config(kIters));
  auto single = trainer.run();

  dist::HybridParallelTrainer pipe(factory, o, pipe_config(2, 2, kGlobalBatch, kIters));
  auto piped = pipe.run();
  ASSERT_EQ(single.losses.size(), piped.losses.size());
  for (size_t i = 0; i < single.losses.size(); ++i) {
    EXPECT_EQ(single.losses[i], piped.losses[i]) << "iteration " << i;
  }
  EXPECT_LT(piped.last_loss(), piped.first_loss());
}

TEST(PipelineParallel, ThreeStagesTrainAndLearn) {
  auto factory = [](int batch) { return graph::build_tiny_linear(batch, 16); };
  dist::HybridParallelTrainer pipe(factory, parity_options(), pipe_config(3, 4, 8, 10));
  auto rep = pipe.run();
  EXPECT_LT(rep.last_loss(), rep.first_loss());
  // All three stages moved activations/gradients over the fabric.
  for (const auto& st : stage_stats(rep.cell_stats.back())) EXPECT_GT(st.p2p_bytes, 0u);
}

TEST(PipelineParallel, MemoryPressureInsideStagesDoesNotChangeLosses) {
  // The paper's invariant, lifted across the pipeline: squeezing each
  // stage's pool (forcing offload/eviction/recompute inside stages) must
  // not change training results.
  auto run = [](uint64_t capacity) {
    auto factory = [](int batch) { return graph::build_tiny_linear(batch, 16); };
    core::RuntimeOptions o = parity_options();
    o.device_capacity = capacity;
    dist::HybridParallelTrainer pipe(factory, o, pipe_config(2, 2, 8, 5));
    return pipe.run().losses;
  };
  EXPECT_EQ(run(64ull << 20), run(1ull << 20));
}

TEST(PipelineParallel, ExplicitBoundaryOverrideIsUsed) {
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  auto probe = factory(4);
  graph::NetPartitioner part(*probe);
  const int cut = part.valid_cuts().front();

  auto cfg = pipe_config(2, 2, 8, 1);
  cfg.boundaries = {cut};
  dist::HybridParallelTrainer pipe(factory, parity_options(), cfg);
  ASSERT_EQ(pipe.plan().cuts.size(), 1u);
  EXPECT_EQ(pipe.plan().cuts[0], cut);
  EXPECT_EQ(static_cast<int>(pipe.stage_net(0, 0).num_layers()), cut);
  auto rep = pipe.run();
  EXPECT_EQ(rep.losses.size(), 1u);
}

TEST(PipelineParallel, BubbleFractionShrinksAsMicrobatchesGrow) {
  // GPipe bubble law: the fill/drain ramps cost ~(S-1) microbatch slots
  // regardless of M, so their fraction of the iteration falls as M rises.
  auto bubble_fraction = [](int microbatches) {
    auto factory = [](int batch) { return graph::build_mini_alexnet(batch); };
    core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
    o.real = false;
    auto cfg = pipe_config(2, microbatches, 32, 2);
    cfg.cluster = sim::nvlink_cluster_spec(2);
    dist::HybridParallelTrainer pipe(factory, o, cfg);
    auto rep = pipe.run();
    const auto& agg = rep.stats.back();
    EXPECT_GT(agg.bubble_seconds, 0.0);
    return agg.bubble_seconds / (2.0 * agg.seconds);
  };
  EXPECT_LT(bubble_fraction(8), bubble_fraction(2));
}

TEST(PipelineParallel, SimModeScalesToZooNets) {
  auto factory = [](int batch) { return graph::build_vgg(16, batch); };
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = false;
  auto cfg = pipe_config(4, 4, 64, 1);
  cfg.cluster = sim::nvlink_cluster_spec(4);
  dist::HybridParallelTrainer pipe(factory, o, cfg);
  auto rep = pipe.run();
  EXPECT_EQ(rep.losses[0], 0.0);  // unbacked: no numerics
  EXPECT_GT(rep.stats[0].seconds, 0.0);
  EXPECT_GT(rep.stats[0].p2p_bytes, 0u);
  EXPECT_GT(rep.stats[0].p2p_seconds, 0.0);
  ASSERT_EQ(rep.cell_stats[0].size(), 4u);
}

TEST(PipelineParallel, TelemetryIsVisiblePerStage) {
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  dist::HybridParallelTrainer pipe(factory, parity_options(), pipe_config(2, 4, 8, 2));
  auto rep = pipe.run();
  ASSERT_EQ(rep.stats.size(), 2u);
  ASSERT_EQ(rep.cell_stats[0].size(), 2u);
  // Stage 0 streams activations, stage 1 streams gradients: both send.
  for (const auto& st : stage_stats(rep.cell_stats[1])) {
    EXPECT_GT(st.p2p_bytes, 0u);
    EXPECT_GT(st.seconds, 0.0);
  }
  // The downstream stage idles during fill: its bubble must be visible.
  EXPECT_GT(stage_stats(rep.cell_stats[1])[1].bubble_seconds, 0.0);
  EXPECT_GT(rep.stats[1].bubble_seconds, 0.0);
  // Per-step telemetry is attributed to its cluster device and grid row.
  EXPECT_EQ(pipe.runtime(1, 0).step_telemetry().front().device_id, 1);
  EXPECT_EQ(pipe.runtime(1, 0).step_telemetry().front().stage, 1);
  EXPECT_EQ(pipe.runtime(1, 0).step_telemetry().front().replica, 0);
}

TEST(PipelineParallel, OneF1BMatchesSingleDeviceBitForBit) {
  // The schedule engine's flagship invariant: changing the EXECUTION ORDER
  // (PipeDream-flush instead of fill/drain) never changes training results
  // — gradients are snapshotted per microbatch and combined in ascending-m
  // pairwise order regardless of when each backward ran.
  const int kGlobalBatch = 8, kMicrobatches = 4, kIters = 5;
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  core::RuntimeOptions o = parity_options();

  auto net = factory(kGlobalBatch);
  core::Runtime rt(*net, o);
  train::Trainer trainer(rt, parity_train_config(kIters));
  auto single = trainer.run();

  auto cfg = pipe_config(2, kMicrobatches, kGlobalBatch, kIters);
  cfg.schedule = dist::SchedulePolicy::k1F1B;
  dist::HybridParallelTrainer pipe(factory, o, cfg);
  auto piped = pipe.run();

  ASSERT_EQ(single.losses.size(), piped.losses.size());
  for (size_t i = 0; i < single.losses.size(); ++i) {
    EXPECT_EQ(single.losses[i], piped.losses[i]) << "iteration " << i;
  }
  expect_params_match(rt, pipe);
}

TEST(PipelineParallel, OneF1BThreeStagesMatchGPipeBitForBit) {
  // Same net, same data, both policies: identical loss trajectories. A
  // deeper pipe (S=3) exercises warmup depths 2/1/0 and cooldown remat.
  auto run = [&](dist::SchedulePolicy pol) {
    auto factory = [](int batch) { return graph::build_tiny_linear(batch, 16); };
    auto cfg = pipe_config(3, 4, 8, 5);
    cfg.schedule = pol;
    dist::HybridParallelTrainer pipe(factory, parity_options(), cfg);
    return pipe.run().losses;
  };
  EXPECT_EQ(run(dist::SchedulePolicy::kGPipe), run(dist::SchedulePolicy::k1F1B));
}

TEST(PipelineParallel, OneF1BStashStaysStrictlyBelowGPipe) {
  // M > S: 1F1B's peak stashed-input footprint must be STRICTLY below
  // GPipe's all-M stash on every consuming stage — the memory half of the
  // PipeDream-flush win, measured on the trainer's real allocation.
  auto build = [&](dist::SchedulePolicy pol) {
    auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
    auto cfg = pipe_config(3, 8, 16, 1);
    cfg.schedule = pol;
    return std::make_unique<dist::HybridParallelTrainer>(factory, parity_options(), cfg);
  };
  auto gpipe = build(dist::SchedulePolicy::kGPipe);
  auto f1b = build(dist::SchedulePolicy::k1F1B);
  EXPECT_EQ(gpipe->stash_bytes(0), 0u);
  EXPECT_EQ(f1b->stash_bytes(0), 0u);
  for (int s = 1; s < 3; ++s) {
    EXPECT_GT(f1b->stash_bytes(s), 0u);
    EXPECT_LT(f1b->stash_bytes(s), gpipe->stash_bytes(s)) << "stage " << s;
  }
  // min(M, S - s + 1) slots vs M.
  EXPECT_EQ(f1b->schedule().peak_stash_slots(1), 3);
  EXPECT_EQ(f1b->schedule().peak_stash_slots(2), 2);
  EXPECT_EQ(gpipe->schedule().peak_stash_slots(1), 8);
}

TEST(PipelineParallel, OneF1BShrinksTheBubble) {
  // Steady-state 1F1B keeps every stage busy between warmup and cooldown:
  // with M >= 2S its bubble fraction lands strictly below GPipe's.
  auto bubble_fraction = [](dist::SchedulePolicy pol) {
    auto factory = [](int batch) { return graph::build_mini_alexnet(batch); };
    core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
    o.real = false;
    auto cfg = pipe_config(4, 8, 64, 2);
    cfg.cluster = sim::nvlink_cluster_spec(4);
    cfg.schedule = pol;
    dist::HybridParallelTrainer pipe(factory, o, cfg);
    auto rep = pipe.run();
    const auto& st = rep.stats.back();
    return st.bubble_seconds / (st.seconds * 4);
  };
  EXPECT_LT(bubble_fraction(dist::SchedulePolicy::k1F1B),
            bubble_fraction(dist::SchedulePolicy::kGPipe));
}

TEST(PipelineParallel, PhaseTelemetryAttributesTheBubble) {
  // The per-phase split must (a) sum to the total bubble and (b) show the
  // 1F1B steady state: the last stage never waits in fill under 1F1B once
  // warmup is folded into steady ops, while GPipe's fill wait is all kFill.
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  auto cfg = pipe_config(2, 4, 8, 2);
  cfg.schedule = dist::SchedulePolicy::k1F1B;
  dist::HybridParallelTrainer pipe(factory, parity_options(), cfg);
  auto rep = pipe.run();
  for (const auto& st : stage_stats(rep.cell_stats.back())) {
    EXPECT_DOUBLE_EQ(
        st.bubble_seconds,
        st.bubble_fill_seconds + st.bubble_steady_seconds + st.bubble_drain_seconds);
  }
  // Per-step telemetry carries the schedule phase and microbatch stamps.
  bool saw_phase = false;
  for (const auto& t : pipe.runtime(1, 0).step_telemetry()) {
    if (t.sched_phase >= 0) {
      saw_phase = true;
      EXPECT_GE(t.microbatch, 0);
    }
  }
  EXPECT_TRUE(saw_phase);
}

TEST(PipelineParallel, OneF1BWithPeerStagingKeepsResultsAndStages) {
  // Peer-memory staging under PipeDream-flush: the 1F1B stash retirement
  // (ascending-m backwards, stash slots recycled mid-iteration) interleaves
  // with stage-outs and fetch-backs on the same link, and neither training
  // results nor the staging bookkeeping may notice. mini-alexnet with an
  // early explicit cut leaves stage 0 pool-constrained and stage 1 with
  // donation slack.
  auto run = [](dist::SchedulePolicy pol, bool staging) {
    auto factory = [](int batch) { return graph::build_mini_alexnet(batch); };
    core::RuntimeOptions o = parity_options();
    o.recompute = core::RecomputeMode::kNone;
    o.use_liveness = false;
    o.device_capacity = 3ull << 18;
    auto cfg = pipe_config(2, 4, 32, 3);
    cfg.cluster = sim::nvlink_cluster_spec(2);
    cfg.boundaries = {9};
    cfg.schedule = pol;
    cfg.peer_staging = staging;
    dist::HybridParallelTrainer pipe(factory, o, cfg);
    auto rep = pipe.run();
    uint64_t staged = 0;
    for (int s = 0; s < pipe.stages(); ++s) {
      staged += pipe.runtime(s, 0).tensor_pool().peer_stage_count();
    }
    return std::tuple(rep.losses, staged);
  };
  auto [f1b_off, f1b_off_staged] = run(dist::SchedulePolicy::k1F1B, false);
  auto [f1b_on, f1b_on_staged] = run(dist::SchedulePolicy::k1F1B, true);
  auto [gpipe_on, gpipe_on_staged] = run(dist::SchedulePolicy::kGPipe, true);

  EXPECT_EQ(f1b_off_staged, 0u);
  EXPECT_GT(f1b_on_staged, 0u) << "1F1B run never exercised staging";
  EXPECT_GT(gpipe_on_staged, 0u) << "GPipe run never exercised staging";
  EXPECT_EQ(f1b_off, f1b_on) << "staging changed 1F1B training results";
  EXPECT_EQ(f1b_on, gpipe_on) << "schedules diverged under staging";
}

TEST(PipelineParallel, RejectsBadConfigs) {
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  core::RuntimeOptions o = parity_options();
  EXPECT_THROW(dist::HybridParallelTrainer(factory, o, pipe_config(2, 3, 8, 1)),
               std::invalid_argument);
  auto cfg = pipe_config(3, 2, 8, 1);
  cfg.boundaries = {2};  // 3 stages need 2 boundaries
  EXPECT_THROW(dist::HybridParallelTrainer(factory, o, cfg), std::invalid_argument);
  EXPECT_THROW(dist::HybridParallelTrainer(factory, o, pipe_config(0, 2, 8, 1)),
               std::invalid_argument);
}

}  // namespace
