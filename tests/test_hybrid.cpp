// HybridParallelTrainer tests. Flagship invariant: replicating pipeline
// stages over a 2D device grid NEVER changes training results — S-stage x
// R-replica x M-microbatch training is bit-identical to a single-device run
// over the combined batch (losses AND weights), composing the data-parallel
// and pipeline-parallel parity machinery (pairwise microbatch combine inside
// a replica, halving-doubling all-reduce across a stage's replicas). Plus:
// grid telemetry and its aggregation, memory-pressure invariance, and
// sim-mode scale-out. The degenerate 1 x N and S x 1 geometries have their
// own suites (test_dist, test_pipeline).
#include <gtest/gtest.h>

#include <algorithm>
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

dist::HybridParallelConfig hybrid_config(int stages, int replicas, int microbatches,
                                         int global_batch, int iterations) {
  dist::HybridParallelConfig cfg;
  cfg.stages = stages;
  cfg.replicas = replicas;
  cfg.microbatches = microbatches;
  cfg.global_batch = global_batch;
  cfg.cluster = sim::pcie_cluster_spec(stages * replicas);
  cfg.train = parity_train_config(iterations);
  return cfg;
}

void expect_params_match(core::Runtime& single, dist::HybridParallelTrainer& hyb) {
  // Every cell parameter must end bit-identical to its full-net namesake —
  // on every replica of every stage.
  for (int s = 0; s < hyb.stages(); ++s) {
    for (int r = 0; r < hyb.replicas(); ++r) {
      core::Runtime& rt = hyb.runtime(s, r);
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
              << "cell (" << s << ", " << r << ") param " << p->name();
        }
      }
    }
  }
}

TEST(HybridParallel, TwoByTwoGridFourMicrobatchesMatchSingleDeviceBitForBit) {
  const int kGlobalBatch = 8, kMicrobatches = 4, kIters = 5;
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  core::RuntimeOptions o = parity_options();
  train::TrainConfig tc = parity_train_config(kIters);

  // Single device, combined batch.
  auto net = factory(kGlobalBatch);
  core::Runtime rt(*net, o);
  train::Trainer trainer(rt, tc);
  auto single = trainer.run();

  // 2 stages x 2 replicas, each column microbatched 4 ways.
  dist::HybridParallelTrainer hyb(factory, o,
                                  hybrid_config(2, 2, kMicrobatches, kGlobalBatch, kIters));
  auto rep = hyb.run();

  ASSERT_EQ(single.losses.size(), rep.losses.size());
  for (size_t i = 0; i < single.losses.size(); ++i) {
    EXPECT_EQ(single.losses[i], rep.losses[i]) << "iteration " << i;
  }
  expect_params_match(rt, hyb);
}

TEST(HybridParallel, FourReplicaRowsUseHalvingDoublingAndStayExact) {
  // R = 4 exercises the >2-rank pairwise tree: only the halving-doubling
  // collective reproduces single-device bits at that width.
  const int kGlobalBatch = 8, kIters = 4;
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  core::RuntimeOptions o = parity_options();

  auto net = factory(kGlobalBatch);
  core::Runtime rt(*net, o);
  train::Trainer trainer(rt, parity_train_config(kIters));
  auto single = trainer.run();

  dist::HybridParallelTrainer hyb(factory, o, hybrid_config(2, 4, 2, kGlobalBatch, kIters));
  auto rep = hyb.run();
  ASSERT_EQ(single.losses.size(), rep.losses.size());
  for (size_t i = 0; i < single.losses.size(); ++i) {
    EXPECT_EQ(single.losses[i], rep.losses[i]) << "iteration " << i;
  }
  expect_params_match(rt, hyb);
}

TEST(HybridParallel, FanJoinNetMatchesSingleDevice) {
  const int kGlobalBatch = 8, kIters = 4;
  auto factory = [](int batch) { return graph::build_tiny_fanjoin(batch); };
  core::RuntimeOptions o = parity_options();
  auto net = factory(kGlobalBatch);
  core::Runtime rt(*net, o);
  train::Trainer trainer(rt, parity_train_config(kIters));
  auto single = trainer.run();

  dist::HybridParallelTrainer hyb(factory, o, hybrid_config(2, 2, 2, kGlobalBatch, kIters));
  auto rep = hyb.run();
  ASSERT_EQ(single.losses.size(), rep.losses.size());
  for (size_t i = 0; i < single.losses.size(); ++i) {
    EXPECT_EQ(single.losses[i], rep.losses[i]) << "iteration " << i;
  }
  EXPECT_LT(rep.last_loss(), rep.first_loss());
}

TEST(HybridParallel, ReplicasStayInBitwiseLockstep) {
  auto factory = [](int batch) { return graph::build_tiny_linear(batch, 16); };
  dist::HybridParallelTrainer hyb(factory, parity_options(), hybrid_config(2, 2, 2, 8, 12));
  auto rep = hyb.run();
  EXPECT_LT(rep.last_loss(), rep.first_loss());
  for (int s = 0; s < 2; ++s) {
    const auto& l0 = hyb.runtime(s, 0).net().layers();
    const auto& l1 = hyb.runtime(s, 1).net().layers();
    ASSERT_EQ(l0.size(), l1.size());
    for (size_t li = 0; li < l0.size(); ++li) {
      const auto& p0 = l0[li]->params();
      const auto& p1 = l1[li]->params();
      ASSERT_EQ(p0.size(), p1.size());
      for (size_t pi = 0; pi < p0.size(); ++pi) {
        EXPECT_EQ(hyb.runtime(s, 0).read_tensor(p0[pi]), hyb.runtime(s, 1).read_tensor(p1[pi]))
            << "stage " << s << " param " << p0[pi]->name();
      }
    }
  }
}

TEST(HybridParallel, MemoryPressureInsideCellsDoesNotChangeLosses) {
  // The paper's invariant, lifted across BOTH axes: squeezing every cell's
  // pool (forcing offload/eviction/recompute inside cells) must not change
  // training results.
  auto run = [](uint64_t capacity) {
    auto factory = [](int batch) { return graph::build_tiny_linear(batch, 16); };
    core::RuntimeOptions o = parity_options();
    o.device_capacity = capacity;
    dist::HybridParallelTrainer hyb(factory, o, hybrid_config(2, 2, 2, 8, 5));
    return hyb.run().losses;
  };
  EXPECT_EQ(run(64ull << 20), run(1ull << 20));
}

TEST(HybridParallel, GridTelemetryIsVisiblePerCell) {
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  dist::HybridParallelTrainer hyb(factory, parity_options(), hybrid_config(2, 2, 2, 8, 2));
  auto rep = hyb.run();
  ASSERT_EQ(rep.stats.size(), 2u);
  ASSERT_EQ(rep.cell_stats[0].size(), 2u);
  ASSERT_EQ(rep.cell_stats[0][0].size(), 2u);
  for (int s = 0; s < 2; ++s) {
    for (int r = 0; r < 2; ++r) {
      const auto& st = rep.cell_stats.back()[static_cast<size_t>(s)][static_cast<size_t>(r)];
      // Every cell streams activations or gradients AND all-reduce hops.
      EXPECT_GT(st.p2p_bytes, 0u) << "cell (" << s << ", " << r << ")";
      EXPECT_GT(st.allreduce_seconds, 0.0) << "cell (" << s << ", " << r << ")";
      EXPECT_GT(st.seconds, 0.0);
      // Per-step telemetry carries the full grid coordinates.
      const auto& tele = hyb.runtime(s, r).step_telemetry().front();
      EXPECT_EQ(tele.device_id, hyb.grid().device(s, r));
      EXPECT_EQ(tele.stage, s);
      EXPECT_EQ(tele.replica, r);
    }
  }
  // The downstream stage idles during fill: its bubble must be visible.
  EXPECT_GT(rep.stats[1].bubble_seconds, 0.0);
  EXPECT_GT(rep.stats[1].allreduce_seconds, 0.0);
}

TEST(HybridParallel, GridAggregateSumsEveryCellCounter) {
  // Pool-constrained 2 x 2 grid with peer staging: every cell evicts,
  // refetches, hits its tensor cache and stages over P2P. The grid aggregate
  // must carry each additive counter as the sum over its cells and each peak
  // as the max — no counter may be silently dropped.
  auto factory = [](int batch) { return graph::build_mini_alexnet(batch); };
  core::RuntimeOptions o = parity_options();
  o.recompute = core::RecomputeMode::kNone;
  o.use_liveness = false;
  o.device_capacity = 3ull << 18;
  auto cfg = hybrid_config(2, 2, 2, 32, 2);
  cfg.cluster = sim::nvlink_cluster_spec(4);
  cfg.boundaries = {9};
  cfg.peer_staging = true;
  dist::HybridParallelTrainer hyb(factory, o, cfg);
  auto rep = hyb.run();

  for (size_t it = 0; it < rep.stats.size(); ++it) {
    core::IterationStats sum;
    for (const auto& row : rep.cell_stats[it]) {
      for (const auto& c : row) {
        sum.peak_mem = std::max(sum.peak_mem, c.peak_mem);
        sum.host_peak = std::max(sum.host_peak, c.host_peak);
        sum.bytes_d2h += c.bytes_d2h;
        sum.bytes_h2d += c.bytes_h2d;
        sum.extra_forwards += c.extra_forwards;
        sum.evictions += c.evictions;
        sum.cache_hits += c.cache_hits;
        sum.cache_misses += c.cache_misses;
        sum.allocs += c.allocs;
        sum.malloc_seconds += c.malloc_seconds;
        sum.dma_copies += c.dma_copies;
        sum.d2h_seconds += c.d2h_seconds;
        sum.h2d_seconds += c.h2d_seconds;
        sum.peer_stage_count += c.peer_stage_count;
        sum.peer_stage_bytes += c.peer_stage_bytes;
        sum.peer_fetch_count += c.peer_fetch_count;
        sum.peer_spill_count += c.peer_spill_count;
        sum.p2p_bytes += c.p2p_bytes;
        sum.p2p_seconds += c.p2p_seconds;
        sum.bubble_seconds += c.bubble_seconds;
      }
    }
    const core::IterationStats& agg = rep.stats[it];
    EXPECT_EQ(agg.peak_mem, sum.peak_mem) << "iteration " << it;
    EXPECT_EQ(agg.host_peak, sum.host_peak);
    EXPECT_EQ(agg.bytes_d2h, sum.bytes_d2h);
    EXPECT_EQ(agg.bytes_h2d, sum.bytes_h2d);
    EXPECT_EQ(agg.extra_forwards, sum.extra_forwards);
    EXPECT_EQ(agg.evictions, sum.evictions);
    EXPECT_EQ(agg.cache_hits, sum.cache_hits);
    EXPECT_EQ(agg.cache_misses, sum.cache_misses);
    EXPECT_EQ(agg.allocs, sum.allocs);
    EXPECT_EQ(agg.malloc_seconds, sum.malloc_seconds);
    EXPECT_EQ(agg.dma_copies, sum.dma_copies);
    EXPECT_EQ(agg.d2h_seconds, sum.d2h_seconds);
    EXPECT_EQ(agg.h2d_seconds, sum.h2d_seconds);
    EXPECT_EQ(agg.peer_stage_count, sum.peer_stage_count);
    EXPECT_EQ(agg.peer_stage_bytes, sum.peer_stage_bytes);
    EXPECT_EQ(agg.peer_fetch_count, sum.peer_fetch_count);
    EXPECT_EQ(agg.peer_spill_count, sum.peer_spill_count);
    EXPECT_EQ(agg.p2p_bytes, sum.p2p_bytes);
    EXPECT_EQ(agg.p2p_seconds, sum.p2p_seconds);
    EXPECT_EQ(agg.bubble_seconds, sum.bubble_seconds);
    // The geometry must actually exercise the counters it pins.
    EXPECT_GT(sum.evictions, 0u);
    EXPECT_GT(sum.cache_hits, 0u);
    EXPECT_GT(sum.cache_misses, 0u);
    EXPECT_GT(sum.d2h_seconds, 0.0);
    EXPECT_GT(sum.h2d_seconds, 0.0);
    EXPECT_GT(sum.peer_stage_count, 0u);
  }
}

TEST(HybridParallel, SimModeScalesToZooNets) {
  auto factory = [](int batch) { return graph::build_vgg(16, batch); };
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = false;
  auto cfg = hybrid_config(2, 4, 2, 64, 1);
  cfg.cluster = sim::nvlink_cluster_spec(8);
  dist::HybridParallelTrainer hyb(factory, o, cfg);
  auto rep = hyb.run();
  EXPECT_EQ(rep.losses[0], 0.0);  // unbacked: no numerics
  EXPECT_GT(rep.stats[0].seconds, 0.0);
  EXPECT_GT(rep.stats[0].p2p_bytes, 0u);
  EXPECT_GT(rep.stats[0].allreduce_seconds, 0.0);
  ASSERT_EQ(rep.cell_stats[0].size(), 2u);
  ASSERT_EQ(rep.cell_stats[0][0].size(), 4u);
}

TEST(HybridParallel, OneF1BBucketedAllreduceMatchesSingleDeviceBitForBit) {
  // 2 x 2 x 4 under PipeDream-flush WITH asynchronous bucketed all-reduce:
  // the schedule engine changes execution order and the update splits into
  // chained sub-group collectives, yet losses AND weights must still be
  // bit-identical to the single-device run — bucketing slices the fused
  // vector, and each element's halving-doubling rank-combine tree is
  // independent of segmentation.
  const int kGlobalBatch = 8, kMicrobatches = 4, kIters = 5;
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  core::RuntimeOptions o = parity_options();

  auto net = factory(kGlobalBatch);
  core::Runtime rt(*net, o);
  train::Trainer trainer(rt, parity_train_config(kIters));
  auto single = trainer.run();

  auto cfg = hybrid_config(2, 2, kMicrobatches, kGlobalBatch, kIters);
  cfg.schedule = dist::SchedulePolicy::k1F1B;
  cfg.bucket_bytes = 256;  // tiny buckets: force a real multi-bucket chain
  dist::HybridParallelTrainer hyb(factory, o, cfg);
  auto rep = hyb.run();

  for (int s = 0; s < 2; ++s) EXPECT_GT(hyb.buckets(s), 1) << "stage " << s;
  ASSERT_EQ(single.losses.size(), rep.losses.size());
  for (size_t i = 0; i < single.losses.size(); ++i) {
    EXPECT_EQ(single.losses[i], rep.losses[i]) << "iteration " << i;
  }
  expect_params_match(rt, hyb);
}

TEST(HybridParallel, BucketSizeDoesNotChangeResults) {
  // One mega-bucket vs many tiny buckets: identical trajectories. The
  // bucket axis is pure overlap mechanics, never numerics.
  auto run = [](uint64_t bucket_bytes) {
    auto factory = [](int batch) { return graph::build_tiny_linear(batch, 16); };
    auto cfg = hybrid_config(2, 2, 4, 8, 4);
    cfg.schedule = dist::SchedulePolicy::k1F1B;
    cfg.bucket_bytes = bucket_bytes;
    dist::HybridParallelTrainer hyb(factory, parity_options(), cfg);
    return hyb.run().losses;
  };
  EXPECT_EQ(run(64ull << 20), run(128));
}

TEST(HybridParallel, OneF1BMatchesGPipeTrajectoryAndShrinksTheStash) {
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  auto make = [&](dist::SchedulePolicy pol) {
    auto cfg = hybrid_config(2, 2, 4, 8, 4);
    cfg.schedule = pol;
    return std::make_unique<dist::HybridParallelTrainer>(factory, parity_options(), cfg);
  };
  auto gpipe = make(dist::SchedulePolicy::kGPipe);
  auto f1b = make(dist::SchedulePolicy::k1F1B);
  // M=4 > S=2: 1F1B stashes min(M, S-s+1) = 2 slots, GPipe all 4.
  EXPECT_LT(f1b->stash_bytes(1), gpipe->stash_bytes(1));
  EXPECT_EQ(gpipe->run().losses, f1b->run().losses);
}

TEST(HybridParallel, OneF1BOverlapExposesLessAllreduceInSim) {
  // The overlap telemetry itself: with bucketed async all-reduce issued at
  // each stage's last backward, the exposed (non-overlapped) collective
  // time must not exceed the synchronous GPipe update's exposure.
  auto exposed = [](dist::SchedulePolicy pol) {
    auto factory = [](int batch) { return graph::build_vgg(16, batch); };
    core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
    o.real = false;
    dist::HybridParallelConfig cfg;
    cfg.stages = 4;
    cfg.replicas = 2;
    cfg.microbatches = 8;
    cfg.global_batch = 64;
    cfg.cluster = sim::pcie_cluster_spec(8);
    cfg.train = parity_train_config(2);
    cfg.schedule = pol;
    dist::HybridParallelTrainer hyb(factory, o, cfg);
    auto rep = hyb.run();
    return rep.stats.back().allreduce_exposed_seconds;
  };
  const double sync_exposed = exposed(dist::SchedulePolicy::kGPipe);
  const double overlap_exposed = exposed(dist::SchedulePolicy::k1F1B);
  EXPECT_GT(sync_exposed, 0.0);
  EXPECT_LT(overlap_exposed, sync_exposed);
}

TEST(HybridParallel, RejectsBadConfigs) {
  auto factory = [](int batch) { return graph::build_tiny_linear(batch); };
  core::RuntimeOptions o = parity_options();
  // Batch does not divide across replicas.
  EXPECT_THROW(dist::HybridParallelTrainer(factory, o, hybrid_config(2, 3, 1, 8, 1)),
               std::invalid_argument);
  // Shard does not divide into microbatches.
  EXPECT_THROW(dist::HybridParallelTrainer(factory, o, hybrid_config(2, 2, 3, 8, 1)),
               std::invalid_argument);
  // Boundary count must be stages - 1.
  auto cfg = hybrid_config(3, 2, 2, 8, 1);
  cfg.boundaries = {2};
  EXPECT_THROW(dist::HybridParallelTrainer(factory, o, cfg), std::invalid_argument);
  EXPECT_THROW(dist::HybridParallelTrainer(factory, o, hybrid_config(0, 2, 2, 8, 1)),
               std::invalid_argument);
}

}  // namespace
