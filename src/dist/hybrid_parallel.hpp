// dist::HybridParallelTrainer — the one distributed trainer: pipeline stages
// replicated across a second cluster axis.
//
// The cluster's S*R devices form a sim::GridView — S pipeline-stage rows by
// R replica columns. The net is cut into S stages (graph::NetPartitioner,
// memory-aware: every stage must fit its pool even at the full-offload
// floor) and each stage is instantiated R times, one Runtime per grid cell:
//
//                     replica 0   replica 1  ...  replica R-1
//        stage 0      dev 0       dev 1           dev R-1       ─┐ activations
//        stage 1      dev R       dev R+1          ...           ─┘ stream down
//          ...                                                      columns
//        stage S-1    ...                          dev S*R-1
//                     └────────── per-stage all-reduce ───────┘
//
// Every geometry is a grid shape: data parallelism over N devices is
// {stages=1, replicas=N, microbatches=1}; a plain S-stage pipeline is
// {stages=S, replicas=1}. Each cell runs the paper's full single-GPU
// schedule (liveness, unified tensor pool, tensor cache, recompute, dynamic
// workspaces) on its share of the work.
//
// Each global batch is split across the R replica columns (contiguous
// shards), and each shard into M microbatches driven through the column's
// ScheduleEngine op list under the configured SchedulePolicy:
//
//   kGPipe: fill (every stage forwards microbatch 0..M-1, streaming the
//          boundary activation to its successor over
//          TransferEngine::submit_p2p; a stage's forward for microbatch m is
//          gated on the virtual landing event of that activation, so the
//          classic fill ramp and its bubble fall out of virtual time) then
//          drain (microbatches retire newest-first; a stage REMATERIALIZES
//          older forwards from its stashed boundary input, receives the
//          output gradient, runs backward, and streams the input gradient
//          upstream). The row all-reduce and SGD follow the drain.
//   k1F1B: PipeDream-flush — warmup forwards, then one-forward-one-backward
//          steady state (backwards retire in ASCENDING microbatch order),
//          then cooldown. Smaller bubble, a stash of at most min(M, S-s+1)
//          microbatch inputs instead of all M, and each stage's fused
//          gradient all-reduces bucket by bucket as soon as its last
//          microbatch retires, overlapping the upstream drain.
//
// Cell (s, r) talks only to (s±1, r) down its column. The gradient update
// runs per stage row: the R replicas all-reduce their fused gradients over
// a SUB-GROUP Communicator spanning just that row — S independent
// collectives on disjoint links — and then every cell steps SGD. A cell's
// IterationStats::seconds therefore covers its forward/backward passes, the
// all-reduce and the SGD step.
//
// Bit-parity: loss gradients are scaled by the GLOBAL batch and every batch
// reduction in the kernels is a pairwise tree (util/pairwise.hpp).
// Per-microbatch gradients combine pairwise in ascending microbatch order
// REGARDLESS of backward execution order, so a replica's gradient is one
// contiguous-shard subtree of the full-batch reduction; the per-stage
// all-reduce (kAuto: recursive halving-doubling for power-of-two R)
// combines the R subtrees in ascending rank order — the same binary-counter
// pairwise tree a single device builds. So S x R x M training is
// bit-identical (losses AND weights) to single-device training on the
// combined batch for power-of-two geometry, under both policies — the
// paper's "scheduling never changes training results" invariant, extended
// across BOTH cluster axes at once. Non-power-of-two R falls back to the
// ring: deterministic and replicas in bitwise lockstep, but final-ulp
// rounding vs single-device may differ. Per-sample kernels only (no
// BatchNorm batch statistics, no dropout — both couple results to a
// sample's position inside the local batch).
//
// Determinism: the trainer is single-threaded; every cross-cell dependency
// is an explicit virtual event (receivers machine-wait it; wall-clock bytes
// gate separately on TransferEngine::await_landing), so the schedule is
// bit-reproducible regardless of DMA-worker timing.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/peer_staging.hpp"
#include "core/runtime.hpp"
#include "dist/communicator.hpp"
#include "dist/schedule_engine.hpp"
#include "graph/partitioner.hpp"
#include "obs/cost_profile.hpp"
#include "obs/trace.hpp"
#include "sim/cluster.hpp"
#include "train/dataset.hpp"
#include "train/trainer.hpp"

namespace sn::dist {

struct HybridParallelConfig {
  int stages = 2;              ///< pipeline depth S (grid rows)
  int replicas = 2;            ///< replication width R (grid columns)
  int microbatches = 2;        ///< per replica column; must divide the shard
  int global_batch = 8;        ///< split across replicas, then microbatches
  SchedulePolicy schedule = SchedulePolicy::kGPipe;
  /// k1F1B only: a stage's fused gradient splits into ceil(bytes /
  /// bucket_bytes) buckets whose row all-reduces issue asynchronously as
  /// the stage's last microbatch retires, overlapping the remaining drain
  /// (DDP-style bucketing). kGPipe issues each stage's whole gradient as one
  /// bucket after the drain; both then share the same await + SGD tail.
  uint64_t bucket_bytes = 4ull << 20;
  /// Explicit route cut positions (NetPartitioner::partition_at); empty =
  /// cost- and memory-balanced automatic partition.
  std::vector<int> boundaries;
  /// Profile-guided partitioning: observed per-layer seconds from a prior
  /// traced run replace the analytic roofline in the cut balance. Must
  /// outlive the trainer. Null (default) keeps cuts — and therefore every
  /// schedule — byte-identical to the analytic path.
  const obs::CostProfile* cost_profile = nullptr;
  /// Peer-memory staging (core::PeerStagingGroup): evictions may ride idle
  /// P2P links into a peer cell's pool instead of the D2H uplink, each cell
  /// donating at most peer_donation_bytes of its pool to staged guests.
  /// Off by default: with it off, every existing schedule is byte-identical
  /// to previous releases; with it on, numerics are still bit-identical
  /// (staging only re-routes copies), only the virtual timeline changes.
  bool peer_staging = false;
  uint64_t peer_donation_bytes = 1ull << 30;
  sim::ClusterSpec cluster;    ///< device + link preset; .devices is overridden to S*R
  train::TrainConfig train;    ///< iterations / lr / momentum / seed
};

struct HybridParallelReport {
  std::vector<double> losses;               ///< combined global-batch loss
  std::vector<core::IterationStats> stats;  ///< grid-aggregate per iteration
  /// Per-cell stats: cell_stats[iter][stage][replica].
  std::vector<std::vector<std::vector<core::IterationStats>>> cell_stats;

  double first_loss() const { return losses.empty() ? 0.0 : losses.front(); }
  double last_loss() const { return losses.empty() ? 0.0 : losses.back(); }
};

class HybridParallelTrainer {
 public:
  /// Builds the FULL net at a given batch size; the trainer partitions it
  /// and rebuilds per-stage nets at the microbatch size, R copies each.
  using NetFactory = std::function<std::unique_ptr<graph::Net>(int batch)>;

  /// `base` supplies the runtime policy for every cell; its spec / cluster /
  /// device_id / stage / replica / loss_batch fields are overwritten per
  /// cell. S=1 is (microbatched) data parallelism, R=1 the plain pipeline.
  HybridParallelTrainer(const NetFactory& factory, core::RuntimeOptions base,
                        HybridParallelConfig cfg);

  /// Run cfg.train.iterations hybrid rounds on synthetic data.
  HybridParallelReport run();

  int stages() const { return cfg_.stages; }
  int replicas() const { return cfg_.replicas; }
  int microbatches() const { return cfg_.microbatches; }
  int microbatch_size() const { return microbatch_; }
  int shard_batch() const { return shard_; }
  const ScheduleEngine& schedule() const { return *sched_; }
  /// Fused-gradient bucket count for `stage` (1 even when empty).
  int buckets(int stage) const { return buckets_[static_cast<size_t>(stage)]; }
  /// Stash bytes allocated per cell of `stage` (0 for stage 0).
  uint64_t stash_bytes(int stage) const;
  const graph::PartitionPlan& plan() const { return plan_; }
  core::Runtime& runtime(int stage, int replica) { return *runtimes_[cell(stage, replica)]; }
  graph::Net& stage_net(int stage, int replica) { return *stage_nets_[cell(stage, replica)]; }
  sim::Cluster& cluster() { return cluster_; }
  sim::GridView& grid() { return grid_; }
  Communicator& stage_communicator(int stage) { return *comms_[static_cast<size_t>(stage)]; }
  core::PeerStagingGroup& staging_group() { return staging_group_; }

  /// Attach a trace session: one recorder per grid device (ids stamped with
  /// the cell's stage/replica), hooked into the cell machines. Pass nullptr
  /// to detach. Recording is wall-clock-only — the replayed schedule and all
  /// numerics are unchanged (pinned by test_trace).
  void attach_trace(obs::TraceSession* session);

 private:
  /// Flat cell index, stage-major — matches sim::GridView device numbering.
  size_t cell(int stage, int replica) const {
    return static_cast<size_t>(stage) * static_cast<size_t>(cfg_.replicas) +
           static_cast<size_t>(replica);
  }
  core::TransferEngine& engine(int s, int r) {
    return runtimes_[cell(s, r)]->tensor_pool().engine();
  }
  float* device_ptr(int s, int r, const tensor::Tensor* t) {
    return runtimes_[cell(s, r)]->tensor_pool().device_ptr(t);
  }
  /// Stream cell (s, r)'s boundary activation of microbatch `m` down its
  /// column into the successor cell's stash slot `slot`.
  void send_activation(int s, int r, int m, int slot);
  /// Gate cell (s, r)'s forward on the activation landing; returns the
  /// compute-stall delta (the bubble share of this wait). `phase`/`m` label
  /// the recorded stall span (SchedulePhase as int; trace-only).
  double receive_activation(int s, int r, int phase, int m);
  void send_gradient(int s, int r);
  double receive_gradient(int s, int r, int phase, int m);
  /// Retire sender-side bookkeeping of streamed transfers (opportunistic;
  /// forced at iteration end).
  void retire_streams(bool force);
  /// Issue bucket `bucket` of `nbuckets` of stage `s`'s row all-reduce
  /// (async; the caller awaits). Bucket 0 first combines each replica's
  /// microbatch gradient snapshots pairwise into its fused buffer.
  AllreduceHandle issue_allreduce(int s, int bucket, int nbuckets);

  HybridParallelConfig cfg_;
  bool real_;
  int shard_;       ///< per-replica batch = global_batch / replicas
  int microbatch_;  ///< per-microbatch batch = shard / microbatches
  std::unique_ptr<graph::Net> full_;  ///< probe net (microbatch size) the plan is cut from
  graph::PartitionPlan plan_;
  sim::Cluster cluster_;
  sim::GridView grid_;
  /// Declared before runtimes_: pools detach from the group in their
  /// destructors, so the group must outlive them.
  core::PeerStagingGroup staging_group_;
  std::vector<std::unique_ptr<graph::Net>> stage_nets_;      ///< [cell]
  std::vector<std::unique_ptr<core::Runtime>> runtimes_;     ///< [cell]
  std::vector<std::unique_ptr<Communicator>> comms_;         ///< [stage] replica-row groups
  std::optional<train::SyntheticDataset> dataset_;  ///< real mode only
  std::vector<float> batch_data_;
  std::vector<int32_t> batch_labels_;

  // Boundary tensors per cell (link s -> s+1 within a column; null on the
  // last stage row / first stage row respectively):
  std::vector<tensor::Tensor*> out_t_;       ///< cell (s,r): boundary activation (pinned)
  std::vector<tensor::Tensor*> out_grad_t_;  ///< cell (s,r): its gradient, landed from (s+1,r)
  std::vector<tensor::Tensor*> in_t_;        ///< cell (s,r): synthetic STAGE_IN tensor
  std::vector<tensor::Tensor*> in_grad_t_;   ///< cell (s,r): input gradient, streamed to (s-1,r)
  /// Cell (s,r)'s stashed boundary inputs, one per live stash SLOT (sized
  /// by ScheduleEngine::peak_stash_slots) — both the P2P landing site and
  /// the re-materialization source (real mode). Slot == microbatch under
  /// GPipe.
  std::vector<std::vector<std::vector<float>>> stash_;  ///< [cell][slot]

  /// In-flight (event, tag) FIFOs per cell link: sends push, receives pop —
  /// a link's transfers are consumed in ascending microbatch order under
  /// both policies.
  std::vector<std::deque<std::pair<sim::Event, uint64_t>>> act_q_, grad_q_;
  std::vector<std::pair<size_t, uint64_t>> in_flight_;  ///< (sender cell, tag) to retire

  /// Shared column-schedule engine (built once grad geometry fixes the
  /// per-stage bucket counts).
  std::unique_ptr<ScheduleEngine> sched_;
  std::vector<int> buckets_;  ///< [stage] fused-gradient bucket count

  /// Param-grad tensors per cell in net order (identical across a stage's
  /// replicas), per-microbatch gradient snapshots combined pairwise at drain
  /// end, and the fused flat buffers the per-stage all-reduce runs over
  /// (real mode).
  std::vector<std::vector<tensor::Tensor*>> grads_;          ///< [cell]
  std::vector<uint64_t> grad_elems_;                         ///< [stage]
  std::vector<std::vector<std::vector<float>>> grad_stash_;  ///< [cell][microbatch]
  std::vector<std::vector<float>> fused_;                    ///< [cell]

  uint64_t next_tag_ = 1;
};

}  // namespace sn::dist
