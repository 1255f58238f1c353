// Per-step and per-iteration telemetry the benches read.
//
// Fig. 10 plots stepwise memory and live-tensor counts; Table 3 reads
// communication volumes; Fig. 12 reads per-CONV workspace assignments. All
// of that is captured here rather than printf'd, so tests can assert on it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "nn/conv.hpp"

namespace sn::graph {
class Layer;
}

namespace sn::core {

struct StepTelemetry {
  int step = -1;
  const graph::Layer* layer = nullptr;
  bool forward = true;
  int device_id = 0;           ///< cluster device the step ran on (dist/)
  int stage = 0;               ///< pipeline-stage row on the (stage, replica) grid
  int replica = 0;             ///< replica column on the (stage, replica) grid
  /// Column-schedule position (dist/ trainers; -1 off-pipeline): phase is a
  /// dist::SchedulePhase value (0 fill / 1 steady / 2 drain), microbatch the
  /// microbatch index the pass belonged to — so 1F1B's steady state is
  /// visible per step, not just in aggregate bubble time.
  int sched_phase = -1;
  int microbatch = -1;

  uint64_t mem_in_use = 0;     ///< device bytes live right after the kernel
  uint64_t live_tensors = 0;   ///< tensors resident on device at that point
  double clock = 0.0;          ///< virtual time when the step completed

  // Convolution workspace decision (0 / kDirect for non-conv steps).
  nn::ConvAlgo algo = nn::ConvAlgo::kDirect;
  uint64_t ws_assigned = 0;
  uint64_t ws_max_speed = 0;

  // Unified Tensor Pool / TransferEngine state right after the kernel
  // (§3.3.1): host-pool pressure plus cumulative transfer counters, so tests
  // can observe offloads/prefetches completing — including on the DMA thread
  // when the real async engine is active.
  uint64_t host_in_use = 0;          ///< host-pool bytes in use (offloaded tensors;
                                     ///< in real+async mode also the engine's
                                     ///< pinned staging carve-out: a 2x256 KiB
                                     ///< double buffer per PCIe-direction worker)
  uint64_t host_peak = 0;            ///< host-pool peak bytes so far
  uint64_t d2h_submitted = 0;        ///< cumulative offload submissions
  uint64_t h2d_submitted = 0;        ///< cumulative prefetch/fetch submissions
  uint64_t d2h_completed = 0;        ///< cumulative retired offloads
  uint64_t h2d_completed = 0;        ///< cumulative retired prefetches/fetches
  uint64_t dma_copies = 0;           ///< cumulative memcpys done on DMA worker threads
  uint64_t transfers_in_flight = 0;  ///< pending transfers at step end (both directions)
  uint64_t d2h_in_flight = 0;        ///< pending offloads at step end
  uint64_t h2d_in_flight = 0;        ///< pending prefetches/fetches at step end
  // Per-stream DMA-engine occupancy (cumulative virtual seconds each copy
  // engine spent busy): the raw material of the paper's overlap claim —
  // compute_time vs these says how much transfer the schedule hid.
  double d2h_busy_seconds = 0.0;
  double h2d_busy_seconds = 0.0;
  /// Cumulative link seconds this device's P2P sends occupied (pipeline
  /// activation streaming / collective hops; 0 off-cluster).
  double p2p_busy_seconds = 0.0;
  /// Cumulative compute-stream seconds; the delta between consecutive steps
  /// is the compute the overlap figure plots the busy-seconds series against.
  double compute_seconds = 0.0;
};

struct IterationStats {
  double loss = 0.0;
  /// Raw (unnormalized) NLL sum over this runtime's batch. Data-parallel
  /// replicas recombine these pairwise into a global loss that matches a
  /// single-device run bit for bit; means cannot be recombined exactly.
  double loss_sum = 0.0;
  double seconds = 0.0;         ///< virtual wall time of the iteration
  uint64_t peak_mem = 0;        ///< max device bytes in use during the iteration
  uint64_t bytes_d2h = 0;
  uint64_t bytes_h2d = 0;
  uint64_t extra_forwards = 0;  ///< recomputation replays
  uint64_t evictions = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t allocs = 0;
  double malloc_seconds = 0.0;  ///< compute time lost to allocator latency
  double stall_seconds = 0.0;   ///< compute time lost waiting on DMA
  uint64_t host_peak = 0;       ///< host-pool peak bytes so far (lifetime high
                                ///< water mark — a peak is monotone, unlike the
                                ///< per-iteration deltas above)
  // Peer-memory staging (zero unless a PeerStagingGroup is attached).
  uint64_t peer_stage_count = 0;  ///< evictions routed into a peer pool over P2P
  uint64_t peer_stage_bytes = 0;  ///< bytes those evictions kept off the D2H uplink
  uint64_t peer_fetch_count = 0;  ///< staged tensors fetched back over P2P
  uint64_t peer_spill_count = 0;  ///< staged tensors the hosting peer spilled to
                                  ///< the owner's host pool under its own pressure
  uint64_t dma_copies = 0;      ///< DMA-worker memcpys this iteration (async engine)
  // Per-stream copy-engine occupancy this iteration (virtual seconds the H2D
  // and D2H engines spent busy). With dual engines their sum can exceed the
  // mixed-traffic span — that surplus is exactly the offload/prefetch
  // overlap the multi-stream engine buys.
  double d2h_seconds = 0.0;
  double h2d_seconds = 0.0;

  // Collective telemetry, filled by dist::HybridParallelTrainer (zero for
  // single-device training).
  uint64_t p2p_bytes = 0;          ///< bytes this device sent over peer links
  double allreduce_seconds = 0.0;  ///< device time inside the gradient all-reduce

  /// All-reduce virtual time NOT hidden behind the pipeline drain: how far
  /// past the grid-wide drain end the last row's collective ran (aggregate
  /// stats only; dist::HybridParallelTrainer). Bucketed-async 1F1B shrinks
  /// this — the overlap win the hybrid bench gates on.
  double allreduce_exposed_seconds = 0.0;

  // Pipeline telemetry, filled by dist::HybridParallelTrainer when it runs
  // more than one stage (zero elsewhere).
  double p2p_seconds = 0.0;     ///< link seconds occupied by this device's sends
  double bubble_seconds = 0.0;  ///< compute time stalled waiting on a pipeline
                                ///< neighbor (fill/drain bubbles)
  /// bubble_seconds split by schedule phase (fill / steady / drain), so the
  /// receiver-side waits are attributable: GPipe's bubble is all ramp,
  /// 1F1B's steady state should be near bubble-free once warmed up.
  double bubble_fill_seconds = 0.0;
  double bubble_steady_seconds = 0.0;
  double bubble_drain_seconds = 0.0;
};

/// How two IterationStats combine: kSerial for spans that ran one after the
/// other on one device (a cell's passes, successive iterations), kParallel
/// for spans that ran side by side (the cells of a grid iteration).
enum class FoldMode { kSerial, kParallel };

namespace fold_rule {
/// Counters: bytes, events and busy-seconds add in either mode.
template <class T>
void sum(T& a, T p, FoldMode) { a += p; }
/// High-water marks.
template <class T>
void max(T& a, T p, FoldMode) { a = std::max(a, p); }
/// Iteration-scope values (the loss): the later span's reading wins.
template <class T>
void last(T& a, T p, FoldMode) { a = p; }
/// Critical-path times: back-to-back spans add, side-by-side spans overlap.
template <class T>
void path(T& a, T p, FoldMode m) { a = m == FoldMode::kSerial ? a + p : std::max(a, p); }
}  // namespace fold_rule

/// Every IterationStats field with its fold rule, exactly once.
#define SN_ITERATION_STATS_FOLD(X)                                                  \
  X(loss, last) X(loss_sum, last) X(seconds, path) X(peak_mem, max)                 \
  X(bytes_d2h, sum) X(bytes_h2d, sum) X(extra_forwards, sum) X(evictions, sum)      \
  X(cache_hits, sum) X(cache_misses, sum) X(allocs, sum) X(malloc_seconds, sum)     \
  X(stall_seconds, path) X(host_peak, max) X(peer_stage_count, sum)                 \
  X(peer_stage_bytes, sum) X(peer_fetch_count, sum) X(peer_spill_count, sum)        \
  X(dma_copies, sum) X(d2h_seconds, sum) X(h2d_seconds, sum) X(p2p_bytes, sum)      \
  X(allreduce_seconds, path) X(allreduce_exposed_seconds, path) X(p2p_seconds, sum) \
  X(bubble_seconds, sum) X(bubble_fill_seconds, sum) X(bubble_steady_seconds, sum)  \
  X(bubble_drain_seconds, sum)

// Every field is 8 bytes wide, so a field added to IterationStats without a
// row in the table above changes sizeof and stops the build here.
#define SN_FOLD_FIELD_SIZE(field, rule) +sizeof(IterationStats::field)
static_assert(sizeof(IterationStats) == 0 SN_ITERATION_STATS_FOLD(SN_FOLD_FIELD_SIZE),
              "IterationStats field without a fold rule in SN_ITERATION_STATS_FOLD");
#undef SN_FOLD_FIELD_SIZE

/// Fold span `p` into the running total `a` under each field's rule.
inline void fold(IterationStats& a, const IterationStats& p, FoldMode mode) {
#define SN_FOLD_FIELD(field, rule) fold_rule::rule(a.field, p.field, mode);
  SN_ITERATION_STATS_FOLD(SN_FOLD_FIELD)
#undef SN_FOLD_FIELD
}

}  // namespace sn::core
