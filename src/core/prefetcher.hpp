// Prefetcher: the backward-pass lookahead policy of the Unified Tensor Pool
// (paper §3.3.1).
//
// At a CONV (checkpoint) layer's backward step, the paper asynchronously
// fetches what the *previous* CONV layer's backward span needs, hiding the
// H2D latency under the current layer's backward compute. This class is the
// pure policy: given the current step it yields, in staging order, the
// tensors the next `lookahead` checkpoint spans will read. The pool decides
// per tensor whether staging is possible (host-resident, not already in
// flight, fits without eviction) and actually moves the bytes.
//
// The plans are static: they depend only on the route and the lookahead.
// The constructor compiles the plan of every checkpoint layer's backward
// step (where the runtime stages) from the Net's StepProgram, deduplicating
// with a per-uid stamp; the remote gate, which changes while a pipeline
// runs, filters at query time.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/net.hpp"

namespace sn::core {

class Prefetcher {
 public:
  /// One planned stage: the tensor plus which checkpoint span (0 = the span
  /// being entered next, the paper's policy; 1.. = deeper speculative
  /// lookahead) first reads it. The pool uses the span to pick the H2D
  /// stream priority: nearest-span stages are the ones backward stalls on.
  struct Entry {
    tensor::Tensor* tensor = nullptr;
    int span = 0;
  };

  /// `lookahead` = how many checkpoint backward spans ahead to stage
  /// (the paper's policy is 1: exactly the next span). 0 disables
  /// prefetching (every plan is empty); negatives are clamped to 0.
  explicit Prefetcher(const graph::Net& net, int lookahead = 1);

  /// Backward-pass dependencies of the layers of the steps after `step`, in
  /// scan order (deduplicated), stopping after `lookahead` checkpoint
  /// layers. Pure policy: no residency filtering — the caller stages what it
  /// can. Compiled for checkpoint backward steps; any other step is scanned
  /// on demand.
  std::vector<tensor::Tensor*> plan(int step) const;

  /// plan() with each tensor annotated by the checkpoint-span distance at
  /// which it is first read (same tensors, same order).
  std::vector<Entry> plan_spans(int step) const;

  int lookahead() const { return lookahead_; }

  /// Gate for remotely produced tensors (pipeline stage boundaries): when
  /// set, a uid the gate reports true for is skipped by every plan — its
  /// bytes live on a peer device until the P2P landing event, so a host
  /// fetch would stage stale data. The orchestrator flips the gate off once
  /// the landing is waited out.
  void set_remote_gate(std::function<bool(uint64_t)> gate) { remote_gate_ = std::move(gate); }

 private:
  /// Append the plan of `step` to `out` (the uncompiled scan).
  void scan(int step, std::vector<Entry>& out) const;

  const graph::Net& net_;
  int lookahead_;
  std::function<bool(uint64_t)> remote_gate_;

  /// Compiled plans, CSR-style: step s's plan is plans_[plan_end_[k - 1],
  /// plan_end_[k]) with k = plan_of_step_[s] (-1: not compiled).
  std::vector<Entry> plans_;
  std::vector<uint32_t> plan_end_;
  std::vector<int> plan_of_step_;
  /// Dedupe stamps by tensor uid: a uid is already planned in the current
  /// scan iff its stamp equals epoch_. Mutated by const queries, so plans of
  /// one Prefetcher are queried from one thread (the runtime's).
  mutable std::vector<uint32_t> stamp_;
  mutable uint32_t epoch_ = 0;
};

/// Per-net prefetch-lookahead default, applied when RuntimeOptions leaves
/// prefetch_lookahead at kPrefetchLookaheadAuto. The table pins what
/// bench_prefetch_lookahead measures: the linear nets (AlexNet, VGG) are
/// happiest with the paper's lookahead of exactly 1 — deeper staging
/// displaces resident tensors for no stall win — while the branchy / deep
/// zoo nets (InceptionV4, ResNet50/101/152, DenseNet) keep improving at 2+
/// because their checkpoint spans are short and fan-joins pull several
/// spans' dependencies at once. Unknown architectures get the paper's 1.
int default_prefetch_lookahead(const graph::Net& net);

}  // namespace sn::core
