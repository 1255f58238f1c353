// Tensor Cache: LRU over GPU-resident tensors (paper §3.3.2, Alg. 2).
//
// Back-propagation revisits tensors tail-to-head, so the most recently used
// tensors are reused earliest — the access pattern LRU fits. The cache keeps
// tensors on the device until memory pressure forces eviction; with enough
// DRAM a training iteration performs zero transfers (Table 3).
//
// Locking: a layer locks its dependent tensors for the duration of its
// computation; locked entries are never eviction candidates (Alg. 2 LRU.in /
// getLastUnlockedTensor). The actual offload on eviction is performed by the
// UnifiedTensorPool — the cache only decides the order.
//
// Clean entries (the pool's kBoth: the host copy is current, so eviction
// only frees device memory) are threaded on a second list in the same
// recency order. The pool's first eviction pass looks for a clean victim;
// walking that list instead of the whole LRU finds the same victim without
// visiting the (usually many) dirty entries.
//
// Both lists are intrusive and indexed by uid (tensor uids are dense
// registry indices), so no operation allocates once the uid range is known.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace sn::core {

class TensorCache {
 public:
  /// Insert at the MRU position (Alg. 2 LRU.in), dirty. Acts as touch() if
  /// already present.
  void insert(uint64_t uid);

  /// Move to the MRU front (Alg. 2 Check cache-hit path).
  void touch(uint64_t uid);

  /// Remove (tensor freed or evicted).
  void erase(uint64_t uid);

  /// Mark a present entry clean (its host copy is current) or dirty; no-op
  /// for an absent uid. Linear in the distance from the entry to its nearest
  /// clean neighbour or LRU end, so constant for the entries the pool marks:
  /// a fetch or prefetch just inserted at the MRU head, or an eviction
  /// victim near the LRU tail.
  void set_clean(uint64_t uid, bool clean);

  bool contains(uint64_t uid) const { return uid < nodes_.size() && nodes_[uid].present; }
  size_t size() const { return size_; }

  /// Walk from the LRU tail and return the first entry `viable` accepts
  /// (Alg. 2 getLastUnlockedTensor), or nullopt when none qualifies. Lock
  /// state lives on the Tensor, so viability is the caller's predicate.
  template <typename Viable>
  std::optional<uint64_t> find_victim(Viable&& viable) const {
    return walk(all_, &Node::all, viable);
  }

  /// find_victim() restricted to clean entries: the same answer as
  /// find_victim(clean && viable), visiting only the clean entries.
  template <typename Viable>
  std::optional<uint64_t> find_clean_victim(Viable&& viable) const {
    return walk(clean_, &Node::cln, viable);
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  void count_hit() { ++hits_; }
  void count_miss() { ++misses_; }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  struct Links {
    uint32_t newer = kNil;  ///< toward the MRU head
    uint32_t older = kNil;  ///< toward the LRU tail
  };
  struct Node {
    Links all;  ///< position in the full LRU
    Links cln;  ///< position among clean entries (valid iff clean)
    bool present = false;
    bool clean = false;
  };
  struct List {
    uint32_t head = kNil;  ///< MRU
    uint32_t tail = kNil;  ///< LRU
  };
  using Member = Links Node::*;

  template <typename Viable>
  std::optional<uint64_t> walk(const List& l, Member m, Viable& viable) const {
    for (uint32_t i = l.tail; i != kNil; i = (nodes_[i].*m).newer) {
      if (viable(static_cast<uint64_t>(i))) return i;
    }
    return std::nullopt;
  }

  void unlink(List& l, Member m, uint32_t i);
  /// Link `i` just older than `newer` (at the head when newer == kNil).
  void link_after(List& l, Member m, uint32_t newer, uint32_t i);

  std::vector<Node> nodes_;  ///< indexed by uid
  List all_;
  List clean_;
  size_t size_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace sn::core
