// Tensor Cache (Alg. 2) unit tests: LRU ordering, touch-to-front, victim
// selection, hit/miss counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <unordered_set>
#include <vector>

#include "core/tensor_cache.hpp"
#include "util/rng.hpp"

namespace {

using sn::core::TensorCache;

/// Victims in the order repeated find_victim queries would evict them
/// (each accepted victim is excluded from the next query, as eviction
/// erases it from the cache).
std::vector<uint64_t> drain_order(const TensorCache& c) {
  std::vector<uint64_t> order;
  std::unordered_set<uint64_t> taken;
  while (auto v = c.find_victim([&](uint64_t uid) { return !taken.count(uid); })) {
    order.push_back(*v);
    taken.insert(*v);
  }
  return order;
}

TEST(TensorCache, FindVictimIsLruFirst) {
  TensorCache c;
  c.insert(1);
  c.insert(2);
  c.insert(3);  // MRU
  auto v = c.find_victim([](uint64_t) { return true; });
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1u);  // least recently used evicts first
  auto order = drain_order(c);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 3u);
}

TEST(TensorCache, FindVictimSkipsRejected) {
  // The pool rejects locked / wrong-residency tensors; the walk continues
  // from the tail past them (Alg. 2 getLastUnlockedTensor).
  TensorCache c;
  c.insert(1);
  c.insert(2);
  c.insert(3);
  auto v = c.find_victim([](uint64_t uid) { return uid != 1; });
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 2u);
  EXPECT_FALSE(c.find_victim([](uint64_t) { return false; }).has_value());
}

TEST(TensorCache, FindVictimOnEmptyCache) {
  TensorCache c;
  EXPECT_FALSE(c.find_victim([](uint64_t) { return true; }).has_value());
}

TEST(TensorCache, TouchMovesToFront) {
  TensorCache c;
  c.insert(1);
  c.insert(2);
  c.insert(3);
  c.touch(1);  // 1 becomes MRU
  auto order = drain_order(c);
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 1u);
}

TEST(TensorCache, ReinsertActsAsTouch) {
  TensorCache c;
  c.insert(1);
  c.insert(2);
  c.insert(1);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(drain_order(c)[0], 2u);
}

TEST(TensorCache, EraseRemoves) {
  TensorCache c;
  c.insert(1);
  c.insert(2);
  c.erase(1);
  EXPECT_FALSE(c.contains(1));
  EXPECT_EQ(c.size(), 1u);
  c.erase(42);  // unknown uid is a no-op
  EXPECT_EQ(c.size(), 1u);
}

TEST(TensorCache, TouchUnknownIsNoop) {
  TensorCache c;
  c.touch(7);
  EXPECT_EQ(c.size(), 0u);
}

TEST(TensorCache, HitMissCounters) {
  TensorCache c;
  c.count_hit();
  c.count_hit();
  c.count_miss();
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(TensorCache, BackpropPatternFavoursLru) {
  // Head-to-tail forward then tail-to-head backward: the most recently used
  // tensors are reused earliest (paper §3.3.2) — so under LRU, the *early*
  // forward tensors are the ones evicted, exactly what backward wants
  // (it needs the late ones first).
  TensorCache c;
  for (uint64_t uid = 0; uid < 10; ++uid) c.insert(uid);
  auto order = drain_order(c);
  for (uint64_t uid = 0; uid < 10; ++uid) EXPECT_EQ(order[uid], uid);
}

TEST(TensorCache, CleanEntriesKeepLruOrder) {
  TensorCache c;
  for (uint64_t uid = 0; uid < 6; ++uid) c.insert(uid);  // LRU order 0..5
  c.set_clean(4, true);
  c.set_clean(1, true);  // older than 4: must sit behind it
  c.set_clean(3, true);
  auto all = [](uint64_t) { return true; };
  EXPECT_EQ(c.find_clean_victim(all), 1u);
  EXPECT_EQ(c.find_clean_victim([](uint64_t uid) { return uid != 1; }), 3u);
  c.touch(1);  // now the most recent clean entry
  EXPECT_EQ(c.find_clean_victim(all), 3u);
  c.set_clean(3, false);
  EXPECT_EQ(c.find_clean_victim(all), 4u);
  c.erase(4);
  EXPECT_EQ(c.find_clean_victim(all), 1u);
  c.erase(1);
  EXPECT_FALSE(c.find_clean_victim(all).has_value());
  c.insert(1);  // re-inserted entries start dirty
  EXPECT_FALSE(c.find_clean_victim(all).has_value());
  c.set_clean(42, true);  // absent: no-op
  EXPECT_FALSE(c.contains(42));
}

TEST(TensorCache, VictimOrderMatchesTheFullScanUnderRandomStreams) {
  // Reference: the plain LRU list, scanned in full from the tail with the
  // eviction passes' predicates (pass 0: clean and unlocked; pass 1:
  // unlocked). Under a random insert/touch/erase/set-clean/lock stream the
  // clean-index cache must answer every query of both passes identically.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    TensorCache c;
    std::list<uint64_t> lru;  // front = MRU
    std::vector<bool> clean(64, false), locked(64, false);
    auto present = [&](uint64_t uid) { return std::find(lru.begin(), lru.end(), uid) != lru.end(); };
    auto scan = [&](bool clean_only) -> std::optional<uint64_t> {
      for (auto it = lru.rbegin(); it != lru.rend(); ++it) {
        if (locked[*it] || (clean_only && !clean[*it])) continue;
        return *it;
      }
      return std::nullopt;
    };
    sn::util::Rng rng(seed);
    for (int op = 0; op < 4000; ++op) {
      const uint64_t uid = rng.next_below(64);
      switch (rng.next_below(6)) {
        case 0:
        case 1:
          c.insert(uid);
          if (present(uid)) lru.remove(uid);
          lru.push_front(uid);
          break;
        case 2:
          c.touch(uid);
          if (present(uid)) {
            lru.remove(uid);
            lru.push_front(uid);
          }
          break;
        case 3:
          c.erase(uid);
          lru.remove(uid);
          clean[uid] = false;
          break;
        case 4: {
          const bool to = rng.next_below(2) == 0;
          c.set_clean(uid, to);
          if (present(uid)) clean[uid] = to;
          break;
        }
        default:
          locked[uid] = !locked[uid];
          break;
      }
      ASSERT_EQ(c.size(), lru.size());
      auto unlocked = [&](uint64_t u) { return !locked[u]; };
      ASSERT_EQ(c.find_clean_victim(unlocked), scan(true)) << "seed " << seed << " op " << op;
      ASSERT_EQ(c.find_victim(unlocked), scan(false)) << "seed " << seed << " op " << op;
    }
  }
}

}  // namespace
