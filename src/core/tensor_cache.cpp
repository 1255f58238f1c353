#include "core/tensor_cache.hpp"

#include <cassert>

namespace sn::core {

void TensorCache::unlink(List& l, Member m, uint32_t i) {
  Links& x = nodes_[i].*m;
  if (x.newer == kNil) {
    l.head = x.older;
  } else {
    (nodes_[x.newer].*m).older = x.older;
  }
  if (x.older == kNil) {
    l.tail = x.newer;
  } else {
    (nodes_[x.older].*m).newer = x.newer;
  }
  x = Links{};
}

void TensorCache::link_after(List& l, Member m, uint32_t newer, uint32_t i) {
  Links& x = nodes_[i].*m;
  x.newer = newer;
  x.older = newer == kNil ? l.head : (nodes_[newer].*m).older;
  if (newer == kNil) {
    l.head = i;
  } else {
    (nodes_[newer].*m).older = i;
  }
  if (x.older == kNil) {
    l.tail = i;
  } else {
    (nodes_[x.older].*m).newer = i;
  }
}

void TensorCache::insert(uint64_t uid) {
  if (contains(uid)) {
    touch(uid);
    return;
  }
  assert(uid < kNil && "tensor uids are registry indices");
  if (uid >= nodes_.size()) nodes_.resize(uid + 1);
  const auto i = static_cast<uint32_t>(uid);
  nodes_[i].present = true;
  link_after(all_, &Node::all, kNil, i);
  ++size_;
}

void TensorCache::touch(uint64_t uid) {
  if (!contains(uid)) return;
  const auto i = static_cast<uint32_t>(uid);
  unlink(all_, &Node::all, i);
  link_after(all_, &Node::all, kNil, i);
  if (nodes_[i].clean) {
    unlink(clean_, &Node::cln, i);
    link_after(clean_, &Node::cln, kNil, i);
  }
}

void TensorCache::erase(uint64_t uid) {
  if (!contains(uid)) return;
  set_clean(uid, false);
  const auto i = static_cast<uint32_t>(uid);
  unlink(all_, &Node::all, i);
  nodes_[i].present = false;
  --size_;
}

void TensorCache::set_clean(uint64_t uid, bool clean) {
  if (!contains(uid) || nodes_[uid].clean == clean) return;
  const auto i = static_cast<uint32_t>(uid);
  nodes_[i].clean = clean;
  if (!clean) {
    unlink(clean_, &Node::cln, i);
    return;
  }
  // Keep the clean list in LRU order: find the nearest clean neighbour (or
  // list end) in the full LRU, searching both directions at once, and link
  // next to it.
  uint32_t newer = nodes_[i].all.newer;
  uint32_t older = nodes_[i].all.older;
  while (true) {
    if (newer == kNil || nodes_[newer].clean) {
      link_after(clean_, &Node::cln, newer, i);
      return;
    }
    if (older == kNil || nodes_[older].clean) {
      link_after(clean_, &Node::cln, older == kNil ? clean_.tail : nodes_[older].cln.newer, i);
      return;
    }
    newer = nodes_[newer].all.newer;
    older = nodes_[older].all.older;
  }
}

}  // namespace sn::core
