#include "mem/gpu_allocator.hpp"

namespace sn::mem {

NativeAllocator::NativeAllocator(sim::Machine& machine, uint64_t capacity, bool backed)
    : machine_(machine), pool_(capacity, /*block_bytes=*/256, backed) {}

namespace {

std::optional<uint64_t> allocate_id(MemoryPool& pool, uint64_t bytes) {
  auto a = pool.allocate(bytes);
  if (!a) return std::nullopt;
  return a->id;
}

void* ptr_of(MemoryPool& pool, uint64_t handle) {
  auto offset = pool.offset_of(handle);
  return offset ? pool.ptr(*offset) : nullptr;
}

}  // namespace

std::optional<uint64_t> NativeAllocator::allocate(uint64_t bytes) {
  machine_.native_malloc(bytes);
  return allocate_id(pool_, bytes);
}

void NativeAllocator::deallocate(uint64_t handle) {
  machine_.native_free();
  pool_.deallocate(handle);
}

void* NativeAllocator::ptr(uint64_t handle) { return ptr_of(pool_, handle); }

PoolAllocator::PoolAllocator(sim::Machine& machine, uint64_t capacity, uint64_t block_bytes,
                             bool backed)
    : machine_(machine), pool_(capacity, block_bytes, backed) {}

std::optional<uint64_t> PoolAllocator::allocate(uint64_t bytes) {
  machine_.run_compute(kPoolOpSeconds);
  return allocate_id(pool_, bytes);
}

void PoolAllocator::deallocate(uint64_t handle) {
  machine_.run_compute(kPoolOpSeconds);
  pool_.deallocate(handle);
}

void* PoolAllocator::ptr(uint64_t handle) { return ptr_of(pool_, handle); }

}  // namespace sn::mem
