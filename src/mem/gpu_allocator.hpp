// Device-memory allocator interface with two implementations:
//
//   * NativeAllocator — models cudaMalloc/cudaFree: every call synchronizes
//     the device and costs latency on the simulated Machine's compute stream.
//   * PoolAllocator — wraps the pre-allocated MemoryPool; alloc/free are
//     near-free (sub-microsecond bookkeeping), which is the paper's §3.2.1
//     optimization and the subject of Table 2.
//
// Both enforce the device capacity: allocation fails (nullopt) rather than
// overcommitting, so callers (UTP / Tensor Cache) must evict or recompute.
#pragma once

#include <cstdint>
#include <optional>

#include "mem/mem_pool.hpp"
#include "sim/machine.hpp"

namespace sn::mem {

class GpuAllocator {
 public:
  virtual ~GpuAllocator() = default;

  /// Allocate `bytes`; returns an opaque handle or nullopt on OOM.
  virtual std::optional<uint64_t> allocate(uint64_t bytes) = 0;
  virtual void deallocate(uint64_t handle) = 0;

  virtual uint64_t capacity() const = 0;
  virtual uint64_t in_use() const = 0;
  virtual uint64_t peak_in_use() const = 0;
  /// Largest satisfiable single allocation (capacity-fragmentation aware).
  virtual uint64_t largest_free() const = 0;

  uint64_t free_bytes() const { return capacity() - in_use(); }

  /// Backing pointer for real execution; nullptr when running unbacked.
  virtual void* ptr(uint64_t handle) = 0;
};

/// cudaMalloc/cudaFree model: first-fit over the raw device address space with
/// per-call device-synchronizing latency charged to the Machine.
class NativeAllocator final : public GpuAllocator {
 public:
  NativeAllocator(sim::Machine& machine, uint64_t capacity, bool backed = false);

  std::optional<uint64_t> allocate(uint64_t bytes) override;
  void deallocate(uint64_t handle) override;

  uint64_t capacity() const override { return pool_.capacity(); }
  uint64_t in_use() const override { return pool_.in_use(); }
  uint64_t peak_in_use() const override { return pool_.stats().peak_in_use; }
  uint64_t largest_free() const override { return pool_.largest_free(); }
  void* ptr(uint64_t handle) override;

 private:
  sim::Machine& machine_;
  MemoryPool pool_;  ///< reused purely as an address-space manager; handle = pool id
};

/// The paper's pre-allocated heap: constant small bookkeeping cost per op.
class PoolAllocator final : public GpuAllocator {
 public:
  PoolAllocator(sim::Machine& machine, uint64_t capacity,
                uint64_t block_bytes = MemoryPool::kDefaultBlockBytes, bool backed = false);

  std::optional<uint64_t> allocate(uint64_t bytes) override;
  void deallocate(uint64_t handle) override;

  uint64_t capacity() const override { return pool_.capacity(); }
  uint64_t in_use() const override { return pool_.in_use(); }
  uint64_t peak_in_use() const override { return pool_.stats().peak_in_use; }
  uint64_t largest_free() const override { return pool_.largest_free(); }
  void* ptr(uint64_t handle) override;

  const MemoryPool& pool() const { return pool_; }

  /// Bookkeeping cost per pool op charged to the compute stream.
  static constexpr double kPoolOpSeconds = 0.5e-6;

 private:
  sim::Machine& machine_;
  MemoryPool pool_;  ///< handle = pool allocation id
};

}  // namespace sn::mem
