// google-benchmark microbenchmarks for the real CPU substrate: SGEMM,
// convolution algorithms, memory-pool operations, and the LRU cache.
//
// These measure the *actual* kernel/runtime code (wall clock), complementing
// the virtual-time table/figure benches. SGEMM and convolution run on the
// multi-worker kernel ThreadPool, so their rows use real time: main-thread
// CPU time would count one worker's share and overstate the throughput.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/tensor_cache.hpp"
#include "mem/mem_pool.hpp"
#include "nn/conv.hpp"
#include "nn/gemm.hpp"
#include "util/rng.hpp"

namespace {

using namespace sn;

void BM_Sgemm(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<float> a(static_cast<size_t>(n) * n), b(a.size()), c(a.size());
  util::Rng rng(1);
  for (auto& v : a) v = rng.next_float();
  for (auto& v : b) v = rng.next_float();
  for (auto _ : state) {
    nn::sgemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2ll * n * n * n);
}
BENCHMARK(BM_Sgemm)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

void BM_ConvForward(benchmark::State& state) {
  nn::ConvAlgo algo = static_cast<nn::ConvAlgo>(state.range(0));
  nn::ConvDesc d;
  d.n = 2;
  d.c = 16;
  d.h = 28;
  d.w = 28;
  d.k = 16;
  d.kh = d.kw = 3;
  d.stride_h = d.stride_w = 1;
  d.pad_h = d.pad_w = 1;
  if (!nn::conv_algo_supported(d, algo)) {
    state.SkipWithError("unsupported");
    return;
  }
  util::Rng rng(2);
  std::vector<float> x(d.in_elems()), w(d.weight_elems()), bias(d.k), y(d.out_elems());
  std::vector<float> ws(nn::conv_workspace_bytes(d, algo, nn::ConvPass::kForward) / sizeof(float) +
                        1);
  for (auto& v : x) v = rng.next_float();
  for (auto& v : w) v = rng.next_float();
  for (auto _ : state) {
    nn::conv_forward(d, algo, x.data(), w.data(), bias.data(), y.data(), ws.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(nn::algo_name(algo));
}
BENCHMARK(BM_ConvForward)
    ->Arg(static_cast<int>(nn::ConvAlgo::kDirect))
    ->Arg(static_cast<int>(nn::ConvAlgo::kIm2colGemm))
    ->Arg(static_cast<int>(nn::ConvAlgo::kWinograd))
    ->UseRealTime();

void BM_MemoryPoolChurn(benchmark::State& state) {
  mem::MemoryPool pool(64 << 20, static_cast<uint64_t>(state.range(0)));
  util::Rng rng(3);
  std::vector<uint64_t> live;
  for (auto _ : state) {
    if (live.size() < 256 && (live.empty() || rng.next_float() < 0.6f)) {
      if (auto a = pool.allocate(1 + rng.next_below(1 << 16))) live.push_back(a->id);
    } else {
      size_t i = rng.next_below(live.size());
      pool.deallocate(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
  }
  for (uint64_t id : live) pool.deallocate(id);
}
BENCHMARK(BM_MemoryPoolChurn)->Arg(256)->Arg(1024)->Arg(4096);

void BM_TensorCacheOps(benchmark::State& state) {
  core::TensorCache cache;
  for (uint64_t i = 0; i < 1024; ++i) cache.insert(i);
  uint64_t uid = 0;
  for (auto _ : state) {
    cache.touch(uid);
    uid = (uid + 37) & 1023;
  }
}
BENCHMARK(BM_TensorCacheOps);

}  // namespace

BENCHMARK_MAIN();
