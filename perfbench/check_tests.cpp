// Self-tests of the benchmark's output checks: every check passes on a value
// that satisfies it and fails on one that violates it.
//
//   perfbench_check_tests   (exit code 0 when every case holds)
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "graph/zoo.hpp"
#include "sim/device_spec.hpp"

namespace {

int failures = 0;

void expect(bool cond, const std::string& what) {
  std::printf("%s  %s\n", cond ? "ok  " : "FAIL", what.c_str());
  if (!cond) ++failures;
}

void expect_pass(const perfbench::Check& c) {
  expect(c.ok, "passes: " + c.name + " (" + c.detail + ")");
}

void expect_fail(const perfbench::Check& c) {
  expect(!c.ok, "fails:  " + c.name + " (" + c.detail + ")");
}

}  // namespace

int main() {
  using namespace perfbench;
  const sn::sim::DeviceSpec spec = sn::sim::k40c_spec();
  const uint64_t GB = 1ull << 30;

  // Roofline: 4.29 TFLOP at 4.29 TFLOP/s is 1 s; 8 GB at 8 GB/s is 1 s.
  const double flops = spec.peak_flops;
  expect_pass(check_roofline("roofline at the floor", 1.0, flops, 0, 0, spec));
  expect_fail(check_roofline("roofline below compute floor", 0.5, flops, 0, 0, spec));
  const uint64_t d2h = static_cast<uint64_t>(2 * spec.pcie_d2h_pinned);
  expect_pass(check_roofline("roofline above d2h floor", 2.5, flops, d2h, 0, spec));
  expect_fail(check_roofline("roofline below d2h floor", 1.5, flops, d2h, 0, spec));
  const uint64_t h2d = static_cast<uint64_t>(3 * spec.pcie_h2d_pinned);
  expect_fail(check_roofline("roofline below h2d floor", 2.5, flops, 0, h2d, spec));
  expect_fail(check_roofline("roofline zero time", 0.0, 0.0, 0, 0, spec));

  // Peak: within [floor, capacity].
  expect_pass(check_peak("peak inside", 10 * GB, 12 * GB, 2 * GB));
  expect_fail(check_peak("peak over capacity", 12 * GB + 1, 12 * GB, 2 * GB));
  expect_fail(check_peak("peak under floor", 1 * GB, 12 * GB, 2 * GB));

  // Bracket: trains, next OOMs, at least the all-resident limit.
  expect_pass(check_bracket("bracket holds", 1574, true, true, 200));
  expect_fail(check_bracket("bracket found does not train", 1574, false, true, 200));
  expect_fail(check_bracket("bracket next step trains", 1574, true, false, 200));
  expect_fail(check_bracket("bracket under all-resident limit", 150, true, true, 200));

  // Closed form within tolerance.
  expect_pass(check_close("close exact", 1000, 1000, 0));
  expect_pass(check_close("close within tolerance", 1016, 1000, 16));
  expect_fail(check_close("close over tolerance", 1017, 1000, 16));
  expect_fail(check_close("close under tolerance", 983, 1000, 16));

  // Series equality.
  expect_pass(check_series_equal("series equal", {1.0, 2.5}, {1.0, 2.5}));
  expect_fail(check_series_equal("series value differs", {1.0, 2.5}, {1.0, 2.5000001}));
  expect_fail(check_series_equal("series shorter", {1.0}, {1.0, 2.5}));

  // Closed forms.
  // One boundary of 10 B, 4 microbatches, 2 replicas: 2*10*4*2 = 160 B of
  // activations and gradients; stages of 100 B and 50 B gradients all-reduce
  // 2*(2-1)*(100+50) = 300 B.
  expect(grid_p2p_bytes({10}, {100, 50}, 2, 4) == 460, "grid_p2p_bytes closed form");
  expect(grid_p2p_bytes({}, {100}, 1, 4) == 0, "grid_p2p_bytes single device sends nothing");
  auto net = sn::graph::build_tiny_linear(2);
  expect(net->total_tensor_bytes() >= persistent_bytes(*net) + max_forward_bytes(*net),
         "every tensor together covers the persistent bytes plus one forward step");
  expect(max_forward_bytes(*net) <= net->max_layer_bytes(),
         "a forward step's tensors are a subset of the layer's");
  expect(route_flops(*net) > 0.0, "route flops positive");

  // Search: largest x with x*x <= 200 is 14, from any start at or below it.
  expect(search_max(1, [](int x) { return x * x <= 200; }) == 14, "search_max from 1");
  expect(search_max(14, [](int x) { return x * x <= 200; }) == 14, "search_max from the answer");
  expect(search_max(15, [](int x) { return x * x <= 200; }) == 14, "search_max start fails");

  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
