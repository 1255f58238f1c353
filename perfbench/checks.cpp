#include "checks.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace perfbench {

namespace {

[[gnu::format(printf, 1, 2)]] std::string fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

}  // namespace

double route_flops(const sn::graph::Net& net) {
  double flops = 0.0;
  for (const sn::graph::Layer* l : net.route()) flops += l->forward_flops() + l->backward_flops();
  return flops;
}

uint64_t persistent_bytes(const sn::graph::Net& net) {
  uint64_t bytes = 0;
  for (const auto& l : net.layers()) {
    for (const sn::tensor::Tensor* t : l->params()) bytes += t->bytes();
    for (const sn::tensor::Tensor* t : l->param_grads()) bytes += t->bytes();
  }
  return bytes;
}

uint64_t max_forward_bytes(const sn::graph::Net& net) {
  uint64_t best = 0;
  for (const auto& l : net.layers()) {
    uint64_t b = l->output()->bytes();
    for (const sn::graph::Layer* p : l->prevs()) b += p->output()->bytes();
    best = std::max(best, b);
  }
  return best;
}

uint64_t grid_p2p_bytes(const std::vector<uint64_t>& boundary_bytes,
                        const std::vector<uint64_t>& stage_grad_bytes, int replicas,
                        int microbatches) {
  const uint64_t R = static_cast<uint64_t>(replicas);
  uint64_t bytes = 0;
  for (uint64_t b : boundary_bytes) bytes += 2 * b * static_cast<uint64_t>(microbatches) * R;
  // R devices per stage, each sending 2(R-1)/R of the stage's gradient.
  for (uint64_t g : stage_grad_bytes) bytes += 2 * (R - 1) * g;
  return bytes;
}

int search_max(int lo, const std::function<bool(int)>& fits) {
  if (!fits(lo)) return lo - 1;
  int step = 1;
  while (fits(lo + step)) {
    lo += step;
    step *= 2;
  }
  // fits(lo) holds and fits(lo + step) does not.
  int hi = lo + step - 1;
  while (lo < hi) {
    const int mid = lo + (hi - lo + 1) / 2;
    if (fits(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

Check check_roofline(const std::string& what, double iter_seconds, double flops,
                     uint64_t d2h_bytes, uint64_t h2d_bytes, const sn::sim::DeviceSpec& spec) {
  const double compute_floor = flops / spec.peak_flops;
  const double d2h_floor = static_cast<double>(d2h_bytes) / spec.pcie_d2h_pinned;
  const double h2d_floor = static_cast<double>(h2d_bytes) / spec.pcie_h2d_pinned;
  double floor = compute_floor;
  if (d2h_floor > floor) floor = d2h_floor;
  if (h2d_floor > floor) floor = h2d_floor;
  return {what + " roofline", iter_seconds > 0.0 && iter_seconds >= floor,
          fmt("iteration %.6g s vs floor %.6g s", iter_seconds, floor)};
}

Check check_peak(const std::string& what, uint64_t peak_bytes, uint64_t capacity,
                 uint64_t floor_bytes) {
  const bool ok = peak_bytes <= capacity && peak_bytes >= floor_bytes;
  return {what + " peak", ok,
          fmt("peak %llu B, floor %llu B, capacity %llu B",
              static_cast<unsigned long long>(peak_bytes),
              static_cast<unsigned long long>(floor_bytes),
              static_cast<unsigned long long>(capacity))};
}

Check check_bracket(const std::string& what, int found, bool found_trains, bool next_ooms,
                    int all_resident_limit) {
  const bool ok = found_trains && next_ooms && found >= all_resident_limit;
  return {what + " bracket", ok,
          fmt("found %d (%s), next step up %s, all-resident limit %d", found,
              found_trains ? "trains" : "does NOT train",
              next_ooms ? "OOMs" : "does NOT OOM", all_resident_limit)};
}

Check check_close(const std::string& what, uint64_t measured, uint64_t expected,
                  uint64_t tolerance) {
  const uint64_t diff = measured > expected ? measured - expected : expected - measured;
  return {what, diff <= tolerance,
          fmt("measured %llu B, closed form %llu B, tolerance %llu B",
              static_cast<unsigned long long>(measured),
              static_cast<unsigned long long>(expected),
              static_cast<unsigned long long>(tolerance))};
}

Check check_series_equal(const std::string& what, const std::vector<double>& a,
                         const std::vector<double>& b) {
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  const bool ok = i == a.size() && i == b.size();
  return {what, ok,
          ok ? fmt("%zu iterations identical", a.size())
             : fmt("first difference at iteration %zu (lengths %zu, %zu)", i, a.size(),
                   b.size())};
}

}  // namespace perfbench
