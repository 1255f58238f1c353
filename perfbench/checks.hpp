// Output checks of the repo benchmark.
//
// Every check compares a figure the program reported with a bound computed
// apart from the runtime: from the net's graph (flops, tensor bytes), the
// device spec, or a closed form of the parallel schedule. None of them is a
// recorded copy of an earlier output, so a check fails only when the
// program's output is impossible, not when it merely changed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/net.hpp"
#include "sim/device_spec.hpp"

namespace perfbench {

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;  ///< the compared figures, printed either way
};

// --- closed forms, from the graph alone ------------------------------------

/// Modeled work of one iteration: forward plus backward flops over the route.
double route_flops(const sn::graph::Net& net);

/// Bytes that stay on the device for the whole run: parameters and their
/// gradients.
uint64_t persistent_bytes(const sn::graph::Net& net);

/// The largest working set one forward step needs at once: a layer's inputs
/// and its output. (Net::max_layer_bytes() also counts the layer's gradients
/// and parameters; the runtime trains below that figure, since no single
/// step needs all of a layer's tensors together.)
uint64_t max_forward_bytes(const sn::graph::Net& net);

/// P2P bytes one hybrid-grid iteration must send: each pipeline boundary
/// ships its activation down and its gradient back once per microbatch and
/// replica, and each stage's R replicas all-reduce their gradients, every
/// device sending 2(R-1)/R of its stage's gradient bytes.
uint64_t grid_p2p_bytes(const std::vector<uint64_t>& boundary_bytes,
                        const std::vector<uint64_t>& stage_grad_bytes, int replicas,
                        int microbatches);

// --- capacity search ---------------------------------------------------------

/// Largest x >= lo with fits(x), searched by doubling the step from lo and
/// then bisecting; assumes fits is monotone. Returns lo - 1 when fits(lo)
/// is false.
int search_max(int lo, const std::function<bool(int)>& fits);

// --- checks -----------------------------------------------------------------

/// A modeled iteration takes at least its flops at the device's peak rate
/// and at least each PCIe direction's bytes at that direction's bandwidth.
Check check_roofline(const std::string& what, double iter_seconds, double flops,
                     uint64_t d2h_bytes, uint64_t h2d_bytes, const sn::sim::DeviceSpec& spec);

/// A device peak fits the pool and is at least `floor_bytes` (the persistent
/// bytes plus max_forward_bytes).
Check check_peak(const std::string& what, uint64_t peak_bytes, uint64_t capacity,
                 uint64_t floor_bytes);

/// A capacity search result brackets: `found` trains, the next step up
/// throws OomError, and `found` is at least the all-resident limit.
Check check_bracket(const std::string& what, int found, bool found_trains, bool next_ooms,
                    int all_resident_limit);

/// |measured - expected| <= tolerance.
Check check_close(const std::string& what, uint64_t measured, uint64_t expected,
                  uint64_t tolerance);

/// Two modeled series are equal element for element.
Check check_series_equal(const std::string& what, const std::vector<double>& a,
                         const std::vector<double>& b);

}  // namespace perfbench
