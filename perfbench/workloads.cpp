#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/runtime.hpp"
#include "dist/hybrid_parallel.hpp"
#include "graph/partitioner.hpp"
#include "graph/zoo.hpp"
#include "sim/cluster.hpp"
#include "train/dataset.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using sn::core::IterationStats;
using sn::core::OomError;
using sn::core::Runtime;
using sn::core::RuntimeOptions;
using sn::graph::Net;

/// setup_s is the median of set-ups timed in two bursts, one before the timed
/// window and one after it, each of at least kSetupRepeats set-ups and
/// kSetupSeconds. One set-up of deep-resnet takes about 15 ms and one of
/// wide-vgg16 under 0.1 ms, too little for a single sample; and the shared
/// machine's speed drifts over seconds, so the bursts straddle the window.
constexpr int kSetupRepeats = 3;
constexpr double kSetupSeconds = 1.0;
/// Untimed iterations before the windows: iteration 0 starts from a cold
/// tensor cache and differs in modeled time from the ones after it.
constexpr int kWarmup = 1;
/// Modeled metrics aggregate this fixed window of iterations (the first ones
/// of the timed window), never a timed one: the modeled time of an iteration
/// varies from one iteration to the next, though not from run to run.
constexpr int kWindow = 20;
constexpr double kMiB = 1024.0 * 1024.0;

// The paper's Table 4 ResNet: depth = 3*(n1+n2+n3+n4)+2, n3 swept.
constexpr int kN1 = 6, kN2 = 32, kN4 = 6;
constexpr int kDeepN3 = 422;  // depth 1400
constexpr int kDeepBatch = 16;
constexpr int kWideBatch = 256;  // Table 5 "going wider"

// grid-resnet50: 2 pipeline stages x 2 replicas, 4 microbatches, 1F1B.
constexpr int kGridStages = 2, kGridReplicas = 2, kGridMicrobatches = 4, kGridBatch = 32;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) { return sn::util::percentile(std::move(v), 50.0); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMiB;  // ru_maxrss is in KiB
}

/// Every per-layer metric, in print order. A traced run reports all of them;
/// a layer that does not run on the workload reads 0.
std::vector<Metric> per_layer_metrics() {
  return {{"graph.build_ms", 0, "ms"},          {"graph.partition_ms", 0, "ms"},
          {"train.dataset_ms", 0, "ms"},        {"core.init_ms", 0, "ms"},
          {"core.fwd_ms", 0, "ms"},             {"core.bwd_ms", 0, "ms"},
          {"core.host_us_per_step", 0, "us"},   {"core.recompute_layers", 0, "layers"},
          {"core.d2h_mb", 0, "MB"},             {"core.h2d_mb", 0, "MB"},
          {"core.evictions", 0, "count"},       {"core.stall_s", 0, "model_s"},
          {"core.cache_hit_ratio", 0, "ratio"}, {"core.ws_full_share", 0, "ratio"},
          {"mem.peak_dev_mb", 0, "MB"},         {"mem.allocs", 0, "count"},
          {"sim.compute_s", 0, "model_s"},      {"sim.d2h_busy_s", 0, "model_s"},
          {"sim.h2d_busy_s", 0, "model_s"},     {"dist.init_ms", 0, "ms"},
          {"dist.iter_ms", 0, "ms"},            {"dist.bubble_s", 0, "model_s"},
          {"dist.bubble_fill_s", 0, "model_s"}, {"dist.bubble_steady_s", 0, "model_s"},
          {"dist.bubble_drain_s", 0, "model_s"}, {"dist.allreduce_s", 0, "model_s"},
          {"dist.allreduce_exposed_s", 0, "model_s"}, {"dist.p2p_mb", 0, "MB"},
          {"traced.img_per_s", 0, "img/s"}};
}

void set(std::vector<Metric>& metrics, const std::string& name, double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("unknown metric " + name);
}

/// The first failing check of a series, else its last one; a failure when
/// the series is empty (no iteration completed to be checked).
Check first_failure(const std::vector<Check>& checks) {
  for (const Check& c : checks) {
    if (!c.ok) return c;
  }
  return checks.empty() ? Check{"window", false, "no iteration completed"} : checks.back();
}

/// Per-iteration modeled counters of one device, summed over a window.
struct WindowTotals {
  double compute = 0, stall = 0, d2h_busy = 0, h2d_busy = 0;
  uint64_t d2h = 0, h2d = 0, evictions = 0, hits = 0, misses = 0, allocs = 0, replays = 0;
  uint64_t conv_steps = 0, conv_full_ws = 0;

  void add(const IterationStats& st) {
    stall += st.stall_seconds;
    d2h_busy += st.d2h_seconds;
    h2d_busy += st.h2d_seconds;
    d2h += st.bytes_d2h;
    h2d += st.bytes_h2d;
    evictions += st.evictions;
    hits += st.cache_hits;
    misses += st.cache_misses;
    allocs += st.allocs;
    replays += st.extra_forwards;
  }
  void add_telemetry(const std::vector<sn::core::StepTelemetry>& steps) {
    for (const auto& t : steps) {
      if (t.layer->type() != sn::graph::LayerType::kConv) continue;
      ++conv_steps;
      if (t.ws_assigned >= t.ws_max_speed) ++conv_full_ws;
    }
  }
  void report(std::vector<Metric>& m, int iterations) const {
    const double n = iterations;
    set(m, "core.recompute_layers", static_cast<double>(replays) / n);
    set(m, "core.d2h_mb", static_cast<double>(d2h) / kMiB / n);
    set(m, "core.h2d_mb", static_cast<double>(h2d) / kMiB / n);
    set(m, "core.evictions", static_cast<double>(evictions) / n);
    set(m, "core.stall_s", stall / n);
    set(m, "core.cache_hit_ratio",
        hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0);
    set(m, "core.ws_full_share",
        conv_steps ? static_cast<double>(conv_full_ws) / static_cast<double>(conv_steps) : 0.0);
    set(m, "mem.allocs", static_cast<double>(allocs) / n);
    set(m, "sim.compute_s", compute / n);
    set(m, "sim.d2h_busy_s", d2h_busy / n);
    set(m, "sim.h2d_busy_s", h2d_busy / n);
  }
};

/// On a shared host one CPU can run its thread ~1.5x slower than the others
/// for tens of seconds while something else loads the core beneath it (the
/// best iteration of deep-resnet in one second, per CPU in turn: 46-50 ms on
/// most, 66-73 ms on one or two, which ones changing every few seconds). The
/// kernel leaves an idle-machine single thread where it is, so a run would
/// measure whichever CPU it started on. The timed loops therefore move the
/// process round the CPUs it may use, one step every kRotateSeconds.
constexpr double kRotateSeconds = 0.5;

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins the process to the next allowed CPU once kRotateSeconds have passed
/// since the last move. A failed move leaves the process where it was.
void rotate_cpu() {
  static const std::vector<int> cpus = allowed_cpus();
  static size_t next = 0;
  static Clock::time_point last = Clock::now();
  if (cpus.size() < 2 || seconds_since(last) < kRotateSeconds) return;
  next = (next + 1) % cpus.size();
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next], &one);
  sched_setaffinity(0, sizeof one, &one);
  last = Clock::now();
}

/// Calls `set_up` until it has run kSetupRepeats times and for kSetupSeconds;
/// returns the host seconds of each call. `tear_down`, untimed, runs before
/// each call and releases what the previous one built.
std::vector<double> repeat_set_up(const std::function<void()>& tear_down,
                                  const std::function<void()>& set_up) {
  std::vector<double> samples;
  const auto t0 = Clock::now();
  while (samples.size() < static_cast<size_t>(kSetupRepeats) || seconds_since(t0) < kSetupSeconds) {
    rotate_cpu();
    tear_down();
    const auto t1 = Clock::now();
    set_up();
    samples.push_back(seconds_since(t1));
  }
  return samples;
}

/// The host clock over a timed window. The machine is shared: its speed
/// drifts by a fifth over minutes, so a window's total (or median) iteration
/// time moves with whatever else runs. Host rates therefore come from the
/// fastest slice of the window, the way timeit reports the best of several
/// repeats: a slice is consecutive iterations spanning at least kSliceSeconds,
/// and a slowdown of the program itself slows every slice.
constexpr double kSliceSeconds = 0.1;

struct TimedWindow {
  uint64_t iterations = 0;
  uint64_t failed = 0;
  std::vector<double> host_s;  ///< per completed iteration

  /// [begin, end) of the slice with the least host time per iteration; the
  /// whole window when it is shorter than one slice.
  std::pair<size_t, size_t> best_slice() const {
    std::pair<size_t, size_t> best{0, host_s.size()};
    double best_per_iter = -1.0, sum = 0.0;
    size_t begin = 0;
    for (size_t i = 0; i < host_s.size(); ++i) {
      sum += host_s[i];
      if (sum < kSliceSeconds) continue;
      const double per_iter = sum / static_cast<double>(i + 1 - begin);
      if (best_per_iter < 0.0 || per_iter < best_per_iter) {
        best_per_iter = per_iter;
        best = {begin, i + 1};
      }
      begin = i + 1;
      sum = 0.0;
    }
    return best;
  }

  /// Mean of `per_iteration` (host seconds, one per iteration) over the
  /// best slice.
  double best_slice_mean(const std::vector<double>& per_iteration) const {
    const auto [b, e] = best_slice();
    double sum = 0.0;
    for (size_t i = b; i < e; ++i) sum += per_iteration[i];
    return sum / static_cast<double>(e - b);
  }
  double best_iteration_s() const { return best_slice_mean(host_s); }
};

/// Runs `iterate` (one training iteration, returning false when it failed)
/// for at least `min_iterations` and at least `seconds` of host time.
TimedWindow timed_window(double seconds, int min_iterations,
                         const std::function<bool(uint64_t)>& iterate) {
  TimedWindow w;
  const auto t0 = Clock::now();
  while (w.iterations < static_cast<uint64_t>(min_iterations) || seconds_since(t0) < seconds) {
    rotate_cpu();
    const auto t1 = Clock::now();
    if (!iterate(w.iterations)) {
      ++w.failed;
      break;  // the runtime's state after an OOM mid-iteration is not reusable
    }
    w.host_s.push_back(seconds_since(t1));
    ++w.iterations;
  }
  return w;
}

RuntimeOptions k40c_options(uint64_t seed) {
  RuntimeOptions o = sn::core::make_policy(sn::core::PolicyPreset::kSuperNeurons);
  o.real = false;
  o.seed = seed;
  return o;
}

std::unique_ptr<Net> table4_resnet(int n3, int batch) {
  return sn::graph::build_resnet(kN1, kN2, n3, kN4, batch);
}

int table4_depth(int n3) { return n3 >= 1 ? sn::graph::resnet_depth(kN1, kN2, n3, kN4) : 0; }

// --- capacity searches (every workload) --------------------------------------

/// One simulated iteration of `net` under `o`: false when it throws OomError.
bool trains(std::unique_ptr<Net> net, const RuntimeOptions& o) {
  try {
    Runtime rt(*net, o);
    rt.train_iteration(nullptr, nullptr);
    return true;
  } catch (const OomError&) {
    return false;
  }
}

/// max_depth and max_batch: program-wide capacity figures of the SuperNeurons
/// policy on a 12 GB K40c, searched upward from the all-resident limit.
void capacity_search(uint64_t seed, RunResult& r) {
  const RuntimeOptions o = k40c_options(seed);
  const uint64_t cap = o.device_capacity;

  const int resident_n3 = search_max(
      1, [&](int n3) { return table4_resnet(n3, kDeepBatch)->total_tensor_bytes() <= cap; });
  const int n3 = search_max(std::max(1, resident_n3),
                            [&](int x) { return trains(table4_resnet(x, kDeepBatch), o); });
  r.checks.push_back(check_bracket("max_depth", table4_depth(n3),
                                   trains(table4_resnet(n3, kDeepBatch), o),
                                   !trains(table4_resnet(n3 + 1, kDeepBatch), o),
                                   table4_depth(resident_n3)));
  r.metrics.push_back({"max_depth", static_cast<double>(table4_depth(n3)), "layers"});

  auto vgg16 = [](int batch) { return sn::graph::build_vgg(16, batch); };
  const int resident_b =
      search_max(1, [&](int b) { return vgg16(b)->total_tensor_bytes() <= cap; });
  const int b = search_max(std::max(1, resident_b), [&](int x) { return trains(vgg16(x), o); });
  r.checks.push_back(check_bracket("max_batch", b, trains(vgg16(b), o), !trains(vgg16(b + 1), o),
                                   resident_b));
  r.metrics.push_back({"max_batch", static_cast<double>(b), "images"});
}

// --- deep-resnet and wide-vgg16: one simulated K40c ---------------------------

struct SingleDevice {
  std::string name;
  int batch;
  std::function<std::unique_ptr<Net>()> build;
};

struct NetAndRuntime {
  std::unique_ptr<Net> net;  // declared first: the runtime refers to it
  std::unique_ptr<Runtime> rt;
};

/// Builds the net, then the runtime; adds each part's host seconds to
/// `build_s` / `init_s` when given.
NetAndRuntime set_up(const SingleDevice& w, const RuntimeOptions& o,
               std::vector<double>* build_s = nullptr, std::vector<double>* init_s = nullptr) {
  const auto t0 = Clock::now();
  NetAndRuntime s;
  s.net = w.build();
  const auto t1 = Clock::now();
  s.rt = std::make_unique<Runtime>(*s.net, o);
  s.rt->initialize();
  if (build_s) build_s->push_back(std::chrono::duration<double>(t1 - t0).count());
  if (init_s) init_s->push_back(seconds_since(t1));
  return s;
}

/// Modeled seconds of one iteration on `machine`, run by `iterate`.
template <typename F>
double modeled_seconds(const sn::sim::Machine& machine, F&& iterate) {
  const double v0 = machine.now();
  iterate();
  return machine.now() - v0;
}

/// The modeled series of the untraced loop: warm-up, then kWindow
/// iterations of train_iteration.
std::vector<double> reference_series(const SingleDevice& w, const RuntimeOptions& o) {
  NetAndRuntime s = set_up(w, o);
  Runtime& rt = *s.rt;
  for (int k = 0; k < kWarmup; ++k) rt.train_iteration(nullptr, nullptr);
  std::vector<double> series;
  for (int k = 0; k < kWindow; ++k) {
    series.push_back(
        modeled_seconds(rt.machine(), [&] { rt.train_iteration(nullptr, nullptr); }));
  }
  return series;
}

RunResult run_single_untraced(const SingleDevice& w, const RunArgs& args) {
  RunResult r;
  const RuntimeOptions o = k40c_options(args.seed);
  NetAndRuntime s;
  auto tear_down = [&] { s = NetAndRuntime{}; };
  std::vector<double> setup = repeat_set_up(tear_down, [&] { s = set_up(w, o); });
  Runtime& rt = *s.rt;
  for (int k = 0; k < kWarmup; ++k) rt.train_iteration(nullptr, nullptr);

  std::vector<double> series;
  std::vector<IterationStats> stats;
  const TimedWindow tw = timed_window(args.seconds, kWindow, [&](uint64_t it) {
    try {
      IterationStats st;
      const double v =
          modeled_seconds(rt.machine(), [&] { st = rt.train_iteration(nullptr, nullptr); });
      if (it < kWindow) {
        series.push_back(v);
        stats.push_back(st);
      }
    } catch (const OomError&) {
      return false;
    }
    return true;
  });
  r.attempted = tw.iterations + tw.failed;
  r.failed = tw.failed;
  double modeled = 0;
  for (double x : series) modeled += x;
  const double rss = peak_rss_mb();

  std::vector<Check> roofline;
  const double flops = route_flops(*s.net);
  for (size_t i = 0; i < series.size(); ++i) {
    roofline.push_back(check_roofline(w.name, series[i], flops, stats[i].bytes_d2h,
                                      stats[i].bytes_h2d, o.spec));
  }
  r.checks.push_back(first_failure(roofline));
  r.checks.push_back(check_peak(w.name, rt.allocator().peak_in_use(), o.device_capacity,
                                persistent_bytes(*s.net) + max_forward_bytes(*s.net)));
  for (double x : repeat_set_up(tear_down, [&] { s = set_up(w, o); })) setup.push_back(x);
  tear_down();
  r.metrics = {{"img_per_s", w.batch / tw.best_iteration_s(), "img/s"},
               {"modeled_img_per_s", w.batch * static_cast<double>(series.size()) / modeled,
                "img/model_s"},
               {"setup_s", median(setup), "s"},
               {"peak_rss_mb", rss, "MB"}};
  capacity_search(args.seed, r);
  return r;
}

/// Traced: every iteration split into forward_pass and backward_pass (then
/// advance_iteration, as train_iteration does), with host timers around each
/// and the modeled counters read in between.
RunResult run_single_traced(const SingleDevice& w, const RunArgs& args) {
  RunResult r;
  r.metrics = per_layer_metrics();
  const RuntimeOptions o = k40c_options(args.seed);
  std::vector<double> build, init;
  NetAndRuntime s;
  repeat_set_up([&] { s = NetAndRuntime{}; }, [&] { s = set_up(w, o, &build, &init); });
  set(r.metrics, "graph.build_ms", median(build) * 1e3);
  set(r.metrics, "core.init_ms", median(init) * 1e3);

  Runtime& rt = *s.rt;
  std::vector<double> fwd_s, bwd_s, series;
  double host_s = 0;
  uint64_t executed_steps = 0;
  WindowTotals totals;
  auto split_iteration = [&] {
    const auto t0 = Clock::now();
    const IterationStats f = rt.forward_pass(nullptr, nullptr);
    const auto t1 = Clock::now();
    const IterationStats b = rt.backward_pass(nullptr);
    const auto t2 = Clock::now();
    rt.advance_iteration();
    fwd_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    bwd_s.push_back(std::chrono::duration<double>(t2 - t1).count());
    host_s += std::chrono::duration<double>(t2 - t0).count();
    executed_steps += rt.net().steps().size() + f.extra_forwards + b.extra_forwards;
    return std::make_pair(f, b);
  };
  for (int k = 0; k < kWarmup; ++k) split_iteration();
  fwd_s.clear();
  bwd_s.clear();
  host_s = 0;
  executed_steps = 0;
  const TimedWindow tw = timed_window(args.seconds, kWindow, [&](uint64_t it) {
    const double c0 = rt.machine().counters().compute_time;
    try {
      std::pair<IterationStats, IterationStats> fb;
      const double v = modeled_seconds(rt.machine(), [&] { fb = split_iteration(); });
      if (it < kWindow) {
        series.push_back(v);
        totals.compute += rt.machine().counters().compute_time - c0;
        totals.add(fb.first);
        totals.add(fb.second);
        totals.add_telemetry(rt.step_telemetry());
      }
    } catch (const OomError&) {
      return false;
    }
    return true;
  });
  r.attempted = tw.iterations + tw.failed;
  r.failed = tw.failed;
  set(r.metrics, "core.fwd_ms", tw.best_slice_mean(fwd_s) * 1e3);
  set(r.metrics, "core.bwd_ms", tw.best_slice_mean(bwd_s) * 1e3);
  set(r.metrics, "core.host_us_per_step", host_s / static_cast<double>(executed_steps) * 1e6);
  totals.report(r.metrics, kWindow);
  set(r.metrics, "mem.peak_dev_mb", rt.allocator().peak_in_use() / kMiB);
  set(r.metrics, "traced.img_per_s", w.batch / tw.best_iteration_s());
  s = NetAndRuntime{};
  r.checks.push_back(check_series_equal(w.name + " traced vs untraced series", series,
                                        reference_series(w, o)));
  return r;
}

// --- grid-resnet50: 2 stages x 2 replicas on four NVLink devices --------------

using sn::dist::HybridParallelTrainer;

RuntimeOptions grid_options(uint64_t seed) {
  const sn::sim::ClusterSpec cluster = sn::sim::nvlink_cluster_spec(kGridStages * kGridReplicas);
  RuntimeOptions o = sn::core::make_policy(sn::core::PolicyPreset::kSuperNeurons, cluster.device);
  o.real = false;
  o.seed = seed;
  o.device_capacity = 12ull << 30;
  return o;
}

sn::dist::HybridParallelConfig grid_config(uint64_t seed) {
  sn::dist::HybridParallelConfig cfg;
  cfg.stages = kGridStages;
  cfg.replicas = kGridReplicas;
  cfg.microbatches = kGridMicrobatches;
  cfg.global_batch = kGridBatch;
  cfg.schedule = sn::dist::SchedulePolicy::k1F1B;
  cfg.cluster = sn::sim::nvlink_cluster_spec(kGridStages * kGridReplicas);
  cfg.train.iterations = 1;  // one run() call is one timed iteration
  cfg.train.data_seed = seed;
  return cfg;
}

std::unique_ptr<Net> resnet50(int batch) { return sn::graph::build_resnet_preset(50, batch); }

std::unique_ptr<HybridParallelTrainer> make_trainer(uint64_t seed) {
  return std::make_unique<HybridParallelTrainer>(resnet50, grid_options(seed), grid_config(seed));
}

std::vector<Check> grid_checks(HybridParallelTrainer& tr, const std::vector<IterationStats>& stats,
                               const RuntimeOptions& o) {
  const int S = tr.stages(), R = tr.replicas(), M = tr.microbatches();
  std::vector<uint64_t> boundary, grads;
  uint64_t buckets = 0;
  for (int s = 0; s < S; ++s) {
    uint64_t g = 0;
    for (const auto& l : tr.stage_net(s, 0).layers()) {
      for (const sn::tensor::Tensor* t : l->param_grads()) g += t->bytes();
    }
    grads.push_back(g);
    buckets += static_cast<uint64_t>(tr.buckets(s));
    // The next stage's input tensor is this stage's boundary activation.
    if (s + 1 < S) boundary.push_back(tr.stage_net(s + 1, 0).input_layer()->output()->bytes());
  }
  const uint64_t expected = grid_p2p_bytes(boundary, grads, R, M);
  // Chunk rounding: each bucket's per-device chunk may round by a float on
  // every hop of every device.
  const uint64_t tolerance = buckets * 2 * static_cast<uint64_t>(R * R) * sizeof(float);

  std::vector<Check> p2p, roofline, peaks;
  for (const IterationStats& st : stats) {
    p2p.push_back(check_close("grid-resnet50 p2p bytes", st.p2p_bytes, expected, tolerance));
    for (int s = 0; s < S; ++s) {
      roofline.push_back(check_roofline("grid-resnet50 stage " + std::to_string(s), st.seconds,
                                        M * route_flops(tr.stage_net(s, 0)), 0, 0, o.spec));
    }
  }
  for (int s = 0; s < S; ++s) {
    for (int rr = 0; rr < R; ++rr) {
      Net& net = tr.stage_net(s, rr);
      peaks.push_back(check_peak(
          "grid-resnet50 cell " + std::to_string(s) + "," + std::to_string(rr),
          tr.runtime(s, rr).allocator().peak_in_use(), o.device_capacity,
          persistent_bytes(net) + max_forward_bytes(net)));
    }
  }
  return {first_failure(p2p), first_failure(roofline), first_failure(peaks)};
}

std::vector<double> grid_reference_series(uint64_t seed) {
  auto tr = make_trainer(seed);
  for (int k = 0; k < kWarmup; ++k) tr->run();
  std::vector<double> series;
  for (int k = 0; k < kWindow; ++k) series.push_back(tr->run().stats.back().seconds);
  return series;
}

RunResult run_grid_untraced(const RunArgs& args) {
  RunResult r;
  const RuntimeOptions o = grid_options(args.seed);
  std::unique_ptr<HybridParallelTrainer> tr;
  auto tear_down = [&] { tr.reset(); };
  auto set_up_trainer = [&] { tr = make_trainer(args.seed); };
  std::vector<double> setup = repeat_set_up(tear_down, set_up_trainer);
  for (int k = 0; k < kWarmup; ++k) tr->run();

  std::vector<IterationStats> stats;
  const TimedWindow tw = timed_window(args.seconds, kWindow, [&](uint64_t it) {
    try {
      const IterationStats st = tr->run().stats.back();
      if (it < kWindow) stats.push_back(st);
    } catch (const OomError&) {
      return false;
    }
    return true;
  });
  r.attempted = tw.iterations + tw.failed;
  r.failed = tw.failed;
  double modeled = 0;
  for (const IterationStats& st : stats) modeled += st.seconds;
  const double rss = peak_rss_mb();
  for (const Check& c : grid_checks(*tr, stats, o)) r.checks.push_back(c);
  for (double x : repeat_set_up(tear_down, set_up_trainer)) setup.push_back(x);
  tear_down();
  r.metrics = {{"img_per_s", kGridBatch / tw.best_iteration_s(), "img/s"},
               {"modeled_img_per_s", kGridBatch * static_cast<double>(stats.size()) / modeled,
                "img/model_s"},
               {"setup_s", median(setup), "s"},
               {"peak_rss_mb", rss, "MB"}};
  capacity_search(args.seed, r);
  return r;
}

/// Times, from outside the trainer, the parts its constructor is made of:
/// net build and stage extraction, partitioning, dataset and runtimes.
void time_grid_parts(uint64_t seed, std::vector<double>* build, std::vector<double>* partition,
                     std::vector<double>* dataset, std::vector<double>* init) {
  const sn::dist::HybridParallelConfig cfg = grid_config(seed);
  const RuntimeOptions o = grid_options(seed);
  const int microbatch = cfg.global_batch / cfg.replicas / cfg.microbatches;
  auto t0 = Clock::now();
  std::unique_ptr<Net> full = resnet50(microbatch);
  const double build_full = seconds_since(t0);

  t0 = Clock::now();
  sn::graph::NetPartitioner part(*full, cfg.cluster.device, cfg.cluster.link, o.device_capacity);
  const sn::graph::PartitionPlan plan =
      part.partition(cfg.stages, sn::graph::StageRecompute::kAllButLast);
  partition->push_back(seconds_since(t0));

  t0 = Clock::now();
  std::vector<std::unique_ptr<Net>> stage_nets;
  for (int s = 0; s < cfg.stages; ++s) {
    for (int r = 0; r < cfg.replicas; ++r) {
      stage_nets.push_back(sn::graph::extract_stage(*full, plan, s));
    }
  }
  build->push_back(build_full + seconds_since(t0));

  sn::tensor::Shape sample = full->input_layer()->out_shape();
  sample.n = 1;
  const int classes = static_cast<int>(full->loss_layer()->out_shape().c);
  t0 = Clock::now();
  { sn::train::SyntheticDataset data(sample, classes, cfg.train.data_seed); }
  dataset->push_back(seconds_since(t0));

  t0 = Clock::now();
  for (auto& net : stage_nets) {
    Runtime rt(*net, o);
    rt.initialize();
  }
  init->push_back(seconds_since(t0));
}

RunResult run_grid_traced(const RunArgs& args) {
  RunResult r;
  r.metrics = per_layer_metrics();
  std::unique_ptr<HybridParallelTrainer> tr;
  const std::vector<double> setup =
      repeat_set_up([&] { tr.reset(); }, [&] { tr = make_trainer(args.seed); });
  set(r.metrics, "dist.init_ms", median(setup) * 1e3);
  tr.reset();
  std::vector<double> build, partition, dataset, init;
  repeat_set_up([] {}, [&] { time_grid_parts(args.seed, &build, &partition, &dataset, &init); });
  set(r.metrics, "graph.build_ms", median(build) * 1e3);
  set(r.metrics, "graph.partition_ms", median(partition) * 1e3);
  set(r.metrics, "train.dataset_ms", median(dataset) * 1e3);
  set(r.metrics, "core.init_ms", median(init) * 1e3);

  tr = make_trainer(args.seed);
  const int S = tr->stages(), R = tr->replicas();
  // Retained telemetry spans every microbatch pass of an iteration, so the
  // workspace share and the executed-step count cover the whole iteration.
  for (int s = 0; s < S; ++s) {
    for (int rr = 0; rr < R; ++rr) tr->runtime(s, rr).set_retain_telemetry(true);
  }
  for (int k = 0; k < kWarmup; ++k) tr->run();
  std::vector<double> iter_s, series;
  double host_s = 0;
  uint64_t executed_steps = 0;
  WindowTotals totals;
  IterationStats dist;  // window sums of the grid-aggregate counters
  const TimedWindow tw = timed_window(args.seconds, kWindow, [&](uint64_t it) {
    std::vector<double> c0;
    for (int d = 0; d < S * R; ++d) c0.push_back(tr->cluster().machine(d).counters().compute_time);
    const auto t0 = Clock::now();
    sn::dist::HybridParallelReport rep;
    try {
      rep = tr->run();
    } catch (const OomError&) {
      return false;
    }
    iter_s.push_back(seconds_since(t0));
    host_s += iter_s.back();
    for (int s = 0; s < S; ++s) {
      for (int rr = 0; rr < R; ++rr) {
        const IterationStats& cs = rep.cell_stats.back()[s][rr];
        executed_steps += tr->runtime(s, rr).step_telemetry().size() + cs.extra_forwards;
        if (it < kWindow) {
          totals.add(cs);
          totals.add_telemetry(tr->runtime(s, rr).step_telemetry());
        }
      }
    }
    if (it >= kWindow) return true;
    const IterationStats& st = rep.stats.back();
    series.push_back(st.seconds);
    for (int d = 0; d < S * R; ++d) {
      totals.compute += tr->cluster().machine(d).counters().compute_time - c0[d];
    }
    dist.bubble_seconds += st.bubble_seconds;
    dist.bubble_fill_seconds += st.bubble_fill_seconds;
    dist.bubble_steady_seconds += st.bubble_steady_seconds;
    dist.bubble_drain_seconds += st.bubble_drain_seconds;
    dist.allreduce_seconds += st.allreduce_seconds;
    dist.allreduce_exposed_seconds += st.allreduce_exposed_seconds;
    dist.p2p_bytes += st.p2p_bytes;
    return true;
  });
  r.attempted = tw.iterations + tw.failed;
  r.failed = tw.failed;
  totals.report(r.metrics, kWindow);
  set(r.metrics, "core.host_us_per_step", host_s / static_cast<double>(executed_steps) * 1e6);
  uint64_t peak = 0;
  for (int s = 0; s < S; ++s) {
    for (int rr = 0; rr < R; ++rr) {
      peak = std::max(peak, tr->runtime(s, rr).allocator().peak_in_use());
    }
  }
  set(r.metrics, "mem.peak_dev_mb", peak / kMiB);
  set(r.metrics, "dist.iter_ms", tw.best_slice_mean(iter_s) * 1e3);
  set(r.metrics, "dist.bubble_s", dist.bubble_seconds / kWindow);
  set(r.metrics, "dist.bubble_fill_s", dist.bubble_fill_seconds / kWindow);
  set(r.metrics, "dist.bubble_steady_s", dist.bubble_steady_seconds / kWindow);
  set(r.metrics, "dist.bubble_drain_s", dist.bubble_drain_seconds / kWindow);
  set(r.metrics, "dist.allreduce_s", dist.allreduce_seconds / kWindow);
  set(r.metrics, "dist.allreduce_exposed_s", dist.allreduce_exposed_seconds / kWindow);
  set(r.metrics, "dist.p2p_mb", static_cast<double>(dist.p2p_bytes) / kMiB / kWindow);
  set(r.metrics, "traced.img_per_s", kGridBatch / tw.best_iteration_s());
  tr.reset();
  r.checks.push_back(check_series_equal("grid-resnet50 traced vs untraced series", series,
                                        grid_reference_series(args.seed)));
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"deep-resnet", "wide-vgg16", "grid-resnet50"};
  return names;
}

RunResult run_workload(const RunArgs& args) {
  const SingleDevice deep{"deep-resnet", kDeepBatch,
                          [] { return table4_resnet(kDeepN3, kDeepBatch); }};
  const SingleDevice wide{"wide-vgg16", kWideBatch,
                          [] { return sn::graph::build_vgg(16, kWideBatch); }};
  RunResult r;
  if (args.workload == deep.name || args.workload == wide.name) {
    const SingleDevice& w = args.workload == deep.name ? deep : wide;
    r = args.trace ? run_single_traced(w, args) : run_single_untraced(w, args);
  } else if (args.workload == "grid-resnet50") {
    r = args.trace ? run_grid_traced(args) : run_grid_untraced(args);
  } else {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  r.checks.push_back({args.workload + " failed iterations", r.failed == 0,
                      std::to_string(r.failed) + " of " + std::to_string(r.attempted)});
  return r;
}

}  // namespace perfbench
