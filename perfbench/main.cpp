// Repo benchmark program: runs one workload and prints its metrics.
//
//   perfbench --workload <deep-resnet|wide-vgg16|grid-resnet50> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <sha>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when any output check fails.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/options.hpp"
#include "util/json_writer.hpp"
#include "workloads.hpp"

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "GCC " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--commit <sha>]\nworkloads:");
  for (const std::string& w : perfbench::workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (args.workload.empty() || !(args.seconds > 0.0)) return usage();

  std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s commit=%s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(), kCompiler,
              PERFBENCH_BUILD_TYPE, commit.c_str());
  std::printf("workload: %s seed=%llu seconds=%s trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), number(args.seconds).c_str(),
              args.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(args);
  } catch (const sn::core::OomError& e) {
    std::fprintf(stderr, "perfbench: unexpected OomError: %s\n", e.what.c_str());
    return 1;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  bool correct = true;
  for (const perfbench::Check& c : r.checks) {
    std::printf("check %-44s %s  %s\n", c.name.c_str(), c.ok ? "ok  " : "FAIL", c.detail.c_str());
    correct = correct && c.ok;
  }
  sn::util::JsonWriter metrics;
  metrics.begin_object(sn::util::JsonWriter::kInline);
  for (const perfbench::Metric& m : r.metrics) {
    std::printf("metric %-28s %s %s\n", m.name.c_str(), number(m.value).c_str(), m.unit.c_str());
    metrics.key(m.name).begin_object(sn::util::JsonWriter::kInline).key("value");
    if (std::isfinite(m.value)) {
      metrics.raw(number(m.value));
    } else {
      metrics.value_null();
      correct = false;
    }
    metrics.key("unit").value(m.unit).end_object();
  }
  metrics.end_object();
  std::printf("iterations: attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.str().c_str());
  return correct ? 0 : 1;
}
