// hostbench — host-time benchmark of the SealPK simulator.
//
//   hostbench --workload <fig5|services> [--seed <n>]
//             [--seconds <s>] [--trace <0|1>] [--size <full|tiny>]
//             [--corrupt-oracle]
//
// Prints the host descriptor, the workload's log (oracle failures, the
// digest of its canonical records, attribution checks) and, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits 0 only when every oracle held; 1 on any failure; 2 on bad usage;
// 3 when the binary is an unoptimized or sanitized build, whose timings
// must never become a baseline.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "workloads.h"

namespace {

using hostbench::Options;
using hostbench::Result;
using hostbench::u64;

struct WorkloadDef {
  const char* name;
  Result (*run)(const Options&);
  u64 default_seed;  // committed default; README names the held-out seed
};

constexpr WorkloadDef kWorkloads[] = {
    {"fig5", hostbench::run_fig5, 1},
    {"services", hostbench::run_services, 1},
};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

const char* sanitizers() {
#if defined(__SANITIZE_ADDRESS__) && defined(__SANITIZE_THREAD__)
  return "address,thread";
#elif defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

bool optimized() {
#if defined(__OPTIMIZE__)
  return std::strcmp(HOSTBENCH_BUILD_TYPE, "Debug") != 0;
#else
  return false;
#endif
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

int usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload <fig5|services>\n"
               "                 [--seed <n>] [--seconds <s>] [--trace <0|1>]\n"
               "                 [--size <full|tiny>] [--corrupt-oracle]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool seeded = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::stoull(argv[++i]);
      seeded = true;
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--size" && has_value) {
      opts.tiny = std::string(argv[++i]) == "tiny";
    } else if (arg == "--corrupt-oracle") {
      opts.corrupt_oracle = true;
    } else {
      return usage();
    }
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (opts.workload == w.name) def = &w;
  }
  if (def == nullptr) return usage();
  if (!seeded) opts.seed = def->default_seed;

  std::printf("host nproc=%u cpu=\"%s\" compiler=\"gcc %s\" build=%s "
              "sanitizers=%s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              __VERSION__, HOSTBENCH_BUILD_TYPE, sanitizers());
  if (!optimized() || std::strcmp(sanitizers(), "none") != 0) {
    std::fprintf(stderr,
                 "hostbench: REFUSED: unoptimized or sanitized build; host "
                 "times from it must not become a baseline\n");
    return 3;
  }
  std::printf("run workload=%s seed=%llu seconds=%s trace=%d size=%s\n",
              def->name, static_cast<unsigned long long>(opts.seed),
              number(opts.seconds).c_str(), opts.trace ? 1 : 0,
              opts.tiny ? "tiny" : "full");
  std::fflush(stdout);

  Result res;
  try {
    res = def->run(opts);
  } catch (const std::exception& e) {
    res.fail(std::string("host exception: ") + e.what());
  }

  std::string json = "{\"correct\": ";
  bool finite = true;
  std::string metrics;
  for (const Result::Metric& m : res.metrics) {
    finite = finite && std::isfinite(m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " +
               (std::isfinite(m.value) ? number(m.value) : "0") +
               ", \"unit\": \"" + m.unit + "\"}";
    std::printf("metric %-34s %s %s\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str());
  }
  if (!finite) res.fail("a metric is not a finite number");
  for (const std::string& line : res.log) std::printf("%s\n", line.c_str());
  const bool correct = res.correct && res.failed == 0;
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted) +
          ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {" +
          metrics + "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
