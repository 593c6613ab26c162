#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/checksum.h"

namespace hostbench {

void rotate_cpu() {
  // The allowed set is read once: after the first move the thread's own
  // mask holds a single CPU.
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
      }
    }
    return out;
  }();
  static size_t next = 0;
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

std::string digest(const std::string& canonical) {
  const u64 h = sealpk::checksum64(
      reinterpret_cast<const u8*>(canonical.data()), canonical.size());
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

void emit_end_to_end(Result& out, const EndToEnd& e) {
  double wall = 0.0;
  std::vector<double> best;
  for (const auto& [id, ms] : e.best_ms) {
    wall += ms / 1000.0;
    best.push_back(ms);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.metric("setup_s", *std::min_element(e.setup_s.begin(), e.setup_s.end()),
             "s");
  out.metric("wall_s", wall, "s");
  out.metric("guest_mips", e.instructions / wall / 1e6, "Minst/s");
  out.metric("ops_per_s", e.ops / wall, "1/s");
  out.metric("job_p50_ms", median(best), "ms");
  out.metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
             "MiB");
  out.metric("sim_cycles", e.sim_cycles, "cycles");

  // The p90 over every sample is printed, not gated: on a shared host its
  // run-to-run spread exceeds any bound the benchmark may set (README.md).
  const size_t jobs = e.job_ms.size();
  const size_t beyond =
      jobs - static_cast<size_t>(std::ceil(0.9 * static_cast<double>(jobs)));
  char line[160];
  std::snprintf(line, sizeof(line), "job_p90_ms %.4f ms (%zu jobs, %zu beyond)",
                percentile(e.job_ms, 90), jobs, beyond);
  out.log.push_back(line);
  std::snprintf(line, sizeof(line),
                "samples: setup=%zu (median %.4f) repetitions=%zu jobs=%zu "
                "distinct=%zu; repetition wall_s:",
                e.setup_s.size(), median(e.setup_s), e.wall_s.size(), jobs,
                best.size());
  std::string samples = line;
  for (const double w : e.wall_s) {
    std::snprintf(line, sizeof(line), " %.4f", w);
    samples += line;
  }
  out.log.push_back(samples);
}

}  // namespace hostbench
