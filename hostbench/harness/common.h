// Shared plumbing of the host-time benchmark: options, the host clock,
// order statistics, and the result every workload fills in.
//
// Clock naming rule: a metric whose name starts with `sim_` is on the
// modelled clock (cycles of the simulated SoC); every other time or rate is
// host time, taken from std::chrono::steady_clock.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.h"

namespace hostbench {

using sealpk::i64;
using sealpk::u32;
using sealpk::u64;
using sealpk::u8;

struct Options {
  std::string workload;
  u64 seed = 0;
  double seconds = 10.0;
  bool trace = false;           // per-layer run instead of end-to-end
  bool tiny = false;            // self-test size: every workload in ~1 s
  bool corrupt_oracle = false;  // self-test: expect a wrong checksum
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Moves the calling thread to the next CPU the process may use, round
// robin. On a shared host a CPU whose sibling another tenant keeps busy runs
// the simulator up to 2x slower, and a process otherwise stays where it was
// first placed; rotating lets every job's fastest sample come from the
// least contended CPU. A no-op when affinity is unavailable.
void rotate_cpu();

double mean(const std::vector<double>& values);
double median(std::vector<double> values);
// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> values, double p);

// FNV-1a over a canonical text, printed as 16 hex digits: the per-workload
// digest a simulator-only change must leave unchanged.
std::string digest(const std::string& canonical);

// Repeats `rep` until `seconds` of host time have passed since the call,
// and at least `min_reps` times.
template <typename Rep>
void repeat_for(double seconds, int min_reps, Rep&& rep) {
  const double start = now_s();
  for (int done = 0; done < min_reps || now_s() - start < seconds; ++done) {
    rep();
  }
}

// What one benchmark run reports: the oracle verdict over the operations it
// attempted, named metrics with units, and lines for the log.
struct Result {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> log;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // A correctness failure that is not one attempted operation (digest drift
  // between repetitions, traced run diverging from the untraced one).
  void fail(const std::string& why) {
    correct = false;
    log.push_back("FAIL " + why);
  }
  // One operation checked against its oracle.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failed <= 5) log.push_back("FAIL " + what);
    }
  }
};

// The samples behind the end-to-end metrics of an untraced run.
//
// A job is the unit a workload times: a fig5 cell (keyed by its matrix id),
// or a whole repetition (id 0) for the drivers that expose nothing finer.
// Every host time is reported as the fastest sample of its job: contention
// from other tenants only ever adds time, and on a shared virtual machine it
// added up to 2x for minutes at a time (README.md), beyond a median's reach.
struct EndToEnd {
  std::vector<double> setup_s;    // one per set-up repetition
  std::vector<double> wall_s;     // one per measured repetition (logged)
  std::vector<double> job_ms;     // every job sample, in run order
  std::map<u32, double> best_ms;  // each job's fastest sample
  double instructions = 0;        // guest instructions retired per repetition
  double ops = 0;                 // the workload's unit of work per repetition
  double sim_cycles = 0;          // modelled cycles per repetition

  void job(u32 id, double ms) {
    job_ms.push_back(ms);
    const auto [it, fresh] = best_ms.emplace(id, ms);
    if (!fresh && ms < it->second) it->second = ms;
  }
};

// Emits setup_s (fastest set-up), wall_s (the sum of every job's fastest
// sample), guest_mips and ops_per_s over that wall_s, job_p50_ms (median
// job), peak_rss_mb and sim_cycles; logs job_p90_ms and the samples.
void emit_end_to_end(Result& out, const EndToEnd& e);

}  // namespace hostbench
