#include "fleet/engine.h"

#include <chrono>
#include <exception>
#include <mutex>
#include <sstream>

#include "common/pool.h"

namespace sealpk::fleet {

namespace {

using Clock = std::chrono::steady_clock;

void stamp_identity(const JobSpec& spec, JobResult* r) {
  r->id = spec.id;
  r->label = spec.label();
  r->workload = spec.workload;
  r->ss = spec.ss;
  r->perm_seal = spec.perm_seal;
  r->kind = spec.kind;
}

const char* exit_code_name(i64 code) {
  if (code == os::kExitMachineCheck) return "machine-check";
  if (code == os::kExitTrapStorm) return "trap-storm";
  if (code == os::kExitLivelock) return "livelock";
  return nullptr;
}

// Everything one machine run yields that the job verdicts consume.
struct RunCapture {
  bool loaded = false;
  bool completed = false;
  i64 exit_code = 0;
  u64 instructions = 0;
  u64 cycles = 0;
  u64 calls = 0;
  u64 pages_mapped = 0;
  std::string console;
  std::vector<u64> reports;
  sim::MachineStats stats;
  u64 injected = 0;
  u64 outstanding = 0;
  std::vector<fault::FaultEvent> events;
  bool has_trace = false;
  obs::TraceSummary trace;
  std::vector<u8> trace_blob;
};

RunCapture run_machine(const isa::Image& image, const sim::MachineConfig& cfg,
                       u64 budget, bool keep_trace_blob = false) {
  RunCapture cap;
  sim::Machine machine(cfg);
  const int pid = machine.load(image);
  if (pid == sim::Machine::kLoadRefused) return cap;
  cap.loaded = true;
  const sim::RunOutcome outcome = machine.run(budget);
  cap.completed = outcome.completed;
  cap.instructions = outcome.instructions;
  cap.cycles = outcome.cycles;
  cap.exit_code = machine.exit_code(pid);
  cap.calls = machine.hart().stats().calls;
  cap.pages_mapped = machine.kernel().process(pid).aspace->pages_mapped();
  cap.console = machine.kernel().console();
  cap.reports = machine.kernel().reports();
  cap.stats = sim::collect_stats(machine);
  if (machine.injector() != nullptr) {
    cap.injected = machine.injector()->total_injected();
    cap.outstanding = machine.injector()->outstanding();
    cap.events = machine.injector()->events();
  }
  if (machine.recorder() != nullptr) {
    cap.has_trace = true;
    cap.trace = machine.recorder()->summary(machine.hart().cycles());
    if (keep_trace_blob) cap.trace_blob = machine.recorder()->serialize_blob();
  }
  return cap;
}

void execute_run(const JobSpec& spec, const isa::Image& image, JobResult* r) {
  RunCapture cap =
      run_machine(image, spec.config, spec.budget, spec.keep_trace_blob);
  if (!cap.loaded) {
    r->exit_code = sim::Machine::kNoExitCode;
    r->verdict = "load refused";
    return;
  }
  r->ran = true;
  r->completed = cap.completed;
  r->exit_code = cap.exit_code;
  r->instructions = cap.instructions;
  r->cycles = cap.cycles;
  r->calls = cap.calls;
  r->pages_mapped = cap.pages_mapped;
  r->reports = cap.reports;
  r->stats = cap.stats;
  r->injected = cap.injected;
  r->outstanding = cap.outstanding;
  r->events = cap.events;
  r->has_trace = cap.has_trace;
  r->trace = cap.trace;
  r->trace_blob = std::move(cap.trace_blob);
  if (!cap.completed) {
    r->verdict = "timeout: instruction budget exhausted";
    return;
  }
  if (cap.exit_code != 0) {
    const char* name = exit_code_name(cap.exit_code);
    std::ostringstream os;
    os << "exit " << cap.exit_code;
    if (name != nullptr) os << " (" << name << ")";
    r->verdict = os.str();
    return;
  }
  if (spec.verify_checksum) {
    const u64 golden = spec.workload->golden(spec.scale);
    if (cap.reports.size() != 1 || cap.reports[0] != golden) {
      r->verdict = "checksum mismatch vs golden model";
      return;
    }
  }
  r->ok = true;
  r->verdict = "ok";
}

void execute_chaos_diff(const JobSpec& spec, const isa::Image& image,
                        JobResult* r) {
  sim::MachineConfig clean_cfg = spec.config;
  clean_cfg.fault_plan = fault::FaultPlan{};
  const RunCapture clean = run_machine(image, clean_cfg, spec.budget);
  RunCapture chaos =
      run_machine(image, spec.config, spec.budget, spec.keep_trace_blob);

  r->ran = clean.loaded && chaos.loaded;
  r->completed = chaos.completed;
  r->exit_code = chaos.loaded ? chaos.exit_code : sim::Machine::kNoExitCode;
  r->instructions = chaos.instructions;
  r->cycles = chaos.cycles;
  r->calls = chaos.calls;
  r->pages_mapped = chaos.pages_mapped;
  r->reports = chaos.reports;
  r->stats = chaos.stats;
  r->injected = chaos.injected;
  r->outstanding = chaos.outstanding;
  r->events = chaos.events;
  r->clean_exit = clean.loaded ? clean.exit_code : sim::Machine::kNoExitCode;
  r->clean_completed = clean.completed;
  r->has_trace = chaos.has_trace;
  r->trace = chaos.trace;
  r->trace_blob = std::move(chaos.trace_blob);

  if (!r->ran) {
    r->verdict = "load refused";
    return;
  }

  // The differential oracle: the chaos run must be bit-identical to the
  // clean run, or every divergence must be explained by a recorded recovery
  // or a distinct-exit-code kill — and no fault event may be left
  // unaccounted.
  const bool identical = chaos.completed == clean.completed &&
                         chaos.exit_code == clean.exit_code &&
                         chaos.console == clean.console &&
                         chaos.reports == clean.reports;
  const u64 kills =
      chaos.stats.machine_check_kills + chaos.stats.watchdog_kills;

  if (!clean.completed) {
    r->verdict = verdicts::kCleanIncomplete;
  } else if (chaos.outstanding != 0) {
    r->verdict = verdicts::kUnaccounted;
  } else if (identical) {
    // A rollback rewinds the event log to the restored checkpoint, so check
    // it before the injected count — "no faults fired" would be misleading
    // when firings were absorbed by re-execution.
    r->ok = true;
    r->verdict = chaos.stats.rollbacks != 0 ? verdicts::kRolledBack
                 : chaos.injected == 0      ? verdicts::kNoFaults
                                            : verdicts::kIdentical;
  } else if (kills > 0) {
    const bool distinct = chaos.exit_code == os::kExitMachineCheck ||
                          chaos.exit_code == os::kExitTrapStorm ||
                          chaos.exit_code == os::kExitLivelock ||
                          chaos.exit_code == clean.exit_code;
    r->ok = distinct;
    r->verdict = distinct ? verdicts::kKilled : verdicts::kKilledBadCode;
  } else if (chaos.stats.recoveries > 0) {
    r->ok = true;
    r->verdict = verdicts::kRecovered;
  } else {
    r->verdict = verdicts::kDiverged;
  }
}

}  // namespace

JobResult execute_job(const JobSpec& spec, ImageCache& cache) {
  JobResult result;
  stamp_identity(spec, &result);
  const Clock::time_point start = Clock::now();
  try {
    const ImageCache::ImagePtr image = cache.get(spec);
    switch (spec.kind) {
      case JobKind::kRun:
        execute_run(spec, *image, &result);
        break;
      case JobKind::kChaosDiff:
        execute_chaos_diff(spec, *image, &result);
        break;
    }
  } catch (const std::exception& e) {
    // Containment: Machine::run already swallows host exceptions; anything
    // arriving here escaped image build/load or the result plumbing. It
    // fails this job only.
    result.ok = false;
    result.verdict = std::string("host exception escaped: ") + e.what();
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                             start)
                       .count();
  return result;
}

std::vector<JobResult> run_jobs(const std::vector<JobSpec>& specs,
                                ImageCache& cache, const FleetOptions& opts) {
  // Warm the lazily-initialized workload registry on this thread before the
  // pool starts. The C++11 magic static is already race-free; doing it here
  // keeps first-touch cost out of the measured jobs and out of TSan's way.
  (void)wl::all_workloads();

  std::vector<JobResult> results(specs.size());
  std::mutex done_mu;
  pool::run(specs.size(), opts.threads, [&](size_t i, unsigned wid) {
    JobResult r = execute_job(specs[i], cache);
    r.worker = wid;
    if (opts.on_done) {
      std::lock_guard<std::mutex> lock(done_mu);
      opts.on_done(r);
    }
    results[i] = std::move(r);
  });
  return results;
}

}  // namespace sealpk::fleet
