#include "fleet/job.h"

#include <sstream>

#include "common/json.h"

namespace sealpk::fleet {

const char* job_kind_name(JobKind kind) {
  switch (kind) {
    case JobKind::kRun: return "run";
    case JobKind::kChaosDiff: return "chaos-diff";
  }
  return "?";
}

namespace {

const char* resolution_name(fault::FaultResolution r) {
  switch (r) {
    case fault::FaultResolution::kOutstanding: return "outstanding";
    case fault::FaultResolution::kRecovered: return "recovered";
    case fault::FaultResolution::kProcessKilled: return "process-killed";
    case fault::FaultResolution::kMaskedBenign: return "masked-benign";
  }
  return "unknown";
}

}  // namespace

std::string JobSpec::label() const {
  std::ostringstream os;
  os << wl::suite_name(workload->suite) << "/" << workload->name;
  if (ss != passes::ShadowStackKind::kNone) {
    os << " [" << passes::shadow_stack_kind_name(ss)
       << (perm_seal ? ", perm-sealed]" : "]");
  }
  return os.str();
}

std::string canonical_record(const JobResult& r) {
  std::ostringstream os;
  os << "{\"id\": " << r.id << ", \"label\": \"" << json_escape(r.label)
     << "\", \"kind\": \"" << job_kind_name(r.kind) << "\", \"ok\": "
     << (r.ok ? "true" : "false") << ", \"verdict\": \""
     << json_escape(r.verdict) << "\", \"ran\": " << (r.ran ? "true" : "false")
     << ", \"completed\": " << (r.completed ? "true" : "false")
     << ", \"exit\": " << r.exit_code
     << ", \"instructions\": " << r.instructions
     << ", \"cycles\": " << r.cycles << ", \"calls\": " << r.calls
     << ", \"pages\": " << r.pages_mapped;
  os << ", \"reports\": [";
  for (size_t i = 0; i < r.reports.size(); ++i) {
    if (i != 0) os << ", ";
    os << r.reports[i];
  }
  os << "]";
  os << ", \"context_switches\": " << r.stats.context_switches
     << ", \"page_faults\": " << r.stats.page_faults
     << ", \"cam_refills\": " << r.stats.cam_refills;
  if (r.kind == JobKind::kChaosDiff) {
    os << ", \"clean_exit\": " << r.clean_exit << ", \"clean_completed\": "
       << (r.clean_completed ? "true" : "false")
       << ", \"injected\": " << r.injected
       << ", \"outstanding\": " << r.outstanding
       << ", \"recoveries\": " << r.stats.recoveries
       << ", \"machine_check_kills\": " << r.stats.machine_check_kills
       << ", \"watchdog_kills\": " << r.stats.watchdog_kills
       << ", \"checkpoints\": " << r.stats.checkpoints
       << ", \"rollbacks\": " << r.stats.rollbacks
       << ", \"rollback_failures\": " << r.stats.rollback_failures;
    os << ", \"faults\": [";
    for (size_t i = 0; i < r.events.size(); ++i) {
      const fault::FaultEvent& e = r.events[i];
      if (i != 0) os << ", ";
      os << "{\"kind\": \"" << fault_kind_name(e.kind)
         << "\", \"instret\": " << e.instret << ", \"resolution\": \""
         << resolution_name(e.resolution) << "\"}";
    }
    os << "]";
  }
  // Trace block only for traced jobs, so records of untraced runs stay
  // byte-identical to what they were before tracing existed.
  if (r.has_trace) {
    os << ", \"trace\": {\"events\": " << r.trace.events
       << ", \"dropped\": " << r.trace.dropped
       << ", \"samples\": " << r.trace.samples
       << ", \"wrpkr\": " << r.trace.wrpkr
       << ", \"rdpkr\": " << r.trace.rdpkr
       << ", \"denials\": " << r.trace.denials
       << ", \"seal_violations\": " << r.trace.seal_violations
       << ", \"cam_refills\": " << r.trace.cam_refills
       << ", \"traps\": " << r.trace.traps
       << ", \"syscalls\": " << r.trace.syscalls
       << ", \"context_switches\": " << r.trace.context_switches
       << ", \"pkeys_touched\": " << r.trace.pkeys_touched
       << ", \"pages_hwm\": " << r.trace.pages_hwm << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace sealpk::fleet
