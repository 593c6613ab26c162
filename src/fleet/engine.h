// Fleet engine: the job matrix drained through the shared pool
// (common/pool.h).
//
// Determinism contract: each worker owns a private Machine per job (no
// machine state is ever shared), every job input is pinned in its JobSpec,
// and results land in the slot indexed by JobSpec::id — so the canonical
// per-job records are byte-identical for any thread count and any
// scheduling order. The only cross-thread state is the shared immutable
// image cache, the pool's dispatch ticket, and the result vector (disjoint
// slots). Crash containment: a host exception escaping a job (CheckError,
// bad_alloc, a torn invariant) fails only that job; the pool keeps
// draining.
#pragma once

#include <functional>
#include <vector>

#include "fleet/image_cache.h"
#include "fleet/job.h"

namespace sealpk::fleet {

struct FleetOptions {
  // Worker threads. 0 = one per host hardware thread; 1 = run inline on the
  // calling thread (no pool spawned).
  unsigned threads = 1;
  // Progress callback, invoked as each job finishes. Serialized under an
  // internal mutex, so the callback itself needs no locking; completion
  // order is scheduling-dependent — anything that must be deterministic
  // belongs in the returned results, not here.
  std::function<void(const JobResult&)> on_done;
};

// Executes one job on the calling thread (the unit the pool dispatches).
// Never throws: host exceptions are contained into a failed result.
JobResult execute_job(const JobSpec& spec, ImageCache& cache);

// Runs every spec and returns results ordered by spec index (results[i]
// belongs to specs[i], whatever specs[i].id says — callers normally keep
// id == index).
std::vector<JobResult> run_jobs(const std::vector<JobSpec>& specs,
                                ImageCache& cache,
                                const FleetOptions& opts = {});

// The oracle verdict strings kChaosDiff produces (shared with
// `sealpk fleet --chaos` output and its tests).
namespace verdicts {
inline constexpr char kCleanIncomplete[] = "FAIL: clean run did not complete";
inline constexpr char kUnaccounted[] = "FAIL: unaccounted fault events";
inline constexpr char kRolledBack[] = "ok (rolled back, output identical)";
inline constexpr char kNoFaults[] = "ok (no faults fired)";
inline constexpr char kIdentical[] = "ok (output identical)";
inline constexpr char kKilled[] = "ok (process killed, distinct exit code)";
inline constexpr char kKilledBadCode[] =
    "FAIL: killed without a distinct exit code";
inline constexpr char kRecovered[] = "ok (divergence, recovery recorded)";
inline constexpr char kDiverged[] =
    "FAIL: output diverged with no recovery or kill recorded";
}  // namespace verdicts

}  // namespace sealpk::fleet
