// Benchmark-proxy workloads (paper §V-A).
//
// The paper evaluates 6 SPECint2000, 4 SPECint2006 and 7 MiBench programs
// cross-compiled to RISC-V. SPEC/MiBench sources cannot ship here, so each
// benchmark is substituted by a guest program implementing the namesake's
// algorithmic kernel with a matching profile: call granularity
// (calls/kilocycle drives shadow-stack overhead) and data footprint (pages
// touched between pushes drives the post-mprotect TLB-refill cost).
// Every workload computes a checksum, verified against a host-side golden
// model, and report()s it before exiting 0.
#pragma once

#include <vector>

#include "isa/program.h"

namespace sealpk::wl {

// Seed shared by every workload's pseudorandom input (the golden models
// replay the same stream host-side).
constexpr u64 kWorkloadSeed = 0x5EED0F5EA1ULL;

enum class Suite : u8 { kSpec2000, kSpec2006, kMiBench };

const char* suite_name(Suite suite);

struct Workload {
  const char* name;  // the benchmark it proxies, e.g. "bzip2"
  Suite suite;
  // Builds the guest program at the given problem scale (>= 1). The
  // program includes a crt0 and is ready for instrumentation + link.
  isa::Program (*build)(u64 scale);
  // Host-side golden model producing the exact checksum the guest reports.
  u64 (*golden)(u64 scale);
  u64 test_scale;   // small: used by unit tests
  u64 bench_scale;  // larger: used by the Figure-5 harness
};

// All 17 workloads in the paper's Figure-5 order. FROZEN at 17: the Fig-5
// harness, its goldens and the fleet reports all iterate this list. The
// session server (below) is a whole-system driver with its own shape, run
// through mpk::run_session_server, not a Figure-5 benchmark proxy.
const std::vector<Workload>& all_workloads();

// Lookup by (suite-qualified) name; nullptr if unknown. Names are unique
// except bzip2, which appears in both SPEC suites.
const Workload* find_workload(Suite suite, const char* name);

// --- individual builders/goldens (one pair per benchmark) -------------------
isa::Program build_sha(u64 scale);
u64 golden_sha(u64 scale);
isa::Program build_qsort(u64 scale);
u64 golden_qsort(u64 scale);
isa::Program build_dijkstra(u64 scale);
u64 golden_dijkstra(u64 scale);
isa::Program build_fft(u64 scale);
u64 golden_fft(u64 scale);
isa::Program build_patricia(u64 scale);
u64 golden_patricia(u64 scale);
isa::Program build_bitcount(u64 scale);
u64 golden_bitcount(u64 scale);
isa::Program build_stringsearch(u64 scale);
u64 golden_stringsearch(u64 scale);

isa::Program build_bzip2_2000(u64 scale);
u64 golden_bzip2_2000(u64 scale);
isa::Program build_vpr(u64 scale);
u64 golden_vpr(u64 scale);
isa::Program build_gzip(u64 scale);
u64 golden_gzip(u64 scale);
isa::Program build_parser(u64 scale);
u64 golden_parser(u64 scale);
isa::Program build_gap(u64 scale);
u64 golden_gap(u64 scale);
isa::Program build_mcf(u64 scale);
u64 golden_mcf(u64 scale);

isa::Program build_libquantum(u64 scale);
u64 golden_libquantum(u64 scale);
isa::Program build_bzip2_2006(u64 scale);
u64 golden_bzip2_2006(u64 scale);
isa::Program build_sjeng(u64 scale);
u64 golden_sjeng(u64 scale);
isa::Program build_h264ref(u64 scale);
u64 golden_h264ref(u64 scale);

// --- scenario: session server (DESIGN.md §15) -------------------------------
// One protection domain per user session: connect allocates a key and gives
// the session a private page, touch opens/reads/writes/closes it, and ~10%
// of churn operations reconnect (free + fresh key). In virtualized mode the
// domains are vpkeys (unbounded, multiplexed over the physical space); raw
// mode uses the physical pkey ABI directly and is only valid while sessions
// fit under the 1023 usable keys. The guest checksum is key-id independent
// by construction, so raw and virtualized runs of the same shape — and any
// eviction policy — must report the identical value.
struct SessionShape {
  u64 sessions = 192;  // live sessions after the ramp (one page each)
  u64 ops = 384;       // churn operations after the ramp
  u64 seed = kWorkloadSeed;
  bool raw = false;    // physical pkeys instead of vpkeys
};

isa::Program build_session_prog(const SessionShape& shape);
u64 golden_session_sum(const SessionShape& shape);

// Host replay of the churn schedule: how many connects (ramp + reconnect),
// reconnects and touches a shape performs — the analytic op counts the
// key-churn benchmark's throughput metric is derived from.
struct SessionSchedule {
  u64 connects = 0;    // sessions + reconnects
  u64 reconnects = 0;
  u64 touches = 0;
};
SessionSchedule session_schedule(const SessionShape& shape);

}  // namespace sealpk::wl
