// Tooling demo: run a benchmark proxy with the instruction log on (the obs
// recorder sampling every retired instruction into a bounded ring) and
// dump machine statistics — the workflow for debugging a guest program or
// an instrumentation pass. Exits 1 unless the run completes with exit code
// 0 and the golden checksum.
//
// Usage: inspect [workload-name]   (default: qsort)
#include <cstdio>
#include <cstring>
#include <iostream>

#include "obs/export.h"
#include "passes/shadow_stack.h"
#include "sim/stats.h"
#include "workloads/workload.h"

using namespace sealpk;

int main(int argc, char** argv) {
  const char* name = argc > 1 ? argv[1] : "qsort";
  const wl::Workload* workload = nullptr;
  for (const auto& w : wl::all_workloads()) {
    if (std::strcmp(w.name, name) == 0) {
      workload = &w;
      break;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; options:", name);
    for (const auto& w : wl::all_workloads()) {
      std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  isa::Program prog = workload->build(workload->test_scale);
  passes::ShadowStackOptions opts;
  opts.kind = passes::ShadowStackKind::kSealPkRdWr;
  passes::apply_shadow_stack(prog, opts);

  // Sampling at interval 1 logs every instruction; the ring keeps the last
  // 24 events (samples interleaved with traps and syscalls).
  sim::MachineConfig config;
  config.trace.enabled = true;
  config.trace.ring_capacity = 24;
  config.trace.sample_interval = 1;
  sim::Machine machine(config);
  const int pid = machine.load(prog.link());
  const auto outcome = machine.run();

  const i64 exit_code = machine.exit_code(pid);
  const u64 checksum = machine.kernel().reports().empty()
                           ? 0
                           : machine.kernel().reports()[0];
  const u64 golden = workload->golden(workload->test_scale);
  std::printf("%s/%s under the SealPK-RD+WR shadow stack: %s, exit %lld\n",
              wl::suite_name(workload->suite), workload->name,
              outcome.completed ? "completed" : "hit the budget",
              static_cast<long long>(exit_code));
  std::printf("checksum %llu (golden %llu)\n\n",
              static_cast<unsigned long long>(checksum),
              static_cast<unsigned long long>(golden));

  sim::print_stats(sim::collect_stats(machine), std::cout);

  const obs::Trace trace = machine.recorder()->trace();
  std::printf("\nlast %zu events (instruction log: each sample names the "
              "next instruction):\n",
              trace.events.size());
  obs::write_timeline(trace, std::cout);
  return outcome.completed && exit_code == 0 && checksum == golden ? 0 : 1;
}
