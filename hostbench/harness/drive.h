// The traced side of the benchmark: a run loop that drives a fault-free
// sim::Machine through its public parts (Hart::run up to the preemption
// quantum, Kernel::handle_trap on a trap, Kernel::preempt at the quantum)
// and times each call, plus the per-layer accumulators and in-isolation
// unit costs it reports.
//
// The loop reproduces sim::Machine::run exactly for machines without fault
// injection or tracing: the same run-loop state (kept in Machine::runloop(),
// so snapshots taken here are byte-identical to the machine's own
// checkpoints), the same preemption points, checkpoint schedule and
// watchdogs. Each workload checks that its traced repetition yields the same
// deterministic records as the untraced one.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "common.h"
#include "mpk/vkey_table.h"
#include "sim/machine.h"
#include "sim/stats.h"

namespace hostbench {

enum TrapBucket : u8 { kTrapEcall, kTrapPageFault, kTrapCamMiss, kTrapOther,
                       kNumTrapBuckets };
enum SysBucket : u8 {
  kSysMprotect, kSysPkey, kSysMark, kSysReport, kSysVpkeySet, kSysVpkeyAlloc,
  kSysVpkeyFree, kSysVpkeyMprotect, kSysVaultSeal, kSysVaultUnseal, kSysOther,
  kNumSysBuckets
};

struct Timed {
  double s = 0.0;
  u64 count = 0;
};

// Host seconds and counts, summed over every traced repetition of a run.
struct Layers {
  // guest build and admission
  double build_s = 0, instrument_s = 0, link_s = 0, verify_s = 0;
  // machine lifecycle
  double machine_new_s = 0, load_s = 0;
  // run loop
  double exec_s = 0;
  u64 instructions = 0;
  Timed trap;
  std::array<Timed, kNumTrapBuckets> traps{};
  std::array<Timed, kNumSysBuckets> sys{};
  Timed preempt;
  // snapshot and vault recovery
  Timed save;
  u64 save_bytes = 0;
  Timed restore;
  Timed replay;
  // counters folded from every finished machine
  sealpk::sim::MachineStats machine;
  u64 phys_pages = 0;  // largest materialised DRAM of any one machine
  sealpk::mpk::VkeyStats vkeys;

  // Self time of the layers timed inside a repetition's run loop.
  double run_self_s() const {
    return machine_new_s + load_s + exec_s + trap.s + preempt.s + save.s +
           restore.s + replay.s;
  }
};

// Runs `m` like sim::Machine::run(max_instructions), timing each layer into
// `layers`. When the machine checkpoints (MachineConfig::checkpoint_interval)
// the latest blob is stored in `*checkpoint`. Throws on a machine with fault
// injection or tracing enabled, which this loop does not model.
sealpk::sim::RunOutcome drive(sealpk::sim::Machine& m, u64 max_instructions,
                              Layers& layers,
                              std::vector<u8>* checkpoint = nullptr);

// Timed Machine construction and image load.
std::unique_ptr<sealpk::sim::Machine> new_machine(
    const sealpk::sim::MachineConfig& config, Layers& layers);
int load(sealpk::sim::Machine& m, const sealpk::isa::Image& image,
         Layers& layers);

// Adds the counters of a finished machine. `since` (optional) is the
// machine's collect_stats() right after a snapshot restore, so work the
// restored counters carry over is not counted twice.
void fold(sealpk::sim::Machine& m, Layers& layers,
          const sealpk::sim::MachineStats* since = nullptr);

// In-isolation costs of the interpreter's per-instruction building blocks,
// measured on inputs taken from the workload: its linked text, and the page
// tables and DRAM of a machine that ran it.
struct UnitCosts {
  double decode_ns = 0, tlb_lookup_ns = 0, walk_ns = 0, phys_read_ns = 0;
};
UnitCosts measure_unit_costs(
    const std::vector<const sealpk::isa::Image*>& images,
    sealpk::sim::Machine& finished, int pid);

// Per-layer metrics owned by one workload's driver; zero elsewhere.
struct Extras {
  double fleet_image_builds = 0, fleet_image_build_s = 0, fleet_dispatch_s = 0;
  double serve_epochs = 0, serve_crossings = 0, serve_host_ns_per_crossing = 0;
  double vault_points = 0, vault_resume_points = 0;
  // False when the guest is built once in set-up (fig5's image cache), so
  // the build layers are not part of a traced repetition's wall time.
  bool build_in_rep = true;
};

// Emits every per-layer metric, per traced repetition (`layers` holds the
// sum over `reps` repetitions). `traced_wall_s` is the mean traced
// repetition, `untraced_wall_s` the median untraced one.
void emit_layers(Result& out, const Layers& layers, double reps,
                 double traced_wall_s, double untraced_wall_s,
                 const UnitCosts& units, const Extras& extras);

}  // namespace hostbench
