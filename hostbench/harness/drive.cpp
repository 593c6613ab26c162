#include "drive.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "mem/tlb.h"
#include "mem/walker.h"
#include "os/syscall_abi.h"
#include "snapshot/snapshot.h"

namespace hostbench {

namespace sim = sealpk::sim;
namespace core = sealpk::core;
namespace os = sealpk::os;
namespace mem = sealpk::mem;

namespace {

TrapBucket trap_bucket(core::TrapCause cause) {
  switch (cause) {
    case core::TrapCause::kEcallFromU: return kTrapEcall;
    case core::TrapCause::kInstPageFault:
    case core::TrapCause::kLoadPageFault:
    case core::TrapCause::kStorePageFault: return kTrapPageFault;
    case core::TrapCause::kPkCamMiss: return kTrapCamMiss;
    default: return kTrapOther;
  }
}

SysBucket sys_bucket(u64 nr) {
  switch (nr) {
    case os::sys::kMprotect:
    case os::sys::kPkeyMprotect: return kSysMprotect;
    case os::sys::kPkeyAlloc:
    case os::sys::kPkeyFree:
    case os::sys::kPkeySeal:
    case os::sys::kPkeyPermSeal: return kSysPkey;
    case os::sys::kMark: return kSysMark;
    case os::sys::kReport: return kSysReport;
    case os::sys::kVpkeySet: return kSysVpkeySet;
    case os::sys::kVpkeyAlloc: return kSysVpkeyAlloc;
    case os::sys::kVpkeyFree: return kSysVpkeyFree;
    case os::sys::kVpkeyMprotect: return kSysVpkeyMprotect;
    case os::sys::kVaultSeal:
    case os::sys::kVaultReseal: return kSysVaultSeal;
    case os::sys::kVaultUnseal: return kSysVaultUnseal;
    default: return kSysOther;
  }
}

constexpr const char* kTrapNames[kNumTrapBuckets] = {"ecall", "page_fault",
                                                     "cam_miss", "other"};
constexpr const char* kSysNames[kNumSysBuckets] = {
    "mprotect",   "pkey",       "mark",       "report",
    "vpkey_set",  "vpkey_alloc", "vpkey_free", "vpkey_mprotect",
    "vault_seal", "vault_unseal", "other"};

// The layer timers must account for all but this share of a traced
// repetition's wall time, or the attribution is not trusted.
constexpr double kMaxUnattributedShare = 0.10;

// Keeps the optimizer from discarding a timed loop's results.
volatile u64 g_sink = 0;

}  // namespace

sim::RunOutcome drive(sim::Machine& m, u64 max_instructions, Layers& L,
                      std::vector<u8>* checkpoint) {
  const sim::MachineConfig& cfg = m.config();
  if (cfg.fault_plan.enabled || cfg.trace.enabled) {
    throw std::runtime_error(
        "traced loop drives fault-free, untraced machines only");
  }
  core::Hart& hart = m.hart();
  os::Kernel& kernel = m.kernel();
  sim::Machine::RunLoopState& rl = m.runloop();
  const u64 start_instret = hart.instret();
  const u64 start_cycles = hart.cycles();
  const u64 quantum = cfg.preempt_quantum;
  const u64 ckpt_every = cfg.checkpoint_interval;
  // Without fault injection the machine never audits; run() records that
  // as an all-ones deadline, which snapshots carry.
  if (rl.next_audit == 0) rl.next_audit = ~u64{0};

  while (!kernel.all_exited()) {
    const u64 done = hart.instret() - start_instret;
    if (done >= max_instructions) break;
    if (ckpt_every != 0 && hart.instret() >= rl.next_checkpoint) {
      rl.next_checkpoint = hart.instret() + ckpt_every;
      const double t0 = now_s();
      std::vector<u8> blob = sealpk::snapshot::save(m);
      L.save.s += now_s() - t0;
      ++L.save.count;
      L.save_bytes += blob.size();
      if (checkpoint != nullptr) *checkpoint = std::move(blob);
    }
    // Every check run() makes between steps is a pure function of the
    // retired count until the next trap, so one Hart::run chunk may cover
    // all steps up to the nearest budget, quantum or checkpoint deadline.
    u64 chunk = max_instructions - done;
    if (quantum != 0) chunk = std::min(chunk, quantum - rl.since_switch);
    if (ckpt_every != 0) {
      chunk = std::min(chunk, rl.next_checkpoint - hart.instret());
    }
    const u64 before = hart.instret();
    double t0 = now_s();
    const std::optional<core::StepResult> trap = hart.run(chunk);
    L.exec_s += now_s() - t0;
    const u64 retired = hart.instret() - before;
    L.instructions += retired;
    if (retired != 0) {
      rl.trap_streak = 0;
      rl.last_trap_pc = ~u64{0};
      rl.stall_streak = 0;
      if (quantum != 0) rl.since_switch += retired;
    }

    if (trap.has_value()) {
      const u64 trap_pc = hart.csrs().sepc;
      const TrapBucket bucket = trap_bucket(trap->cause);
      const u64 nr = hart.reg(17);  // a7: the syscall number of an ecall
      const u64 trap_instret = hart.instret();
      t0 = now_s();
      kernel.handle_trap();
      const double dt = now_s() - t0;
      L.trap.s += dt;
      ++L.trap.count;
      L.traps[bucket].s += dt;
      ++L.traps[bucket].count;
      if (bucket == kTrapEcall) {
        L.sys[sys_bucket(nr)].s += dt;
        ++L.sys[sys_bucket(nr)].count;
      }
      rl.since_switch = 0;
      rl.trap_streak = trap_pc == rl.last_trap_pc ? rl.trap_streak + 1 : 1;
      rl.last_trap_pc = trap_pc;
      if (cfg.watchdog_trap_storm != 0 &&
          rl.trap_streak >= cfg.watchdog_trap_storm) {
        kernel.kill_current(os::kExitTrapStorm,
                            os::Kernel::KillOrigin::kWatchdog);
        rl.trap_streak = 0;
        rl.last_trap_pc = ~u64{0};
        rl.stall_streak = 0;
      }
      if (hart.instret() != trap_instret) {
        rl.stall_streak = 0;
      } else if (cfg.watchdog_livelock != 0 &&
                 ++rl.stall_streak >= cfg.watchdog_livelock) {
        kernel.kill_current(os::kExitLivelock,
                            os::Kernel::KillOrigin::kWatchdog);
        rl.stall_streak = 0;
        rl.trap_streak = 0;
        rl.last_trap_pc = ~u64{0};
      }
    } else if (quantum != 0 && rl.since_switch >= quantum) {
      if (kernel.runnable_threads() > 1) {
        t0 = now_s();
        kernel.preempt();
        L.preempt.s += now_s() - t0;
        ++L.preempt.count;
      }
      rl.since_switch = 0;
    }
  }

  sim::RunOutcome out;
  out.completed = kernel.all_exited();
  out.instructions = hart.instret() - start_instret;
  out.cycles = hart.cycles() - start_cycles;
  return out;
}

std::unique_ptr<sim::Machine> new_machine(const sim::MachineConfig& config,
                                          Layers& L) {
  const double t0 = now_s();
  auto m = std::make_unique<sim::Machine>(config);
  L.machine_new_s += now_s() - t0;
  return m;
}

int load(sim::Machine& m, const sealpk::isa::Image& image, Layers& L) {
  const double t0 = now_s();
  const int pid = m.load(image);
  L.load_s += now_s() - t0;
  return pid;
}

void fold(sim::Machine& m, Layers& L, const sim::MachineStats* since) {
  const sim::MachineStats s = sim::collect_stats(m);
  const sim::MachineStats base =
      since != nullptr ? *since : sim::MachineStats{};
  sim::MachineStats& t = L.machine;
  t.loads += s.loads - base.loads;
  t.stores += s.stores - base.stores;
  t.wrpkr += s.wrpkr - base.wrpkr;
  t.rdpkr += s.rdpkr - base.rdpkr;
  t.pkey_denials += s.pkey_denials - base.pkey_denials;
  t.context_switches += s.context_switches - base.context_switches;
  t.pte_pages_updated += s.pte_pages_updated - base.pte_pages_updated;
  t.itlb.hits += s.itlb.hits - base.itlb.hits;
  t.itlb.misses += s.itlb.misses - base.itlb.misses;
  t.itlb.flushes += s.itlb.flushes - base.itlb.flushes;
  t.dtlb.hits += s.dtlb.hits - base.dtlb.hits;
  t.dtlb.misses += s.dtlb.misses - base.dtlb.misses;
  t.dtlb.flushes += s.dtlb.flushes - base.dtlb.flushes;
  t.pkr.perm_lookups += s.pkr.perm_lookups - base.pkr.perm_lookups;
  t.seal.checks += s.seal.checks - base.seal.checks;
  t.seal.cam_hits += s.seal.cam_hits - base.seal.cam_hits;
  t.seal.cam_misses += s.seal.cam_misses - base.seal.cam_misses;
  L.phys_pages = std::max<u64>(L.phys_pages, m.mem().materialized_pages());
  // Vkey tables restart from their restored counters too, but only the
  // vkey workload uses them and it never restores.
  for (const int pid : m.kernel().pids()) {
    const os::Process& proc = m.kernel().process(pid);
    if (!proc.vkeys) continue;
    const sealpk::mpk::VkeyStats& v = proc.vkeys->stats();
    L.vkeys.sets += v.sets;
    L.vkeys.map_ins += v.map_ins;
    L.vkeys.revivals += v.revivals;
    L.vkeys.mru_hits += v.mru_hits;
    L.vkeys.evictions += v.evictions;
    L.vkeys.drains += v.drains;
    L.vkeys.drain_flushes += v.drain_flushes;
    L.vkeys.pte_rekeys += v.pte_rekeys;
    L.vkeys.tlb_flushes += v.tlb_flushes;
  }
}

UnitCosts measure_unit_costs(
    const std::vector<const sealpk::isa::Image*>& images,
    sim::Machine& finished, int pid) {
  UnitCosts u;
  u64 sink = 0;

  // isa::decode over the linked text.
  std::vector<u32> words;
  for (const sealpk::isa::Image* image : images) {
    for (const sealpk::isa::Segment& seg : image->segments) {
      if (!seg.exec) continue;
      for (size_t i = 0; i + 4 <= seg.bytes.size() && words.size() < (1u << 16);
           i += 4) {
        words.push_back(static_cast<u32>(seg.bytes[i]) |
                        static_cast<u32>(seg.bytes[i + 1]) << 8 |
                        static_cast<u32>(seg.bytes[i + 2]) << 16 |
                        static_cast<u32>(seg.bytes[i + 3]) << 24);
      }
    }
  }
  if (!words.empty()) {
    const u64 reps = std::max<u64>(1, (2u << 20) / words.size());
    const double t0 = now_s();
    for (u64 r = 0; r < reps; ++r) {
      for (const u32 w : words) {
        const sealpk::isa::Inst inst = sealpk::isa::decode(w);
        sink += static_cast<u64>(inst.op) + inst.rd +
                static_cast<u64>(inst.imm);
      }
    }
    u.decode_ns =
        (now_s() - t0) * 1e9 / static_cast<double>(reps * words.size());
  }

  // The process's mapped pages: their VPNs feed the TLB, their addresses
  // the walker, and the physical frames behind the text the DRAM reads.
  const os::AddressSpace& aspace = *finished.kernel().process(pid).aspace;
  std::vector<u64> vaddrs;
  std::vector<u64> text_frames;
  for (const auto& [start, vma] : aspace.vmas()) {
    for (u64 va = vma.start; va < vma.end && vaddrs.size() < 4096;
         va += mem::kPageSize) {
      vaddrs.push_back(va);
      if ((vma.prot & os::prot::kExec) != 0) {
        const mem::WalkResult w = mem::walk(
            static_cast<const mem::PhysMem&>(finished.mem()), aspace.root_ppn(),
            va, mem::Access::kFetch);
        if (w.ok) text_frames.push_back(w.ppn << mem::kPageShift);
      }
    }
  }
  if (!vaddrs.empty()) {
    mem::Tlb tlb(32);
    const size_t resident = std::min<size_t>(32, vaddrs.size());
    for (size_t i = 0; i < resident; ++i) {
      mem::TlbEntry e;
      e.vpn = vaddrs[i] >> mem::kPageShift;
      e.ppn = e.vpn;
      tlb.insert(e);
    }
    const u64 lookups = 4u << 20;
    double t0 = now_s();
    for (u64 i = 0; i < lookups; ++i) {
      const auto hit = tlb.lookup(vaddrs[i % resident] >> mem::kPageShift);
      sink += hit ? hit->ppn : 1;
    }
    u.tlb_lookup_ns = (now_s() - t0) * 1e9 / static_cast<double>(lookups);

    const u64 walks = std::max<u64>(vaddrs.size(), 1u << 18);
    t0 = now_s();
    for (u64 i = 0; i < walks; ++i) {
      const mem::WalkResult w = mem::walk(
          static_cast<const mem::PhysMem&>(finished.mem()), aspace.root_ppn(),
          vaddrs[i % vaddrs.size()], mem::Access::kLoad);
      sink += w.ppn + w.accesses;
    }
    u.walk_ns = (now_s() - t0) * 1e9 / static_cast<double>(walks);
  }
  if (!text_frames.empty()) {
    const mem::PhysMem& dram = finished.mem();
    const u64 reads = 4u << 20;
    const u64 per_page = mem::kPageSize / 4;
    const double t0 = now_s();
    for (u64 i = 0; i < reads; ++i) {
      const u64 page = text_frames[(i / per_page) % text_frames.size()];
      sink += dram.read_u32(page + (i % per_page) * 4);
    }
    u.phys_read_ns = (now_s() - t0) * 1e9 / static_cast<double>(reads);
  }
  g_sink = sink;
  return u;
}

void emit_layers(Result& out, const Layers& L, double reps,
                 double traced_wall_s, double untraced_wall_s,
                 const UnitCosts& u, const Extras& x) {
  const auto per = [reps](double v) { return v / reps; };
  const auto ratio = [](double num, double den) {
    return den == 0 ? 0.0 : num / den;
  };
  const sim::MachineStats& s = L.machine;

  out.metric("workloads.build_s", per(L.build_s), "s");
  out.metric("passes.instrument_s", per(L.instrument_s), "s");
  out.metric("isa.link_s", per(L.link_s), "s");
  out.metric("analysis.verify_s", per(L.verify_s), "s");
  out.metric("sim.machine_new_s", per(L.machine_new_s), "s");
  out.metric("os.load_s", per(L.load_s), "s");

  const double exec_ns = L.exec_s * 1e9;
  const double insts = static_cast<double>(L.instructions);
  const double itlb = static_cast<double>(s.itlb.hits + s.itlb.misses);
  const double dtlb = static_cast<double>(s.dtlb.hits + s.dtlb.misses);
  out.metric("core.exec_s", per(L.exec_s), "s");
  out.metric("core.instructions", per(insts), "count");
  out.metric("core.ns_per_inst", ratio(exec_ns, insts), "ns");
  out.metric("core.est_decode_share", ratio(insts * u.decode_ns, exec_ns),
             "ratio");
  out.metric("core.est_fetch_share",
             ratio(itlb * u.tlb_lookup_ns +
                       static_cast<double>(s.itlb.misses) * u.walk_ns +
                       insts * u.phys_read_ns,
                   exec_ns),
             "ratio");
  out.metric("core.est_data_share",
             ratio(dtlb * u.tlb_lookup_ns +
                       static_cast<double>(s.dtlb.misses) * u.walk_ns +
                       static_cast<double>(s.loads + s.stores) * u.phys_read_ns,
                   exec_ns),
             "ratio");

  out.metric("isa.decode_ns", u.decode_ns, "ns");
  out.metric("mem.tlb_lookup_ns", u.tlb_lookup_ns, "ns");
  out.metric("mem.walk_ns", u.walk_ns, "ns");
  out.metric("mem.phys_read_ns", u.phys_read_ns, "ns");

  out.metric("mem.itlb_hits", per(s.itlb.hits), "count");
  out.metric("mem.itlb_misses", per(s.itlb.misses), "count");
  out.metric("mem.dtlb_hits", per(s.dtlb.hits), "count");
  out.metric("mem.dtlb_misses", per(s.dtlb.misses), "count");
  out.metric("mem.dtlb_hit_ratio", ratio(s.dtlb.hits, dtlb), "ratio");
  out.metric("mem.tlb_flushes", per(s.itlb.flushes + s.dtlb.flushes), "count");
  out.metric("mem.phys_pages", static_cast<double>(L.phys_pages), "count");

  out.metric("hw.wrpkr", per(s.wrpkr), "count");
  out.metric("hw.rdpkr", per(s.rdpkr), "count");
  out.metric("hw.pkr_perm_lookups", per(s.pkr.perm_lookups), "count");
  out.metric("hw.seal_checks", per(s.seal.checks), "count");
  out.metric("hw.cam_hits", per(s.seal.cam_hits), "count");
  out.metric("hw.cam_misses", per(s.seal.cam_misses), "count");
  out.metric("hw.pkey_denials", per(s.pkey_denials), "count");

  out.metric("os.trap_s", per(L.trap.s), "s");
  out.metric("os.traps", per(L.trap.count), "count");
  out.metric("os.ns_per_trap", ratio(L.trap.s * 1e9, L.trap.count), "ns");
  for (size_t i = 0; i < kNumTrapBuckets; ++i) {
    const std::string name = std::string("os.trap.") + kTrapNames[i];
    out.metric(name + ".s", per(L.traps[i].s), "s");
    out.metric(name + ".count", per(L.traps[i].count), "count");
  }
  for (size_t i = 0; i < kNumSysBuckets; ++i) {
    const std::string name = std::string("os.sys.") + kSysNames[i];
    out.metric(name + ".s", per(L.sys[i].s), "s");
    out.metric(name + ".count", per(L.sys[i].count), "count");
  }
  out.metric("os.preempt_s", per(L.preempt.s), "s");
  out.metric("os.context_switches", per(s.context_switches), "count");
  out.metric("os.pte_pages_updated", per(s.pte_pages_updated), "count");

  const sealpk::mpk::VkeyStats& v = L.vkeys;
  out.metric("mpk.map_ins", per(v.map_ins), "count");
  out.metric("mpk.evictions", per(v.evictions), "count");
  out.metric("mpk.drains", per(v.drains), "count");
  out.metric("mpk.drain_flushes", per(v.drain_flushes), "count");
  out.metric("mpk.pte_rekeys", per(v.pte_rekeys), "count");
  out.metric("mpk.tlb_flushes", per(v.tlb_flushes), "count");
  out.metric("mpk.mru_hit_ratio", ratio(v.mru_hits, v.sets), "ratio");
  out.metric("mpk.revival_ratio", ratio(v.revivals, v.drains), "ratio");

  out.metric("snapshot.save_s", per(L.save.s), "s");
  out.metric("snapshot.restore_s", per(L.restore.s), "s");
  out.metric("snapshot.saves", per(L.save.count), "count");
  out.metric("snapshot.bytes_per_save", ratio(L.save_bytes, L.save.count), "B");

  out.metric("vault.replay_s", per(L.replay.s), "s");
  out.metric("vault.points", x.vault_points, "count");
  out.metric("vault.resume_points", x.vault_resume_points, "count");

  out.metric("serve.epochs", x.serve_epochs, "count");
  out.metric("serve.crossings", x.serve_crossings, "count");
  out.metric("serve.host_ns_per_crossing", x.serve_host_ns_per_crossing, "ns");

  out.metric("fleet.image_builds", x.fleet_image_builds, "count");
  out.metric("fleet.image_build_s", x.fleet_image_build_s, "s");
  out.metric("fleet.dispatch_s", x.fleet_dispatch_s, "s");

  // Everything a traced repetition spent outside the timed layers: result
  // assembly, record comparison, machine teardown, the clock reads.
  const double inside = per(L.run_self_s()) +
                        (x.build_in_rep ? per(L.build_s + L.instrument_s +
                                              L.link_s + L.verify_s)
                                        : 0.0);
  const double unattributed = traced_wall_s - inside;
  out.metric("bench.trace_overhead_ratio",
             ratio(traced_wall_s, untraced_wall_s), "ratio");
  out.metric("bench.unattributed_s", unattributed, "s");
  if (unattributed > kMaxUnattributedShare * traced_wall_s) {
    out.fail("unattributed host time exceeds " +
             std::to_string(kMaxUnattributedShare) + " of traced wall time");
  }
}

}  // namespace hostbench
