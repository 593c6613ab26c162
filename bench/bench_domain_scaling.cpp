// Domain-count scaling (paper §I / §III-A): SealPK's 1024 native keys vs.
// Intel MPK's 16, and the cost of scaling past the physical limit with
// key virtualization (the paper's §VI libmpk comparison: virtualization
// works but pays PTE rewrites and TLB shootdowns on eviction).
//
// Part 1: allocate-to-failure on real machines of both flavours.
// Part 2: the in-kernel virtualization layer (src/mpk/vkey_table.h) under
//         the session-server workload on both flavours — guest runs whose
//         PTE rewrites and shootdowns happen through the live page tables,
//         eager vs lazy sync vs the raw-pkey baseline where it fits.
//
// Exits 1 if a Part 1 count is off or any Part 2 run fails its checksum.
#include <cstdio>

#include "mpk/session.h"
#include "runtime/guest.h"
#include "sim/machine.h"

using namespace sealpk;
using namespace sealpk::isa;

namespace {

u64 alloc_to_failure(core::IsaFlavor flavor) {
  Program prog;
  rt::add_crt0(prog);
  Function& f = prog.add_function("main");
  const Label loop = f.new_label(), done = f.new_label();
  f.li(s0, 0);
  f.bind(loop);
  f.li(a0, 0);
  f.li(a1, 0);
  rt::syscall(f, os::sys::kPkeyAlloc);
  f.blez(a0, done);
  f.addi(s0, s0, 1);
  f.j(loop);
  f.bind(done);
  f.mv(a0, s0);
  rt::syscall(f, os::sys::kReport);
  f.li(a0, 0);
  f.ret();

  sim::MachineConfig cfg;
  cfg.hart.flavor = flavor;
  sim::Machine machine(cfg);
  machine.load(prog.link());
  machine.run();
  return machine.kernel().reports().at(0);
}

}  // namespace

int main() {
  bool ok = true;
  std::printf("Part 1: pkey_alloc until exhaustion (real guest run)\n");
  const u64 sealpk_keys = alloc_to_failure(core::IsaFlavor::kSealPk);
  const u64 mpk_keys = alloc_to_failure(core::IsaFlavor::kIntelMpkCompat);
  ok &= sealpk_keys == 1023 && mpk_keys == 15;
  std::printf("  SealPK flavour:    %llu usable keys (paper: 1024 incl. "
              "the default key)\n",
              static_cast<unsigned long long>(sealpk_keys));
  std::printf("  Intel-MPK flavour: %llu usable keys (paper: 16 incl. the "
              "default key)\n\n",
              static_cast<unsigned long long>(mpk_keys));

  std::printf(
      "Part 2: in-kernel vkey virtualization, session-server guest runs\n"
      "(one domain per session, seeded connect/touch/disconnect churn;\n"
      "PTE rewrites and shootdowns through the live page tables)\n\n");
  std::printf("%10s %11s %12s %10s %10s %10s %12s\n", "sessions", "mode",
              "churn/sec", "evictions", "revivals", "flushes", "cyc/op");
  for (const u64 sessions : {8u, 16u, 64u, 512u, 1024u, 2048u, 4096u}) {
    for (const core::IsaFlavor flavor :
         {core::IsaFlavor::kSealPk, core::IsaFlavor::kIntelMpkCompat}) {
      for (int mode = 0; mode < 3; ++mode) {
        mpk::SessionConfig cfg;
        cfg.flavor = flavor;
        cfg.sessions = sessions;
        cfg.ops = 2 * sessions;
        cfg.raw = mode == 0;
        cfg.lazy_sync = mode == 2;
        if (cfg.raw && (flavor != core::IsaFlavor::kSealPk ||
                        sessions > mpk::kRawSessionCap)) {
          continue;
        }
        const mpk::SessionResult r = mpk::run_session_server(cfg);
        ok &= r.ok();
        std::printf("%10llu %11s %12llu %10llu %10llu %10llu %12.1f %s\n",
                    static_cast<unsigned long long>(sessions),
                    mpk::session_mode(cfg),
                    static_cast<unsigned long long>(r.churn_per_sec()),
                    static_cast<unsigned long long>(r.vstats.evictions),
                    static_cast<unsigned long long>(r.vstats.revivals),
                    static_cast<unsigned long long>(r.vstats.tlb_flushes),
                    static_cast<double>(r.cycles) /
                        static_cast<double>(r.churn_ops),
                    r.ok() ? "" : "FAILED");
      }
    }
  }
  std::printf(
      "\nShape: both flavours run the same vkey table; only the physical\n"
      "budget differs. MPK (14 keys after the park key) starts evicting\n"
      "at 16 sessions and sits at ~640-650 cyc/op eager from 512 on; SealPK\n"
      "stays at ~508 cyc/op, with no evictions, until 1023 and climbs only\n"
      "past that. The eviction cliff is ~1.2-1.3x per churn op, not orders of\n"
      "magnitude: the vkey bookkeeping itself (~2.3x raw pkeys) costs more.\n"
      "Lazy sync trims ~4-5%% on either flavour by batching shootdowns.\n");
  return ok ? 0 : 1;
}
