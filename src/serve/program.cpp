#include "serve/program.h"

#include <algorithm>

#include "common/rng.h"
#include "os/syscall_abi.h"
#include "runtime/guest.h"
#include "vault/format.h"

using namespace sealpk::isa;

namespace sealpk::serve {

namespace {

// The interrupted-gate probe's load sentinel: a denied (skipped) load
// leaves it in the register, a load that actually reached the zeroed
// monitor slot does not.
constexpr i64 kProbeSentinel = 0x13F1;

// The monitor's sealed side-vault: one page, one intent/commit journal
// pair, one 64-byte secret bundle. The vault key is write-only and
// perm-sealed with an empty WRPKR range, the monitor key is the owner.
constexpr u64 kVaultPageSize = 4096;
constexpr u64 kVaultSlotLen = 64;
constexpr u64 kVaultDataOff =
    vault::kSuperblockSize + 2 * vault::kRecordSize;
// Salt for the secret stream (word j = mix64(key + j)); any value works,
// it only needs to differ from the request-payload stream.
constexpr u64 kVaultSecretSalt = 0x5EC2E7ULL;

vault::Geometry serve_vault_geometry(u32 slots) {
  vault::Geometry g;
  g.vault_pkey = vault_pkey_for(slots);
  g.owner_pkey = kMonitorPkey;
  g.journal_cap = 2;
  g.data_off = kVaultDataOff;
  g.n_slots = 1;
  g.slot_size = kVaultSlotLen;
  return g;
}

u64 vault_secret_key(u64 seed) { return mix64(seed ^ kVaultSecretSalt); }

std::vector<u8> vault_secret_bytes(u64 seed) {
  std::vector<u8> out(kVaultSlotLen, 0);
  const u64 key = vault_secret_key(seed);
  for (u64 j = 0; j < kVaultSlotLen / 8; ++j) {
    vault::store_u64(&out[j * 8], mix64(key + j));
  }
  return out;
}

std::string row_name(u32 slot) { return "__row_h" + std::to_string(slot); }

std::vector<u8> u64le(u64 v) {
  std::vector<u8> b(8);
  for (int i = 0; i < 8; ++i) b[static_cast<size_t>(i)] = u8(v >> (8 * i));
  return b;
}

// PKR row values (all keys live in row 0: monitor = 1, slot k = 2 + k,
// pkey 0 stays RW so code/stack/blob accesses always work).
u64 row_all_closed(u32 slots) {
  u64 row = u64{0b11} << (2 * kMonitorPkey);
  for (u32 k = 0; k < slots; ++k) row |= u64{0b11} << (2 * (2 + k));
  // The side-vault key is write-only in every row — the gates' RDPKR
  // equality checks must expect its field.
  row |= u64{os::pkeyperm::kWriteOnly} << (2 * vault_pkey_for(slots));
  return row;
}
u64 row_monitor_open(u32 slots) {
  return row_all_closed(slots) & ~(u64{0b11} << (2 * kMonitorPkey));
}
u64 row_handler_open(u32 slots, u32 slot) {
  return row_all_closed(slots) & ~(u64{0b11} << (2 * (2 + slot)));
}

// mark(kind, arg0, arg1, pkey); preserves everything but a0.
void emit_mark(Function& f) { rt::syscall(f, os::sys::kMark); }

// The hostile preamble planted at the top of __handler_0. Every variant is
// guarded by `beqz a0, benign` so the init-time latch call (payload 0 —
// real payloads are splitmix64 outputs, never 0) stays benign.
void emit_attack_preamble(Function& f, redteam::AttackKind kind,
                          Label benign) {
  using redteam::AttackKind;
  if (kind == AttackKind::kNone || kind == AttackKind::kPkrGlitch) return;
  f.beqz(a0, benign);
  switch (kind) {
    case AttackKind::kGadgetWrpkr:
      // Never reached under kEnforce: the literal gadget below makes the
      // admission gate refuse the image before it can run.
      f.li(t1, kMonitorPkey);
      f.li(t2, 0);
      f.wrpkr(t1, t2);
      break;
    case AttackKind::kRogueWrpkr:
      // Runs with the static verifier off (models JIT-emitted code): a
      // WRPKR naming the handler's own perm-sealed key from outside its
      // gate range. The hardware sealed-WRPKR check must fire.
      f.li(t1, 2);
      f.li(t2, 0);
      f.wrpkr(t1, t2);  // SealViolation -> delivered -> skipped
      break;
    case AttackKind::kMonitorTamper:
      f.la(t0, "__mon_base");
      f.ld(t0, 0, t0);
      f.li(t1, 0xDEAD);
      f.sd(t1, kMonCanary, t0);  // pkey denial -> delivered -> skipped
      break;
    case AttackKind::kStackTamper:
      // The spray lands (the stack is pkey-0 by design) but the monitor
      // keeps nothing there; the protected loop index does not budge.
      f.li(t1, 0x57ACC);
      f.sd(t1, 0, sp);
      f.sd(t1, 8, sp);
      f.sd(t1, 16, sp);
      f.sd(t1, 24, sp);
      f.la(t0, "__mon_base");
      f.ld(t0, 0, t0);
      f.sd(t1, kMonIndex, t0);  // pkey denial -> delivered -> skipped
      break;
    case AttackKind::kForgedPkrFlow: {
      // Re-enter the gate directly (once per run, latched in scratch[8]).
      // The inner gate's return-address save is denied, so when it
      // finishes it returns to the *monitor's* saved continuation — the
      // forged flow never gets control back.
      f.la(t0, "__scratch_table");
      f.ld(t0, 0, t0);
      f.ld(t1, 8, t0);
      f.bnez(t1, benign);
      f.li(t1, 1);
      f.sd(t1, 8, t0);
      f.li(a0, 0xBAD);
      f.la(t0, "__gate_0");
      f.jalr_reg(ra, t0);  // never returns here
      break;
    }
    case AttackKind::kGateExitHijack:
      // Skip the gate-exit instructions that drop this handler's key.
      f.li(a0, 0xBAD);
      f.addi(t0, ra, kGateExitDropBytes);
      f.jr(t0);
      break;
    case AttackKind::kInterruptedGate: {
      // Spawn a sibling that inherits this half-open row (monitor closed)
      // and hammers the monitor page across preemption traps.
      const Label spawned = f.new_label();
      f.mv(t6, a0);
      f.la(t0, "__scratch_table");
      f.ld(t0, 0, t0);
      f.ld(t1, 8, t0);
      f.bnez(t1, spawned);
      f.li(t1, 1);
      f.sd(t1, 8, t0);
      f.li(a0, 0);
      f.li(a1, 16384);
      f.li(a2, 3);
      rt::syscall(f, os::sys::kMmap);
      f.li(t0, 16384);
      f.add(a1, a0, t0);
      f.la(a0, "__probe");
      f.li(a2, 0);
      rt::syscall(f, os::sys::kClone);
      f.bind(spawned);
      f.mv(a0, t6);
      break;
    }
    case AttackKind::kRunawayHandler: {
      const Label spin = f.new_label();
      f.bind(spin);
      f.j(spin);
      break;
    }
    case AttackKind::kVaultProbe: {
      // Two load probes against the write-only vault: the superblock magic
      // and the secret bundle itself. A denied (skipped) load leaves the
      // sentinel in t2; both targets hold nonzero words, so a load that
      // lands cannot fake a denial. Accounted through the same probe
      // ledger the sibling-thread attack uses (reports [2]/[3]).
      const Label second = f.new_label(), count1 = f.new_label(),
                  count2 = f.new_label();
      f.la(t5, "__vault_base");
      f.ld(t5, 0, t5);
      f.li(t6, kProbeSentinel);
      f.la(t0, "__probe_attempts");
      f.ld(t1, 0, t0);
      f.addi(t1, t1, 2);
      f.sd(t1, 0, t0);
      f.mv(t2, t6);
      f.ld(t2, 0, t5);  // superblock magic — read-disabled, denied
      f.bne(t2, t6, count1);
      f.bind(second);
      f.mv(t2, t6);
      f.ld(t2, static_cast<i64>(kVaultDataOff), t5);  // the secret itself
      f.bne(t2, t6, count2);
      f.j(benign);
      f.bind(count1);
      f.la(t0, "__probe_success");
      f.ld(t1, 0, t0);
      f.addi(t1, t1, 1);
      f.sd(t1, 0, t0);
      f.j(second);
      f.bind(count2);
      f.la(t0, "__probe_success");
      f.ld(t1, 0, t0);
      f.addi(t1, t1, 1);
      f.sd(t1, 0, t0);
      break;
    }
    case AttackKind::kForgedUnseal:
      // vault_unseal from the handler's own domain: this row has the owner
      // (monitor) key closed, so the kernel's ownership gate must refuse
      // and notarise the denial — and the handler-tagged dst could never
      // pass the owner-domain destination check anyway. A copy that did
      // land would surface host-side as vault_leaks (no unseal in this
      // workload is legitimate).
      f.mv(t6, a0);  // the request payload must survive the ecall
      f.la(a0, "__vault_base");
      f.ld(a0, 0, a0);
      f.li(a1, static_cast<i64>(kVaultSecretId));
      f.la(a2, "__scratch_table");
      f.ld(a2, 0, a2);
      rt::syscall(f, os::sys::kVaultUnseal);
      f.mv(a0, t6);
      break;
    case AttackKind::kNone:
    case AttackKind::kPkrGlitch:
      break;
  }
}

void add_sighandler(Program& p) {
  // Entered with a0 = cause. Denials on the main thread poison the current
  // attempt; probe-thread denials are silently skipped (the probe's own
  // sentinel accounting decides whether anything landed).
  Function& f = p.add_function("__serve_sighandler");
  f.instrumentable = false;
  const Label skip = f.new_label();
  f.mv(t0, a0);
  rt::syscall(f, os::sys::kGetTid);
  f.la(t1, "__main_tid");
  f.ld(t1, 0, t1);
  f.bne(a0, t1, skip);
  f.la(t1, "__poison");
  f.sd(t0, 0, t1);
  f.bind(skip);
  f.li(a0, 1);  // resume after the (denied) instruction
  rt::syscall(f, os::sys::kSigreturn);
}

void add_probe(Program& p) {
  Function& f = p.add_function("__probe");
  f.instrumentable = false;
  const Label loop = f.new_label(), store_probe = f.new_label(),
              stopped = f.new_label(), count = f.new_label();
  f.la(t0, "__mon_base");
  f.ld(t5, 0, t0);
  f.li(t6, kProbeSentinel);
  f.bind(loop);
  f.la(t0, "__probe_stop");
  f.ld(t0, 0, t0);
  f.bnez(t0, stopped);
  f.la(t0, "__probe_attempts");
  f.ld(t1, 0, t0);
  f.addi(t1, t1, 1);
  f.sd(t1, 0, t0);
  // Load probe: a denied (skipped) load leaves the sentinel in t2; the
  // monitor slot holds 0, so a load that lands cannot fake a denial.
  f.mv(t2, t6);
  f.ld(t2, kMonProbe, t5);
  f.bne(t2, t6, count);
  f.bind(store_probe);
  // Store probe: if this ever lands, the very next load probe reads the
  // sentinel from monitor memory — but the first landing load has already
  // read 0 and counted a success by then.
  f.sd(t6, kMonProbe, t5);
  // Yield after every probe pair: the probe is trap-dense (each denied
  // access resets the run loop's preemption counter), so without an
  // explicit yield it would monopolise the hart once scheduled. Yielding
  // also walks the monitor through many distinct preemption offsets —
  // exactly the half-open-gate windows the attack is hunting.
  rt::syscall(f, os::sys::kSchedYield);
  f.j(loop);
  f.bind(count);
  f.la(t0, "__probe_success");
  f.ld(t1, 0, t0);
  f.addi(t1, t1, 1);
  f.sd(t1, 0, t0);
  f.j(store_probe);
  f.bind(stopped);
  rt::syscall(f, os::sys::kSchedYield);
  f.j(stopped);
}

void add_gate(Program& p, u32 slot) {
  Function& g = p.add_function(gate_name(slot));
  g.instrumentable = false;
  const Label call_handler = g.new_label(), exit_path = g.new_label(),
              exit_clean = g.new_label();
  g.seal_start(0);
  // Save the monitor's return address in monitor memory while the monitor
  // key is still open — a forged entry (handler calling the gate directly)
  // arrives with it closed, so this store is denied and the gate can only
  // return to the monitor's own continuation.
  g.la(t0, "__mon_base");
  g.ld(t0, 0, t0);
  g.sd(ra, kMonSavedRa, t0);
  // Two WRPKRs per crossing: close the monitor key, open the handler key
  // (merge_sealed_row only lets a write change the key it names).
  g.li(t1, kMonitorPkey);
  g.la(t2, "__row_closed");
  g.ld(t2, 0, t2);
  g.wrpkr(t1, t2);
  g.li(t1, static_cast<i64>(2 + slot));
  g.la(t2, row_name(slot));
  g.ld(t2, 0, t2);
  g.wrpkr(t1, t2);
  // Entry monotonic check: the row must be exactly what we staged (PKR
  // glitches — kPkrGlitch — are caught here before any plugin code runs).
  g.rdpkr(t3, t1);
  g.beq(t3, t2, call_handler);
  g.la(t4, "__poison");
  g.li(t5, kPoisonGateEntry);
  g.sd(t5, 0, t4);
  g.li(a0, 0);
  g.j(exit_path);
  g.bind(call_handler);
  g.call(handler_name(slot));
  g.bind(exit_path);
  // Drop the handler key. EXACTLY kGateExitDropBytes of instructions: the
  // gate-exit-hijack attack jumps ra + kGateExitDropBytes to skip them.
  g.li(t1, static_cast<i64>(2 + slot));
  g.la(t2, "__row_closed");
  g.ld(t2, 0, t2);
  g.wrpkr(t1, t2);
  // Reopen the monitor key.
  g.li(t1, kMonitorPkey);
  g.la(t2, "__row_open");
  g.ld(t2, 0, t2);
  g.wrpkr(t1, t2);
  // Post-exit monotonic check: any key the handler left open (hijack, PKR
  // glitch) shows up here; scrub the row and poison the attempt.
  g.rdpkr(t3, t1);
  g.beq(t3, t2, exit_clean);
  g.li(t1, static_cast<i64>(2 + slot));
  g.wrpkr(t1, t2);  // names our own sealed key: in-range, restores __row_open
  g.la(t4, "__poison");
  g.li(t5, kPoisonGateExit);
  g.sd(t5, 0, t4);
  g.bind(exit_clean);
  g.la(t0, "__mon_base");
  g.ld(t0, 0, t0);
  g.ld(ra, kMonSavedRa, t0);
  g.seal_end(0);
  g.ret();
}

void add_handler(Program& p, u32 slot, const WorkloadSpec& spec) {
  Function& h = p.add_function(handler_name(slot));
  h.instrumentable = false;
  const Label benign = h.new_label();
  if (slot == 0) emit_attack_preamble(h, spec.attack, benign);
  h.bind(benign);
  h.la(t0, "__scratch_table");
  h.ld(t0, 8 * static_cast<i64>(slot), t0);
  h.li(t1, static_cast<i64>(std::max<u32>(spec.rounds, 1)));
  h.li(t2, static_cast<i64>(slot) + 1);
  const Label loop = h.new_label();
  h.bind(loop);
  h.xor_(a0, a0, t2);
  rt::emit_mix(h, a0, t3, t4);
  h.sd(a0, 0, t0);  // round-trip through this domain's tagged scratch
  h.ld(a0, 0, t0);
  h.addi(t1, t1, -1);
  h.bnez(t1, loop);
  h.ret();
}

void add_init(Program& p, const WorkloadSpec& spec) {
  const u32 slots = slot_count(spec);
  Function& f = p.add_function("__serve_init");
  f.instrumentable = false;
  f.mv(s0, ra);  // the latch calls below clobber ra
  rt::syscall(f, os::sys::kGetTid);
  f.la(t0, "__main_tid");
  f.sd(a0, 0, t0);
  // Register the handler before anything can fault.
  f.la(a0, "__serve_sighandler");
  rt::syscall(f, os::sys::kSigaction);
  // Monitor page, then one scratch page per slot.
  f.li(a0, 0);
  f.li(a1, 4096);
  f.li(a2, 3);
  rt::syscall(f, os::sys::kMmap);
  f.la(t0, "__mon_base");
  f.sd(a0, 0, t0);
  for (u32 k = 0; k < slots; ++k) {
    f.li(a0, 0);
    f.li(a1, 4096);
    f.li(a2, 3);
    rt::syscall(f, os::sys::kMmap);
    f.la(t0, "__scratch_table");
    f.sd(a0, 8 * static_cast<i64>(k), t0);
  }
  // Key numbering is part of the protocol (the row constants bake it in):
  // monitor = 1, slot k = 2 + k. Anything else is a build bug.
  f.li(a0, 0);
  f.li(a1, static_cast<i64>(os::pkeyperm::kRw));
  rt::syscall(f, os::sys::kPkeyAlloc);
  {
    const Label ok = f.new_label();
    f.li(t1, kMonitorPkey);
    f.beq(a0, t1, ok);
    rt::emit_exit(f, kExitBadPkey);
    f.bind(ok);
  }
  for (u32 k = 0; k < slots; ++k) {
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kNone));
    rt::syscall(f, os::sys::kPkeyAlloc);
    const Label ok = f.new_label();
    f.li(t1, static_cast<i64>(2 + k));
    f.beq(a0, t1, ok);
    rt::emit_exit(f, kExitBadPkey);
    f.bind(ok);
  }
  // Tag the pages.
  f.la(a0, "__mon_base");
  f.ld(a0, 0, a0);
  f.li(a1, 4096);
  f.li(a2, 3);
  f.li(a3, kMonitorPkey);
  rt::syscall(f, os::sys::kPkeyMprotect);
  {
    const Label ok = f.new_label();
    f.beqz(a0, ok);
    rt::emit_exit(f, kExitBadPkey);
    f.bind(ok);
  }
  for (u32 k = 0; k < slots; ++k) {
    f.la(a0, "__scratch_table");
    f.ld(a0, 8 * static_cast<i64>(k), a0);
    f.li(a1, 4096);
    f.li(a2, 3);
    f.li(a3, static_cast<i64>(2 + k));
    rt::syscall(f, os::sys::kPkeyMprotect);
    const Label ok = f.new_label();
    f.beqz(a0, ok);
    rt::emit_exit(f, kExitBadPkey);
    f.bind(ok);
  }
  // Monitor page contents: canary + zeroed counters/slots.
  f.la(t0, "__mon_base");
  f.ld(t0, 0, t0);
  f.li(t1, static_cast<i64>(kCanary));
  f.sd(t1, kMonCanary, t0);
  f.sd(zero, kMonServed, t0);
  f.sd(zero, kMonIndex, t0);
  f.sd(zero, kMonSavedSp, t0);
  f.sd(zero, kMonSavedRa, t0);
  f.sd(zero, kMonProbe, t0);
  // Dispatch table.
  for (u32 k = 0; k < slots; ++k) {
    f.la(t1, gate_name(k));
    f.la(t0, "__gate_table");
    f.sd(t1, 8 * static_cast<i64>(k), t0);
  }
  // Latch + seal each handler key: one benign pass through its gate stages
  // seal.start/seal.end at the gate's own PCs, then pkey_perm_seal commits
  // them into the PK-CAM. Payload 0 keeps attack preambles dormant.
  for (u32 k = 0; k < slots; ++k) {
    f.li(a0, 0);
    f.call(gate_name(k));
    f.li(a0, static_cast<i64>(2 + k));
    rt::syscall(f, os::sys::kPkeyPermSeal);
    const Label ok = f.new_label();
    f.beqz(a0, ok);
    rt::emit_exit(f, kExitSealFailed);
    f.bind(ok);
  }
  // The monitor key's range spans every gate: region markers bracket them.
  f.call("__gate_region_start");
  f.call("__gate_region_end");
  f.li(a0, kMonitorPkey);
  rt::syscall(f, os::sys::kPkeyPermSeal);
  {
    const Label ok = f.new_label();
    f.beqz(a0, ok);
    rt::emit_exit(f, kExitSealFailed);
    f.bind(ok);
  }
  // --- the monitor's sealed side-vault (the durability red team's target).
  // Bootstrapped last, after every key above is sealed: from here on the
  // only WRPKRs that ever execute are gate crossings, and merge_sealed_row
  // keeps the vault key's write-only field untouched by them.
  f.li(a0, 0);
  f.li(a1, static_cast<i64>(kVaultPageSize));
  f.li(a2, 3);
  rt::syscall(f, os::sys::kMmap);
  f.la(t0, "__vault_base");
  f.sd(a0, 0, t0);
  f.la(t0, "__vault_super");
  f.la(t1, "__vault_base");
  f.ld(t1, 0, t1);
  for (i64 i = 0; i < 10; ++i) {
    f.ld(t2, 8 * i, t0);
    f.sd(t2, 8 * i, t1);
  }
  f.li(a0, 0);
  f.li(a1, static_cast<i64>(os::pkeyperm::kWriteOnly));
  rt::syscall(f, os::sys::kPkeyAlloc);
  {
    const Label ok = f.new_label();
    f.li(t1, static_cast<i64>(vault_pkey_for(slots)));
    f.beq(a0, t1, ok);
    rt::emit_exit(f, kExitVaultSetup);
    f.bind(ok);
  }
  f.la(a0, "__vault_base");
  f.ld(a0, 0, a0);
  f.li(a1, static_cast<i64>(kVaultPageSize));
  f.li(a2, 3);
  f.li(a3, static_cast<i64>(vault_pkey_for(slots)));
  rt::syscall(f, os::sys::kPkeyMprotect);
  {
    const Label ok = f.new_label();
    f.beqz(a0, ok);
    rt::emit_exit(f, kExitVaultSetup);
    f.bind(ok);
  }
  // Seal the vault domain and its pages, then perm-seal the key over the
  // empty range the latch stages: nothing may ever rewrite its PKR field.
  f.li(a0, static_cast<i64>(vault_pkey_for(slots)));
  f.li(a1, 1);
  f.li(a2, 1);
  rt::syscall(f, os::sys::kPkeySeal);
  {
    const Label ok = f.new_label();
    f.beqz(a0, ok);
    rt::emit_exit(f, kExitVaultSetup);
    f.bind(ok);
  }
  f.call("__vault_latch");
  f.li(a0, static_cast<i64>(vault_pkey_for(slots)));
  rt::syscall(f, os::sys::kPkeyPermSeal);
  {
    const Label ok = f.new_label();
    f.beqz(a0, ok);
    rt::emit_exit(f, kExitVaultSetup);
    f.bind(ok);
  }
  // Intent record into journal slot 0, then the secret bundle generated in
  // registers straight into the write-only slot, then the commit ecall.
  f.la(t0, "__vault_intent");
  f.la(t1, "__vault_base");
  f.ld(t1, 0, t1);
  for (i64 i = 0; i < 8; ++i) {
    f.ld(t2, 8 * i, t0);
    f.sd(t2, static_cast<i64>(vault::kSuperblockSize) + 8 * i, t1);
  }
  f.la(t1, "__vault_base");
  f.ld(t1, 0, t1);
  f.li(t2, static_cast<i64>(kVaultDataOff));
  f.add(t1, t1, t2);
  f.li(t0, static_cast<i64>(vault_secret_key(spec.seed)));
  f.li(t2, 0);
  f.li(t3, static_cast<i64>(kVaultSlotLen / 8));
  {
    const Label loop = f.new_label();
    f.bind(loop);
    f.add(t4, t0, t2);
    rt::emit_mix(f, t4, t5, t6);
    f.slli(t5, t2, 3);
    f.add(t5, t1, t5);
    f.sd(t4, 0, t5);
    f.addi(t2, t2, 1);
    f.blt(t2, t3, loop);
  }
  f.la(a0, "__vault_base");
  f.ld(a0, 0, a0);
  f.li(a1, static_cast<i64>(vault::kSuperblockSize));
  rt::syscall(f, os::sys::kVaultSeal);
  {
    const Label ok = f.new_label();
    f.beqz(a0, ok);
    rt::emit_exit(f, kExitVaultSetup);
    f.bind(ok);
  }
  f.la(t0, "__poison");
  f.sd(zero, 0, t0);
  f.mv(ra, s0);
  f.ret();
}

void add_main(Program& p) {
  Function& f = p.add_function("main");
  f.instrumentable = false;
  const Label loop = f.new_label(), done = f.new_label(), ok = f.new_label(),
              next = f.new_label();
  f.call("__serve_init");
  f.la(t0, "__mon_base");
  f.ld(t0, 0, t0);
  f.sd(sp, kMonSavedSp, t0);
  f.bind(loop);
  // Re-derive EVERYTHING from protected memory: handlers may trash every
  // register including sp, so nothing held across a gate call is trusted.
  f.la(t0, "__mon_base");
  f.ld(t0, 0, t0);
  f.ld(sp, kMonSavedSp, t0);
  f.ld(t1, kMonIndex, t0);
  f.la(t2, "__epoch_len");
  f.ld(t2, 0, t2);
  f.bgeu(t1, t2, done);
  f.la(t3, "__epoch_reqs");
  f.slli(t4, t1, 3);
  f.add(t3, t3, t4);
  f.ld(t3, 0, t3);  // packed (index << 8) | slot
  f.andi(t4, t3, 0xFF);
  f.srli(t5, t3, 8);
  f.la(t0, "__poison");
  f.sd(zero, 0, t0);
  // mark(gate_enter, index, slot, pkey)
  f.li(a0, static_cast<i64>(os::mark::kGateEnter));
  f.mv(a1, t5);
  f.mv(a2, t4);
  f.addi(a3, t4, 2);
  emit_mark(f);
  // payload = mix64(seed ^ index)
  f.la(t0, "__seed");
  f.ld(a0, 0, t0);
  f.xor_(a0, a0, t5);
  rt::emit_mix(f, a0, a1, a2);
  f.la(a1, "__gate_table");
  f.slli(a2, t4, 3);
  f.add(a1, a1, a2);
  f.ld(a1, 0, a1);
  f.jalr_reg(ra, a1);
  // Back from the gate: a0 = checksum (or garbage). Re-derive state.
  f.la(t0, "__mon_base");
  f.ld(t0, 0, t0);
  f.ld(sp, kMonSavedSp, t0);
  f.ld(t1, kMonIndex, t0);
  f.la(t3, "__epoch_reqs");
  f.slli(t4, t1, 3);
  f.add(t3, t3, t4);
  f.ld(t3, 0, t3);
  f.andi(t4, t3, 0xFF);
  f.srli(t5, t3, 8);
  f.la(t6, "__poison");
  f.ld(t6, 0, t6);
  f.beqz(t6, ok);
  // mark(disposition, index, cause, pkey) — attempt failed
  f.li(a0, static_cast<i64>(os::mark::kDisposition));
  f.mv(a1, t5);
  f.mv(a2, t6);
  f.addi(a3, t4, 2);
  emit_mark(f);
  f.j(next);
  f.bind(ok);
  // mark(gate_exit, index, checksum, pkey)
  f.mv(a2, a0);
  f.li(a0, static_cast<i64>(os::mark::kGateExit));
  f.mv(a1, t5);
  f.addi(a3, t4, 2);
  emit_mark(f);
  f.la(t0, "__mon_base");
  f.ld(t0, 0, t0);
  f.ld(t1, kMonServed, t0);
  f.addi(t1, t1, 1);
  f.sd(t1, kMonServed, t0);
  f.bind(next);
  f.la(t0, "__mon_base");
  f.ld(t0, 0, t0);
  f.ld(t1, kMonIndex, t0);
  f.addi(t1, t1, 1);
  f.sd(t1, kMonIndex, t0);
  f.j(loop);
  f.bind(done);
  f.la(t0, "__probe_stop");
  f.li(t1, 1);
  f.sd(t1, 0, t0);
  // Reports: [canary, served, probe_attempts, probe_successes].
  f.la(t0, "__mon_base");
  f.ld(t0, 0, t0);
  f.ld(a0, kMonCanary, t0);
  rt::syscall(f, os::sys::kReport);
  f.la(t0, "__mon_base");
  f.ld(t0, 0, t0);
  f.ld(a0, kMonServed, t0);
  rt::syscall(f, os::sys::kReport);
  f.la(t0, "__probe_attempts");
  f.ld(a0, 0, t0);
  rt::syscall(f, os::sys::kReport);
  f.la(t0, "__probe_success");
  f.ld(a0, 0, t0);
  rt::syscall(f, os::sys::kReport);
  rt::emit_exit(f, 0);  // exits the whole process (probe thread included)
}

}  // namespace

u64 payload_for(u64 seed, u32 index) { return mix64(seed ^ index); }

u64 checksum_for(u64 seed, u32 index, u32 slot, u32 rounds) {
  u64 v = payload_for(seed, index);
  for (u32 r = 0; r < std::max<u32>(rounds, 1); ++r) {
    v = mix64(v ^ (slot + 1));
  }
  return v;
}

u32 slot_count(const WorkloadSpec& spec) {
  return 2 * std::clamp<u32>(spec.primaries, 1, 7);
}

std::string gate_name(u32 slot) { return "__gate_" + std::to_string(slot); }
std::string handler_name(u32 slot) {
  return "__handler_" + std::to_string(slot);
}

BuiltServer build_server(const WorkloadSpec& spec) {
  const u32 slots = slot_count(spec);
  Program p;
  rt::add_crt0(p, "main");
  add_main(p);
  add_init(p, spec);
  add_sighandler(p);
  add_probe(p);
  // Layout matters from here: the monitor key's sealed range is
  // [__gate_region_start, __gate_region_end], so ONLY the gates may sit
  // between the markers.
  {
    Function& s = p.add_function("__gate_region_start");
    s.instrumentable = false;
    s.seal_start(0);
    s.ret();
  }
  for (u32 k = 0; k < slots; ++k) add_gate(p, k);
  {
    Function& e = p.add_function("__gate_region_end");
    e.instrumentable = false;
    e.seal_end(0);
    e.ret();
  }
  for (u32 k = 0; k < slots; ++k) add_handler(p, k, spec);
  {
    // The vault key's permissible WRPKR range: the empty span between the
    // two markers — no code may ever rewrite its write-only PKR field.
    Function& latch = p.add_function("__vault_latch");
    latch.instrumentable = false;
    latch.seal_start(0);
    latch.seal_end(0);
    latch.ret();
  }

  p.add_zero("__mon_base", 8);
  p.add_zero("__vault_base", 8);
  p.add_zero("__scratch_table", 8 * slots);
  p.add_zero("__gate_table", 8 * slots);
  p.add_zero("__poison", 8);
  p.add_zero("__probe_attempts", 8);
  p.add_zero("__probe_success", 8);
  p.add_zero("__probe_stop", 8);
  p.add_zero("__main_tid", 8);
  p.add_data("__seed", u64le(spec.seed));
  p.add_data("__epoch_len", u64le(spec.requests.size()));
  if (spec.requests.empty()) {
    p.add_zero("__epoch_reqs", 8);
  } else {
    std::vector<u8> packed;
    packed.reserve(8 * spec.requests.size());
    for (const auto& [index, slot] : spec.requests) {
      const std::vector<u8> one =
          u64le((static_cast<u64>(index) << 8) | (slot & 0xFF));
      packed.insert(packed.end(), one.begin(), one.end());
    }
    p.add_data("__epoch_reqs", std::move(packed));
  }
  {
    const vault::Geometry geo = serve_vault_geometry(slots);
    const std::vector<u8> secret = vault_secret_bytes(spec.seed);
    p.add_rodata("__vault_super", vault::superblock_bytes(geo));
    p.add_rodata("__vault_intent",
                 vault::record_bytes(vault::kRecordIntentSeal, kVaultSecretId,
                                     0, kVaultSlotLen, 1,
                                     checksum64(secret.data(), secret.size())));
  }
  p.add_data("__row_closed", u64le(row_all_closed(slots)));
  p.add_data("__row_open", u64le(row_monitor_open(slots)));
  for (u32 k = 0; k < slots; ++k) {
    p.add_data(row_name(k), u64le(row_handler_open(slots, k)));
  }

  BuiltServer built;
  built.image = p.link();
  for (u32 k = 0; k < slots; ++k) built.slot_pkeys.push_back(2 + k);

  analysis::VerifyOptions& vo = built.verify_options;
  vo.trusted_gates.insert("__gate_region_start");
  vo.trusted_gates.insert("__gate_region_end");
  const auto& fr = built.image.func_ranges;
  const auto region_start = fr.at("__gate_region_start");
  const auto region_end = fr.at("__gate_region_end");
  // Mirror of the runtime PK-CAM: the monitor key's staged range is the
  // two region markers' seal instructions (their first PCs); each handler
  // key's is its gate's seal_start..seal_end (last two insns: seal_end,
  // ret).
  vo.sealed_pkey_ranges[kMonitorPkey] = {region_start.first,
                                         region_end.first};
  for (u32 k = 0; k < slots; ++k) {
    vo.trusted_gates.insert(gate_name(k));
    const auto range = fr.at(gate_name(k));
    vo.sealed_pkey_ranges[2 + k] = {range.first, range.second - 8};
  }
  // The vault key's staged range is the latch's two marker PCs; no WRPKR
  // anywhere names it, so the range guards an empty set on purpose.
  vo.trusted_gates.insert("__vault_latch");
  const auto latch_range = fr.at("__vault_latch");
  vo.sealed_pkey_ranges[vault_pkey_for(slots)] = {latch_range.first,
                                                  latch_range.first + 4};
  // The positional lint: any pkey-write outside this region is a gadget,
  // trusted-sounding name or not.
  vo.gate_regions.push_back({region_start.first, region_end.second - 4});
  return built;
}

}  // namespace sealpk::serve
