// The paper's Figure 3 end-to-end: a financial-record log protected by a
// SealPK domain, attacked by three malicious/buggy third-party components,
// each defeated by one of the three sealing features.
//
//   Func-A (trusted)  — flips the log domain write-only, appends a record,
//                       flips it back read-only. Its RDPKR/WRPKR toggles
//                       sit between seal.start/seal.end, so its body is
//                       the permissible WRPKR region.
//   Func-B (malicious)— re-keys the log into a fresh RW domain and
//                       falsifies it   -> stopped by DOMAIN sealing.
//   Func-C (malicious)— brute-force re-keys its prices pages hoping to
//                       join the log's domain, so the trusted reader
//                       crashes (DoS)  -> stopped by PAGE sealing.
//   Func-D (buggy)    — a buffer overflow injects `wrpkr pkey, x0`
//                       granting write access
//                                      -> stopped by PERMISSION sealing.
//
// Each attack runs twice on a fresh machine: unsealed (the attack lands,
// demonstrating that plain MPK-style keys are not enough) and sealed.
#include <cstdio>
#include <iostream>
#include <string>

#include "analysis/verifier.h"
#include "runtime/guest.h"
#include "sim/machine.h"

using namespace sealpk;
using namespace sealpk::isa;

namespace {

enum class Attack { kFuncB, kFuncC, kFuncD };

constexpr i64 kLogMagic = 0x10C0FFEE;
constexpr i64 kExitFalsified = 77;

// Inline read-modify-write of s1's 2-bit PKR field (Func-A cannot call the
// shared __pkey_set helper: the WRPKR must sit inside its own sealed code
// range).
void emit_pkey_set_inline(Function& f, i64 perm) {
  f.rdpkr(t0, s1);
  f.andi(t1, s1, 31);
  f.slli(t1, t1, 1);
  f.li(t2, 3);
  f.sll(t2, t2, t1);
  f.not_(t2, t2);
  f.and_(t0, t0, t2);
  f.li(t3, perm);
  f.sll(t3, t3, t1);
  f.or_(t0, t0, t3);
  f.wrpkr(s1, t0);
}

Program build_scenario(Attack attack, bool sealed) {
  Program prog;
  rt::add_crt0(prog);

  // --- Main (Fig. 3): allocate the log, key it read-only, maybe seal ----
  Function& f = prog.add_function("main");
  f.addi(sp, sp, -16);
  f.sd(ra, 0, sp);
  f.li(a0, 0);
  f.li(a1, 4096);
  f.li(a2, 3);
  rt::syscall(f, os::sys::kMmap);
  f.mv(s0, a0);  // s0 = log
  f.li(a0, 0);
  f.li(a1, 4096);
  f.li(a2, 3);
  rt::syscall(f, os::sys::kMmap);
  f.mv(s2, a0);  // s2 = prices (no sensitive data: stays in domain 0)
  f.li(a0, 0);
  f.li(a1, static_cast<i64>(os::pkeyperm::kReadOnly));
  rt::syscall(f, os::sys::kPkeyAlloc);
  f.mv(s1, a0);  // s1 = the log's pkey
  f.mv(a0, s0);
  f.li(a1, 4096);
  f.li(a2, 3);
  f.mv(a3, s1);
  rt::syscall(f, os::sys::kPkeyMprotect);
  if (sealed && attack != Attack::kFuncD) {
    f.mv(a0, s1);
    f.li(a1, 1);  // seal_domain
    f.li(a2, 1);  // seal_page
    rt::syscall(f, os::sys::kPkeySeal);
  }
  // Func-C strikes before the trusted update so the DoS (if unsealed)
  // fires when Func-A later touches the prices.
  if (attack == Attack::kFuncC) f.call("func_c");
  f.call("func_a");
  if (sealed && attack == Attack::kFuncD) {
    // Func-A's first run latched its seal.start/seal.end range; commit the
    // one-time fuse.
    f.mv(a0, s1);
    rt::syscall(f, os::sys::kPkeyPermSeal);
  }
  if (attack == Attack::kFuncB) f.call("func_b");
  if (attack == Attack::kFuncD) f.call("func_d");
  // Audit: the trusted record must still be in the log.
  f.ld(t0, 0, s0);
  f.li(t1, kLogMagic);
  f.li(a0, kExitFalsified);
  const Label out = f.new_label();
  f.bne(t0, t1, out);
  f.li(a0, 0);
  f.bind(out);
  f.ld(ra, 0, sp);
  f.addi(sp, sp, 16);
  f.ret();

  // --- Func-A: the trusted updater -------------------------------------
  {
    Function& a = prog.add_function("func_a");
    a.seal_start(0);
    emit_pkey_set_inline(a, static_cast<i64>(os::pkeyperm::kWriteOnly));
    a.li(t4, kLogMagic);
    a.sd(t4, 0, s0);   // append the record (domain is write-only)
    a.ld(t5, 0, s2);   // process the prices — the Func-C DoS lands here
    emit_pkey_set_inline(a, static_cast<i64>(os::pkeyperm::kReadOnly));
    a.seal_end(0);
    a.ret();
  }
  // --- Func-B: re-key the log into a fresh RW domain -------------------
  {
    Function& b = prog.add_function("func_b");
    const Label blocked = b.new_label();
    b.li(a0, 0);
    b.li(a1, 0);  // fully permissive domain
    rt::syscall(b, os::sys::kPkeyAlloc);
    b.mv(a3, a0);
    b.mv(a0, s0);
    b.li(a1, 4096);
    b.li(a2, 3);
    rt::syscall(b, os::sys::kPkeyMprotect);
    b.blt(a0, zero, blocked);  // EPERM when the domain is sealed
    b.li(t0, 0xBAD);
    b.sd(t0, 0, s0);  // falsify the record through the attacker's domain
    b.bind(blocked);
    b.ret();
  }
  // --- Func-C: brute-force its prices pages into other domains ---------
  {
    Function& c = prog.add_function("func_c");
    const Label loop = c.new_label(), done = c.new_label();
    c.li(s3, 1);  // candidate pkey
    c.bind(loop);
    c.li(t0, 5);
    c.bge(s3, t0, done);
    c.mv(a0, s2);
    c.li(a1, 4096);
    c.li(a2, 3);
    c.mv(a3, s3);
    rt::syscall(c, os::sys::kPkeyMprotect);  // result ignored: brute force
    c.addi(s3, s3, 1);
    c.j(loop);
    c.bind(done);
    c.ret();
  }
  // --- Func-D: the buffer-overflow-injected WRPKR gadget ---------------
  {
    Function& d = prog.add_function("func_d");
    d.wrpkr(s1, zero);  // grant everything in the log's PKR row
    d.li(t0, 0xBAD);
    d.sd(t0, 0, s0);    // falsify
    d.ret();
  }
  return prog;
}

struct Outcome {
  i64 exit_code = 0;
  bool faulted = false;
  core::TrapCause cause = core::TrapCause::kIllegalInst;
  bool pkey_fault = false;
};

Outcome run_scenario(Attack attack, bool sealed) {
  sim::Machine machine{sim::MachineConfig{}};
  const int pid = machine.load(build_scenario(attack, sealed).link());
  machine.run();
  Outcome out;
  out.exit_code = machine.exit_code(pid);
  const auto& faults = machine.kernel().faults();
  if (!faults.empty()) {
    out.faulted = true;
    out.cause = faults[0].cause;
    out.pkey_fault = faults[0].pkey_fault;
  }
  return out;
}

const char* describe(const Outcome& out) {
  if (out.faulted) {
    static std::string text;
    text = std::string("killed: ") + core::trap_cause_name(out.cause) +
           (out.pkey_fault ? " (pkey fault)" : "");
    return text.c_str();
  }
  if (out.exit_code == kExitFalsified) return "LOG FALSIFIED";
  if (out.exit_code == 0) return "log intact, clean exit";
  return "unexpected exit";
}

}  // namespace

int main() {
  std::printf("Figure 3 scenario: tamper-proof financial log\n\n");
  struct Case {
    Attack attack;
    const char* name;
    const char* seal_name;
    // expectations
    bool unsealed_falsified_or_dos;
    bool sealed_clean;
  };
  const Case cases[] = {
      {Attack::kFuncB, "Func-B re-keys the log", "domain seal", true, true},
      {Attack::kFuncC, "Func-C squats the domain (DoS)", "page seal", true,
       true},
      {Attack::kFuncD, "Func-D injects WRPKR", "permission seal", true,
       false /* sealed run ends in a SealViolation kill of Func-D */},
  };
  bool all_ok = true;
  for (const auto& c : cases) {
    const Outcome unsealed = run_scenario(c.attack, false);
    const Outcome sealed = run_scenario(c.attack, true);
    std::printf("%-32s without seal: %-40s\n", c.name, describe(unsealed));
    std::printf("%-32s with %-12s: %-40s\n", "", c.seal_name,
                describe(sealed));
    const bool attack_landed =
        unsealed.exit_code == kExitFalsified || unsealed.faulted;
    bool blocked;
    if (c.attack == Attack::kFuncD) {
      blocked = sealed.faulted &&
                sealed.cause == core::TrapCause::kSealViolation;
    } else {
      blocked = !sealed.faulted && sealed.exit_code == 0;
    }
    std::printf("%-32s => attack %s, seal %s\n\n", "",
                attack_landed ? "lands when unsealed" : "DID NOT LAND (?)",
                blocked ? "blocks it" : "FAILED (?)");
    all_ok = all_ok && attack_landed && blocked;
  }
  // --- Static layer: the same Func-D gadget is visible *before* run time.
  // Permission sealing kills the injected WRPKR dynamically; the static
  // verifier (ERIM-style occurrence scan, `sealpk verify`) catches it at
  // admission. Func-A's in-body WRPKR toggles are legitimate — its sealed
  // region is the permissible WRPKR range — so it is registered as a
  // trusted gate, exactly like --trust=func_a on the CLI.
  analysis::VerifyOptions opts;
  opts.trusted_gates.insert("func_a");
  const analysis::Report report =
      analysis::verify_program(build_scenario(Attack::kFuncD, true), opts);
  std::printf("Static verification of the Func-D scenario:\n");
  report.print(std::cout, "financial_log");
  bool static_ok = !report.admissible();
  for (const auto& finding : report.findings()) {
    if (finding.severity == analysis::Severity::kError) {
      static_ok = static_ok && finding.function == "func_d";
    }
  }

  sim::MachineConfig strict;
  strict.verify_policy = analysis::LoadVerifyPolicy::kEnforce;
  strict.verify_options = opts;
  sim::Machine gatekeeper{strict};
  const bool refused =
      gatekeeper.load(build_scenario(Attack::kFuncD, true).link()) ==
      sim::Machine::kLoadRefused;
  std::printf("strict loader (LoadVerifyPolicy::kEnforce): %s\n\n",
              refused ? "image refused before a single instruction runs"
                      : "image ADMITTED (?)");
  all_ok = all_ok && static_ok && refused;

  std::printf(all_ok ? "All three sealing features behave as in the "
                       "paper's Figure 3.\n"
                     : "MISMATCH vs the paper's Figure 3!\n");
  return all_ok ? 0 : 1;
}
