// Quickstart: the smallest end-to-end SealPK program.
//
// Builds a guest program with the assembler API, runs it on a simulated
// Rocket+SealPK machine, and shows the core mechanic: a page assigned to a
// read-only protection domain can be read but not written, the fault
// report carries the denying pkey, and a user-space WRPKR (via the
// __pkey_set helper) flips the permission without any syscall.
#include <cstdio>

#include "analysis/verifier.h"
#include "runtime/guest.h"
#include "sim/machine.h"

using namespace sealpk;
using namespace sealpk::isa;

int main() {
  Program prog;
  rt::add_crt0(prog);
  rt::add_pkey_lib(prog);  // __pkey_set / __pkey_get (RDPKR/WRPKR wrappers)

  Function& f = prog.add_function("main");
  f.addi(sp, sp, -16);
  f.sd(ra, 0, sp);

  // secret = mmap(1 page, RW)
  f.li(a0, 0);
  f.li(a1, 4096);
  f.li(a2, static_cast<i64>(os::prot::kRead | os::prot::kWrite));
  rt::syscall(f, os::sys::kMmap);
  f.mv(s0, a0);
  f.li(t0, 0x5EC12E7);  // "SECRET"
  f.sd(t0, 0, s0);      // initialise while still writable

  // pkey = pkey_alloc(0, read-only)
  f.li(a0, 0);
  f.li(a1, static_cast<i64>(os::pkeyperm::kReadOnly));
  rt::syscall(f, os::sys::kPkeyAlloc);
  f.mv(s1, a0);

  // pkey_mprotect(secret, 4096, RW, pkey) — the PTE stays RW; the *domain*
  // is read-only, so the effective permission is read-only.
  f.mv(a0, s0);
  f.li(a1, 4096);
  f.li(a2, static_cast<i64>(os::prot::kRead | os::prot::kWrite));
  f.mv(a3, s1);
  rt::syscall(f, os::sys::kPkeyMprotect);

  // Reading works...
  f.ld(a0, 0, s0);
  rt::syscall(f, os::sys::kReport);  // report the secret we can read

  // ...and a single user-space permission flip (RDPKR+WRPKR, no syscall,
  // no TLB flush) makes it writable again:
  f.mv(a0, s1);
  f.li(a1, static_cast<i64>(os::pkeyperm::kRw));
  f.call("__pkey_set");
  f.li(t0, 0x600D);
  f.sd(t0, 0, s0);
  f.ld(a0, 0, s0);
  rt::syscall(f, os::sys::kReport);  // report the new value

  // Flip back to read-only and prove the next store faults (the kernel
  // will kill us with a pkey-augmented SIGSEGV — that *is* the success
  // condition of this demo).
  f.mv(a0, s1);
  f.li(a1, static_cast<i64>(os::pkeyperm::kReadOnly));
  f.call("__pkey_set");
  f.sd(t0, 0, s0);  // <- faults here

  f.ld(ra, 0, sp);
  f.addi(sp, sp, 16);
  f.li(a0, 0);
  f.ret();

  // Load under the strict admission policy: the static verifier inspects
  // the linked binary first (every WRPKR here lives inside the trusted
  // __pkey_set gate, so the image is admitted — see `sealpk verify`).
  sim::MachineConfig config;
  config.verify_policy = analysis::LoadVerifyPolicy::kEnforce;
  sim::Machine machine{config};
  if (machine.load(prog.link()) == sim::Machine::kLoadRefused) {
    std::printf("static verifier refused the image!?\n");
    return 1;
  }
  const auto outcome = machine.run();

  std::printf("SealPK quickstart (simulated Rocket + SealPK, %llu cycles)\n\n",
              static_cast<unsigned long long>(outcome.cycles));
  const auto& reports = machine.kernel().reports();
  std::printf("read from read-only domain:    0x%llX\n",
              static_cast<unsigned long long>(reports.at(0)));
  std::printf("write after user-space unlock: 0x%llX\n",
              static_cast<unsigned long long>(reports.at(1)));
  const auto& faults = machine.kernel().faults();
  if (faults.size() == 1 && faults[0].pkey_fault) {
    std::printf(
        "write after re-lock:           store page fault, pkey=%u "
        "(augmented fault info, paper §III-B.2)\n",
        faults[0].pkey);
    std::printf("\nAll three behaviours as expected.\n");
    return 0;
  }
  std::printf("unexpected fault behaviour!\n");
  return 1;
}
