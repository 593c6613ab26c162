// Guest runtime: crt0, inline-syscall emitters and a small guest "libc"
// (pkey_set & friends) shared by workloads, examples and tests.
//
// Register conventions on top of the standard RISC-V ABI:
//   s10 — shadow-stack pointer (when shadow-stack instrumentation is on)
//   s11 — instrumentation scratch (pkey or shadow-stack base)
// Workload code must not use s10/s11; everything else is ordinary ABI.
#pragma once

#include <string>

#include "isa/program.h"
#include "os/syscall_abi.h"

namespace sealpk::rt {

// Emits `li a7, nr; ecall`. Arguments must already sit in a0..a5. The
// kernel returns the result in a0 and preserves all other registers.
inline isa::Function& syscall(isa::Function& f, u64 nr) {
  f.li(isa::a7, static_cast<i64>(nr));
  f.ecall();
  return f;
}

// Emits exit(code-in-a0).
inline isa::Function& emit_exit(isa::Function& f) {
  return syscall(f, os::sys::kExit);
}

// Emits `li a0, code` + exit.
inline isa::Function& emit_exit(isa::Function& f, i64 code) {
  f.li(isa::a0, code);
  return emit_exit(f);
}

// Emits the splitmix64 finalizer (the host-side sealpk::mix64 in
// common/rng.h) on register v, clobbering tmp1/tmp2. Inline, no call:
// handlers must not depend on ra surviving, the serve monitor must not
// depend on the stack, and the vault payload never touches memory before
// its store into the write-only slot.
inline void emit_mix(isa::Function& f, u8 v, u8 tmp1, u8 tmp2) {
  f.li(tmp1, static_cast<i64>(0x9E3779B97F4A7C15ULL));
  f.add(v, v, tmp1);
  f.srli(tmp2, v, 30);
  f.xor_(v, v, tmp2);
  f.li(tmp1, static_cast<i64>(0xBF58476D1CE4E5B9ULL));
  f.mul(v, v, tmp1);
  f.srli(tmp2, v, 27);
  f.xor_(v, v, tmp2);
  f.li(tmp1, static_cast<i64>(0x94D049BB133111EBULL));
  f.mul(v, v, tmp1);
  f.srli(tmp2, v, 31);
  f.xor_(v, v, tmp2);
}

// Adds `_start`: calls `main_fn`, then exit(a0). Returns the crt0 function
// so instrumentation passes can prepend their setup.
isa::Function& add_crt0(isa::Program& prog,
                        const std::string& main_fn = "main");

// Adds the guest pkey helpers (idempotent):
//   __pkey_set(a0 = pkey, a1 = 2-bit perm)
//     read-modify-write of the key's 2-bit PKR field (RDPKR + WRPKR),
//     preserving every other key in the row — the safe user-space
//     equivalent of the paper's pkey_set().
//   __pkey_set_blind(a0 = pkey, a1 = 2-bit perm)
//     WRPKR of a freshly-built row value (every other key in the row is
//     reset to 00) — the cheaper write-only update of the SealPK-WR
//     variant.
//   __pkey_get(a0 = pkey) -> a0 = 2-bit perm
void add_pkey_lib(isa::Program& prog);

// Adds a deterministic guest xorshift64 PRNG (idempotent):
//   __rand(a0 = state_ptr) -> a0 = next 64-bit value (state updated)
void add_rand_lib(isa::Program& prog);

// Adds console-output helpers built on write(2) (idempotent):
//   __print_str(a0 = ptr, a1 = len)
//   __print_u64(a0 = value)   — unsigned decimal
//   __print_nl()
// All clobber a0-a2/a7 and t-registers (ordinary caller-saved rules).
void add_print_lib(isa::Program& prog);

}  // namespace sealpk::rt
