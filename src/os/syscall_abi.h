// The guest<->kernel syscall ABI (Linux-like, RISC-V calling convention:
// number in a7, args in a0..a5, result in a0).
//
// Numbers follow the riscv64 Linux table where an equivalent exists; the
// SealPK additions (paper §IV) take numbers in an unused range. The kernel's
// syscall table (os/kernel.cpp) binds each served number to its handler.
#pragma once

#include "common/bits.h"

namespace sealpk::os {

namespace sys {
constexpr u64 kWrite = 64;          // write(fd, buf, len); fd 1 = console
constexpr u64 kExit = 93;           // exit(code) — exits the whole process
constexpr u64 kSchedYield = 124;    // sched_yield()
// SEGV-class signal handling (rt_sigaction/rt_sigreturn-lite): register a
// handler for page faults and seal violations. The handler is entered with
// a0 = trap cause, a1 = faulting address, a2 = pkey info (bit 63 set when
// the denial came from a protection key; low bits = the pkey), and must
// finish with sigreturn(skip): skip = 0 re-executes the faulting
// instruction (after the handler repaired the cause), skip = 1 resumes
// after it (probe pattern).
constexpr u64 kSigaction = 134;     // sigaction(handler_addr); 0 = default
constexpr u64 kSigreturn = 139;     // sigreturn(skip)
constexpr u64 kGetTid = 178;        // gettid()
constexpr u64 kClone = 220;         // clone-lite: (entry, stack_top, arg)
constexpr u64 kMunmap = 215;        // munmap(addr, len)
constexpr u64 kMmap = 222;          // mmap(0, len, prot, flags, -1, 0)
constexpr u64 kMprotect = 226;      // mprotect(addr, len, prot)
constexpr u64 kPkeyMprotect = 288;  // pkey_mprotect(addr, len, prot, pkey)
constexpr u64 kPkeyAlloc = 289;     // pkey_alloc(flags, init_perm)
constexpr u64 kPkeyFree = 290;      // pkey_free(pkey)
// SealPK additions.
constexpr u64 kPkeySeal = 300;      // pkey_seal(pkey, seal_domain, seal_page)
constexpr u64 kPkeyPermSeal = 301;  // pkey_perm_seal(pkey) — uses the
                                    // seal.start/seal.end staged range
// Harness helper: records a u64 in the kernel's report log so workloads can
// publish self-check checksums without a filesystem.
constexpr u64 kReport = 310;
// Harness helper: stamps a MarkRecord (instret/cycles from the calling
// hart) into the kernel's mark log and mirrors it into the event trace.
// mark(kind, arg0, arg1, pkey) — see os::mark for the kind values; pass
// obs::kNoPkey (0xFFFFFFFF) in a3 when no pkey applies.
constexpr u64 kMark = 311;
// Sealed-storage vault (src/vault, DESIGN.md §14). The vault region lives
// in guest memory under a write-only + perm-sealed pkey; the kernel is the
// only party that can read it back, and it only ever does so on behalf of
// a caller whose live PKR grants read+write on the vault's owner domain.
constexpr u64 kVaultSeal = 312;    // vault_seal(vault_base, intent_off)
constexpr u64 kVaultUnseal = 313;  // vault_unseal(vault_base, id, dst)
constexpr u64 kVaultReseal = 314;  // vault_reseal(vault_base, intent_off)
// Virtualized protection keys (src/mpk/vkey_table.h, DESIGN.md §15): an
// unbounded per-process virtual key space multiplexed onto the physical
// pkeys, beside (not replacing) the raw pkey ABI above. Virtual key ids
// start at mpk::kVkeyBase so the two namespaces can never alias. Both
// flavours serve them, each over its own physical key space.
constexpr u64 kVpkeyAlloc = 320;     // vpkey_alloc(flags, init_perm)
constexpr u64 kVpkeyFree = 321;      // vpkey_free(vkey)
constexpr u64 kVpkeyMprotect = 322;  // vpkey_mprotect(addr, len, prot, vkey)
constexpr u64 kVpkeySet = 323;       // vpkey_set(vkey, perm)

// One past the highest number; the size of the kernel's syscall table.
constexpr u64 kTableSize = kVpkeySet + 1;

// Whether the kernel's syscall table (os/kernel.cpp) serves `nr`; any other
// number returns ENOSYS. The static verifier checks ecall numbers with it.
bool served(u64 nr);
}  // namespace sys

// Mark kinds for sys::kMark, mapped 1:1 onto the serve-plane event kinds.
namespace mark {
constexpr u64 kGateEnter = 0;    // arg0 = request index, arg1 = handler slot
constexpr u64 kGateExit = 1;     // arg0 = request index, arg1 = checksum
constexpr u64 kDisposition = 2;  // arg0 = request index, arg1 = detail
constexpr u64 kQuarantine = 3;   // arg0 = handler slot, arg1 = detail
// Vault plane. kVaultIntent is guest-stamped (just before the journal
// intent record is written); the other three are kernel-authored from
// inside the vault syscalls, so their mark ordering is ground truth for
// the crash-sweep's committed-bundle ledger.
constexpr u64 kVaultIntent = 4;  // arg0 = bundle id, arg1 = sequence
constexpr u64 kVaultCommit = 5;  // arg0 = bundle id, arg1 = sequence
constexpr u64 kVaultUnseal = 6;  // arg0 = bundle id, arg1 = byte length
constexpr u64 kVaultDenied = 7;  // arg0 = bundle id, arg1 = errno (negated)
}  // namespace mark

namespace prot {
constexpr u64 kRead = 1;
constexpr u64 kWrite = 2;
constexpr u64 kExec = 4;
}  // namespace prot

// pkey permission argument: the paper's 2-bit (Read-Disable, Write-Disable)
// encoding, also what pkey_alloc's init_perm takes (Figure 3 passes 0x1 to
// create a read-only domain). For the Intel-MPK flavour the same two bits
// are interpreted as (WD, AD) per the PKRU layout.
namespace pkeyperm {
constexpr u64 kRw = 0b00;
constexpr u64 kReadOnly = 0b01;   // WD set
constexpr u64 kWriteOnly = 0b10;  // RD set
constexpr u64 kNone = 0b11;
}  // namespace pkeyperm

namespace err {
constexpr i64 kPerm = -1;     // EPERM
constexpr i64 kNoMem = -12;   // ENOMEM
constexpr i64 kAcces = -13;   // EACCES
constexpr i64 kFault = -14;   // EFAULT
constexpr i64 kBusy = -16;    // EBUSY
constexpr i64 kInval = -22;   // EINVAL
constexpr i64 kNoSpc = -28;   // ENOSPC
constexpr i64 kNoSys = -38;   // ENOSYS
constexpr i64 kBadMsg = -74;  // EBADMSG — checksum mismatch on vault data
}  // namespace err

}  // namespace sealpk::os
