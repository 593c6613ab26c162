// Kernel-level tests driven by real guest programs: syscalls, the pkey
// lifecycle with lazy de-allocation (§III-B), the three sealing features
// (§IV), fault reporting, and threads/context switches.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "guest_test_util.h"
#include "mpk/key_manager.h"
#include "os/key_manager.h"

namespace sealpk {
namespace {

using isa::Function;
using isa::Label;
using isa::Program;
using namespace isa;  // register names
using testutil::GuestRun;
using testutil::make_main_program;
using testutil::run_guest;

sim::MachineConfig mpk_machine() {
  sim::MachineConfig cfg;
  cfg.hart.flavor = core::IsaFlavor::kIntelMpkCompat;
  return cfg;
}

// ---------------------------------------------------------------------------
// Basic process / syscall plumbing.
// ---------------------------------------------------------------------------

TEST(KernelBasics, ExitCodePropagates) {
  auto prog = make_main_program([](Program&, Function& f) { f.li(a0, 42); });
  const GuestRun run = run_guest(prog);
  EXPECT_TRUE(run.outcome.completed);
  EXPECT_EQ(run.exit_code, 42);
  EXPECT_TRUE(run.faults.empty());
}

TEST(KernelBasics, WriteReachesConsole) {
  auto prog = make_main_program([](Program& p, Function& f) {
    p.add_rodata("msg", {'h', 'i', '!', '\n'});
    f.li(a0, 1);
    f.la(a1, "msg");
    f.li(a2, 4);
    rt::syscall(f, os::sys::kWrite);
    f.li(a0, 0);
  });
  const GuestRun run = run_guest(prog);
  EXPECT_EQ(run.console, "hi!\n");
  EXPECT_EQ(run.exit_code, 0);
}

TEST(KernelBasics, ReportsCollected) {
  auto prog = make_main_program([](Program&, Function& f) {
    for (int i = 1; i <= 3; ++i) {
      f.li(a0, i * 100);
      rt::syscall(f, os::sys::kReport);
    }
    f.li(a0, 0);
  });
  const GuestRun run = run_guest(prog);
  EXPECT_EQ(run.reports, (std::vector<u64>{100, 200, 300}));
}

// The served list the static verifier checks against is the kernel's
// truth: every other number in the syscall range returns ENOSYS. The last
// three would reach write or exit if the table index were truncated to 32
// bits, or index -1 if it were signed.
TEST(KernelBasics, UnknownSyscallReturnsEnosys) {
  std::vector<u64> unserved = {9999, (u64{1} << 32) + os::sys::kWrite,
                               (u64{1} << 32) + os::sys::kExit, ~u64{0}};
  for (u64 nr = 0; nr < 512; ++nr) {
    if (!os::sys::served(nr)) unserved.push_back(nr);
  }
  auto prog = make_main_program([&](Program&, Function& f) {
    for (const u64 nr : unserved) {
      rt::syscall(f, nr);
      rt::syscall(f, os::sys::kReport);
    }
    f.li(a0, 0);
  });
  const GuestRun run = run_guest(prog);
  EXPECT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.reports.size(), unserved.size());
  for (size_t i = 0; i < unserved.size(); ++i) {
    EXPECT_EQ(static_cast<i64>(run.reports[i]), os::err::kNoSys)
        << "syscall " << unserved[i];
  }
}

TEST(KernelBasics, MarkLogsUnknownKindsButTracesOnlyKnownOnes) {
  auto prog = make_main_program([](Program&, Function& f) {
    for (const u64 kind : {os::mark::kGateEnter, u64{99}}) {
      f.li(a0, static_cast<i64>(kind));
      f.li(a1, 7);
      f.li(a2, 8);
      f.li(a3, static_cast<i64>(obs::kNoPkey));
      rt::syscall(f, os::sys::kMark);
      rt::syscall(f, os::sys::kReport);
    }
    f.li(a0, 0);
  });
  sim::MachineConfig cfg;
  cfg.trace.enabled = true;
  sim::Machine machine(cfg);
  machine.load(prog.link());
  ASSERT_TRUE(machine.run(1'000'000).completed);
  EXPECT_EQ(machine.kernel().reports(),
            (std::vector<u64>{0, static_cast<u64>(os::err::kInval)}));
  ASSERT_EQ(machine.kernel().marks().size(), 2u);
  EXPECT_EQ(machine.kernel().marks()[1].kind, 99u);
  u64 marked = 0;
  for (const obs::Event& e : machine.recorder()->events()) {
    marked += e.arg0 == 7 && e.arg1 == 8;
  }
  EXPECT_EQ(marked, 1u);  // the gate-enter event only
}

TEST(KernelBasics, MmapGrantsUsableMemory) {
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(a0, 0);
    f.li(a1, 8192);
    f.li(a2, 3);  // RW
    rt::syscall(f, os::sys::kMmap);
    f.mv(s0, a0);
    f.li(t0, 0x1234);
    f.sd(t0, 0, s0);
    f.li(t1, 4096);
    f.add(t1, s0, t1);  // second page (offset exceeds a 12-bit immediate)
    f.sd(t0, 0, t1);
    f.ld(a0, 0, t1);
  });
  EXPECT_EQ(run_guest(prog).exit_code, 0x1234);
}

TEST(KernelBasics, MunmapRevokesAccess) {
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(a0, 0);
    f.li(a1, 4096);
    f.li(a2, 3);
    rt::syscall(f, os::sys::kMmap);
    f.mv(s0, a0);
    f.mv(a0, s0);
    f.li(a1, 4096);
    rt::syscall(f, os::sys::kMunmap);
    f.ld(a0, 0, s0);  // faults: process killed
    f.li(a0, 0);
  });
  const GuestRun run = run_guest(prog);
  ASSERT_EQ(run.faults.size(), 1u);
  EXPECT_EQ(run.faults[0].cause, core::TrapCause::kLoadPageFault);
  EXPECT_FALSE(run.faults[0].pkey_fault);
}

TEST(KernelBasics, MprotectReadOnlyBlocksStores) {
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(a0, 0);
    f.li(a1, 4096);
    f.li(a2, 3);
    rt::syscall(f, os::sys::kMmap);
    f.mv(s0, a0);
    f.mv(a0, s0);
    f.li(a1, 4096);
    f.li(a2, 1);  // R only
    rt::syscall(f, os::sys::kMprotect);
    f.sd(zero, 0, s0);  // store page fault
    f.li(a0, 0);
  });
  const GuestRun run = run_guest(prog);
  ASSERT_EQ(run.faults.size(), 1u);
  EXPECT_EQ(run.faults[0].cause, core::TrapCause::kStorePageFault);
  EXPECT_FALSE(run.faults[0].pkey_fault);  // PTE denial, not pkey
}


TEST(KernelBasics, WriteEdgeCases) {
  auto prog = make_main_program([](Program&, Function& f) {
    // Bad fd.
    f.li(a0, 7);
    f.li(a1, 0x1000);
    f.li(a2, 4);
    rt::syscall(f, os::sys::kWrite);
    f.neg(a0, a0);
    rt::syscall(f, os::sys::kReport);  // EBADF = 9
    // Unmapped buffer -> EFAULT.
    f.li(a0, 1);
    f.li(a1, 0x7000'0000);
    f.li(a2, 4);
    rt::syscall(f, os::sys::kWrite);
    f.neg(a0, a0);
    rt::syscall(f, os::sys::kReport);  // EFAULT = 14
    // Oversized length -> EINVAL.
    f.li(a0, 1);
    f.li(a1, 0x1000);
    f.li(a2, 2 * 1024 * 1024);
    rt::syscall(f, os::sys::kWrite);
    f.neg(a0, a0);
    rt::syscall(f, os::sys::kReport);  // EINVAL = 22
    f.li(a0, 0);
  });
  EXPECT_EQ(run_guest(prog).reports, (std::vector<u64>{9, 14, 22}));
}

TEST(KernelBasics, StderrAlsoReachesConsole) {
  auto prog = make_main_program([](Program& p, Function& f) {
    p.add_rodata("err", {'e', '!'});
    f.li(a0, 2);  // stderr
    f.la(a1, "err");
    f.li(a2, 2);
    rt::syscall(f, os::sys::kWrite);
    f.li(a0, 0);
  });
  EXPECT_EQ(run_guest(prog).console, "e!");
}

TEST(KernelBasics, StackOverflowIsCaught) {
  auto prog = make_main_program([](Program&, Function& f) {
    // Runaway recursion: main calls itself forever.
    f.addi(sp, sp, -16);
    f.sd(ra, 0, sp);
    f.call("main");
    f.ld(ra, 0, sp);
    f.addi(sp, sp, 16);
  });
  const GuestRun run = run_guest(prog);
  ASSERT_EQ(run.faults.size(), 1u);
  EXPECT_EQ(run.faults[0].cause, core::TrapCause::kStorePageFault);
}

// ---------------------------------------------------------------------------
// pkey lifecycle and lazy de-allocation (§III-B.1).
// ---------------------------------------------------------------------------

// Emits: s0 = mmap(4096*pages, RW)
void emit_mmap_rw(Function& f, i64 pages, u8 dest = s0) {
  f.li(a0, 0);
  f.li(a1, pages * 4096);
  f.li(a2, 3);
  rt::syscall(f, os::sys::kMmap);
  f.mv(dest, a0);
}

// Emits pkey_mprotect(addr_reg, pages*4096, RW, pkey_reg) -> a0
void emit_pkey_mprotect(Function& f, u8 addr_reg, i64 pages, u8 pkey_reg) {
  f.mv(a0, addr_reg);
  f.li(a1, pages * 4096);
  f.li(a2, 3);
  f.mv(a3, pkey_reg);
  rt::syscall(f, os::sys::kPkeyMprotect);
}

TEST(PkeyLifecycle, AllocReturnsSequentialKeys) {
  auto prog = make_main_program([](Program&, Function& f) {
    for (int i = 0; i < 3; ++i) {
      f.li(a0, 0);
      f.li(a1, 0);
      rt::syscall(f, os::sys::kPkeyAlloc);
      rt::syscall(f, os::sys::kReport);
    }
    f.li(a0, 0);
  });
  EXPECT_EQ(run_guest(prog).reports, (std::vector<u64>{1, 2, 3}));
}

TEST(PkeyLifecycle, ExhaustionReturnsEnospcAt1024) {
  // 1023 allocatable keys (key 0 is the default domain).
  auto prog = make_main_program([](Program&, Function& f) {
    const Label loop = f.new_label(), done = f.new_label();
    f.li(s0, 0);  // count
    f.bind(loop);
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.blez(a0, done);
    f.addi(s0, s0, 1);
    f.j(loop);
    f.bind(done);
    f.neg(a1, a0);  // -ENOSPC -> 28
    f.mv(a0, s0);
    rt::syscall(f, os::sys::kReport);
    f.mv(a0, a1);
    rt::syscall(f, os::sys::kReport);
    f.li(a0, 0);
  });
  const GuestRun run = run_guest(prog);
  EXPECT_EQ(run.reports,
            (std::vector<u64>{1023, static_cast<u64>(-os::err::kNoSpc)}));
}

TEST(PkeyLifecycle, MpkFlavourExhaustsAt16) {
  auto prog = make_main_program([](Program&, Function& f) {
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
  });
  EXPECT_EQ(run_guest(prog, mpk_machine()).reports, (std::vector<u64>{15}));
}

TEST(PkeyLifecycle, FreeUnallocatedIsEinval) {
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(a0, 7);
    rt::syscall(f, os::sys::kPkeyFree);
    f.neg(a0, a0);  // 22
  });
  EXPECT_EQ(run_guest(prog).exit_code, 22);
}

TEST(PkeyLifecycle, FreeKeyZeroIsEinval) {
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(a0, 0);
    rt::syscall(f, os::sys::kPkeyFree);
    f.neg(a0, a0);
  });
  EXPECT_EQ(run_guest(prog).exit_code, 22);
}

TEST(PkeyLifecycle, LazyDeallocationQuarantinesDirtyKeys) {
  // The §III-B.1 state machine end-to-end: free-with-pages dirties the key;
  // alloc skips it; unmapping the last page drains it; alloc reuses it.
  auto prog = make_main_program([](Program&, Function& f) {
    emit_mmap_rw(f, 1);
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);  // expect 1
    emit_pkey_mprotect(f, s0, 1, s1);
    f.mv(a0, s1);
    rt::syscall(f, os::sys::kPkeyFree);
    // Key 1 is dirty: the next alloc must skip it.
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    rt::syscall(f, os::sys::kReport);  // expect 2
    // Drain: unmap the page carrying key 1.
    f.mv(a0, s0);
    f.li(a1, 4096);
    rt::syscall(f, os::sys::kMunmap);
    // Now key 1 is reusable.
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    rt::syscall(f, os::sys::kReport);  // expect 1
    f.li(a0, 0);
  });
  EXPECT_EQ(run_guest(prog).reports, (std::vector<u64>{2, 1}));
}

TEST(PkeyLifecycle, DirtyKeyNotAssignable) {
  auto prog = make_main_program([](Program&, Function& f) {
    emit_mmap_rw(f, 1);
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    emit_pkey_mprotect(f, s0, 1, s1);
    f.mv(a0, s1);
    rt::syscall(f, os::sys::kPkeyFree);
    // pkey_mprotect naming the dirty key must fail with EINVAL.
    emit_pkey_mprotect(f, s0, 1, s1);
    f.neg(a0, a0);
  });
  EXPECT_EQ(run_guest(prog).exit_code, 22);
}

TEST(PkeyLifecycle, FreedKeyPermissionsCleared) {
  // §III-B.1: "pkey_free updates the permission bits of the pkey in PKR to
  // (0,0); hence, the page-table permissions determine the effective
  // permission" — orphan pages stay accessible.
  auto prog = make_main_program([](Program&, Function& f) {
    emit_mmap_rw(f, 1);
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kNone));  // no-access domain
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    emit_pkey_mprotect(f, s0, 1, s1);
    f.mv(a0, s1);
    rt::syscall(f, os::sys::kPkeyFree);
    // The page still carries the key in its PTE, but the PKR field is now
    // (0,0): plain access works again.
    f.li(t0, 0x55);
    f.sd(t0, 0, s0);
    f.ld(a0, 0, s0);
  });
  EXPECT_EQ(run_guest(prog).exit_code, 0x55);
}

TEST(PkeyLifecycle, SealPkPreventsUseAfterFree) {
  // alloc -> assign -> free -> realloc: the new owner must NOT get the old
  // key while the old pages still carry it.
  sim::Machine machine{{}};
  auto prog = make_main_program([](Program&, Function& f) {
    emit_mmap_rw(f, 1);
    f.mv(a0, s0);
    rt::syscall(f, os::sys::kReport);  // report victim address
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    emit_pkey_mprotect(f, s0, 1, s1);
    f.mv(a0, s1);
    rt::syscall(f, os::sys::kPkeyFree);
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    rt::syscall(f, os::sys::kReport);  // the new key
    f.mv(a0, s1);
    rt::syscall(f, os::sys::kReport);  // the old key
    f.li(a0, 0);
  });
  const int pid = machine.load(prog.link());
  machine.run();
  const auto& reports = machine.kernel().reports();
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_NE(reports[1], reports[2]);  // distinct keys: no aliasing
  // The victim page still carries the *old* key, which nobody owns.
  const auto page_key =
      machine.kernel().process(pid).aspace->page_pkey(reports[0]);
  ASSERT_TRUE(page_key.has_value());
  EXPECT_EQ(*page_key, reports[2]);
}

TEST(PkeyLifecycle, MpkFlavourExhibitsUseAfterFree) {
  // The same sequence on the Intel-MPK flavour hands the old key to the new
  // domain while the victim page still carries it — the paper's §II-A bug.
  sim::Machine machine(mpk_machine());
  auto prog = make_main_program([](Program&, Function& f) {
    emit_mmap_rw(f, 1);
    f.mv(a0, s0);
    rt::syscall(f, os::sys::kReport);
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    emit_pkey_mprotect(f, s0, 1, s1);
    f.mv(a0, s1);
    rt::syscall(f, os::sys::kPkeyFree);
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    rt::syscall(f, os::sys::kReport);
    f.mv(a0, s1);
    rt::syscall(f, os::sys::kReport);
    f.li(a0, 0);
  });
  const int pid = machine.load(prog.link());
  machine.run();
  const auto& reports = machine.kernel().reports();
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[1], reports[2]);  // SAME key reallocated...
  const auto page_key =
      machine.kernel().process(pid).aspace->page_pkey(reports[0]);
  ASSERT_TRUE(page_key.has_value());
  EXPECT_EQ(*page_key, reports[1]);  // ...and the orphan page shares it
}

// ---------------------------------------------------------------------------
// Effective permissions through the whole stack.
// ---------------------------------------------------------------------------

TEST(PkeyEnforcement, ReadOnlyDomainBlocksStoresWithPkeyFaultInfo) {
  auto prog = make_main_program([](Program&, Function& f) {
    emit_mmap_rw(f, 1);
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kReadOnly));
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    emit_pkey_mprotect(f, s0, 1, s1);
    f.ld(t0, 0, s0);    // read OK
    f.sd(t0, 0, s0);    // write: pkey fault
    f.li(a0, 0);
  });
  const GuestRun run = run_guest(prog);
  ASSERT_EQ(run.faults.size(), 1u);
  EXPECT_EQ(run.faults[0].cause, core::TrapCause::kStorePageFault);
  EXPECT_TRUE(run.faults[0].pkey_fault);  // §III-B.2 augmented SIGSEGV
  EXPECT_EQ(run.faults[0].pkey, 1u);
}

TEST(PkeyEnforcement, WriteOnlyLogDomain) {
  // The paper's write-only log use case (§III-A): a producer can append but
  // nobody can read until the permission flips.
  auto prog = make_main_program([](Program& p, Function& f) {
    rt::add_pkey_lib(p);
    emit_mmap_rw(f, 1);
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kWriteOnly));
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    emit_pkey_mprotect(f, s0, 1, s1);
    f.li(t0, 0xBEEF);
    f.sd(t0, 0, s0);  // append to the log: allowed
    // Flip to read-only and read the entry back.
    f.mv(a0, s1);
    f.li(a1, static_cast<i64>(os::pkeyperm::kReadOnly));
    f.call("__pkey_set");
    f.ld(a0, 0, s0);
  });
  EXPECT_EQ(run_guest(prog).exit_code, 0xBEEF);
}

TEST(PkeyEnforcement, WriteOnlyDomainBlocksReads) {
  auto prog = make_main_program([](Program&, Function& f) {
    emit_mmap_rw(f, 1);
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kWriteOnly));
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    emit_pkey_mprotect(f, s0, 1, s1);
    f.sd(zero, 0, s0);  // OK
    f.ld(a0, 0, s0);    // pkey fault
  });
  const GuestRun run = run_guest(prog);
  ASSERT_EQ(run.faults.size(), 1u);
  EXPECT_EQ(run.faults[0].cause, core::TrapCause::kLoadPageFault);
  EXPECT_TRUE(run.faults[0].pkey_fault);
}

TEST(PkeyEnforcement, GuestPkeySetTogglesPermissions) {
  auto prog = make_main_program([](Program& p, Function& f) {
    rt::add_pkey_lib(p);
    emit_mmap_rw(f, 1);
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kReadOnly));
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    emit_pkey_mprotect(f, s0, 1, s1);
    // Enable write, store, restore read-only (the Func-A pattern, Fig. 3).
    f.mv(a0, s1);
    f.li(a1, static_cast<i64>(os::pkeyperm::kRw));
    f.call("__pkey_set");
    f.li(t0, 7);
    f.sd(t0, 0, s0);
    f.mv(a0, s1);
    f.li(a1, static_cast<i64>(os::pkeyperm::kReadOnly));
    f.call("__pkey_set");
    // Verify the perm reads back.
    f.mv(a0, s1);
    f.call("__pkey_get");
    rt::syscall(f, os::sys::kReport);
    f.ld(a0, 0, s0);
  });
  const GuestRun run = run_guest(prog);
  EXPECT_EQ(run.exit_code, 7);
  EXPECT_EQ(run.reports,
            (std::vector<u64>{static_cast<u64>(os::pkeyperm::kReadOnly)}));
}

// ---------------------------------------------------------------------------
// Sealing feature 1: domain sealing (the Fig. 3 Func-B attack).
// ---------------------------------------------------------------------------

TEST(Sealing, DomainSealBlocksRekeying) {
  auto prog = make_main_program([](Program&, Function& f) {
    emit_mmap_rw(f, 1);
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kReadOnly));
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    emit_pkey_mprotect(f, s0, 1, s1);
    // pkey_seal(pkey, seal_domain=1, seal_page=1)
    f.mv(a0, s1);
    f.li(a1, 1);
    f.li(a2, 1);
    rt::syscall(f, os::sys::kPkeySeal);
    rt::syscall(f, os::sys::kReport);  // expect 0
    // Func-B: allocate a fresh RW key and try to re-key the log.
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s2, a0);
    emit_pkey_mprotect(f, s0, 1, s2);
    f.neg(a0, a0);  // expect EPERM = 1
    rt::syscall(f, os::sys::kReport);
    f.li(a0, 0);
  });
  const GuestRun run = run_guest(prog);
  EXPECT_EQ(run.reports,
            (std::vector<u64>{0, static_cast<u64>(-os::err::kPerm)}));
}

TEST(Sealing, DomainSealBlocksPlainMprotect) {
  auto prog = make_main_program([](Program&, Function& f) {
    emit_mmap_rw(f, 1);
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kReadOnly));
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    emit_pkey_mprotect(f, s0, 1, s1);
    f.mv(a0, s1);
    f.li(a1, 1);
    f.li(a2, 0);
    rt::syscall(f, os::sys::kPkeySeal);
    // mprotect on the sealed domain's pages must fail too.
    f.mv(a0, s0);
    f.li(a1, 4096);
    f.li(a2, 3);
    rt::syscall(f, os::sys::kMprotect);
    f.neg(a0, a0);
  });
  EXPECT_EQ(run_guest(prog).exit_code, -os::err::kPerm);
}

TEST(Sealing, SealUnallocatedKeyIsEinval) {
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(a0, 9);
    f.li(a1, 1);
    f.li(a2, 1);
    rt::syscall(f, os::sys::kPkeySeal);
    f.neg(a0, a0);
  });
  EXPECT_EQ(run_guest(prog).exit_code, -os::err::kInval);
}

// ---------------------------------------------------------------------------
// Sealing feature 2: page sealing (the Fig. 3 Func-C attack).
// ---------------------------------------------------------------------------

TEST(Sealing, PageSealBlocksAddingPages) {
  auto prog = make_main_program([](Program&, Function& f) {
    emit_mmap_rw(f, 1);        // s0 = log
    emit_mmap_rw(f, 1, s2);    // s2 = prices (attacker-controlled)
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kReadOnly));
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    emit_pkey_mprotect(f, s0, 1, s1);
    // Seal pages only.
    f.mv(a0, s1);
    f.li(a1, 0);
    f.li(a2, 1);
    rt::syscall(f, os::sys::kPkeySeal);
    // Func-C: try to pull the prices pages into the log's domain.
    emit_pkey_mprotect(f, s2, 1, s1);
    f.neg(a0, a0);  // EPERM
  });
  EXPECT_EQ(run_guest(prog).exit_code, -os::err::kPerm);
}

TEST(Sealing, PageSealStillAllowsPermChangeOnOwnPages) {
  // seal_page alone does not freeze the domain's own PTE permissions.
  auto prog = make_main_program([](Program&, Function& f) {
    emit_mmap_rw(f, 1);
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kReadOnly));
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    emit_pkey_mprotect(f, s0, 1, s1);
    f.mv(a0, s1);
    f.li(a1, 0);
    f.li(a2, 1);
    rt::syscall(f, os::sys::kPkeySeal);
    // Re-protecting the same pages with the same key is not "adding pages".
    emit_pkey_mprotect(f, s0, 1, s1);
  });
  EXPECT_EQ(run_guest(prog).exit_code, 0);
}

TEST(Sealing, SealDissolvesAfterFullRelease) {
  // "the seal cannot be broken unless the corresponding pkey and all its
  // associated pages are freed" — after free+unmap the key is fresh.
  auto prog = make_main_program([](Program&, Function& f) {
    emit_mmap_rw(f, 1);
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    emit_pkey_mprotect(f, s0, 1, s1);
    f.mv(a0, s1);
    f.li(a1, 1);
    f.li(a2, 1);
    rt::syscall(f, os::sys::kPkeySeal);
    f.mv(a0, s1);
    rt::syscall(f, os::sys::kPkeyFree);
    f.mv(a0, s0);
    f.li(a1, 4096);
    rt::syscall(f, os::sys::kMunmap);  // drains the key
    // Reallocate (gets the same key back) and use it unsealed.
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    rt::syscall(f, os::sys::kReport);  // expect 1 (recycled)
    emit_mmap_rw(f, 1);
    emit_pkey_mprotect(f, s0, 1, s1);
    f.neg(a0, a0);  // expect 0 (no seal in the way)
  });
  const GuestRun run = run_guest(prog);
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_EQ(run.reports, (std::vector<u64>{1}));
}

// ---------------------------------------------------------------------------
// Sealing feature 3: permission sealing (the Fig. 3 Func-D attack).
// ---------------------------------------------------------------------------

// Program skeleton: a trusted function executes seal.start / WRPKR region /
// seal.end then pkey_perm_seal; an attacker function runs WRPKR elsewhere.
TEST(Sealing, PermSealAllowsWrpkrInsideRange) {
  auto prog = make_main_program([](Program& p, Function& f) {
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kReadOnly));
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    f.call("trusted");  // first run latches the range (WRPKR still unsealed)
    f.mv(a0, s1);
    rt::syscall(f, os::sys::kPkeyPermSeal);
    rt::syscall(f, os::sys::kReport);  // expect 0 (seal committed)
    f.call("trusted");  // second run: WRPKR now sealed but in-range
    f.li(a0, 7);
    rt::syscall(f, os::sys::kReport);  // expect 7 (no trap on the way)
    f.li(a0, 0);

    Function& t = p.add_function("trusted");
    t.seal_start(0);
    t.rdpkr(t2, s1);
    t.wrpkr(s1, t2);  // the in-range WRPKR
    t.seal_end(0);
    t.ret();
  });
  const GuestRun run = run_guest(prog);
  EXPECT_TRUE(run.faults.empty());
  EXPECT_EQ(run.reports, (std::vector<u64>{0, 7}));
}

TEST(Sealing, PermSealBlocksWrpkrOutsideRange) {
  auto prog = make_main_program([](Program& p, Function& f) {
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kReadOnly));
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    f.call("trusted");
    // Func-D: injected WRPKR outside the permissible range, attempting to
    // grant RW (row value 0).
    f.wrpkr(s1, zero);
    f.li(a0, 0);

    Function& t = p.add_function("trusted");
    t.seal_start(0);
    t.rdpkr(t2, s1);
    t.wrpkr(s1, t2);  // in-range WRPKR: fine
    t.seal_end(0);
    t.mv(a0, s1);
    rt::syscall(t, os::sys::kPkeyPermSeal);
    t.ret();
  });
  const GuestRun run = run_guest(prog);
  ASSERT_EQ(run.faults.size(), 1u);
  EXPECT_EQ(run.faults[0].cause, core::TrapCause::kSealViolation);
  EXPECT_TRUE(run.faults[0].pkey_fault);
  EXPECT_EQ(run.faults[0].pkey, 1u);
}

TEST(Sealing, PermSealSecondCallFails) {
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    f.seal_start(0);
    f.nop();
    f.seal_end(0);
    f.mv(a0, s1);
    rt::syscall(f, os::sys::kPkeyPermSeal);
    rt::syscall(f, os::sys::kReport);  // 0
    f.mv(a0, s1);
    rt::syscall(f, os::sys::kPkeyPermSeal);
    f.neg(a0, a0);  // EPERM = 1
    rt::syscall(f, os::sys::kReport);
    f.li(a0, 0);
  });
  EXPECT_EQ(run_guest(prog).reports,
            (std::vector<u64>{0, static_cast<u64>(-os::err::kPerm)}));
}

TEST(Sealing, PermSealWithoutLatchedRangeFails) {
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    rt::syscall(f, os::sys::kPkeyPermSeal);  // latches are 0: EINVAL
    f.neg(a0, a0);
  });
  EXPECT_EQ(run_guest(prog).exit_code, -os::err::kInval);
}

TEST(Sealing, PermSealThenZeroPageFreeDissolvesHardwareSeal) {
  // Regression found by the model checker (tests/model_traces/
  // kernel-free-seal-leak-divergence.json): freeing a perm-sealed key that
  // carries no pages takes the immediate-release path, which used to skip
  // the SealReg/PK-CAM scrub — the key's next owner inherited the seal and
  // its first out-of-range WRPKR was fatal.
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    f.seal_start(0);
    f.nop();
    f.seal_end(0);
    f.mv(a0, s1);
    rt::syscall(f, os::sys::kPkeyPermSeal);
    rt::syscall(f, os::sys::kReport);  // expect 0 (seal committed)
    f.mv(a0, s1);
    rt::syscall(f, os::sys::kPkeyFree);  // zero pages: immediate release
    rt::syscall(f, os::sys::kReport);    // expect 0
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    rt::syscall(f, os::sys::kReport);  // expect 1 (recycled key)
    // The new owner writes its permissions far from the old sealed range;
    // a leaked SealReg bit would make this WRPKR trap.
    f.wrpkr(s1, zero);
    f.li(a0, 0);
  });
  const GuestRun run = run_guest(prog);
  EXPECT_TRUE(run.faults.empty());
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_EQ(run.reports, (std::vector<u64>{0, 0, 1}));
}

TEST(Sealing, DoubleSealIsIdempotentAndAccumulates) {
  auto prog = make_main_program([](Program&, Function& f) {
    emit_mmap_rw(f, 1);
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    emit_pkey_mprotect(f, s0, 1, s1);
    // Domain-seal twice: the second call must succeed and change nothing.
    for (int i = 0; i < 2; ++i) {
      f.mv(a0, s1);
      f.li(a1, 1);
      f.li(a2, 0);
      rt::syscall(f, os::sys::kPkeySeal);
      rt::syscall(f, os::sys::kReport);  // expect 0, 0
    }
    // A later call may add the page seal on top of the domain seal.
    f.mv(a0, s1);
    f.li(a1, 0);
    f.li(a2, 1);
    rt::syscall(f, os::sys::kPkeySeal);
    rt::syscall(f, os::sys::kReport);  // expect 0
    // Both seals now hold: rekeying the page away is vetoed.
    emit_pkey_mprotect(f, s0, 1, zero);
    f.neg(a0, a0);
    rt::syscall(f, os::sys::kReport);  // expect -EPERM
    f.li(a0, 0);
  });
  const GuestRun run = run_guest(prog);
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_EQ(run.reports,
            (std::vector<u64>{0, 0, 0, static_cast<u64>(-os::err::kPerm)}));
}

TEST(Sealing, WrpkrOnNeighbourPreservesPermSealedField) {
  // Inline row update: WRPKR naming an unsealed key writes its whole PKR
  // row, but the hardware must re-merge the current field of every *other*
  // perm-sealed key in that row (§IV-C).
  auto prog = make_main_program([](Program& p, Function& f) {
    emit_mmap_rw(f, 1);
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kReadOnly));
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);  // key 1: read-only, will be perm-sealed
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s2, a0);  // key 2: same PKR row, never sealed
    emit_pkey_mprotect(f, s0, 1, s1);
    f.call("trusted");
    // The attack: WRPKR naming the unsealed neighbour writes row value 0
    // (everything RW). Key 1's write-disable must survive the row write.
    f.wrpkr(s2, zero);
    f.li(t0, 1);
    f.sd(t0, 0, s0);  // store to key 1's page: pkey fault
    f.li(a0, 0);

    Function& t = p.add_function("trusted");
    t.seal_start(0);
    t.rdpkr(t2, s1);
    t.wrpkr(s1, t2);
    t.seal_end(0);
    t.mv(a0, s1);
    rt::syscall(t, os::sys::kPkeyPermSeal);
    t.ret();
  });
  const GuestRun run = run_guest(prog);
  ASSERT_EQ(run.faults.size(), 1u);
  EXPECT_TRUE(run.faults[0].pkey_fault);
  EXPECT_EQ(run.faults[0].pkey, 1u);
}

TEST(PkeyLifecycle, LazyFreeDrainsExactlyAtLastPage) {
  // Quarantine boundary: with two pages carrying the freed key, draining
  // the first page must NOT recycle it; draining the second one must.
  auto prog = make_main_program([](Program&, Function& f) {
    emit_mmap_rw(f, 2);
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    emit_pkey_mprotect(f, s0, 2, s1);
    f.mv(a0, s1);
    rt::syscall(f, os::sys::kPkeyFree);  // both pages survive: quarantined
    // Rekey page 0 back to the default key: counter drops 2 -> 1.
    emit_pkey_mprotect(f, s0, 1, zero);
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    rt::syscall(f, os::sys::kReport);  // expect 2: key 1 still quarantined
    // Rekey page 1: counter hits 0 exactly, the quarantine drains.
    f.mv(a0, s0);
    f.li(a1, 4096);
    f.add(a0, a0, a1);
    f.li(a1, 4096);
    f.li(a2, 3);
    f.mv(a3, zero);
    rt::syscall(f, os::sys::kPkeyMprotect);
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    rt::syscall(f, os::sys::kReport);  // expect 1: drained and recycled
    f.li(a0, 0);
  });
  const GuestRun run = run_guest(prog);
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_EQ(run.reports, (std::vector<u64>{2, 1}));
}

TEST(Sealing, SealPkSyscallsAreEnosysOnMpk) {
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(a0, 1);
    f.li(a1, 1);
    f.li(a2, 1);
    rt::syscall(f, os::sys::kPkeySeal);
    f.neg(a0, a0);
  });
  EXPECT_EQ(run_guest(prog, mpk_machine()).exit_code, -os::err::kNoSys);
}

// ---------------------------------------------------------------------------
// Threads and context switches (§III-B.2).
// ---------------------------------------------------------------------------

TEST(Threads, CloneRunsChildAndYieldInterleaves) {
  auto prog = make_main_program([](Program& p, Function& f) {
    p.add_zero("flag", 8);
    // Child stack.
    f.li(a0, 0);
    f.li(a1, 16384);
    f.li(a2, 3);
    rt::syscall(f, os::sys::kMmap);
    f.li(t0, 16384);
    f.add(a1, a0, t0);  // stack top
    f.la(a0, "child");
    f.li(a2, 0);
    rt::syscall(f, os::sys::kClone);
    rt::syscall(f, os::sys::kReport);  // child tid (expect 2)
    // Wait for the flag.
    const Label wait = f.new_label(), done = f.new_label();
    f.bind(wait);
    f.la(t0, "flag");
    f.ld(t1, 0, t0);
    f.bnez(t1, done);
    rt::syscall(f, os::sys::kSchedYield);
    f.j(wait);
    f.bind(done);
    f.mv(a0, t1);
    rt::syscall(f, os::sys::kReport);  // expect 77
    f.li(a0, 0);

    Function& c = p.add_function("child");
    c.instrumentable = false;
    c.la(t0, "flag");
    c.li(t1, 77);
    c.sd(t1, 0, t0);
    const Label spin = c.new_label();
    c.bind(spin);
    rt::syscall(c, os::sys::kSchedYield);
    c.j(spin);
  });
  const GuestRun run = run_guest(prog);
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_EQ(run.reports, (std::vector<u64>{2, 77}));
}

TEST(Threads, PkrIsPerThread) {
  // A sibling flipping its own PKR view of a key must not affect this
  // thread's view — the kernel swaps PKR on context switch (§III-B.2).
  auto prog = make_main_program([](Program& p, Function& f) {
    rt::add_pkey_lib(p);
    p.add_zero("flag", 8);
    // Allocate a key with RW perms in this thread.
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s2, a0);
    // Spawn the child (it inherits the current PKR).
    f.li(a0, 0);
    f.li(a1, 16384);
    f.li(a2, 3);
    rt::syscall(f, os::sys::kMmap);
    f.li(t0, 16384);
    f.add(a1, a0, t0);
    f.la(a0, "child");
    f.mv(a2, s2);  // pass the pkey
    rt::syscall(f, os::sys::kClone);
    // Wait until the child changed *its* PKR.
    const Label wait = f.new_label(), done = f.new_label();
    f.bind(wait);
    f.la(t0, "flag");
    f.ld(t1, 0, t0);
    f.bnez(t1, done);
    rt::syscall(f, os::sys::kSchedYield);
    f.j(wait);
    f.bind(done);
    // Our own view must still be 00.
    f.mv(a0, s2);
    f.call("__pkey_get");
    rt::syscall(f, os::sys::kReport);
    f.li(a0, 0);

    Function& c = p.add_function("child");
    c.instrumentable = false;
    c.mv(s2, a0);  // pkey arrives in a0
    c.mv(a0, s2);
    c.li(a1, static_cast<i64>(os::pkeyperm::kNone));
    c.call("__pkey_set");
    // Report the child's own view.
    c.mv(a0, s2);
    c.call("__pkey_get");
    rt::syscall(c, os::sys::kReport);
    c.la(t0, "flag");
    c.li(t1, 1);
    c.sd(t1, 0, t0);
    const Label spin = c.new_label();
    c.bind(spin);
    rt::syscall(c, os::sys::kSchedYield);
    c.j(spin);
  });
  const GuestRun run = run_guest(prog);
  ASSERT_EQ(run.reports.size(), 2u);
  EXPECT_EQ(run.reports[0], static_cast<u64>(os::pkeyperm::kNone));  // child
  EXPECT_EQ(run.reports[1], static_cast<u64>(os::pkeyperm::kRw));    // parent
}

TEST(Threads, PreemptionInterleavesBusyLoops) {
  // The child never yields; only the timer quantum lets main observe its
  // progress.
  sim::MachineConfig cfg;
  cfg.preempt_quantum = 2'000;
  auto prog = make_main_program([](Program& p, Function& f) {
    p.add_zero("counter", 8);
    f.li(a0, 0);
    f.li(a1, 16384);
    f.li(a2, 3);
    rt::syscall(f, os::sys::kMmap);
    f.li(t0, 16384);
    f.add(a1, a0, t0);
    f.la(a0, "child");
    f.li(a2, 0);
    rt::syscall(f, os::sys::kClone);
    // Busy-wait (no yields) until the counter moves.
    const Label wait = f.new_label(), done = f.new_label();
    f.bind(wait);
    f.la(t0, "counter");
    f.ld(t1, 0, t0);
    f.bnez(t1, done);
    f.j(wait);
    f.bind(done);
    f.li(a0, 0);

    Function& c = p.add_function("child");
    c.instrumentable = false;
    c.la(t0, "counter");
    const Label loop = c.new_label();
    c.li(t1, 0);
    c.bind(loop);
    c.addi(t1, t1, 1);
    c.sd(t1, 0, t0);
    c.j(loop);
  });
  const GuestRun run = run_guest(prog, cfg, 10'000'000);
  EXPECT_TRUE(run.outcome.completed);
  EXPECT_EQ(run.exit_code, 0);
}

TEST(Threads, InterruptedGateNeverLeaksElevatedPkrToSibling) {
  // The interrupted-gate attack shape (serve red team, DESIGN.md §13): a
  // tight preemption quantum lands timer traps between a perm-sealed
  // gate's entry WRPKR and its monotonic RDPKR check, while a sibling
  // thread probes the monitor-tagged page on every slice it gets. The
  // kernel's per-thread PKR save/restore must guarantee that (a) the
  // sibling always resumes with its own closed row — every probe denied —
  // and (b) the gate thread always resumes with its elevated row intact,
  // so its in-gate RDPKR check and secret load never misfire.
  constexpr u64 kSecret = 0x77;
  constexpr u64 kSentinel = 0x5AFE;
  constexpr i64 kRowOpen = 0;      // pkey 1 field 00 = RW
  constexpr i64 kRowClosed = 0xC;  // pkey 1 field 11 = no access
  sim::MachineConfig cfg;
  cfg.preempt_quantum = 13;  // traps reset the quantum; keep it inside gates
  auto prog = make_main_program([](Program& p, Function& f) {
    p.add_zero("secret_ptr", 8);
    p.add_zero("stop", 8);
    p.add_zero("attempts", 8);
    p.add_zero("successes", 8);
    p.add_zero("mismatch", 8);
    p.add_zero("badsecret", 8);
    rt::add_pkey_lib(p);

    f.la(a0, "sig");
    rt::syscall(f, os::sys::kSigaction);
    // Secret page, tagged with freshly allocated pkey 1 (RW for the tag
    // write, closed before the sibling exists).
    f.li(a0, 0);
    f.li(a1, 4096);
    f.li(a2, 3);
    rt::syscall(f, os::sys::kMmap);
    f.mv(s3, a0);
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kRw));
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s2, a0);  // pkey 1
    f.mv(a0, s3);
    f.li(a1, 4096);
    f.li(a2, 3);
    f.mv(a3, s2);
    rt::syscall(f, os::sys::kPkeyMprotect);
    f.li(t0, 0x77);
    f.sd(t0, 0, s3);
    f.la(t0, "secret_ptr");
    f.sd(s3, 0, t0);
    f.mv(a0, s2);
    f.li(a1, static_cast<i64>(os::pkeyperm::kNone));
    f.call("__pkey_set");
    // One staging pass through the gate latches its seal markers, then the
    // perm-seal commits: from here WRPKR naming pkey 1 is legal only
    // inside the gate.
    f.call("gate");
    f.mv(a0, s2);
    rt::syscall(f, os::sys::kPkeyPermSeal);
    rt::syscall(f, os::sys::kReport);  // 0 = seal accepted
    // Sibling inherits the closed row.
    f.li(a0, 0);
    f.li(a1, 16384);
    f.li(a2, 3);
    rt::syscall(f, os::sys::kMmap);
    f.li(t0, 16384);
    f.add(a1, a0, t0);
    f.la(a0, "probe");
    f.li(a2, 0);
    rt::syscall(f, os::sys::kClone);
    // Many crossings; preemption lands at varied offsets inside the gate.
    const Label loop = f.new_label(), done = f.new_label();
    f.li(s4, 40);
    f.bind(loop);
    f.beqz(s4, done);
    f.call("gate");
    f.addi(s4, s4, -1);
    f.j(loop);
    f.bind(done);
    f.la(t0, "stop");
    f.li(t1, 1);
    f.sd(t1, 0, t0);
    for (const char* counter : {"attempts", "successes", "mismatch",
                                "badsecret"}) {
      f.la(t0, counter);
      f.ld(a0, 0, t0);
      rt::syscall(f, os::sys::kReport);
    }
    f.li(a0, 0);

    Function& g = p.add_function("gate");
    g.instrumentable = false;
    const Label g_row_ok = g.new_label(), g_sum_ok = g.new_label();
    g.seal_start(0);
    g.li(t0, 1);
    g.li(t1, kRowOpen);
    g.wrpkr(t0, t1);
    // Filler long enough that the 13-instruction quantum fires between the
    // entry WRPKR and the monotonic check below.
    for (int i = 0; i < 16; ++i) g.addi(t4, t4, 1);
    g.rdpkr(t3, t0);
    g.beq(t3, t1, g_row_ok);
    g.la(t2, "mismatch");  // resumed with someone else's row
    g.ld(t3, 0, t2);
    g.addi(t3, t3, 1);
    g.sd(t3, 0, t2);
    g.bind(g_row_ok);
    g.la(t2, "secret_ptr");
    g.ld(t2, 0, t2);
    g.ld(t3, 0, t2);
    g.li(t4, kSecret);
    g.beq(t3, t4, g_sum_ok);
    g.la(t2, "badsecret");
    g.ld(t3, 0, t2);
    g.addi(t3, t3, 1);
    g.sd(t3, 0, t2);
    g.bind(g_sum_ok);
    g.li(t0, 1);
    g.li(t1, kRowClosed);
    g.wrpkr(t0, t1);
    g.seal_end(0);
    g.ret();

    Function& c = p.add_function("probe");
    c.instrumentable = false;
    const Label c_loop = c.new_label(), c_denied = c.new_label(),
                c_spin = c.new_label();
    c.la(s5, "secret_ptr");
    c.ld(s5, 0, s5);
    c.li(t6, kSentinel);
    c.bind(c_loop);
    c.la(t0, "stop");
    c.ld(t0, 0, t0);
    c.bnez(t0, c_spin);
    c.la(t0, "attempts");
    c.ld(t1, 0, t0);
    c.addi(t1, t1, 1);
    c.sd(t1, 0, t0);
    // A denied load is skipped by the handler and leaves the sentinel; the
    // secret slot holds 0x77, so a load that lands cannot fake a denial.
    c.mv(t2, t6);
    c.ld(t2, 0, s5);
    c.beq(t2, t6, c_denied);
    c.la(t0, "successes");
    c.ld(t1, 0, t0);
    c.addi(t1, t1, 1);
    c.sd(t1, 0, t0);
    c.bind(c_denied);
    rt::syscall(c, os::sys::kSchedYield);
    c.j(c_loop);
    c.bind(c_spin);
    rt::syscall(c, os::sys::kSchedYield);
    c.j(c_spin);

    Function& s = p.add_function("sig");
    s.instrumentable = false;
    s.li(a0, 1);  // skip the denied instruction
    rt::syscall(s, os::sys::kSigreturn);
  });
  const GuestRun run = run_guest(prog, cfg, 10'000'000);
  ASSERT_TRUE(run.outcome.completed);
  EXPECT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.reports.size(), 5u);
  EXPECT_EQ(run.reports[0], 0u);  // perm-seal accepted
  EXPECT_GT(run.reports[1], 0u);  // the sibling really probed
  EXPECT_EQ(run.reports[2], 0u);  // ...and never landed a single load
  EXPECT_EQ(run.reports[3], 0u);  // gate never resumed with a foreign row
  EXPECT_EQ(run.reports[4], 0u);  // secret reads inside the gate all clean
  // Every recorded denial belongs to the probe thread (tid 2), on the
  // sealed pkey; the gate thread never faulted.
  EXPECT_FALSE(run.faults.empty());
  for (const auto& fr : run.faults) {
    EXPECT_EQ(fr.tid, 2);
    EXPECT_EQ(fr.pkey, 1u);
  }
  EXPECT_EQ(run.kstats.seal_violations, 0u);
}

TEST(Threads, GetTidDistinguishesThreads) {
  auto prog = make_main_program([](Program& p, Function& f) {
    p.add_zero("flag", 8);
    rt::syscall(f, os::sys::kGetTid);
    rt::syscall(f, os::sys::kReport);  // main tid = 1
    f.li(a0, 0);
    f.li(a1, 16384);
    f.li(a2, 3);
    rt::syscall(f, os::sys::kMmap);
    f.li(t0, 16384);
    f.add(a1, a0, t0);
    f.la(a0, "child");
    f.li(a2, 0);
    rt::syscall(f, os::sys::kClone);
    const Label wait = f.new_label(), done = f.new_label();
    f.bind(wait);
    f.la(t0, "flag");
    f.ld(t1, 0, t0);
    f.bnez(t1, done);
    rt::syscall(f, os::sys::kSchedYield);
    f.j(wait);
    f.bind(done);
    f.li(a0, 0);

    Function& c = p.add_function("child");
    c.instrumentable = false;
    rt::syscall(c, os::sys::kGetTid);
    rt::syscall(c, os::sys::kReport);  // child tid = 2
    c.la(t0, "flag");
    c.li(t1, 1);
    c.sd(t1, 0, t0);
    const Label spin = c.new_label();
    c.bind(spin);
    rt::syscall(c, os::sys::kSchedYield);
    c.j(spin);
  });
  EXPECT_EQ(run_guest(prog).reports, (std::vector<u64>{1, 2}));
}

// ---------------------------------------------------------------------------
// Key-manager unit-level properties (host-side).
// ---------------------------------------------------------------------------

TEST(KeyManagerUnit, CounterInvariantsUnderRandomOps) {
  os::SealPkKeyManager mgr;
  Rng rng(123);
  std::vector<u32> live;
  std::map<u32, i64> pages;
  for (int step = 0; step < 20'000; ++step) {
    const int op = static_cast<int>(rng.below(4));
    if (op == 0) {  // alloc
      const i64 k = mgr.alloc();
      if (k > 0) {
        live.push_back(static_cast<u32>(k));
        EXPECT_FALSE(mgr.dirty(static_cast<u32>(k)));
        EXPECT_EQ(mgr.page_count(static_cast<u32>(k)), 0u);
      }
    } else if (op == 1 && !live.empty()) {  // add pages
      const u32 k = live[rng.below(live.size())];
      mgr.page_delta(k, 3);
      pages[k] += 3;
    } else if (op == 2 && !live.empty()) {  // remove one page
      const u32 k = live[rng.below(live.size())];
      if (pages[k] > 0) {
        mgr.page_delta(k, -1);
        pages[k] -= 1;
      }
    } else if (op == 3 && !live.empty()) {  // free
      const size_t idx = rng.below(live.size());
      const u32 k = live[idx];
      EXPECT_EQ(mgr.free_key(k), 0);
      live.erase(live.begin() + static_cast<long>(idx));
      if (pages[k] > 0) {
        EXPECT_TRUE(mgr.dirty(k));
        // Drain it now and verify it becomes clean.
        mgr.page_delta(k, -pages[k]);
        pages[k] = 0;
        EXPECT_FALSE(mgr.dirty(k));
        EXPECT_FALSE(mgr.allocated(k));
      }
    }
    // Invariant: a key is never both allocated and dirty.
    for (const u32 k : live) {
      EXPECT_TRUE(mgr.allocated(k));
      EXPECT_FALSE(mgr.dirty(k));
    }
  }
}

TEST(KeyManagerUnit, PageDeltaReportsDrain) {
  os::SealPkKeyManager mgr;
  const i64 key = mgr.alloc();
  ASSERT_GT(key, 0);
  const u32 k = static_cast<u32>(key);
  EXPECT_FALSE(mgr.page_delta(k, 2));
  ASSERT_EQ(mgr.free_key(k), 0);
  EXPECT_FALSE(mgr.page_delta(k, -1));
  EXPECT_TRUE(mgr.dirty(k));
  EXPECT_TRUE(mgr.page_delta(k, -1));  // the last page: drained
  EXPECT_FALSE(mgr.dirty(k));
  EXPECT_FALSE(mgr.page_delta(k, 0));  // only once

  // The audit's reconcile port reports a drain the same way.
  ASSERT_EQ(mgr.alloc(), key);
  EXPECT_FALSE(mgr.page_delta(k, 1));
  ASSERT_EQ(mgr.free_key(k), 0);
  EXPECT_FALSE(mgr.reconcile_page_count(k, 4));
  EXPECT_TRUE(mgr.reconcile_page_count(k, 0));
  EXPECT_FALSE(mgr.dirty(k));
}

TEST(KeyManagerUnit, MpkManagerHasNoQuarantine) {
  mpk::MpkKeyManager mgr;
  const i64 k = mgr.alloc();
  ASSERT_EQ(k, 1);
  mgr.page_delta(1, 5);  // ignored
  EXPECT_EQ(mgr.free_key(1), 0);
  EXPECT_EQ(mgr.alloc(), 1);  // immediately recycled: the bug
}

}  // namespace
}  // namespace sealpk
