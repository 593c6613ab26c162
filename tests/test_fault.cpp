// Robustness: fault injection, the kernel's consistency audit, recovery
// paths, the run-loop watchdog, load-time refusal and host-exception
// containment.
//
// The planted-inconsistency tests are the audit's acceptance gate: every
// category of corruption the injector can produce must be detected by one
// audit pass and repaired by audit_and_recover, after which the guest must
// still run to a clean exit.
#include <gtest/gtest.h>

#include <memory>

#include "fault/fault.h"
#include "guest_test_util.h"
#include "mem/pte.h"
#include "os/audit.h"
#include "workloads/workload.h"

namespace sealpk {
namespace {

using isa::Function;
using isa::Label;
using isa::Program;
using namespace isa;

// A machine paused mid-flight inside a real workload: TLBs warm, page
// tables populated, one process with live pkey bookkeeping.
class AuditTest : public ::testing::Test {
 protected:
  void start(sim::MachineConfig config = {}, u64 warmup = 30'000) {
    machine_ = std::make_unique<sim::Machine>(config);
    pid_ = machine_->load(wl::build_sha(1).link());
    ASSERT_GE(pid_, 0);
    machine_->run(warmup);
    ASSERT_FALSE(machine_->kernel().all_exited()) << "warmup ran to the end";
  }

  void finish(i64 expect_exit = 0) {
    const auto outcome = machine_->run(400'000'000);
    ASSERT_TRUE(outcome.completed);
    EXPECT_EQ(machine_->exit_code(pid_), expect_exit);
  }

  os::Kernel& kernel() { return machine_->kernel(); }

  std::unique_ptr<sim::Machine> machine_;
  int pid_ = -1;
};

TEST_F(AuditTest, CleanMachineAuditsClean) {
  start();
  const auto report = kernel().audit();
  EXPECT_TRUE(report.clean())
      << report.findings.size() << " findings, first: "
      << os::audit_check_name(report.findings[0].check);
  finish();
}

TEST_F(AuditTest, PkrParityDetectsPlantedBitFlip) {
  start();
  machine_->hart().pkr().corrupt_bit(3, 17);
  const auto report = kernel().audit();
  EXPECT_EQ(report.count(os::AuditCheck::kPkrParity), 1u);
  kernel().audit_and_recover();
  EXPECT_TRUE(kernel().audit().clean());
  EXPECT_GE(machine_->kernel().stats().pkr_scrubs, 1u);
  finish();
}

TEST_F(AuditTest, PkrShadowCatchesEvenWeightCorruption) {
  start();
  // Two flips in one row keep the row parity even — only the software
  // shadow comparison can see this.
  machine_->hart().pkr().corrupt_bit(2, 5);
  machine_->hart().pkr().corrupt_bit(2, 9);
  ASSERT_TRUE(machine_->hart().pkr().parity_ok(2));
  const auto report = kernel().audit();
  EXPECT_EQ(report.count(os::AuditCheck::kPkrParity), 0u);
  EXPECT_EQ(report.count(os::AuditCheck::kPkrShadow), 1u);
  kernel().audit_and_recover();
  EXPECT_TRUE(kernel().audit().clean());
  finish();
}

TEST_F(AuditTest, TlbAuditDetectsCorruptEntry) {
  start();
  mem::Tlb& dtlb = machine_->hart().dtlb();
  size_t slot = dtlb.capacity();
  for (size_t i = 0; i < dtlb.capacity(); ++i) {
    if (dtlb.peek_slot(i) != nullptr) {
      slot = i;
      break;
    }
  }
  ASSERT_LT(slot, dtlb.capacity()) << "warmup left the DTLB empty";
  ASSERT_TRUE(dtlb.corrupt_slot(slot, /*pkey_xor=*/1, /*perm_xor=*/0,
                                /*flip_dirty=*/false));
  const auto report = kernel().audit();
  EXPECT_GE(report.count(os::AuditCheck::kTlbCoherence), 1u);
  kernel().audit_and_recover();
  EXPECT_TRUE(kernel().audit().clean());  // flush emptied the TLBs
  EXPECT_GE(machine_->kernel().stats().tlb_flush_recoveries, 1u);
  finish();
}

TEST_F(AuditTest, PteAuditDetectsPkeyFieldFlip) {
  start();
  const os::AddressSpace& as = *machine_->kernel().process(pid_).aspace;
  ASSERT_FALSE(as.vmas().empty());
  const u64 vaddr = as.vmas().begin()->second.start;
  const u64 slot = as.leaf_pte_addr(vaddr);
  ASSERT_NE(slot, 0u);
  machine_->mem().write_u64(
      slot, machine_->mem().read_u64(slot) ^
                (u64{1} << mem::pte::kPkeyShift));
  const auto report = kernel().audit();
  EXPECT_GE(report.count(os::AuditCheck::kPteVsVma), 1u);
  kernel().audit_and_recover();
  EXPECT_TRUE(kernel().audit().clean());
  EXPECT_GE(machine_->kernel().stats().pte_repairs, 1u);
  finish();
}

TEST_F(AuditTest, KeyCounterAuditDetectsDrift) {
  start();
  machine_->kernel().process(pid_).keys->page_delta(0, 5);  // plant drift
  const auto report = kernel().audit();
  EXPECT_EQ(report.count(os::AuditCheck::kKeyCounters), 1u);
  kernel().audit_and_recover();
  EXPECT_TRUE(kernel().audit().clean());
  EXPECT_GE(machine_->kernel().stats().key_counter_repairs, 1u);
  finish();
}

// A counter repair can complete a lazy-free drain in a process that is not
// running. The drain must scrub that process's saved seal state and PKR
// rows, and leave the running process's PKR alone.
TEST_F(AuditTest, CounterRepairDrainsTheProcessThatOwnsTheKey) {
  start();
  const int other = machine_->load(wl::build_sha(1).link());
  ASSERT_GE(other, 0);
  os::Process& proc = kernel().process(other);
  ASSERT_NE(kernel().thread(kernel().current_tid()).pid, other);

  // In `other`: a perm-sealed key, freed into quarantine with a planted
  // page count that no mapping backs.
  const i64 key = proc.keys->alloc();
  ASSERT_GT(key, 0);
  const u32 k = static_cast<u32>(key);
  ASSERT_EQ(proc.keys->set_perm_seal(k, {0x1000, 0x1FFC}), 0);
  proc.seal_hw.seal_reg.set(k);
  proc.seal_hw.cam_entries[0] = {static_cast<u16>(k), 0x1000, 0x1FFC};
  proc.seal_hw.cam_valid[0] = true;
  for (const int tid : proc.thread_tids) {
    hw::Pkr::set_perm_in(kernel().thread(tid).ctx.pkr, k, hw::kPermNone);
  }
  proc.keys->page_delta(k, 1);  // plant drift
  ASSERT_EQ(proc.keys->free_key(k), 0);
  ASSERT_TRUE(proc.keys->dirty(k));

  // The running process holds its own permission for the same key number.
  machine_->hart().pkr().set_perm(k, hw::kPermWriteOnly);
  hw::Pkr::set_perm_in(kernel().thread(kernel().current_tid()).ctx.pkr, k,
                       hw::kPermWriteOnly);

  const auto report = kernel().audit_and_recover();
  EXPECT_EQ(report.count(os::AuditCheck::kKeyCounters), 1u);
  EXPECT_FALSE(proc.keys->dirty(k));
  EXPECT_EQ(unsigned{machine_->hart().pkr().peek_perm(k)},
            unsigned{hw::kPermWriteOnly});
  EXPECT_FALSE(proc.seal_hw.seal_reg[k]);
  EXPECT_FALSE(proc.seal_hw.cam_valid[0]);
  for (const int tid : proc.thread_tids) {
    hw::Pkr saved;
    saved.restore(kernel().thread(tid).ctx.pkr);
    EXPECT_EQ(unsigned{saved.peek_perm(k)}, 0u) << "tid " << tid;
  }
  EXPECT_TRUE(kernel().audit().clean());
  finish();
}

TEST_F(AuditTest, CamAuditDetectsDuplicateLines) {
  start();
  hw::SealUnit& unit = machine_->hart().seal_unit();
  unit.refill(4, 0x1000, 0x2000);
  unit.refill_duplicate(4, 0x1000, 0x2000);
  ASSERT_EQ(unit.cam_count_of(4), 2u);
  const auto report = kernel().audit();
  EXPECT_EQ(report.count(os::AuditCheck::kCamDuplicates), 1u);
  kernel().audit_and_recover();
  EXPECT_EQ(unit.cam_count_of(4), 1u);
  EXPECT_TRUE(kernel().audit().clean());
  finish();
}

TEST_F(AuditTest, SchedulerAuditDetectsBogusTid) {
  // One bad run-queue entry each: an unknown tid, the running thread, and a
  // live queued thread (a second process's) queued a second time.
  for (const int plant : {0, 1, 2}) {
    SCOPED_TRACE(plant);
    start();
    std::vector<int>& queue = kernel().run_queue_for_test();
    if (plant == 0) queue.push_back(999);
    if (plant == 1) queue.push_back(kernel().current_tid());
    if (plant == 2) {
      ASSERT_GE(machine_->load(wl::build_sha(1).link()), 0);
      ASSERT_EQ(queue.size(), 1u);
      queue.push_back(queue.front());
    }
    const auto report = kernel().audit();
    EXPECT_EQ(report.count(os::AuditCheck::kScheduler), 1u);
    kernel().audit_and_recover();
    EXPECT_TRUE(kernel().audit().clean());
    EXPECT_EQ(kernel().stats().run_queue_scrubs, 1u);
    finish();
  }
}

// The acceptance gate: one audit pass must see every planted inconsistency
// at once, and one recover pass must leave the machine consistent enough to
// finish the workload with the right answer.
TEST_F(AuditTest, OneAuditDetectsEveryPlantedInconsistency) {
  start();
  machine_->hart().pkr().corrupt_bit(7, 42);
  mem::Tlb& dtlb = machine_->hart().dtlb();
  for (size_t i = 0; i < dtlb.capacity(); ++i) {
    if (dtlb.peek_slot(i) != nullptr) {
      dtlb.corrupt_slot(i, 0, /*perm_xor=*/2, false);
      break;
    }
  }
  const os::AddressSpace& as = *machine_->kernel().process(pid_).aspace;
  const u64 vaddr = as.vmas().begin()->second.start;
  machine_->mem().write_u64(
      as.leaf_pte_addr(vaddr),
      machine_->mem().read_u64(as.leaf_pte_addr(vaddr)) ^
          (u64{1} << (mem::pte::kPkeyShift + 1)));
  machine_->kernel().process(pid_).keys->page_delta(0, 3);
  machine_->hart().seal_unit().refill(9, 0x1000, 0x2000);
  machine_->hart().seal_unit().refill_duplicate(9, 0x1000, 0x2000);
  machine_->kernel().run_queue_for_test().push_back(777);

  const auto report = kernel().audit_and_recover();
  EXPECT_GE(report.count(os::AuditCheck::kPkrParity), 1u);
  EXPECT_GE(report.count(os::AuditCheck::kTlbCoherence), 1u);
  EXPECT_GE(report.count(os::AuditCheck::kPteVsVma), 1u);
  EXPECT_GE(report.count(os::AuditCheck::kKeyCounters), 1u);
  EXPECT_GE(report.count(os::AuditCheck::kCamDuplicates), 1u);
  EXPECT_GE(report.count(os::AuditCheck::kScheduler), 1u);
  EXPECT_TRUE(kernel().audit().clean());
  finish();
}

// Auditing a clean run must not perturb it: audits are peek-only, so an
// injection-disabled run with a tight audit cadence retires the same
// instructions in the same number of cycles and produces the same output.
TEST(FaultTransparency, CleanRunIsBitIdenticalUnderAuditing) {
  const isa::Image image = wl::build_sha(1).link();
  sim::MachineConfig plain;
  sim::MachineConfig audited;
  audited.audit_interval = 2'000;

  sim::Machine a{plain};
  const int pid_a = a.load(image);
  const auto run_a = a.run(400'000'000);

  sim::Machine b{audited};
  const int pid_b = b.load(image);
  const auto run_b = b.run(400'000'000);

  ASSERT_TRUE(run_a.completed);
  ASSERT_TRUE(run_b.completed);
  EXPECT_EQ(run_a.instructions, run_b.instructions);
  EXPECT_EQ(run_a.cycles, run_b.cycles);
  EXPECT_EQ(a.exit_code(pid_a), b.exit_code(pid_b));
  EXPECT_EQ(a.kernel().reports(), b.kernel().reports());
  EXPECT_EQ(a.kernel().console(), b.kernel().console());
  EXPECT_GT(b.kernel().stats().audit_runs, 0u);
  EXPECT_EQ(b.kernel().stats().audit_findings, 0u);
}

TEST(FaultInjection, SpuriousTrapsAlwaysRecoverWithTrustedShadow) {
  sim::MachineConfig config;
  config.fault_plan.enabled = true;
  config.fault_plan.seed = 5;
  config.fault_plan.rate = 5e-4;
  config.fault_plan.kinds = fault::kind_bit(fault::FaultKind::kSpuriousTrap);
  sim::Machine machine{config};
  const int pid = machine.load(wl::build_sha(1).link());
  const auto outcome = machine.run(400'000'000);
  ASSERT_TRUE(outcome.completed);
  EXPECT_EQ(machine.exit_code(pid), 0);
  const auto& stats = machine.kernel().stats();
  EXPECT_GE(stats.machine_checks, 1u);
  EXPECT_EQ(stats.machine_check_kills, 0u);
  fault::FaultInjector* injector = machine.injector();
  ASSERT_NE(injector, nullptr);
  EXPECT_GE(injector->total_injected(), 1u);
  EXPECT_EQ(injector->outstanding(), 0u);
  EXPECT_EQ(injector->resolved(fault::FaultKind::kSpuriousTrap,
                               fault::FaultResolution::kRecovered),
            injector->injected(fault::FaultKind::kSpuriousTrap));
}

TEST(FaultInjection, MachineCheckKillsWhenNoTrustedShadowExists) {
  sim::MachineConfig config;
  config.kernel.save_pkr_on_switch = false;
  sim::Machine machine{config};
  const int pid = machine.load(wl::build_sha(1).link());
  machine.run(30'000);
  ASSERT_FALSE(machine.kernel().all_exited());
  // Parity-bad PKR row with no per-thread shadow to scrub from: the
  // machine-check handler must give up and kill only the affected process.
  machine.hart().pkr().corrupt_bit(1, 7);
  machine.hart().inject_trap(core::TrapCause::kMachineCheck, 0);
  machine.kernel().handle_trap();
  EXPECT_EQ(machine.exit_code(pid), os::kExitMachineCheck);
  EXPECT_EQ(machine.kernel().stats().machine_check_kills, 1u);
  EXPECT_TRUE(machine.run(1'000'000).completed);
}

// Guest with 17 permission-sealed keys — one more than the CAM holds, so
// WRPKRs inside the trusted function keep missing and refilling (the
// perm-seal syscall pre-fills one CAM line per key, hence a single sealed
// key would always hit). With the drop hook armed, every refill is lost and
// the faulting WRPKR re-executes forever — the watchdog must convert that
// storm into a kill.
constexpr i64 kStormKeys = 17;

Program make_sealed_wrpkr_program() {
  Program prog;
  rt::add_crt0(prog);
  Function& f = prog.add_function("main");
  f.addi(sp, sp, -16);
  f.sd(ra, 0, sp);
  for (i64 i = 0; i < kStormKeys; ++i) {
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);  // -> keys 1..17
  }
  f.call("trusted");  // unsealed first pass: latches the range
  for (i64 k = 1; k <= kStormKeys; ++k) {
    f.li(a0, k);
    rt::syscall(f, os::sys::kPkeyPermSeal);
  }
  f.call("trusted");  // sealed: 17 keys thrash the 16-entry CAM
  f.ld(ra, 0, sp);
  f.addi(sp, sp, 16);
  f.li(a0, 0);
  f.ret();

  Function& t = prog.add_function("trusted");
  t.seal_start(0);
  const Label loop = t.new_label(), done = t.new_label();
  t.li(t0, 1);
  t.bind(loop);
  t.li(t1, kStormKeys);
  t.blt(t1, t0, done);
  t.rdpkr(t2, t0);
  t.wrpkr(t0, t2);  // identity rewrite, inside the permissible range
  t.addi(t0, t0, 1);
  t.j(loop);
  t.bind(done);
  t.seal_end(0);
  t.ret();
  return prog;
}

TEST(Watchdog, TrapStormFromDroppedRefillsKillsWithDistinctCode) {
  sim::MachineConfig config;
  config.fault_plan.enabled = true;
  config.fault_plan.rate = 0.0;  // no step faults: isolate the CAM path
  config.fault_plan.cam_rate = 1.0;
  config.fault_plan.kinds = fault::kind_bit(fault::FaultKind::kCamDropRefill);
  sim::Machine machine{config};
  const int pid = machine.load(make_sealed_wrpkr_program().link());
  const auto outcome = machine.run(50'000'000);
  ASSERT_TRUE(outcome.completed);  // killed == exited
  EXPECT_EQ(machine.exit_code(pid), os::kExitTrapStorm);
  const auto& stats = machine.kernel().stats();
  EXPECT_EQ(stats.watchdog_kills, 1u);
  EXPECT_GE(stats.cam_refills_dropped,
            machine.config().watchdog_trap_storm - 1);
  fault::FaultInjector* injector = machine.injector();
  ASSERT_NE(injector, nullptr);
  EXPECT_EQ(injector->outstanding(), 0u);
  EXPECT_GE(injector->resolved(fault::FaultKind::kCamDropRefill,
                               fault::FaultResolution::kProcessKilled),
            1u);
}

TEST(Watchdog, LivelockBackstopCatchesStormsWithoutPcPinning) {
  sim::MachineConfig config;
  config.fault_plan.enabled = true;
  config.fault_plan.rate = 0.0;
  config.fault_plan.cam_rate = 1.0;
  config.fault_plan.kinds = fault::kind_bit(fault::FaultKind::kCamDropRefill);
  config.watchdog_trap_storm = 0;  // disable the same-PC detector
  config.watchdog_livelock = 300;
  sim::Machine machine{config};
  const int pid = machine.load(make_sealed_wrpkr_program().link());
  ASSERT_TRUE(machine.run(50'000'000).completed);
  EXPECT_EQ(machine.exit_code(pid), os::kExitLivelock);
  EXPECT_EQ(machine.kernel().stats().watchdog_kills, 1u);
}

TEST(Watchdog, DuplicatedRefillsAreDetectedAndDeduped) {
  sim::MachineConfig config;
  config.fault_plan.enabled = true;
  config.fault_plan.rate = 0.0;
  config.fault_plan.cam_rate = 1.0;
  config.fault_plan.kinds = fault::kind_bit(fault::FaultKind::kCamDupRefill);
  config.audit_interval = 500;  // tight cadence so dedup happens in-run
  sim::Machine machine{config};
  const int pid = machine.load(make_sealed_wrpkr_program().link());
  ASSERT_TRUE(machine.run(50'000'000).completed);
  EXPECT_EQ(machine.exit_code(pid), 0);  // duplicates are benign when deduped
  const auto& stats = machine.kernel().stats();
  EXPECT_GE(stats.cam_refills_duplicated, 1u);
  EXPECT_GE(stats.cam_dedups, 1u);
  EXPECT_EQ(machine.injector()->outstanding(), 0u);
}

TEST(LoadRefusal, OverlappingSegmentsAreRefusedNotFatal) {
  isa::Image hostile;
  hostile.entry = 0x10000;
  isa::Segment a;
  a.addr = 0x10000;
  a.bytes.assign(0x2000, 0x13);  // nop sled
  a.exec = true;
  isa::Segment b;
  b.addr = 0x11000;  // overlaps the tail of `a`
  b.bytes.assign(0x2000, 0);
  b.write = true;
  hostile.segments = {a, b};

  sim::Machine machine{sim::MachineConfig{}};
  EXPECT_EQ(machine.load(hostile), sim::Machine::kLoadRefused);
  EXPECT_NE(machine.kernel().admission_error().find("segment map failed"),
            std::string::npos)
      << machine.kernel().admission_error();

  // The refusal must leave the machine fully usable.
  const int pid = machine.load(wl::build_sha(1).link());
  ASSERT_GE(pid, 0);
  ASSERT_TRUE(machine.run(400'000'000).completed);
  EXPECT_EQ(machine.exit_code(pid), 0);
}

TEST(LoadRefusal, FrameExhaustionIsRefusedNotFatal) {
  sim::MachineConfig config;
  // 2 MiB kernel reserve + 16 usable frames: nowhere near image + stack.
  config.mem_bytes = 2 * 1024 * 1024 + 64 * 1024;
  sim::Machine machine{config};
  EXPECT_EQ(machine.load(wl::build_sha(1).link()),
            sim::Machine::kLoadRefused);
  EXPECT_NE(machine.kernel().admission_error().find("no memory"),
            std::string::npos)
      << machine.kernel().admission_error();
}

TEST(ExitCode, UnknownPidYieldsSentinelNotException) {
  sim::Machine machine{sim::MachineConfig{}};
  EXPECT_FALSE(machine.has_process(4242));
  EXPECT_EQ(machine.exit_code(4242), sim::Machine::kNoExitCode);
  const int pid = machine.load(wl::build_sha(1).link());
  ASSERT_GE(pid, 0);
  EXPECT_TRUE(machine.has_process(pid));
  EXPECT_NE(machine.exit_code(pid), sim::Machine::kNoExitCode);
  // A refused load returns kLoadRefused, and probing it stays exception-free.
  EXPECT_EQ(machine.exit_code(sim::Machine::kLoadRefused),
            sim::Machine::kNoExitCode);
}

TEST(HostErrorContainment, TornRunQueueNeverEscapesRun) {
  Program prog = testutil::make_main_program([](Program&, Function& f) {
    for (int i = 0; i < 4; ++i) rt::syscall(f, os::sys::kSchedYield);
    f.li(a0, 0);
  });
  sim::Machine machine{sim::MachineConfig{}};
  const int pid = machine.load(prog.link());
  ASSERT_GE(pid, 0);
  // Tear the scheduler state behind the kernel's back: the first yield will
  // dereference a thread that does not exist. The host exception must be
  // contained inside run(), never thrown to the caller.
  machine.kernel().run_queue_for_test().push_back(999);
  EXPECT_NO_THROW(machine.run(1'000'000));
  EXPECT_GE(machine.kernel().stats().host_errors_contained, 1u);
  ASSERT_FALSE(machine.kernel().host_errors().empty());
}

// The end-to-end differential oracle over a real workload (the full
// 17-workload sweep runs as the `sealpk fleet --chaos` ctest entries; this
// keeps one in-process instance under ASan/UBSan coverage).
TEST(ChaosOracle, ShaUnderFullFaultPlanRecoversOrKills) {
  const isa::Image image = wl::build_sha(1).link();

  sim::Machine clean{sim::MachineConfig{}};
  const int clean_pid = clean.load(image);
  ASSERT_TRUE(clean.run(400'000'000).completed);

  sim::MachineConfig config;
  config.fault_plan.enabled = true;
  config.fault_plan.seed = 7;
  config.fault_plan.rate = 1e-4;
  sim::Machine chaos{config};
  const int chaos_pid = chaos.load(image);
  ASSERT_TRUE(chaos.run(400'000'000).completed);

  fault::FaultInjector* injector = chaos.injector();
  ASSERT_NE(injector, nullptr);
  EXPECT_GE(injector->total_injected(), 1u);
  EXPECT_EQ(injector->outstanding(), 0u);

  const auto& stats = chaos.kernel().stats();
  const bool identical =
      chaos.exit_code(chaos_pid) == clean.exit_code(clean_pid) &&
      chaos.kernel().reports() == clean.kernel().reports() &&
      chaos.kernel().console() == clean.kernel().console();
  const u64 kills = stats.machine_check_kills + stats.watchdog_kills;
  if (!identical) {
    EXPECT_TRUE(kills > 0 || stats.recoveries() > 0)
        << "output diverged without a recorded recovery or kill";
    if (kills > 0) {
      const i64 code = chaos.exit_code(chaos_pid);
      EXPECT_TRUE(code == os::kExitMachineCheck ||
                  code == os::kExitTrapStorm || code == os::kExitLivelock)
          << "killed with non-distinct exit code " << code;
    }
  }
}

}  // namespace
}  // namespace sealpk
