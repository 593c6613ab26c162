// Machine-level tests: run-loop behaviour, instruction budgets, chunked
// stepping versus per-step semantics,
// multi-process isolation (separate address spaces, per-process SealReg /
// PK-CAM state, pkey namespaces), and stats plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "guest_test_util.h"
#include "passes/shadow_stack.h"
#include "snapshot/snapshot.h"
#include "workloads/workload.h"

namespace sealpk {
namespace {

using isa::Function;
using isa::Label;
using isa::Program;
using namespace isa;
using testutil::make_main_program;

TEST(Machine, RunStopsAtInstructionBudget) {
  auto prog = make_main_program([](Program&, Function& f) {
    const Label spin = f.new_label();
    f.bind(spin);
    f.j(spin);  // never exits
  });
  sim::Machine machine{sim::MachineConfig{}};
  machine.load(prog.link());
  const auto outcome = machine.run(10'000);
  EXPECT_FALSE(outcome.completed);
  EXPECT_GE(outcome.instructions, 10'000u);
  EXPECT_LE(outcome.instructions, 10'010u);
}

TEST(Machine, RunIsResumable) {
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(s0, 0);
    const Label loop = f.new_label(), done = f.new_label();
    f.bind(loop);
    f.li(t0, 50'000);
    f.bgeu(s0, t0, done);
    f.addi(s0, s0, 1);
    f.j(loop);
    f.bind(done);
    f.li(a0, 9);
  });
  sim::Machine machine{sim::MachineConfig{}};
  const int pid = machine.load(prog.link());
  while (!machine.run(10'000).completed) {
  }
  EXPECT_EQ(machine.exit_code(pid), 9);
}

TEST(Machine, CyclesAdvanceMonotonically) {
  auto prog = make_main_program([](Program&, Function& f) { f.li(a0, 0); });
  sim::Machine machine{sim::MachineConfig{}};
  machine.load(prog.link());
  const auto outcome = machine.run();
  EXPECT_TRUE(outcome.completed);
  EXPECT_GT(outcome.cycles, outcome.instructions);  // traps/syscalls cost
}

TEST(Machine, DeterministicAcrossRuns) {
  auto build = [] {
    return make_main_program([](Program& p, Function& f) {
      rt::add_rand_lib(p);
      p.add_zero("state", 8);
      f.la(t0, "state");
      f.li(t1, 123);
      f.sd(t1, 0, t0);
      f.la(a0, "state");
      f.call("__rand");
      rt::syscall(f, os::sys::kReport);
      f.li(a0, 0);
    });
  };
  const auto a = testutil::run_guest(build());
  const auto b = testutil::run_guest(build());
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.reports, b.reports);
}

// ---------------------------------------------------------------------------
// Multi-process isolation.
// ---------------------------------------------------------------------------

// A process that allocates a key, maps a page into it, seals, reports its
// own observations, then spins yielding until `rounds` yields pass.
Program make_tenant(u64 tag, bool seal) {
  Program prog;
  rt::add_crt0(prog);
  Function& f = prog.add_function("main");
  f.addi(sp, sp, -16);
  f.sd(ra, 0, sp);
  f.li(a0, 0);
  f.li(a1, 4096);
  f.li(a2, 3);
  rt::syscall(f, os::sys::kMmap);
  f.mv(s0, a0);
  f.li(a0, 0);
  f.li(a1, 0);
  rt::syscall(f, os::sys::kPkeyAlloc);
  f.mv(s1, a0);
  rt::syscall(f, os::sys::kReport);  // [0] my first key
  f.mv(a0, s0);
  f.li(a1, 4096);
  f.li(a2, 3);
  f.mv(a3, s1);
  rt::syscall(f, os::sys::kPkeyMprotect);
  if (seal) {
    f.mv(a0, s1);
    f.li(a1, 1);
    f.li(a2, 1);
    rt::syscall(f, os::sys::kPkeySeal);
  }
  // Write my tag, yield a few times (interleave with the other tenant),
  // then verify my page is untouched and my key still works.
  f.li(t0, static_cast<i64>(tag));
  f.sd(t0, 0, s0);
  for (int i = 0; i < 4; ++i) rt::syscall(f, os::sys::kSchedYield);
  f.ld(a0, 0, s0);
  rt::syscall(f, os::sys::kReport);  // [1] my tag back
  // Second allocation: each process has its own key namespace, so both
  // tenants should see the same sequence (1, then 2).
  f.li(a0, 0);
  f.li(a1, 0);
  rt::syscall(f, os::sys::kPkeyAlloc);
  rt::syscall(f, os::sys::kReport);  // [2] my second key
  f.ld(ra, 0, sp);
  f.addi(sp, sp, 16);
  f.li(a0, 0);
  f.ret();
  return prog;
}

TEST(MultiProcess, AddressSpacesAndKeyNamespacesAreIsolated) {
  sim::MachineConfig cfg;
  cfg.preempt_quantum = 1'000;
  sim::Machine machine(cfg);
  const int pid_a = machine.load(make_tenant(0xAAAA, true).link());
  const int pid_b = machine.load(make_tenant(0xBBBB, false).link());
  const auto outcome = machine.run(50'000'000);
  ASSERT_TRUE(outcome.completed);
  EXPECT_EQ(machine.exit_code(pid_a), 0);
  EXPECT_EQ(machine.exit_code(pid_b), 0);
  // Reports interleave, but each process must have reported
  // key=1, its own tag, key=2 — in that per-process order.
  const auto& reports = machine.kernel().reports();
  ASSERT_EQ(reports.size(), 6u);
  std::vector<u64> a_seq, b_seq;
  for (const u64 r : reports) {
    if (r == 0xAAAA) {
      a_seq.push_back(r);
    } else if (r == 0xBBBB) {
      b_seq.push_back(r);
    } else if (a_seq.size() <= b_seq.size() && a_seq.size() < 3) {
      // key reports: attribute by arrival pattern — both sequences are
      // (1, tag, 2), so just check multiset below instead.
    }
  }
  EXPECT_EQ(a_seq, (std::vector<u64>{0xAAAA}));
  EXPECT_EQ(b_seq, (std::vector<u64>{0xBBBB}));
  // Both processes got key 1 first and key 2 second: count them.
  EXPECT_EQ(std::count(reports.begin(), reports.end(), 1u), 2);
  EXPECT_EQ(std::count(reports.begin(), reports.end(), 2u), 2);
}

TEST(MultiProcess, SealStateIsPerProcess) {
  // Tenant A seals its domain; tenant B (unsealed) must still be able to
  // re-key its own pages even though A's seal bitmap lives in the same
  // hardware SealUnit (swapped on process switch).
  Program prog_a = make_tenant(0x1, true);
  // Tenant B re-keys its page after the yields — legal only if A's seal
  // did not leak into B's process state.
  Program prog_b;
  rt::add_crt0(prog_b);
  Function& f = prog_b.add_function("main");
  f.addi(sp, sp, -16);
  f.sd(ra, 0, sp);
  f.li(a0, 0);
  f.li(a1, 4096);
  f.li(a2, 3);
  rt::syscall(f, os::sys::kMmap);
  f.mv(s0, a0);
  f.li(a0, 0);
  f.li(a1, 0);
  rt::syscall(f, os::sys::kPkeyAlloc);
  f.mv(s1, a0);  // key 1 — the same numeric key A sealed in ITS process
  f.mv(a0, s0);
  f.li(a1, 4096);
  f.li(a2, 3);
  f.mv(a3, s1);
  rt::syscall(f, os::sys::kPkeyMprotect);
  for (int i = 0; i < 4; ++i) rt::syscall(f, os::sys::kSchedYield);
  // Re-key to a fresh domain: would be EPERM if A's domain seal leaked.
  f.li(a0, 0);
  f.li(a1, 0);
  rt::syscall(f, os::sys::kPkeyAlloc);
  f.mv(a3, a0);
  f.mv(a0, s0);
  f.li(a1, 4096);
  f.li(a2, 3);
  rt::syscall(f, os::sys::kPkeyMprotect);
  f.neg(a0, a0);
  rt::syscall(f, os::sys::kReport);  // expect 0 (allowed)
  f.li(a0, 0);
  f.ld(ra, 0, sp);
  f.addi(sp, sp, 16);
  f.ret();

  sim::MachineConfig cfg;
  cfg.preempt_quantum = 1'000;
  sim::Machine machine(cfg);
  const int pid_a = machine.load(prog_a.link());
  const int pid_b = machine.load(prog_b.link());
  ASSERT_TRUE(machine.run(50'000'000).completed);
  EXPECT_EQ(machine.exit_code(pid_a), 0);
  EXPECT_EQ(machine.exit_code(pid_b), 0);
  // B's re-key succeeded (reported 0).
  const auto& reports = machine.kernel().reports();
  EXPECT_EQ(std::count(reports.begin(), reports.end(), 0u), 1);
}

TEST(MultiProcess, FaultInOneProcessDoesNotKillTheOther) {
  auto crasher = make_main_program([](Program&, Function& f) {
    f.li(t0, 0x6000'0000);
    f.ld(t1, 0, t0);  // unmapped: killed
    f.li(a0, 0);
  });
  auto survivor = make_main_program([](Program&, Function& f) {
    for (int i = 0; i < 3; ++i) rt::syscall(f, os::sys::kSchedYield);
    f.li(a0, 5);
  });
  sim::MachineConfig cfg;
  cfg.preempt_quantum = 500;
  sim::Machine machine(cfg);
  const int pid_crash = machine.load(crasher.link());
  const int pid_ok = machine.load(survivor.link());
  ASSERT_TRUE(machine.run(10'000'000).completed);
  EXPECT_LT(machine.exit_code(pid_crash), 0);
  EXPECT_EQ(machine.exit_code(pid_ok), 5);
  ASSERT_EQ(machine.kernel().faults().size(), 1u);
  EXPECT_EQ(machine.kernel().faults()[0].pid, pid_crash);
}

TEST(Machine, ExitCodeSentinelForUnknownPid) {
  sim::Machine machine{sim::MachineConfig{}};
  EXPECT_FALSE(machine.has_process(1));
  EXPECT_FALSE(machine.has_process(-3));
  EXPECT_EQ(machine.exit_code(1), sim::Machine::kNoExitCode);
  EXPECT_EQ(machine.exit_code(9999), sim::Machine::kNoExitCode);

  auto prog = make_main_program([](Program&, Function& f) { f.li(a0, 4); });
  const int pid = machine.load(prog.link());
  EXPECT_TRUE(machine.has_process(pid));
  EXPECT_FALSE(machine.has_process(pid + 1));
  EXPECT_EQ(machine.exit_code(pid + 1), sim::Machine::kNoExitCode);
  ASSERT_TRUE(machine.run().completed);
  EXPECT_EQ(machine.exit_code(pid), 4);
  // The sentinel never collides with a real exit code, including the
  // robustness kill codes.
  EXPECT_LT(sim::Machine::kNoExitCode, os::kExitMachineCheck);
}

TEST(Machine, SameImageLoadedTwiceGetsIndependentProcesses) {
  // Each instance reports its first allocated pkey and exits with it:
  // per-process key namespaces mean both must independently get key 1.
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s0, a0);
    rt::syscall(f, os::sys::kReport);
    for (int i = 0; i < 2; ++i) rt::syscall(f, os::sys::kSchedYield);
    f.mv(a0, s0);
  });
  const isa::Image image = prog.link();
  sim::MachineConfig cfg;
  cfg.preempt_quantum = 500;
  sim::Machine machine(cfg);
  const int pid_a = machine.load(image);
  const int pid_b = machine.load(image);
  ASSERT_NE(pid_a, sim::Machine::kLoadRefused);
  ASSERT_NE(pid_b, sim::Machine::kLoadRefused);
  EXPECT_NE(pid_a, pid_b);
  ASSERT_TRUE(machine.run(50'000'000).completed);
  // Both processes allocated "their" key 1 and exited with it.
  EXPECT_EQ(machine.exit_code(pid_a), 1);
  EXPECT_EQ(machine.exit_code(pid_b), 1);
  const auto& reports = machine.kernel().reports();
  EXPECT_EQ(std::count(reports.begin(), reports.end(), 1u), 2);
}

TEST(MachineStats, KernelCountsSyscalls) {
  auto prog = make_main_program([](Program&, Function& f) {
    for (int i = 0; i < 3; ++i) {
      f.li(a0, i);
      rt::syscall(f, os::sys::kReport);
    }
    f.li(a0, 0);
  });
  sim::Machine machine{sim::MachineConfig{}};
  machine.load(prog.link());
  machine.run();
  const auto& stats = machine.kernel().stats();
  EXPECT_EQ(stats.syscall_counts.at(os::sys::kReport), 3u);
  EXPECT_EQ(stats.syscall_counts.at(os::sys::kExit), 1u);
  EXPECT_GE(stats.syscalls, 4u);
}

// ---------------------------------------------------------------------------
// Chunked run loop. Machine::run steps to the nearest run-loop deadline in
// one Hart::run call; an injector's next fire and a recorder's next sample
// are deadlines like the rest. Repeated run(1), one run() call, and any
// split of the budget into run() calls must leave the machine in exactly
// the same state, with the same trace.
// ---------------------------------------------------------------------------

struct LoopResult {
  std::vector<u8> snapshot;
  std::vector<u8> checkpoint;
  std::vector<u8> trace;
  sim::Machine::RunLoopState runloop;
  u64 instret = 0;
  u64 cycles = 0;
  u64 checkpoints = 0;
  u64 rollbacks = 0;
  u64 faults_injected = 0;
  std::vector<i64> exit_codes;
  size_t fault_records = 0;
  u64 cam_refills_dropped = 0;
  bool completed = false;
};

// Runs until the machine completes or `total` instructions retire. budgets
// empty: one run() call; otherwise run() with each budget in turn, cycling.
LoopResult run_loop_variant(const std::vector<isa::Image>& images,
                            const sim::MachineConfig& config, u64 total,
                            const std::vector<u64>& budgets = {}) {
  sim::Machine machine(config);
  std::vector<int> pids;
  for (const auto& image : images) pids.push_back(machine.load(image));
  LoopResult r;
  if (budgets.empty()) {
    r.completed = machine.run(total).completed;
  } else {
    for (size_t i = 0; !r.completed && machine.hart().instret() < total;
         ++i) {
      const u64 left = total - machine.hart().instret();
      r.completed =
          machine.run(std::min(left, budgets[i % budgets.size()])).completed;
    }
  }
  r.snapshot = snapshot::save(machine);
  r.checkpoint = machine.checkpoint_blob();
  if (machine.recorder() != nullptr) {
    r.trace = machine.recorder()->serialize_blob();
  }
  r.runloop = machine.runloop();
  r.instret = machine.hart().instret();
  r.cycles = machine.hart().cycles();
  r.checkpoints = machine.checkpoints_taken();
  r.rollbacks = machine.rollbacks();
  if (machine.injector() != nullptr) {
    r.faults_injected = machine.injector()->total_injected();
  }
  for (int pid : pids) r.exit_codes.push_back(machine.exit_code(pid));
  r.fault_records = machine.kernel().faults().size();
  r.cam_refills_dropped = machine.kernel().stats().cam_refills_dropped;
  return r;
}

void expect_same_loop_result(const LoopResult& a, const LoopResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.instret, b.instret);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.exit_codes, b.exit_codes);
  EXPECT_EQ(a.fault_records, b.fault_records);
  EXPECT_EQ(a.cam_refills_dropped, b.cam_refills_dropped);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.runloop.since_switch, b.runloop.since_switch);
  EXPECT_EQ(a.runloop.trap_streak, b.runloop.trap_streak);
  EXPECT_EQ(a.runloop.last_trap_pc, b.runloop.last_trap_pc);
  EXPECT_EQ(a.runloop.stall_streak, b.runloop.stall_streak);
  EXPECT_EQ(a.runloop.next_audit, b.runloop.next_audit);
  EXPECT_EQ(a.runloop.next_checkpoint, b.runloop.next_checkpoint);
  EXPECT_TRUE(a.checkpoint == b.checkpoint) << "checkpoint blobs differ";
  EXPECT_TRUE(a.trace == b.trace) << "trace blobs differ";
  EXPECT_TRUE(a.snapshot == b.snapshot)
      << "final snapshots differ: "
      << (snapshot::diff(a.snapshot, b.snapshot).empty()
              ? std::string("(no section diff)")
              : snapshot::diff(a.snapshot, b.snapshot).front());
}

// Per-step (repeated run(1)), chunked, and chunked with odd budget splits.
// All three share the run loop, so each caller also pins a figure the
// per-step loop implies (a kill count, a counter left alone) that a wrong
// chunk rule would change in all of them at once.
LoopResult expect_chunking_invisible(const std::vector<isa::Image>& images,
                                     const sim::MachineConfig& config,
                                     u64 total = 50'000'000) {
  const LoopResult stepped = run_loop_variant(images, config, total, {1});
  const LoopResult chunked = run_loop_variant(images, config, total);
  const LoopResult split = run_loop_variant(images, config, total,
                                            {1, 7, 333, 4099, 2, 65'537});
  {
    SCOPED_TRACE("chunked vs per-step");
    expect_same_loop_result(stepped, chunked);
  }
  {
    SCOPED_TRACE("split budgets vs per-step");
    expect_same_loop_result(stepped, split);
  }
  return chunked;
}

isa::Program workload_program(const char* name) {
  for (const auto& w : wl::all_workloads()) {
    if (std::string(name) == w.name) return w.build(w.test_scale);
  }
  ADD_FAILURE() << "unknown workload " << name;
  return {};
}

isa::Image workload_image(const char* name) {
  return workload_program(name).link();
}

// The workload under the permission-sealed WRPKR shadow stack, so it runs
// WRPKR on a perm-sealed key.
isa::Image sealed_workload_image(const char* name) {
  isa::Program prog = workload_program(name);
  passes::ShadowStackOptions ss;
  ss.kind = passes::ShadowStackKind::kSealPkWr;
  ss.perm_seal = true;
  passes::apply_shadow_stack(prog, ss);
  return prog.link();
}

TEST(ChunkedRunLoop, PreemptedTenantsWithCheckpointsMatchPerStep) {
  const isa::Image image = workload_image("qsort");
  sim::MachineConfig config;
  config.preempt_quantum = 1'000;
  config.checkpoint_interval = 4'999;
  config.audit_interval = 3'001;  // audits without an injector bound chunks
  const LoopResult r = expect_chunking_invisible({image, image}, config);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.checkpoints, 1u);
  EXPECT_EQ(r.exit_codes, (std::vector<i64>{0, 0}));
}

TEST(ChunkedRunLoop, NoQuantumLeavesSinceSwitchAlone) {
  const isa::Image image = workload_image("sha");
  sim::MachineConfig config;
  config.preempt_quantum = 0;
  config.checkpoint_interval = 7'777;
  const LoopResult r = expect_chunking_invisible({image}, config);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.exit_codes, (std::vector<i64>{0}));
  // Stopped mid-run, not just after the exit trap (which zeroes it anyway).
  const LoopResult mid = expect_chunking_invisible({image}, config, 20'011);
  EXPECT_FALSE(mid.completed);
  EXPECT_EQ(mid.runloop.since_switch, 0u);
}


// Two preempted sealed tenants under the sampling profiler. The next sample
// is a run-loop deadline, so each interval multiple is sampled exactly
// once, at exactly that instret.
TEST(ChunkedRunLoop, SampledTraceMatchesPerStep) {
  constexpr u64 kInterval = 97;
  const isa::Image image = sealed_workload_image("qsort");
  sim::MachineConfig config;
  config.preempt_quantum = 1'000;
  config.trace.enabled = true;
  config.trace.sample_interval = kInterval;
  const LoopResult r = expect_chunking_invisible({image, image}, config);
  EXPECT_EQ(r.exit_codes, (std::vector<i64>{0, 0}));
  u64 samples = 0;
  for (const obs::Event& e : obs::parse(r.trace).events) {
    if (e.kind != obs::EventKind::kSample) continue;
    ++samples;
    EXPECT_EQ(e.instret, samples * kInterval);
  }
  EXPECT_EQ(samples, r.instret / kInterval);
}

// 17 permission-sealed keys thrash the 16-line PK-CAM, and the refill hook
// drops every refill: after its set-up retires, the guest traps forever on
// one WRPKR.
Program make_cam_storm_program() {
  Program prog;
  rt::add_crt0(prog);
  Function& f = prog.add_function("main");
  f.addi(sp, sp, -16);
  f.sd(ra, 0, sp);
  for (int i = 0; i < 17; ++i) {
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
  }
  f.call("trusted");  // unsealed first pass latches the range
  for (int k = 1; k <= 17; ++k) {
    f.li(a0, k);
    rt::syscall(f, os::sys::kPkeyPermSeal);
  }
  f.call("trusted");
  f.ld(ra, 0, sp);
  f.addi(sp, sp, 16);
  f.li(a0, 0);
  f.ret();

  Function& t = prog.add_function("trusted");
  t.seal_start(0);
  const Label loop = t.new_label(), done = t.new_label();
  t.li(t0, 1);
  t.bind(loop);
  t.li(t1, 17);
  t.blt(t1, t0, done);
  t.rdpkr(t2, t0);
  t.wrpkr(t0, t2);
  t.addi(t0, t0, 1);
  t.j(loop);
  t.bind(done);
  t.seal_end(0);
  t.ret();
  return prog;
}

sim::MachineConfig cam_storm_config() {
  sim::MachineConfig config;
  config.kernel.cam_refill_drop = [] { return true; };
  return config;
}

TEST(ChunkedRunLoop, TrapStormAtOnePcMatchesPerStep) {
  sim::MachineConfig config = cam_storm_config();
  config.watchdog_trap_storm = 64;
  config.preempt_quantum = 500;
  const LoopResult r =
      expect_chunking_invisible({make_cam_storm_program().link()}, config);
  EXPECT_EQ(r.exit_codes, (std::vector<i64>{os::kExitTrapStorm}));
  EXPECT_EQ(r.cam_refills_dropped, 64u);
}

TEST(ChunkedRunLoop, LivelockAfterRetiredPrefixMatchesPerStep) {
  sim::MachineConfig config = cam_storm_config();
  config.watchdog_trap_storm = 0;
  config.watchdog_livelock = 300;
  const LoopResult r =
      expect_chunking_invisible({make_cam_storm_program().link()}, config);
  EXPECT_EQ(r.exit_codes, (std::vector<i64>{os::kExitLivelock}));
  // The stall count starts at the storm, not at an earlier syscall.
  EXPECT_EQ(r.cam_refills_dropped, 300u);
}

// Every state-corruption kind plus CAM drops and duplicates, against a
// sealed workload and the CAM-thrashing guest, with no trusted PKR shadow
// (so a PKR flip escalates to a machine check) and checkpoints to roll
// back to, traced with samples. The injector's next fire is a run-loop
// deadline: every fault must strike at the same instret, and every
// rollback rewind to the same checkpoint.
TEST(ChunkedRunLoop, ChaosPlanWithRollbackMatchesPerStep) {
  sim::MachineConfig config;
  config.kernel.save_pkr_on_switch = false;
  config.fault_plan.enabled = true;
  config.fault_plan.seed = 11;
  config.fault_plan.rate = 1e-4;
  config.fault_plan.cam_rate = 0.3;
  config.fault_plan.max_faults = 24;
  config.checkpoint_interval = 5'000;
  config.max_rollbacks = 8;
  config.preempt_quantum = 3'000;
  config.trace.enabled = true;
  config.trace.sample_interval = 97;
  const LoopResult r =
      expect_chunking_invisible({sealed_workload_image("qsort"),
                                 make_cam_storm_program().link()},
                                config);
  EXPECT_EQ(r.exit_codes, (std::vector<i64>{0, 0}));
  EXPECT_GT(r.faults_injected, 0u);
  EXPECT_GT(r.cam_refills_dropped, 0u);
  EXPECT_GE(r.rollbacks, 1u);
}

// A fetch fault whose signal handler is a lone `ecall` (a7 = sigreturn,
// a0 = the cause, so the return skips): every later fetch faults again, at
// a new PC each time, and nothing retires. Only the livelock watchdog
// stops it, and it counts from the first trap after the retired prefix.
TEST(ChunkedRunLoop, MarchingFetchFaultsCountFromRetiredPrefix) {
  auto prog = make_main_program([](Program& p, Function& f) {
    f.la(a0, "sigreturn_now");
    rt::syscall(f, os::sys::kSigaction);
    f.li(a7, os::sys::kSigreturn);
    f.li(t1, 37);
    const Label spin = f.new_label();
    f.bind(spin);
    f.addi(t1, t1, -1);
    f.bnez(t1, spin);
    f.li(t0, 0x7000'0000);
    f.jr(t0);

    Function& h = p.add_function("sigreturn_now");
    h.instrumentable = false;
    h.ecall();
  });
  sim::MachineConfig config;
  config.watchdog_livelock = 51;
  config.preempt_quantum = 10'000;
  const LoopResult r = expect_chunking_invisible({prog.link()}, config);
  EXPECT_EQ(r.exit_codes, (std::vector<i64>{os::kExitLivelock}));
  // Traps alternate fetch fault, handler ecall; the 51st is a fetch fault.
  EXPECT_EQ(r.fault_records, 26u);
}

// The opcodes no workload happens to execute (lhu, sh, slti, sltiu, ori,
// sraiw, mulw) run through a Machine, one case each, against host-computed
// results. The halfword cases use the last halfword of a stack page.
TEST(GuestOps, RareOpcodesMatchHostResults) {
  constexpr u64 kA = 0xDEAD'BEEF'8000'1234;
  constexpr u64 kB = 0x0000'0002'0003'FFFF;
  constexpr u64 kDword = 0x1122'3344'5566'7788;
  const auto sext32 = [](u32 v) {
    return static_cast<u64>(static_cast<i64>(static_cast<i32>(v)));
  };
  struct Case {
    const char* what;
    void (*emit)(Function& f);  // a0 <- op(a1 = kA, a2 = kB, t0 = page end)
    u64 want;
  };
  const std::vector<Case> cases = {
      {"slti", [](Function& f) { f.slti(a0, a1, -3); },
       static_cast<i64>(kA) < -3},
      {"slti false", [](Function& f) { f.slti(a0, a2, 5); },
       static_cast<i64>(kB) < 5},
      {"sltiu sign-extends its immediate",
       [](Function& f) { f.sltiu(a0, a2, -1); }, kB < ~u64{0}},
      {"sltiu false", [](Function& f) { f.sltiu(a0, a1, 7); }, kA < 7},
      {"ori", [](Function& f) { f.ori(a0, a2, -0x800); },
       kB | static_cast<u64>(i64{-0x800})},
      {"sraiw", [](Function& f) { f.sraiw(a0, a1, 4); },
       sext32(static_cast<u32>(static_cast<i32>(kA) >> 4))},
      {"mulw", [](Function& f) { f.r(Op::kMulw, a0, a1, a2); },
       sext32(static_cast<u32>(kA) * static_cast<u32>(kB))},
      {"sh stores two bytes at the page end",
       [](Function& f) {
         f.li(t2, kDword).sd(t2, -8, t0);
         f.li(t2, 0x7777'8001).sh(t2, -2, t0);
         f.ld(a0, -8, t0);
       },
       (kDword & 0x0000'FFFF'FFFF'FFFF) | (u64{0x8001} << 48)},
      {"lhu zero-extends", [](Function& f) { f.lhu(a0, -2, t0); }, 0x8001},
  };
  const auto prog = make_main_program([&](Program&, Function& f) {
    f.li(t1, -static_cast<i64>(mem::kPageSize)).and_(t0, sp, t1);
    for (const Case& c : cases) {
      f.li(a1, static_cast<i64>(kA)).li(a2, static_cast<i64>(kB));
      c.emit(f);
      rt::syscall(f, os::sys::kReport);
    }
    f.li(a0, 0);
  });
  const auto run = testutil::run_guest(prog);
  ASSERT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.reports.size(), cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(run.reports[i], cases[i].want) << cases[i].what;
  }
}

TEST(GuestOps, EbreakRaisesItsTrap) {
  const auto run =
      testutil::run_guest(make_main_program([](Program&, Function& f) {
        f.li(a0, 1);
        rt::syscall(f, os::sys::kReport);
        f.ebreak();
        f.li(a0, 2);  // never reached: a breakpoint without a handler kills
        rt::syscall(f, os::sys::kReport);
      }));
  EXPECT_EQ(run.reports, std::vector<u64>{1});
  ASSERT_EQ(run.faults.size(), 1u);
  EXPECT_EQ(run.faults[0].cause, core::TrapCause::kBreakpoint);
  EXPECT_EQ(run.exit_code, -static_cast<i64>(core::TrapCause::kBreakpoint));
}

}  // namespace
}  // namespace sealpk
