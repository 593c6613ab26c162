// The instruction log: the obs recorder's sampler at interval 1 records
// one sample per retired instruction, naming the next instruction to fetch
// and carrying its 32-bit word, so the sampled stream disassembles. Also
// the hart's pkey-denial publish path and the machine statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>

#include "guest_test_util.h"
#include "obs/export.h"
#include "sim/stats.h"
#include "snapshot/snapshot.h"

namespace sealpk {
namespace {

using isa::Function;
using isa::Program;
using namespace isa;
using testutil::make_main_program;

// Every event recorded, plus a sample per retired instruction.
sim::MachineConfig instruction_log(u64 ring_capacity = 0) {
  sim::MachineConfig config;
  config.trace.enabled = true;
  config.trace.ring_capacity = ring_capacity;
  config.trace.sample_interval = 1;
  return config;
}

std::vector<obs::Event> events_of_kind(const obs::Recorder& recorder,
                                       obs::EventKind kind) {
  std::vector<obs::Event> out;
  for (const auto& e : recorder.events()) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

// The linked word at `pc`, straight from the image.
u32 image_word(const isa::Image& image, u64 pc) {
  for (const auto& seg : image.segments) {
    if (pc >= seg.addr && pc + 4 <= seg.addr + seg.bytes.size()) {
      u32 word = 0;
      std::memcpy(&word, seg.bytes.data() + (pc - seg.addr), 4);
      return word;
    }
  }
  ADD_FAILURE() << "pc 0x" << std::hex << pc << " is in no segment";
  return 0;
}

// The last sample published before the first event of `kind`.
const obs::Event* last_sample_before(const obs::Recorder& recorder,
                                     obs::EventKind kind) {
  const obs::Event* sample = nullptr;
  for (const auto& e : recorder.events()) {
    if (e.kind == kind) return sample;
    if (e.kind == obs::EventKind::kSample) sample = &e;
  }
  return nullptr;
}

TEST(Trace, SamplesReproduceTheEmittedInstructions) {
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(t0, 5);
    f.addi(t1, t0, 7);
    f.li(a0, 1);
    rt::syscall(f, os::sys::kReport);  // the kernel resumes at the slli
    f.xori(t2, t1, 0x55);
    f.slli(t3, t2, 3);
    f.add(t4, t3, t1);
    f.li(a0, 0);
  });
  // main's instructions as emitted, before the linker sees them.
  std::vector<Op> emitted;
  for (const auto& item : prog.find_function("main")->items()) {
    ASSERT_TRUE(item.kind == Item::Kind::kInst ||
                item.kind == Item::Kind::kRet);
    emitted.push_back(item.kind == Item::Kind::kRet ? Op::kJalr
                                                    : item.inst.op);
  }
  const isa::Image image = prog.link();
  sim::Machine machine(instruction_log());
  const int pid = machine.load(image);
  const sim::RunOutcome outcome = machine.run();
  ASSERT_TRUE(outcome.completed);
  ASSERT_EQ(machine.exit_code(pid), 0);

  // The run is _start's call, main, then _start's exit syscall. The call
  // retires before the first sample, so the samples name main's
  // instructions in order, then the rest of _start through its ecall.
  const auto [main_lo, main_hi] = image.func_ranges.at("main");
  const auto [start_lo, start_hi] = image.func_ranges.at("_start");
  std::vector<u64> expected_pcs;
  for (u64 pc = main_lo; pc < main_hi; pc += 4) expected_pcs.push_back(pc);
  for (u64 pc = start_lo + 4; pc < start_hi; pc += 4) {
    expected_pcs.push_back(pc);
  }
  const auto samples =
      events_of_kind(*machine.recorder(), obs::EventKind::kSample);
  ASSERT_EQ(samples.size(), expected_pcs.size());
  // main's ecall retires nothing, so the instruction the kernel resumes
  // at is sampled at the ecall's instret: one sample more than retired
  // instructions, and one instret named twice.
  EXPECT_EQ(samples.size(), outcome.instructions + 1);
  std::vector<Op> sampled_main;
  u64 repeats = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].instret, i + 1 - repeats);
    EXPECT_EQ(samples[i].arg0, expected_pcs[i]);
    EXPECT_EQ(samples[i].arg1, image_word(image, expected_pcs[i]));
    const Op op = isa::decode(static_cast<u32>(samples[i].arg1)).op;
    if (samples[i].arg0 < main_hi && samples[i].arg0 >= main_lo) {
      sampled_main.push_back(op);
    }
    if (op == Op::kEcall && i + 1 < samples.size()) {
      EXPECT_EQ(samples[i + 1].instret, samples[i].instret);
      ++repeats;
    }
  }
  EXPECT_EQ(repeats, 1u);
  EXPECT_EQ(sampled_main, emitted);

  // Each ecall traps without retiring: main's is the last sample before
  // the first kTrap, and the exit ecall, which ends the run, is the last
  // sample of all.
  const obs::Event* before_report =
      last_sample_before(*machine.recorder(), obs::EventKind::kTrap);
  ASSERT_NE(before_report, nullptr);
  EXPECT_EQ(isa::decode(static_cast<u32>(before_report->arg1)).op,
            Op::kEcall);
  EXPECT_LT(before_report->arg0, main_hi);
  EXPECT_EQ(isa::decode(static_cast<u32>(samples.back().arg1)).op,
            Op::kEcall);
  EXPECT_EQ(samples.back().arg0, start_hi - 4);
}

TEST(Trace, FaultingLoadIsTheSampleBeforeItsTrap) {
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(t0, 0x100);  // below the image: never mapped
    f.ld(t1, 8, t0);
    f.li(a0, 0);
  });
  sim::Machine machine(instruction_log());
  const int pid = machine.load(prog.link());
  ASSERT_TRUE(machine.run().completed);
  EXPECT_LT(machine.exit_code(pid), 0);  // killed by the fault
  ASSERT_EQ(machine.kernel().faults().size(), 1u);
  const os::FaultRecord& fault = machine.kernel().faults()[0];

  // The load's sample is the event right before the run's only trap.
  const auto& events = machine.recorder()->events();
  const auto trap = std::find_if(events.begin(), events.end(), [](auto& e) {
    return e.kind == obs::EventKind::kTrap;
  });
  ASSERT_NE(trap, events.end());
  ASSERT_NE(trap, events.begin());
  const obs::Event& load = *(trap - 1);
  ASSERT_EQ(load.kind, obs::EventKind::kSample);
  EXPECT_EQ(load.arg0, fault.pc);
  const isa::Inst inst = isa::decode(static_cast<u32>(load.arg1));
  EXPECT_EQ(inst.op, Op::kLd);
  EXPECT_EQ(inst.imm, 8);
  EXPECT_EQ(trap->arg0, static_cast<u64>(core::TrapCause::kLoadPageFault));
  EXPECT_EQ(trap->arg1, 0x108u);
  EXPECT_EQ(trap->instret, load.instret);  // the load retired nothing
}

TEST(Trace, RingBufferKeepsTail) {
  auto prog = make_main_program([](Program&, Function& f) {
    for (int i = 0; i < 10; ++i) f.nop();
    f.li(a0, 0);
  });
  sim::Machine machine(instruction_log(/*ring_capacity=*/8));
  machine.load(prog.link());
  machine.run();
  const obs::Recorder& recorder = *machine.recorder();
  EXPECT_GT(recorder.metrics().samples(), 10u);
  EXPECT_EQ(recorder.events().size(), 8u);
  EXPECT_GT(recorder.dropped(), 0u);
  // The tail of the program is an exit ecall.
  const auto samples = events_of_kind(recorder, obs::EventKind::kSample);
  ASSERT_FALSE(samples.empty());
  EXPECT_EQ(isa::decode(static_cast<u32>(samples.back().arg1)).op,
            Op::kEcall);
}

TEST(Trace, TimelineDisassemblesSamples) {
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(a0, 42);  // addi a0, zero, 42
  });
  sim::Machine machine(instruction_log());
  machine.load(prog.link());
  machine.run();
  std::ostringstream os;
  obs::write_timeline(machine.recorder()->trace(), os);
  const std::string log = os.str();
  EXPECT_NE(log.find("sample"), std::string::npos);
  EXPECT_NE(log.find("addi a0, zero, 42"), std::string::npos);
  EXPECT_NE(log.find("ecall"), std::string::npos);
  EXPECT_NE(log.find("pc=0x"), std::string::npos);
}

TEST(Trace, InstructionLogDoesNotPerturbTheRun) {
  auto prog = make_main_program([](Program&, Function& f) {
    for (int i = 0; i < 100; ++i) f.nop();
    f.li(a0, 0);
  });
  const isa::Image image = prog.link();
  sim::Machine plain{sim::MachineConfig{}};
  const int pid_plain = plain.load(image);
  const sim::RunOutcome a = plain.run();
  sim::Machine logged(instruction_log());
  const int pid_logged = logged.load(image);
  const sim::RunOutcome b = logged.run();
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(plain.exit_code(pid_plain), 0);
  EXPECT_EQ(logged.exit_code(pid_logged), 0);
  EXPECT_EQ(snapshot::save(plain), snapshot::save(logged));
  // Every retired instruction was sampled exactly once.
  EXPECT_EQ(logged.recorder()->metrics().samples(), b.instructions);
}

TEST(Trace, DumpFormatsAllEntries) {
  auto prog = make_main_program([](Program&, Function& f) { f.li(a0, 0); });
  sim::Machine machine(instruction_log());
  machine.load(prog.link());
  machine.run();
  const obs::Trace trace = machine.recorder()->trace();
  std::ostringstream os;
  obs::write_timeline(trace, os);
  // One line per recorded event.
  const std::string log = os.str();
  const size_t lines = static_cast<size_t>(
      std::count(log.begin(), log.end(), '\n'));
  EXPECT_EQ(lines, trace.events.size());
}

// A load from an access-disabled key and a store to a write-disabled key:
// each is denied by the pkey (not the PTE), published once with its key,
// address and direction, and latched into spkinfo, which the kernel hands
// to the guest's handler and records in its fault log.
TEST(ObsHart, PkeyDenialsPublishKeyAddressAndDirection) {
  auto prog = make_main_program([](Program& p, Function& f) {
    rt::add_pkey_lib(p);
    f.li(a0, 0);
    f.li(a1, 8192);
    f.li(a2, 3);
    rt::syscall(f, os::sys::kMmap);
    f.mv(s0, a0);  // page 0: no access; page 1: read-only
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kNone));
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kReadOnly));
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s2, a0);
    f.mv(a0, s0);
    f.li(a1, 4096);
    f.li(a2, 3);
    f.mv(a3, s1);
    rt::syscall(f, os::sys::kPkeyMprotect);
    f.li(t2, 4096);
    f.add(s3, s0, t2);  // the second page
    f.mv(a0, s3);
    f.li(a1, 4096);
    f.li(a2, 3);
    f.mv(a3, s2);
    rt::syscall(f, os::sys::kPkeyMprotect);
    f.la(a0, "handler");
    rt::syscall(f, os::sys::kSigaction);
    f.mv(a0, s0);
    rt::syscall(f, os::sys::kReport);  // the mapping's base
    f.ld(t0, 16, s0);                  // AD: denied load, skipped
    f.sd(t0, 24, s3);                  // WD: denied store, skipped
    f.li(a0, 0);

    // handler(cause, addr, pkeyinfo): report the latched key, then skip.
    Function& h = p.add_function("handler");
    h.instrumentable = false;
    h.slli(a0, a2, 1);
    h.srli(a0, a0, 1);  // clear bit 63 -> the pkey
    rt::syscall(h, os::sys::kReport);
    h.li(a0, 1);  // skip
    rt::syscall(h, os::sys::kSigreturn);
  });
  sim::MachineConfig config;
  config.trace.enabled = true;
  sim::Machine machine(config);
  const int pid = machine.load(prog.link());
  ASSERT_TRUE(machine.run().completed);
  ASSERT_EQ(machine.exit_code(pid), 0);

  const auto& reports = machine.kernel().reports();
  ASSERT_EQ(reports.size(), 3u);
  const u64 base = reports[0];
  const auto denials =
      events_of_kind(*machine.recorder(), obs::EventKind::kPkeyDenial);
  ASSERT_EQ(denials.size(), 2u);
  const u32 ad_key = static_cast<u32>(reports[1]);
  const u32 wd_key = static_cast<u32>(reports[2]);
  EXPECT_NE(ad_key, wd_key);
  EXPECT_EQ(denials[0].pkey, ad_key);
  EXPECT_EQ(denials[0].arg0, base + 16);
  EXPECT_EQ(denials[0].arg1, 0u);  // load
  EXPECT_EQ(denials[1].pkey, wd_key);
  EXPECT_EQ(denials[1].arg0, base + 4096 + 24);
  EXPECT_EQ(denials[1].arg1, 1u);  // store

  // spkinfo latched each denying key: the kernel's fault log read it.
  const auto& faults = machine.kernel().faults();
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_TRUE(faults[0].pkey_fault);
  EXPECT_EQ(faults[0].pkey, ad_key);
  EXPECT_EQ(faults[0].addr, base + 16);
  EXPECT_TRUE(faults[1].pkey_fault);
  EXPECT_EQ(faults[1].pkey, wd_key);
  EXPECT_TRUE(faults[0].delivered && faults[1].delivered);

  const sim::MachineStats stats = sim::collect_stats(machine);
  EXPECT_EQ(stats.pkey_denials, 2u);
  EXPECT_EQ(machine.recorder()->summary(machine.hart().cycles()).denials,
            stats.pkey_denials);
}

TEST(Stats, CollectsCoherentCounters) {
  auto prog = make_main_program([](Program& p, Function& f) {
    rt::add_pkey_lib(p);
    f.li(a0, 0);
    f.li(a1, 4096);
    f.li(a2, 3);
    rt::syscall(f, os::sys::kMmap);
    f.mv(s0, a0);
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(a1, zero);
    f.mv(a1, a0);
    f.mv(a0, s0);
    f.mv(a3, a1);
    f.mv(a0, s0);
    f.li(a1, 4096);
    f.li(a2, 3);
    rt::syscall(f, os::sys::kPkeyMprotect);
    f.ld(t0, 0, s0);
    f.sd(t0, 0, s0);
    f.li(a0, 5);
    f.call("__pkey_get");
    f.li(a0, 0);
  });
  sim::Machine machine{sim::MachineConfig{}};
  machine.load(prog.link());
  const auto outcome = machine.run();
  ASSERT_TRUE(outcome.completed);
  const auto stats = sim::collect_stats(machine);
  EXPECT_EQ(stats.instructions, machine.hart().instret());
  EXPECT_GT(stats.cycles, stats.instructions);
  EXPECT_LT(stats.ipc(), 1.0);
  EXPECT_GT(stats.loads, 0u);
  EXPECT_GT(stats.stores, 0u);
  EXPECT_GT(stats.calls, 0u);          // crt0's call + __pkey_get
  EXPECT_GT(stats.syscalls, 3u);
  EXPECT_GT(stats.rdpkr, 0u);          // __pkey_get uses RDPKR
  EXPECT_GT(stats.dtlb.hits + stats.dtlb.misses, 0u);
  EXPECT_GT(stats.pkr.perm_lookups, 0u);
  EXPECT_GT(stats.dtlb_hit_rate(), 0.2);
  std::ostringstream os;
  sim::print_stats(stats, os);
  EXPECT_NE(os.str().find("dtlb hit rate"), std::string::npos);
  EXPECT_NE(os.str().find("instructions"), std::string::npos);
}

}  // namespace
}  // namespace sealpk
