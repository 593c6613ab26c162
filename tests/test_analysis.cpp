// Static SealPK policy verifier: CFG construction, constant propagation,
// the ERIM-style gadget scan, sealed-range dataflow, structural lints and
// the Machine/Kernel loader gate.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "analysis/verifier.h"
#include "guest_test_util.h"
#include "passes/shadow_stack.h"
#include "runtime/guest.h"
#include "sim/machine.h"
#include "workloads/workload.h"

namespace sealpk::analysis {
namespace {

using isa::Program;
using testutil::make_main_program;

bool has_check(const Report& report, Check check) {
  return report.count(check) > 0;
}

// ---------------------------------------------------------------------------
// CFG construction
// ---------------------------------------------------------------------------

TEST(Cfg, StraightLineIsOneReachableBlock) {
  Program prog = make_main_program([](Program&, isa::Function&) {});
  const ImageCfg cfg = build_cfg(prog.link());
  const FunctionCfg* main_fn = cfg.function_named("main");
  ASSERT_NE(main_fn, nullptr);
  ASSERT_EQ(main_fn->blocks.size(), 1u);
  EXPECT_TRUE(main_fn->blocks[0].reachable);
  EXPECT_EQ(main_fn->blocks[0].exit, BlockExit::kReturn);
}

TEST(Cfg, BranchSplitsBlocksAndAllReachable) {
  Program prog = make_main_program([](Program&, isa::Function& f) {
    const isa::Label skip = f.new_label();
    f.beqz(isa::a0, skip);
    f.addi(isa::a0, isa::a0, 1);
    f.bind(skip);
    f.addi(isa::a0, isa::a0, 2);
  });
  const ImageCfg cfg = build_cfg(prog.link());
  const FunctionCfg* main_fn = cfg.function_named("main");
  ASSERT_NE(main_fn, nullptr);
  ASSERT_GE(main_fn->blocks.size(), 3u);
  for (const BasicBlock& bb : main_fn->blocks) {
    EXPECT_TRUE(bb.reachable) << "block at 0x" << std::hex << bb.start;
  }
  // The branch block has two successors (taken + fallthrough).
  EXPECT_EQ(main_fn->blocks[0].exit, BlockExit::kBranch);
  EXPECT_EQ(main_fn->blocks[0].succs.size(), 2u);
}

TEST(Cfg, CodeAfterUnconditionalJumpIsUnreachable) {
  Program prog = make_main_program([](Program&, isa::Function& f) {
    const isa::Label out = f.new_label();
    f.j(out);
    f.addi(isa::a0, isa::a0, 99);  // dead
    f.bind(out);
  });
  const ImageCfg cfg = build_cfg(prog.link());
  const FunctionCfg* main_fn = cfg.function_named("main");
  ASSERT_NE(main_fn, nullptr);
  bool saw_unreachable = false;
  for (const BasicBlock& bb : main_fn->blocks) saw_unreachable |= !bb.reachable;
  EXPECT_TRUE(saw_unreachable);
}

TEST(Cfg, CallsRecordTargetsAndFallThrough) {
  Program prog = make_main_program([](Program& p, isa::Function& f) {
    isa::Function& helper = p.add_function("helper");
    helper.ret();
    f.call("helper");
  });
  const isa::Image image = prog.link();
  const ImageCfg cfg = build_cfg(image);
  const FunctionCfg* main_fn = cfg.function_named("main");
  ASSERT_NE(main_fn, nullptr);
  ASSERT_EQ(main_fn->call_targets.size(), 1u);
  EXPECT_EQ(main_fn->call_targets[0], image.func_ranges.at("helper").first);
  // pc -> function attribution.
  EXPECT_EQ(cfg.function_at(image.func_ranges.at("helper").first),
            cfg.function_named("helper"));
}

// ---------------------------------------------------------------------------
// Constant propagation
// ---------------------------------------------------------------------------

TEST(Dataflow, ResolvesLiThroughJoins) {
  // Both arms load the same constant; the join must keep it.
  Program prog = make_main_program([](Program&, isa::Function& f) {
    const isa::Label other = f.new_label(), join = f.new_label();
    f.beqz(isa::a0, other);
    f.li(isa::t0, 42);
    f.j(join);
    f.bind(other);
    f.li(isa::t0, 42);
    f.bind(join);
    f.mv(isa::a1, isa::t0);
    f.ret();
  });
  const isa::Image image = prog.link();
  const ImageCfg cfg = build_cfg(image);
  const FunctionCfg* main_fn = cfg.function_named("main");
  ASSERT_NE(main_fn, nullptr);
  const ConstProp dataflow(*main_fn);
  // Find the mv (addi a1, t0, 0) site.
  for (const BasicBlock& bb : main_fn->blocks) {
    for (const Site& site : bb.insts) {
      if (site.inst.op == isa::Op::kAddi && site.inst.rd == isa::a1) {
        const RegState* state = dataflow.state_before(site.pc);
        ASSERT_NE(state, nullptr);
        ASSERT_TRUE(state->get(isa::t0).is_const());
        EXPECT_EQ(state->get(isa::t0).value, 42u);
        return;
      }
    }
  }
  FAIL() << "mv a1, t0 not found";
}

TEST(Dataflow, DivergentJoinGoesToTop) {
  Program prog = make_main_program([](Program&, isa::Function& f) {
    const isa::Label other = f.new_label(), join = f.new_label();
    f.beqz(isa::a0, other);
    f.li(isa::t0, 1);
    f.j(join);
    f.bind(other);
    f.li(isa::t0, 2);
    f.bind(join);
    f.mv(isa::a1, isa::t0);
    f.ret();
  });
  const isa::Image image = prog.link();
  const ImageCfg cfg = build_cfg(image);
  const FunctionCfg* main_fn = cfg.function_named("main");
  const ConstProp dataflow(*main_fn);
  for (const BasicBlock& bb : main_fn->blocks) {
    for (const Site& site : bb.insts) {
      if (site.inst.op == isa::Op::kAddi && site.inst.rd == isa::a1) {
        const RegState* state = dataflow.state_before(site.pc);
        ASSERT_NE(state, nullptr);
        EXPECT_FALSE(state->get(isa::t0).is_const());
        return;
      }
    }
  }
  FAIL() << "mv a1, t0 not found";
}

TEST(Dataflow, CallClobbersCallerSavedKeepsCalleeSaved) {
  Program prog = make_main_program([](Program& p, isa::Function& f) {
    isa::Function& helper = p.add_function("helper");
    helper.ret();
    f.li(isa::t0, 7);
    f.li(isa::s2, 9);
    f.call("helper");
    f.mv(isa::a1, isa::t0);  // t0 unknown after the call
    f.mv(isa::a2, isa::s2);  // s2 preserved
    f.ret();
  });
  const isa::Image image = prog.link();
  const ImageCfg cfg = build_cfg(image);
  const ConstProp dataflow(*cfg.function_named("main"));
  for (const BasicBlock& bb : cfg.function_named("main")->blocks) {
    for (const Site& site : bb.insts) {
      if (site.inst.op == isa::Op::kAddi && site.inst.rd == isa::a1) {
        const RegState* state = dataflow.state_before(site.pc);
        ASSERT_NE(state, nullptr);
        EXPECT_FALSE(state->get(isa::t0).is_const());
        EXPECT_TRUE(state->get(isa::s2).is_const());
        EXPECT_EQ(state->get(isa::s2).value, 9u);
        return;
      }
    }
  }
  FAIL() << "mv a1, t0 not found";
}

// ---------------------------------------------------------------------------
// Occurrence scan (ERIM-style)
// ---------------------------------------------------------------------------

TEST(Verifier, CleanProgramHasNoFindings) {
  Program prog = make_main_program([](Program&, isa::Function& f) {
    f.li(isa::a0, 0);
  });
  EXPECT_TRUE(verify_program(prog).clean());
}

TEST(Verifier, PkeyHelpersAreTrustedGates) {
  Program prog = make_main_program([](Program& p, isa::Function& f) {
    rt::add_pkey_lib(p);
    f.li(isa::a0, 1);
    f.li(isa::a1, 0);
    f.call("__pkey_set");
    f.li(isa::a0, 0);
  });
  const Report report = verify_program(prog);
  EXPECT_TRUE(report.clean()) << [&] {
    std::ostringstream os;
    report.print(os);
    return os.str();
  }();
}

TEST(Verifier, HiddenWrpkrGadgetIsFlagged) {
  Program prog = make_main_program([](Program& p, isa::Function& f) {
    isa::Function& evil = p.add_function("innocuous_helper");
    evil.wrpkr(isa::a0, isa::zero);  // the planted gadget
    evil.ret();
    f.call("innocuous_helper");
    f.li(isa::a0, 0);
  });
  const isa::Image image = prog.link();
  const Report report = verify_image(image);
  ASSERT_TRUE(has_check(report, Check::kGadget));
  EXPECT_FALSE(report.admissible());
  // The finding names the right function and a pc inside it.
  const auto range = image.func_ranges.at("innocuous_helper");
  bool located = false;
  for (const Finding& f : report.findings()) {
    if (f.check != Check::kGadget) continue;
    EXPECT_EQ(f.function, "innocuous_helper");
    EXPECT_GE(f.pc, range.first);
    EXPECT_LT(f.pc, range.second);
    located = true;
  }
  EXPECT_TRUE(located);
}

TEST(Verifier, WrpkruGadgetIsFlaggedToo) {
  Program prog = make_main_program([](Program&, isa::Function& f) {
    f.wrpkru(isa::a0);
    f.li(isa::a0, 0);
  });
  const Report report = verify_program(prog);
  EXPECT_TRUE(has_check(report, Check::kGadget));
  EXPECT_FALSE(report.admissible());
}

TEST(Verifier, UntrustedRdpkrAndSealMarkersWarn) {
  Program prog = make_main_program([](Program&, isa::Function& f) {
    f.rdpkr(isa::t0, isa::a0);
    f.seal_start(0);
    f.seal_end(0);
    f.li(isa::a0, 0);
  });
  const Report report = verify_program(prog);
  EXPECT_TRUE(has_check(report, Check::kPkeyRead));
  EXPECT_EQ(report.count(Check::kSealMarker), 2u);
  // Warnings only: still admissible, but not clean.
  EXPECT_TRUE(report.admissible());
  EXPECT_FALSE(report.clean());
}

TEST(Verifier, CallerRegisteredGateIsTrusted) {
  // The Figure-3 pattern: a trusted updater carries its own inline WRPKR.
  Program prog = make_main_program([](Program& p, isa::Function& f) {
    isa::Function& func_a = p.add_function("func_a");
    func_a.seal_start(0);
    func_a.rdpkr(isa::t0, isa::s1);
    func_a.wrpkr(isa::s1, isa::t0);
    func_a.seal_end(0);
    func_a.ret();
    f.call("func_a");
    f.li(isa::a0, 0);
  });
  EXPECT_FALSE(verify_program(prog).admissible());
  VerifyOptions opts;
  opts.trusted_gates.insert("func_a");
  EXPECT_TRUE(verify_program(prog, opts).clean());
}

// ---------------------------------------------------------------------------
// Sealed-range dataflow
// ---------------------------------------------------------------------------

TEST(Verifier, ResolvedWrpkrIntoSealedRangeOutOfRangeIsError) {
  Program prog = make_main_program([](Program&, isa::Function& f) {
    f.li(isa::t0, 7);
    f.wrpkr(isa::t0, isa::zero);
    f.li(isa::a0, 0);
  });
  VerifyOptions opts;
  opts.trusted_gates.insert("main");  // isolate the sealed-range check
  opts.sealed_pkey_ranges[7] = {0x1, 0x2};  // nowhere near main
  const Report report = verify_program(prog, opts);
  ASSERT_TRUE(has_check(report, Check::kSealedRange));
  EXPECT_FALSE(report.admissible());
}

TEST(Verifier, ResolvedWrpkrInsideSealedRangeIsAllowed) {
  Program prog = make_main_program([](Program&, isa::Function& f) {
    f.li(isa::t0, 7);
    f.wrpkr(isa::t0, isa::zero);
    f.li(isa::a0, 0);
  });
  const isa::Image image = prog.link();
  const auto range = image.func_ranges.at("main");
  VerifyOptions opts;
  opts.trusted_gates.insert("main");
  opts.sealed_pkey_ranges[7] = {range.first, range.second - 4};
  EXPECT_TRUE(verify_image(image, opts).clean());
}

TEST(Verifier, UnsealedPkeyIgnoresRangePolicy) {
  Program prog = make_main_program([](Program&, isa::Function& f) {
    f.li(isa::t0, 3);  // pkey 3 is not sealed
    f.wrpkr(isa::t0, isa::zero);
    f.li(isa::a0, 0);
  });
  VerifyOptions opts;
  opts.trusted_gates.insert("main");
  opts.sealed_pkey_ranges[7] = {0x1, 0x2};
  EXPECT_TRUE(verify_program(prog, opts).clean());
}

TEST(Verifier, GateRegionLintFlagsWrpkrOutsideRegion) {
  Program prog = make_main_program([](Program&, isa::Function& f) {
    f.li(isa::t0, 7);
    f.wrpkr(isa::t0, isa::zero);
    f.li(isa::a0, 0);
  });
  VerifyOptions opts;
  opts.trusted_gates.insert("main");  // name-trust must NOT bypass the lint
  opts.gate_regions.push_back({0x10, 0x20});  // nowhere near main
  const Report report = verify_program(prog, opts);
  ASSERT_TRUE(has_check(report, Check::kGateEscape));
  EXPECT_FALSE(report.admissible());
  // The lint has its own distinct finding code.
  EXPECT_STREQ(check_name(Check::kGateEscape), "wrpkr-outside-gate-region");
}

TEST(Verifier, GateRegionLintAllowsWrpkrInsideRegion) {
  Program prog = make_main_program([](Program&, isa::Function& f) {
    f.li(isa::t0, 7);
    f.wrpkr(isa::t0, isa::zero);
    f.li(isa::a0, 0);
  });
  const isa::Image image = prog.link();
  const auto range = image.func_ranges.at("main");
  VerifyOptions opts;
  opts.trusted_gates.insert("main");
  opts.gate_regions.push_back({range.first, range.second - 4});
  EXPECT_TRUE(verify_image(image, opts).clean());
}

TEST(Verifier, GateRegionLintCatchesGadgetPastGateEnd) {
  // The Garmr bypass shape: a WRPKR appended after the blessed gate's
  // declared region, still inside a trusted-named function. The positional
  // lint must flag it even though the name check would wave it through.
  Program prog = make_main_program([](Program&, isa::Function& f) {
    f.li(isa::t0, 7);
    f.wrpkr(isa::t0, isa::zero);  // sanctioned: inside the region
    f.li(isa::a0, 0);
    f.wrpkr(isa::t0, isa::zero);  // the gadget: past the region's end
  });
  const isa::Image image = prog.link();
  const auto range = image.func_ranges.at("main");
  VerifyOptions opts;
  opts.trusted_gates.insert("main");
  // Region covers only the first half of main (first wrpkr, not the last).
  opts.gate_regions.push_back({range.first, range.first + 3 * 4});
  const Report report = verify_image(image, opts);
  ASSERT_EQ(report.count(Check::kGateEscape), 1u);
  EXPECT_FALSE(report.admissible());
}

TEST(Verifier, EmptyGateRegionsDisablesTheLint) {
  Program prog = make_main_program([](Program&, isa::Function& f) {
    f.li(isa::t0, 7);
    f.wrpkr(isa::t0, isa::zero);
    f.li(isa::a0, 0);
  });
  VerifyOptions opts;
  opts.trusted_gates.insert("main");
  EXPECT_TRUE(verify_program(prog, opts).clean());
}

TEST(Verifier, UnresolvedWrpkrUnderSealedPolicyWarns) {
  Program prog = make_main_program([](Program& p, isa::Function& f) {
    p.add_zero("somedata", 8);
    f.la(isa::t1, "somedata");
    f.ld(isa::t0, 0, isa::t1);  // pkey from memory: unresolvable
    f.wrpkr(isa::t0, isa::zero);
    f.li(isa::a0, 0);
  });
  VerifyOptions opts;
  opts.trusted_gates.insert("main");
  opts.sealed_pkey_ranges[7] = {0x1, 0x2};
  const Report report = verify_program(prog, opts);
  EXPECT_TRUE(has_check(report, Check::kSealedRangeMaybe));
  EXPECT_TRUE(report.admissible());  // warning, not error
}

// ---------------------------------------------------------------------------
// Structural lints
// ---------------------------------------------------------------------------

// Overwrites the instruction word at `pc` with an undecodable pattern.
void poke_garbage(isa::Image* image, u64 pc) {
  for (auto& seg : image->segments) {
    if (!seg.exec || pc < seg.addr || pc + 4 > seg.addr + seg.bytes.size()) {
      continue;
    }
    const u64 off = pc - seg.addr;
    seg.bytes[off] = seg.bytes[off + 1] = seg.bytes[off + 2] =
        seg.bytes[off + 3] = 0;  // all-zero word never decodes
    return;
  }
  FAIL() << "pc not in any exec segment";
}

TEST(Verifier, ReachableIllegalWordIsError) {
  Program prog = make_main_program([](Program&, isa::Function& f) {
    f.nop();
    f.li(isa::a0, 0);
  });
  isa::Image image = prog.link();
  const auto range = image.func_ranges.at("main");
  poke_garbage(&image, range.first);  // first instruction of main
  const Report report = verify_image(image);
  ASSERT_TRUE(has_check(report, Check::kReachableIllegal));
  EXPECT_FALSE(report.admissible());
}

TEST(Verifier, UnreachableIllegalWordIsInfoOnly) {
  Program prog = make_main_program([](Program&, isa::Function& f) {
    f.li(isa::a0, 0);
  });
  // Plant a garbage word in a slot after main's ret: inside the function
  // range but past the return, so never reachable.
  prog.find_function("main")->nop();
  isa::Image image = prog.link();
  const auto range = image.func_ranges.at("main");
  poke_garbage(&image, range.second - 4);  // the trailing nop slot
  const Report report = verify_image(image);
  EXPECT_TRUE(has_check(report, Check::kReachableIllegal));
  EXPECT_TRUE(report.admissible());  // info severity only
}

TEST(Verifier, ReservedRegisterUseWarns) {
  Program prog = make_main_program([](Program&, isa::Function& f) {
    f.addi(isa::s10, isa::s10, 16);  // workloads must not touch s10/s11
    f.sd(isa::t0, 0, isa::s11);
    f.li(isa::a0, 0);
  });
  const Report report = verify_program(prog);
  EXPECT_EQ(report.count(Check::kReservedReg), 2u);
  EXPECT_TRUE(report.admissible());
  VerifyOptions opts;
  opts.check_reserved_regs = false;
  EXPECT_TRUE(verify_program(prog, opts).clean());
}

TEST(Verifier, InlineShadowStackPatternIsTolerated) {
  Program prog = make_main_program([](Program& p, isa::Function& f) {
    isa::Function& helper = p.add_function("helper");
    helper.ret();
    f.call("helper");
    f.li(isa::a0, 0);
  });
  passes::ShadowStackOptions ss;
  ss.kind = passes::ShadowStackKind::kInline;
  passes::apply_shadow_stack(prog, ss);
  const Report report = verify_program(prog);
  EXPECT_TRUE(report.clean()) << [&] {
    std::ostringstream os;
    report.print(os);
    return os.str();
  }();
}

// 2^32+64 and 2^32+93 would reach write and exit if the syscall table index
// were truncated to 32 bits, and 2^64-1 would index -1 if it were signed.
TEST(Verifier, UnknownSyscallNumberIsError) {
  const u64 unknown[] = {999, (u64{1} << 32) + os::sys::kWrite,
                         (u64{1} << 32) + os::sys::kExit, ~u64{0}};
  Program prog = make_main_program([&](Program&, isa::Function& f) {
    for (const u64 nr : unknown) {
      f.li(isa::a7, static_cast<i64>(nr));
      f.ecall();
    }
    f.li(isa::a0, 0);
  });
  const Report report = verify_program(prog);
  EXPECT_EQ(report.count(Check::kUnknownSyscall), std::size(unknown));
  EXPECT_FALSE(report.admissible());
}

TEST(Verifier, UnresolvedSyscallNumberIsInfo) {
  Program prog = make_main_program([](Program& p, isa::Function& f) {
    p.add_zero("nr", 8);
    f.la(isa::t0, "nr");
    f.ld(isa::a7, 0, isa::t0);
    f.ecall();
    f.li(isa::a0, 0);
  });
  const Report report = verify_program(prog);
  EXPECT_TRUE(has_check(report, Check::kUnresolvedSyscall));
  EXPECT_TRUE(report.admissible());
  VerifyOptions opts;
  opts.flag_unresolved_syscalls = false;
  EXPECT_TRUE(verify_program(prog, opts).clean());
}

TEST(Verifier, WritableExecutableSegmentIsError) {
  Program prog = make_main_program([](Program&, isa::Function& f) {
    f.li(isa::a0, 0);
  });
  isa::Image image = prog.link();
  image.segments[0].write = true;  // text becomes W+X
  const Report report = verify_image(image);
  EXPECT_TRUE(has_check(report, Check::kSegmentPerm));
  EXPECT_FALSE(report.admissible());
}

// ---------------------------------------------------------------------------
// Every shipped workload verifies clean (bare and instrumented)
// ---------------------------------------------------------------------------

TEST(Verifier, AllWorkloadsVerifyClean) {
  for (const auto& w : wl::all_workloads()) {
    const Report report = verify_program(w.build(w.test_scale));
    std::ostringstream os;
    report.print(os, w.name);
    EXPECT_TRUE(report.clean()) << os.str();
  }
}

TEST(Verifier, AllWorkloadsVerifyCleanUnderSealedShadowStack) {
  for (const auto& w : wl::all_workloads()) {
    Program prog = w.build(w.test_scale);
    passes::ShadowStackOptions ss;
    ss.kind = passes::ShadowStackKind::kSealPkRdWr;
    ss.perm_seal = true;
    passes::apply_shadow_stack(prog, ss);
    const Report report = verify_program(prog);
    std::ostringstream os;
    report.print(os, w.name);
    EXPECT_TRUE(report.clean()) << os.str();
  }
}

// ---------------------------------------------------------------------------
// Loader gate
// ---------------------------------------------------------------------------

Program gadget_program() {
  return make_main_program([](Program& p, isa::Function& f) {
    isa::Function& evil = p.add_function("evil");
    evil.wrpkr(isa::a0, isa::zero);
    evil.ret();
    f.call("evil");
    f.li(isa::a0, 0);
  });
}

TEST(LoaderGate, EnforceRefusesGadgetAdmitsClean) {
  sim::MachineConfig config;
  config.verify_policy = LoadVerifyPolicy::kEnforce;
  {
    sim::Machine machine(config);
    EXPECT_EQ(machine.load(gadget_program().link()), sim::Machine::kLoadRefused);
    EXPECT_FALSE(machine.verify_report().admissible());
  }
  {
    sim::Machine machine(config);
    Program clean = make_main_program([](Program&, isa::Function& f) {
      f.li(isa::a0, 17);
    });
    const int pid = machine.load(clean.link());
    ASSERT_GT(pid, 0);
    EXPECT_TRUE(machine.verify_report().clean());
    machine.run();
    EXPECT_EQ(machine.exit_code(pid), 17);
  }
}

TEST(LoaderGate, WarnAdmitsButKeepsReport) {
  sim::MachineConfig config;
  config.verify_policy = LoadVerifyPolicy::kWarn;
  sim::Machine machine(config);
  const int pid = machine.load(gadget_program().link());
  ASSERT_GT(pid, 0);
  EXPECT_FALSE(machine.verify_report().admissible());
  machine.run();
  EXPECT_EQ(machine.exit_code(pid), 0);
}

TEST(LoaderGate, OffSkipsVerificationEntirely) {
  sim::Machine machine;  // default policy: kOff
  const int pid = machine.load(gadget_program().link());
  ASSERT_GT(pid, 0);
  EXPECT_TRUE(machine.verify_report().clean());  // never populated
}

TEST(LoaderGate, EnforceAcceptsSealedShadowStackWorkload) {
  // The full pipeline: instrument, link, verify, admit, run to completion.
  const wl::Workload* w = wl::find_workload(wl::Suite::kMiBench, "qsort");
  ASSERT_NE(w, nullptr);
  Program prog = w->build(w->test_scale);
  passes::ShadowStackOptions ss;
  ss.kind = passes::ShadowStackKind::kSealPkRdWr;
  ss.perm_seal = true;
  passes::apply_shadow_stack(prog, ss);

  sim::MachineConfig config;
  config.verify_policy = LoadVerifyPolicy::kEnforce;
  sim::Machine machine(config);
  const int pid = machine.load(prog.link());
  ASSERT_GT(pid, 0);
  const auto outcome = machine.run();
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(machine.exit_code(pid), 0);
  ASSERT_FALSE(machine.kernel().reports().empty());
  EXPECT_EQ(machine.kernel().reports()[0], w->golden(w->test_scale));
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

TEST(Report, PrintsSeveritiesAndLocations) {
  const Report report = verify_program(gadget_program());
  std::ostringstream os;
  report.print(os, "gadget_program");
  const std::string text = os.str();
  EXPECT_NE(text.find("gadget_program"), std::string::npos);
  EXPECT_NE(text.find("[error]"), std::string::npos);
  EXPECT_NE(text.find("wrpkr-gadget"), std::string::npos);
  EXPECT_NE(text.find("evil"), std::string::npos);
}

TEST(Report, CleanPrint) {
  Report report;
  std::ostringstream os;
  report.print(os, "empty");
  EXPECT_EQ(os.str(), "empty: clean (no findings)\n");
  EXPECT_TRUE(report.admissible());
  EXPECT_TRUE(report.clean());
}

TEST(Report, JsonCarriesCountsAndFindings) {
  const Report report = verify_program(gadget_program());
  std::ostringstream os;
  report.print_json(os, "gadget_program", "  ");
  const std::string json = os.str();
  EXPECT_NE(json.find("\"program\": \"gadget_program\""), std::string::npos);
  EXPECT_NE(json.find("\"admissible\": false"), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("\"check\": \"wrpkr-gadget\""), std::string::npos);
  EXPECT_NE(json.find("\"function\": \"evil\""), std::string::npos);
  // Every line carries the caller's indent prefix; no trailing newline.
  EXPECT_EQ(json.rfind("  {", 0), 0u);
  EXPECT_EQ(json.back(), '}');
}

TEST(Report, CleanJson) {
  Report report;
  std::ostringstream os;
  report.print_json(os, "empty");
  const std::string json = os.str();
  EXPECT_NE(json.find("\"admissible\": true"), std::string::npos);
  EXPECT_NE(json.find("\"findings\": []"), std::string::npos);
}

}  // namespace
}  // namespace sealpk::analysis
