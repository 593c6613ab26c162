#include "analysis/verifier.h"

#include <sstream>

#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "hw/pkr.h"
#include "os/syscall_abi.h"

namespace sealpk::analysis {

namespace {

bool is_instrumentation_fn(const std::string& name) {
  return name.rfind("__ss_", 0) == 0 || name == "_start";
}

// The two-instruction sequences the kInline shadow-stack variant plants in
// every instrumented function; the reserved-register lint tolerates them.
bool is_inline_push_pop(const isa::Inst& inst) {
  switch (inst.op) {
    case isa::Op::kSd:  // sd ra, 0(s10)
      return inst.rs1 == isa::s10 && inst.rs2 == isa::ra && inst.imm == 0;
    case isa::Op::kLd:  // ld t5, 0(s10)
      return inst.rs1 == isa::s10 && inst.rd == isa::t5 && inst.imm == 0;
    case isa::Op::kAddi:  // addi s10, s10, +/-8
      return inst.rd == isa::s10 && inst.rs1 == isa::s10 &&
             (inst.imm == 8 || inst.imm == -8);
    default:
      return false;
  }
}

std::string describe(const isa::Inst& inst) { return isa::disassemble(inst); }

class Verifier {
 public:
  Verifier(const isa::Image& image, const VerifyOptions& opts)
      : image_(image), opts_(opts) {}

  Report run() {
    check_segments();
    const ImageCfg cfg = build_cfg(image_);
    for (const FunctionCfg& func : cfg.functions) {
      check_function(func);
    }
    return std::move(report_);
  }

 private:
  void add(Severity severity, Check check, const std::string& function,
           u64 pc, const std::string& message) {
    report_.add(Finding{severity, check, function, pc, message});
  }

  void check_segments() {
    for (const auto& seg : image_.segments) {
      if (seg.exec && seg.write) {
        add(Severity::kError, Check::kSegmentPerm, "<segment>", seg.addr,
            "segment is writable and executable (W^X violation): attacker "
            "data can become WRPKR gadgets");
      }
    }
  }

  void check_function(const FunctionCfg& func) {
    const bool trusted = opts_.trusted_gates.contains(func.name);
    const bool reserved_ok = trusted || is_instrumentation_fn(func.name);
    const ConstProp dataflow(func);

    for (const BasicBlock& bb : func.blocks) {
      for (const Site& site : bb.insts) {
        scan_occurrence(func, site, trusted);
        check_gate_regions(func, site);
        check_sealed_ranges(func, site, dataflow);
        check_illegal(func, bb, site);
        if (opts_.check_reserved_regs && !reserved_ok) {
          check_reserved_regs(func, site);
        }
        if (site.inst.op == isa::Op::kEcall) {
          check_syscall(func, site, dataflow);
        }
      }
    }
  }

  // (1) ERIM-style occurrence scan: reachability is irrelevant — a gadget
  // mid-function is one indirect jump away.
  void scan_occurrence(const FunctionCfg& func, const Site& site,
                       bool trusted) {
    const isa::Op op = site.inst.op;
    if (trusted) return;
    if (isa::is_pkey_write(op)) {
      add(Severity::kError, Check::kGadget, func.name, site.pc,
          "permission-write gadget outside trusted gates: " + describe(site.inst));
    } else if (isa::is_pkey_read(op)) {
      add(Severity::kWarning, Check::kPkeyRead, func.name, site.pc,
          "pkey read outside trusted gates (leaks domain state): " +
              describe(site.inst));
    } else if (isa::is_seal_marker(op)) {
      add(Severity::kWarning, Check::kSealMarker, func.name, site.pc,
          "seal-range marker outside trusted gates (can re-stage the "
          "permissible range before pkey_perm_seal): " + describe(site.inst));
    } else if (op == isa::Op::kSpkRange || op == isa::Op::kSpkSeal) {
      add(Severity::kWarning, Check::kGadget, func.name, site.pc,
          "supervisor-only seal instruction in user text (traps at run "
          "time): " + describe(site.inst));
    }
  }

  // (1b) Positional gate-region lint: a pkey-write is only sanctioned at a
  // PC inside one of the declared gate regions. Purely geometric — it does
  // not care what function the site claims to belong to, so a gadget
  // appended after a blessed gate's seal range (the Garmr bypass shape) is
  // still flagged.
  void check_gate_regions(const FunctionCfg& func, const Site& site) {
    if (opts_.gate_regions.empty()) return;
    if (!isa::is_pkey_write(site.inst.op)) return;
    for (const auto& [lo, hi] : opts_.gate_regions) {
      if (site.pc >= lo && site.pc <= hi) return;
    }
    add(Severity::kError, Check::kGateEscape, func.name, site.pc,
        "pkey-write reachable outside every sanctioned gate region: " +
            describe(site.inst));
  }

  // (2) Sealed-range dataflow over resolved WRPKR pkey operands.
  void check_sealed_ranges(const FunctionCfg& func, const Site& site,
                           const ConstProp& dataflow) {
    if (site.inst.op != isa::Op::kWrpkr || opts_.sealed_pkey_ranges.empty()) {
      return;
    }
    const RegState* state = dataflow.state_before(site.pc);
    const AbsVal pkey_val =
        state != nullptr ? state->get(site.inst.rs1) : AbsVal::top();
    if (pkey_val.is_const()) {
      const u32 pkey = static_cast<u32>(pkey_val.value) & (hw::kNumPkeys - 1);
      auto it = opts_.sealed_pkey_ranges.find(pkey);
      if (it == opts_.sealed_pkey_ranges.end()) return;
      const auto [lo, hi] = it->second;
      if (site.pc < lo || site.pc > hi) {
        std::ostringstream msg;
        msg << "wrpkr names sealed pkey " << pkey
            << " but pc is outside its permissible range [0x" << std::hex
            << lo << ", 0x" << hi << "] — guaranteed SealViolation";
        add(Severity::kError, Check::kSealedRange, func.name, site.pc,
            msg.str());
      }
      return;
    }
    // Unresolved target: only quiet when the site itself sits inside one of
    // the sealed ranges (then even the sealed pkeys are legal here).
    for (const auto& [pkey, range] : opts_.sealed_pkey_ranges) {
      (void)pkey;
      if (site.pc >= range.first && site.pc <= range.second) return;
    }
    add(Severity::kWarning, Check::kSealedRangeMaybe, func.name, site.pc,
        "wrpkr with statically unresolved pkey under a sealed policy: " +
            describe(site.inst));
  }

  // (3a) Undecodable words.
  void check_illegal(const FunctionCfg& func, const BasicBlock& bb,
                     const Site& site) {
    if (site.inst.op != isa::Op::kIllegal) return;
    if (bb.reachable) {
      add(Severity::kError, Check::kReachableIllegal, func.name, site.pc,
          "undecodable instruction word reachable from the function entry");
    } else {
      add(Severity::kInfo, Check::kReachableIllegal, func.name, site.pc,
          "undecodable instruction word in unreachable code");
    }
  }

  // (3b) s10/s11 are reserved for the shadow-stack runtime (guest.h ABI).
  void check_reserved_regs(const FunctionCfg& func, const Site& site) {
    const isa::Inst& inst = site.inst;
    if (is_inline_push_pop(inst)) return;
    const bool writes_reserved = inst.rd == isa::s10 || inst.rd == isa::s11;
    const bool mem_through_reserved =
        (isa::is_store(inst.op) || isa::is_load(inst.op)) &&
        (inst.rs1 == isa::s10 || inst.rs1 == isa::s11);
    if (!writes_reserved && !mem_through_reserved) return;
    add(Severity::kWarning, Check::kReservedReg, func.name, site.pc,
        std::string(writes_reserved ? "writes" : "accesses memory through") +
            " reserved instrumentation register: " + describe(inst));
  }

  // (3c) Syscall numbers against the kernel ABI.
  void check_syscall(const FunctionCfg& func, const Site& site,
                     const ConstProp& dataflow) {
    const RegState* state = dataflow.state_before(site.pc);
    const AbsVal nr = state != nullptr ? state->get(isa::a7) : AbsVal::top();
    if (nr.is_const()) {
      if (!os::sys::served(nr.value)) {
        std::ostringstream msg;
        msg << "ecall with unknown syscall number " << nr.value
            << " (kernel returns ENOSYS)";
        add(Severity::kError, Check::kUnknownSyscall, func.name, site.pc,
            msg.str());
      }
    } else if (opts_.flag_unresolved_syscalls) {
      add(Severity::kInfo, Check::kUnresolvedSyscall, func.name, site.pc,
          "ecall whose syscall number (a7) constant propagation cannot "
          "resolve");
    }
  }

  const isa::Image& image_;
  const VerifyOptions& opts_;
  Report report_;
};

}  // namespace

std::set<std::string> default_trusted_gates() {
  return {"__pkey_set", "__pkey_set_blind", "__pkey_get",
          "__ss_push",  "__ss_init",       "__ss_range_end"};
}

Report verify_image(const isa::Image& image, const VerifyOptions& opts) {
  return Verifier(image, opts).run();
}

Report verify_program(const isa::Program& prog, const VerifyOptions& opts,
                      const isa::LinkOptions& link_opts) {
  return verify_image(prog.link(link_opts), opts);
}

}  // namespace sealpk::analysis
