// Static SealPK policy verifier (ERIM-style binary inspection).
//
// SealPK's WRPKR shares Intel WRPKRU's weakness: any occurrence reachable
// by untrusted code lets that code rewrite its own permission row. The
// hardware closes the hole *dynamically* (permission sealing, §III-C/§IV);
// this verifier closes it *statically*, before a program is admitted:
//
//   1. Occurrence scan — every WRPKR/WRPKRU (and RDPKR/seal-marker) site
//      outside a registered trusted-gate function is flagged, reachable or
//      not (attackers jump mid-function; ERIM's rule).
//   2. Sealed-range dataflow — constant propagation resolves, where
//      possible, the pkey each WRPKR names; a write naming a sealed pkey
//      from a PC outside the sealed [start, end] range is a statically
//      predicted SealViolation.
//   3. Structural lints — reachable undecodable words, s10/s11 use by
//      non-instrumentation code (our reserved-register ABI), ecalls with
//      unknown syscall numbers, writable+executable segments.
//
// Reports are consumed by the sealpk verify CLI and the Machine/Kernel
// loader gate (LoadVerifyPolicy).
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/report.h"
#include "isa/program.h"

namespace sealpk::analysis {

// The guest runtime's pkey helpers and the shadow-stack runtime are the
// default trusted call gates (the moral equivalent of ERIM's vetted
// call-gate sequences).
std::set<std::string> default_trusted_gates();

struct VerifyOptions {
  // Functions allowed to contain pkey-write/read and seal-marker
  // instructions. Callers add their own gates (e.g. a Figure-3 Func-A).
  std::set<std::string> trusted_gates = default_trusted_gates();

  // Statically known permission-seal policy: pkey -> inclusive [start, end]
  // PC range, mirroring what the PK-CAM will hold at run time. A resolved
  // WRPKR naming one of these pkeys from outside its range is an error.
  std::map<u32, std::pair<u64, u64>> sealed_pkey_ranges;

  // Sanctioned gate regions: inclusive [start, end] PC ranges that are the
  // ONLY places a pkey-write may appear. Empty disables the check. Unlike
  // the trusted_gates name test this is positional, so it also catches a
  // gadget hidden past the end of a blessed gate function — the Garmr
  // "WRPKR reachable outside the gate" bypass. Every violation is reported
  // as Check::kGateEscape (error), even inside trusted-named functions.
  std::vector<std::pair<u64, u64>> gate_regions;

  // Structural lints (on by default). Ecall numbers are always checked
  // against the kernel's syscall table (os::sys::served).
  bool check_reserved_regs = true;   // s10/s11 discipline
  bool flag_unresolved_syscalls = true;  // info when a7 cannot be resolved
};

// Inspects a linked image. This is the loader-gate entry point.
Report verify_image(const isa::Image& image, const VerifyOptions& opts = {});

// Convenience: links `prog` (with `link_opts`) and inspects the result.
Report verify_program(const isa::Program& prog, const VerifyOptions& opts = {},
                      const isa::LinkOptions& link_opts = {});

// Loader-gate policy for sim::Machine::load.
enum class LoadVerifyPolicy : u8 {
  kOff,      // legacy behaviour: admit anything
  kWarn,     // verify, keep the report, admit regardless
  kEnforce,  // refuse images whose report has error-severity findings
};

}  // namespace sealpk::analysis
