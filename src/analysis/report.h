// Findings report for the static SealPK policy verifier.
//
// Every check emits Findings; a Report aggregates them and renders the
// human-readable listing the sealpk verify CLI prints. Severity kError is
// what the loader gate refuses on; kWarning/kInfo are advisory.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/bits.h"

namespace sealpk::analysis {

enum class Severity : u8 { kInfo, kWarning, kError };

const char* severity_name(Severity severity);

// Which check produced the finding (stable identifiers for tests/tools).
enum class Check : u8 {
  kGadget,             // pkey-write instruction outside a trusted gate
  kPkeyRead,           // pkey-read instruction outside a trusted gate
  kSealMarker,         // seal.start/seal.end outside a trusted gate
  kSealedRange,        // WRPKR naming a sealed pkey with PC out of range
  kSealedRangeMaybe,   // WRPKR with unresolved pkey under a sealed policy
  kReachableIllegal,   // undecodable word reachable from a function entry
  kReservedReg,        // s10/s11 use by non-instrumentation code
  kUnknownSyscall,     // ecall with a constant a7 outside the kernel ABI
  kUnresolvedSyscall,  // ecall whose a7 constant propagation cannot resolve
  kSegmentPerm,        // writable+executable (W^X violation) segment
  kGateEscape,         // pkey-write at a PC outside every sanctioned gate
                       // region (fires even inside trusted-named functions)
};

const char* check_name(Check check);

struct Finding {
  Severity severity = Severity::kError;
  Check check = Check::kGadget;
  std::string function;  // enclosing function, or "<unattributed>"
  u64 pc = 0;            // absolute address of the offending site
  std::string message;   // one-line description incl. disassembly
};

class Report {
 public:
  void add(Finding finding) { findings_.push_back(std::move(finding)); }

  const std::vector<Finding>& findings() const { return findings_; }
  bool empty() const { return findings_.empty(); }

  size_t count(Severity severity) const;
  size_t count(Check check) const;

  // The loader-gate criterion: no error-severity findings.
  bool admissible() const { return count(Severity::kError) == 0; }
  // The CI criterion for shipped programs: nothing to say at all.
  bool clean() const { return findings_.empty(); }

  // Renders "  [error] gadget main+0x14 (pc 0x10014): ..." style lines,
  // errors first. `program` labels the header line; empty reports print a
  // single "clean" line.
  void print(std::ostream& os, const std::string& program = "") const;

  // Machine-readable form of the same listing (one JSON object), so CI can
  // diff verifier output structurally. Findings appear in the same
  // errors-first order as print(). `indent` prefixes every emitted line,
  // letting callers nest the object inside a larger document.
  void print_json(std::ostream& os, const std::string& program = "",
                  const std::string& indent = "") const;

 private:
  std::vector<Finding> findings_;
};

}  // namespace sealpk::analysis
