// Counterexample traces: JSON op scripts that replay deterministically.
//
// A trace records the reduced configuration, the mutation it was found
// under, the op script, and the expected failure (kind / invariant /
// message / failing op index). `sealpk model repro` and the committed-trace
// regression tests replay the script and require the same failure at the
// same op — and the serializer is canonical, so a parsed-and-rewritten
// trace is byte-identical to the file on disk.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "model/explorer.h"
#include "model/op.h"

namespace sealpk::model {

struct Trace {
  unsigned num_pkeys = 2;
  unsigned num_pages = 2;
  unsigned cam_entries = 2;
  Mutation mutation = Mutation::kNone;
  std::vector<Op> ops;
  // Expected replay result. kind "clean" means the script must replay with
  // no finding.
  std::string kind = "clean";
  std::string invariant;
  std::string message;
  u64 op_index = 0;

  ModelConfig config() const;
};

Trace make_trace(const ModelConfig& cfg, const Counterexample& ce);

// Canonical serialization (stable field order and formatting).
std::string trace_to_json(const Trace& trace);
void write_trace(std::ostream& os, const Trace& trace);

// Parses a trace document; returns std::nullopt (with *error set) on
// malformed input.
std::optional<Trace> parse_trace(const std::string& text,
                                 std::string* error);

// Replays the trace and checks the recorded expectation. Returns an empty
// string on success, else a description of the mismatch.
std::string verify_trace(const Trace& trace);

}  // namespace sealpk::model
