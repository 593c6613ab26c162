// SLO / perf-regression gate (DESIGN.md §16): a small deterministic rules
// engine evaluated by the sealpk slo CLI against the repo's own canonical
// JSON reports (sealpk serve, sealpk vkey, sealpk fleet, span benches).
//
// Spec schema ("sealpk-slo-v1"):
//   {"schema": "sealpk-slo-v1",
//    "rules": [
//      {"name": "...",                 // unique label in verdicts
//       "report": "serve",            // which --report name=path to read
//       "path": "crossings_per_sec",  // dotted path, [n] indexes arrays
//       "min": 1000.0,                // any of min / max / equals
//       "tolerance_pct": 5.0,         // optional band around the bound
//       "each": "cells",              // optional: apply path per array item
//       "where": {"mode": "raw"},     // optional equality filter on items
//       "require_matches": 1}]}       // min items surviving the filter
//
// Bounds with tolerance t%: min passes when v >= min*(1 - t/100), max when
// v <= max*(1 + t/100), equals when |v - equals| <= |equals|*t/100. All
// comparisons are double-exact for the integer magnitudes our reports
// emit, so a verdict is a pure function of (spec, reports).
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/json_parse.h"

namespace sealpk::obs {

inline constexpr char kSloSchema[] = "sealpk-slo-v1";

struct SloRule {
  std::string name;
  std::string report;
  std::string path;
  std::string each;  // empty = path is absolute in the report
  std::vector<std::pair<std::string, std::string>> where;
  u64 require_matches = 1;
  bool has_min = false, has_max = false, has_equals = false;
  double min = 0, max = 0, equals = 0;
  double tolerance_pct = 0;
};

struct SloSpec {
  std::string schema;
  std::vector<SloRule> rules;
};

// Throws std::runtime_error on a malformed or wrong-schema spec.
SloSpec parse_slo_spec(const JsonValue& doc);

struct RuleVerdict {
  std::string name;
  bool pass = true;
  u64 matched = 0;   // items checked (1 for absolute rules)
  std::string detail;  // human-readable reason on failure, "" on pass
};

struct SloVerdict {
  bool pass = true;
  std::vector<RuleVerdict> rules;
};

SloVerdict evaluate_slo(const SloSpec& spec,
                        const std::map<std::string, JsonValue>& reports);

// Dotted-path lookup ("aggregate.jobs", "cells[3].churn_per_sec",
// "serve.request.p99"); nullptr when any hop is missing.
const JsonValue* resolve_path(const JsonValue& root, const std::string& path);

// One PASS/FAIL line per rule plus a verdict line.
void write_slo_text(const SloVerdict& v, std::ostream& os);
// Machine-readable verdict (the CI artifact uploaded on failure).
void write_slo_json(const SloVerdict& v, std::ostream& os);

}  // namespace sealpk::obs
