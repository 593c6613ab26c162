// Seeded mutation fuzzing of the one JSON reader (common/json_parse.h) and
// the two schema layers built on it: the SLO gate (obs::parse_slo_spec /
// obs::evaluate_slo) and model-trace parsing (model::parse_trace /
// model::trace_to_json).
//
// Contract: every byte string yields a value or a typed error —
// std::runtime_error from json_parse and the SLO layer, std::nullopt with a
// non-empty error string from parse_trace. Nothing else may escape, and the
// sanitizer builds must stay silent. The seeds are the committed JSON
// documents; mutations are byte flips, truncations, deletions and token
// insertions aimed at the reader's edges (nesting, escapes, numbers no
// integer field can hold). Known crashers (hostile nesting, integers out of
// range) are extra inputs of JsonParse.HandlesEscapesAndRejectsMalformedInput
// and ModelTraces.ParserRejectsMalformedDocuments; add any new one there.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json_parse.h"
#include "common/rng.h"
#include "model/trace.h"
#include "obs/slo.h"

namespace sealpk {
namespace {

constexpr u64 kMutationsPerSeed = 2'000;

const std::filesystem::path kSourceDir(SEALPK_SOURCE_DIR);

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class Mutator {
 public:
  Mutator(const std::string& doc, u64 seed) : doc_(doc), rng_(seed) {}

  std::string next() {
    std::string out = doc_;
    for (u64 k = rng_.range(1, 3); k > 0 && !out.empty(); --k) mutate(out);
    return out;
  }

 private:
  void mutate(std::string& out) {
    static const char* const kTokens[] = {
        "[",  "{",   "]",     "}",    "\"",   "\\",   "\\u0000", "\\u00",
        ",",  ":",   "1e999", "-1",   "2.5",  "null", "true",    "-",
        "99999999999999999999999",    "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
    };
    const size_t at = rng_.below(out.size());
    switch (rng_.below(4)) {
      case 0:
        out[at] = static_cast<char>(out[at] ^ (1u << rng_.below(8)));
        break;
      case 1:
        out.resize(at);
        break;
      case 2:
        out.erase(at, rng_.range(1, 16));
        break;
      default:
        out.insert(at, kTokens[rng_.below(std::size(kTokens))]);
        break;
    }
  }

  const std::string& doc_;
  Rng rng_;
};

struct Tally {
  u64 parsed = 0;       // json_parse returned a value
  u64 traces = 0;       // parse_trace returned a trace
  u64 slo_checked = 0;  // an SLO verdict was produced
};

// Runs one input through every reader; fails the test on any escape that
// is not the reader's typed error.
void drive(const std::string& text, const std::string& role,
           const obs::SloSpec& spec,
           const std::map<std::string, JsonValue>& reports, Tally& tally) {
  JsonValue doc;
  bool parsed = false;
  try {
    doc = json_parse(text);
    parsed = true;
    ++tally.parsed;
  } catch (const std::runtime_error&) {
  }

  if (parsed && !role.empty()) {
    try {
      if (role == "spec") {
        obs::evaluate_slo(obs::parse_slo_spec(doc), reports);
      } else {
        std::map<std::string, JsonValue> mutated = reports;
        mutated[role] = doc;
        obs::evaluate_slo(spec, mutated);
      }
      ++tally.slo_checked;
    } catch (const std::runtime_error&) {
    }
  }

  std::string error;
  const auto trace = model::parse_trace(text, &error);
  if (!trace.has_value()) {
    EXPECT_FALSE(error.empty()) << "parse_trace refused without a reason";
    return;
  }
  ++tally.traces;
  // Canonical form is a fixed point: the rewrite parses back to itself.
  const std::string canon = model::trace_to_json(*trace);
  const auto again = model::parse_trace(canon, &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(model::trace_to_json(*again), canon);
}

class JsonFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = obs::parse_slo_spec(json_parse(read_file(kSourceDir / "SLO.json")));
    reports_["vkey"] = json_parse(read_file(kSourceDir / "BENCH_keychurn.json"));
    reports_["spans"] = json_parse(read_file(kSourceDir / "BENCH_spans.json"));
  }

  // Mutates `doc` kMutationsPerSeed times and drives every mutant. `role`
  // is "spec" for the SLO spec, a report name for a report, "" otherwise.
  Tally fuzz(const std::string& doc, const std::string& role, u64 seed) {
    Mutator mutator(doc, seed);
    Tally tally;
    for (u64 i = 0; i < kMutationsPerSeed && !HasFailure(); ++i) {
      const std::string input = mutator.next();
      try {
        drive(input, role, spec_, reports_, tally);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutation " << i << " of seed 0x" << std::hex << seed
                      << " escaped as a non-typed error: " << e.what();
      }
    }
    std::printf("seed 0x%llx: %llu parsed, %llu traces, %llu slo verdicts\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(tally.parsed),
                static_cast<unsigned long long>(tally.traces),
                static_cast<unsigned long long>(tally.slo_checked));
    // Both outcomes occur: some mutants still parse, most do not.
    EXPECT_GT(tally.parsed, 0u);
    EXPECT_LT(tally.parsed, kMutationsPerSeed);
    return tally;
  }

  obs::SloSpec spec_;
  std::map<std::string, JsonValue> reports_;
};

TEST_F(JsonFuzz, SloSpec) {
  const Tally t = fuzz(read_file(kSourceDir / "SLO.json"), "spec", 0x150f0001);
  EXPECT_GT(t.slo_checked, 0u);
}

TEST_F(JsonFuzz, KeychurnReport) {
  const Tally t =
      fuzz(read_file(kSourceDir / "BENCH_keychurn.json"), "vkey", 0x150f0002);
  EXPECT_GT(t.slo_checked, 0u);
}

TEST_F(JsonFuzz, SpansReport) {
  const std::string text = read_file(kSourceDir / "BENCH_spans.json");
  const Tally t = fuzz(text, "spans", 0x150f0003);
  EXPECT_GT(t.slo_checked, 0u);

  // A breached ceiling on a value outside long long's range (1e999 parses
  // as inf) renders in the verdict without an out-of-range cast.
  const std::string p99 = "\"p99\": 10496";
  std::string huge = text;
  ASSERT_NE(huge.find(p99), std::string::npos);
  huge.replace(huge.find(p99), p99.size(), "\"p99\": 1e999");
  std::map<std::string, JsonValue> reports = reports_;
  reports["spans"] = json_parse(huge);
  const obs::SloVerdict verdict = obs::evaluate_slo(spec_, reports);
  EXPECT_FALSE(verdict.pass);
  bool breached = false;
  for (const obs::RuleVerdict& r : verdict.rules) {
    if (r.name != "spans-serve-request-p99-ceiling") continue;
    breached = true;
    EXPECT_FALSE(r.pass);
    EXPECT_NE(r.detail.find("value inf > ceiling 16384"), std::string::npos)
        << r.detail;
  }
  EXPECT_TRUE(breached);
}

TEST_F(JsonFuzz, ModelTraces) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(kSourceDir / "tests" / "model_traces")) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_GE(paths.size(), 5u);
  u64 seed = 0x150f0100;
  for (const auto& path : paths) {
    const Tally t = fuzz(read_file(path), "", seed++);
    // Some mutants stay valid traces (a flipped message byte, a changed
    // op parameter), so the schema layer is reached past the reader.
    EXPECT_GT(t.traces, 0u) << path;
  }
}

}  // namespace
}  // namespace sealpk
