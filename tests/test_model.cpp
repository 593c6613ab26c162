// Tests for the bounded exhaustive model checker (src/model): reference-spec
// invariants and their mutation self-tests, exploration determinism across
// thread counts, the counterexample-to-regression pipeline (committed traces
// replay byte-for-byte), and the trace codec.
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/explorer.h"
#include "model/harness.h"
#include "model/spec.h"
#include "model/trace.h"

namespace sealpk::model {
namespace {

ModelConfig small_config() {
  ModelConfig cfg;  // the CI default: 2 pkeys, 2 pages, 2-entry CAM
  return cfg;
}

bool has_invariant(const std::vector<InvariantViolation>& vs,
                   const std::string& name) {
  for (const auto& v : vs) {
    if (v.invariant == name) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Reference-spec invariants: each identifier must catch a hand-corrupted
// state (the spec-level half of the mutation self-test).
// ---------------------------------------------------------------------------

TEST(ModelInvariants, CleanInitialStateHasNoViolations) {
  const ModelConfig cfg = small_config();
  EXPECT_TRUE(check_invariants(cfg, initial_state(cfg)).empty());
}

TEST(ModelInvariants, LazyFreeDrainCatchesDirtyAllocatedKey) {
  const ModelConfig cfg = small_config();
  ModelState s = initial_state(cfg);
  s.keys[1].allocated = true;
  s.keys[1].dirty = true;
  s.keys[1].pages = 1;
  s.pages[0].pkey = 1;
  EXPECT_TRUE(has_invariant(check_invariants(cfg, s), "lazy-free-drain"));
}

TEST(ModelInvariants, LazyFreeDrainCatchesEscapedQuarantine) {
  const ModelConfig cfg = small_config();
  ModelState s = initial_state(cfg);
  // Freed, pages survive, but not quarantined: the use-after-free window.
  s.keys[1].pages = 1;
  s.pages[0].pkey = 1;
  EXPECT_TRUE(has_invariant(check_invariants(cfg, s), "lazy-free-drain"));
}

TEST(ModelInvariants, FuseCoherenceCatchesSealRegWithoutRange) {
  const ModelConfig cfg = small_config();
  ModelState s = initial_state(cfg);
  s.keys[0].hw_sealed = true;  // no range on file
  EXPECT_TRUE(has_invariant(check_invariants(cfg, s), "fuse-coherence"));
}

TEST(ModelInvariants, SealOnLiveKeyCatchesSealedDeadKey) {
  const ModelConfig cfg = small_config();
  ModelState s = initial_state(cfg);
  s.keys[1].sealed_domain = true;  // neither allocated nor dirty
  EXPECT_TRUE(has_invariant(check_invariants(cfg, s), "seal-on-live-key"));
}

TEST(ModelInvariants, PageAccountingCatchesCounterMismatch) {
  const ModelConfig cfg = small_config();
  ModelState s = initial_state(cfg);
  s.keys[0].pages = 1;  // page table says 2
  EXPECT_TRUE(has_invariant(check_invariants(cfg, s), "page-accounting"));
}

TEST(ModelInvariants, PageAccountingCatchesDeadDefaultDomain) {
  const ModelConfig cfg = small_config();
  ModelState s = initial_state(cfg);
  s.keys[0].allocated = false;
  EXPECT_TRUE(has_invariant(check_invariants(cfg, s), "page-accounting"));
}

TEST(ModelInvariants, CamCoherenceCatchesUnsealedCachedKey) {
  const ModelConfig cfg = small_config();
  ModelState s = initial_state(cfg);
  s.cam[0] = {true, 1, 0x1000, 0x1FFC};  // key 1 is not perm-sealed
  EXPECT_TRUE(has_invariant(check_invariants(cfg, s), "cam-coherence"));
}

TEST(ModelInvariants, CamCoherenceCatchesWrongCachedRange) {
  const ModelConfig cfg = small_config();
  ModelState s = initial_state(cfg);
  s.keys[0].hw_sealed = true;
  s.keys[0].range = 0;
  s.cam[0] = {true, 0, kModelRanges[1].start, kModelRanges[1].end};
  EXPECT_TRUE(has_invariant(check_invariants(cfg, s), "cam-coherence"));
}

TEST(ModelInvariants, CamCoherenceCatchesDuplicateEntries) {
  const ModelConfig cfg = small_config();
  ModelState s = initial_state(cfg);
  s.keys[0].hw_sealed = true;
  s.keys[0].range = 0;
  s.cam[0] = {true, 0, kModelRanges[0].start, kModelRanges[0].end};
  s.cam[1] = {true, 0, kModelRanges[0].start, kModelRanges[0].end};
  EXPECT_TRUE(has_invariant(check_invariants(cfg, s), "cam-coherence"));
}

TEST(ModelInvariants, SealMonotonicityCatchesFuseClearWithoutRelease) {
  const ModelConfig cfg = small_config();
  ModelState pre = initial_state(cfg);
  pre.keys[1].allocated = true;
  pre.keys[1].hw_sealed = true;
  pre.keys[1].range = 0;
  ModelState post = pre;
  post.keys[1].hw_sealed = false;
  post.keys[1].range = kNoRange;  // still allocated: not a full release
  Op op{};
  op.kind = OpKind::kSeal;
  op.pkey = 1;
  const auto vs = check_transition(cfg, pre, op, {OpStatus::kOk, 0}, post);
  ASSERT_FALSE(vs.empty());
  EXPECT_EQ(vs.front().invariant, "seal-monotonicity");
}

TEST(ModelInvariants, SealMonotonicityCatchesForeignPermFlip) {
  const ModelConfig cfg = small_config();
  ModelState pre = initial_state(cfg);
  pre.keys[1].allocated = true;
  pre.keys[1].hw_sealed = true;
  pre.keys[1].range = 0;
  pre.keys[1].perm = 0b11;
  ModelState post = pre;
  post.keys[1].perm = 0b00;
  Op op{};  // an op that does not name key 1
  op.kind = OpKind::kMprotect;
  op.pkey = 0;
  const auto vs = check_transition(cfg, pre, op, {OpStatus::kOk, 0}, post);
  ASSERT_FALSE(vs.empty());
  EXPECT_EQ(vs.front().invariant, "seal-monotonicity");
}

// ---------------------------------------------------------------------------
// State codec.
// ---------------------------------------------------------------------------

TEST(ModelState, EncodeDecodeRoundTrips) {
  const ModelConfig cfg = small_config();
  ModelState s = initial_state(cfg);
  s.keys[1].allocated = true;
  s.keys[1].perm = 0b11;
  s.keys[1].hw_sealed = true;
  s.keys[1].range = 1;
  s.pages[1] = {1, 0b01};
  s.keys[1].pages = 1;
  s.keys[0].pages = 1;
  s.cam[0] = {true, 1, kModelRanges[1].start, kModelRanges[1].end};
  s.fifo_next = 1;
  const ModelState back = decode_state(cfg, encode_state(s));
  EXPECT_EQ(back, s);
  EXPECT_EQ(encode_state(back), encode_state(s));
}

// ---------------------------------------------------------------------------
// Exploration: determinism across runs and thread counts, and the clean
// machine explores clean.
// ---------------------------------------------------------------------------

TEST(ModelExplore, BoundedExploreIsCleanAndDeterministic) {
  ModelConfig cfg = small_config();
  cfg.depth = 5;
  const ExploreResult a = explore(cfg);
  EXPECT_TRUE(a.counterexamples.empty());
  EXPECT_FALSE(a.stats.truncated);
  EXPECT_EQ(a.stats.depth, 5u);
  // Golden sizes for the default reduced machine: any change to the op
  // alphabet, the spec, or the hardware shows up here first.
  EXPECT_EQ(a.stats.states, 4842u);
  EXPECT_EQ(a.stats.transitions, 53720u);

  const ExploreResult b = explore(cfg);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.counterexamples, b.counterexamples);

  ModelConfig par = cfg;
  par.threads = 4;
  const ExploreResult c = explore(par);
  EXPECT_EQ(a.stats, c.stats);
  EXPECT_EQ(a.counterexamples, c.counterexamples);
}

TEST(ModelExplore, StateBudgetTruncatesDeterministically) {
  ModelConfig cfg = small_config();
  cfg.max_states = 100;
  const ExploreResult a = explore(cfg);
  EXPECT_TRUE(a.stats.truncated);
  EXPECT_FALSE(a.stats.complete);
  const ExploreResult b = explore(cfg);
  EXPECT_EQ(a.stats, b.stats);
}

// ---------------------------------------------------------------------------
// Mutation self-test: every deliberately broken machine/spec variant is
// caught, and each checked identifier is covered by at least one mutation.
// ---------------------------------------------------------------------------

struct MutationCase {
  Mutation mutation;
  // One identifier that must appear among the counterexamples ("divergence"
  // for spec/machine splits, else the invariant name).
  const char* expected;
};

// gtest lists each case with its printed parameter, and the ctest names
// are built from that listing: print the mutation's name, not the raw
// bytes of the struct (a pointer among them), so the names are stable.
void PrintTo(const MutationCase& c, std::ostream* os) {
  *os << mutation_name(c.mutation);
}

class ModelMutationTest : public ::testing::TestWithParam<MutationCase> {};

TEST_P(ModelMutationTest, BrokenVariantIsCaught) {
  ModelConfig cfg = small_config();
  cfg.depth = 7;
  cfg.mutation = GetParam().mutation;
  const ExploreResult res = explore(cfg);
  ASSERT_FALSE(res.counterexamples.empty())
      << mutation_name(cfg.mutation) << " explored clean";
  std::set<std::string> caught;
  for (const auto& ce : res.counterexamples) {
    caught.insert(ce.kind == "divergence" ? ce.kind : ce.invariant);
    // Every counterexample must replay to the same finding.
    const Trace t = make_trace(cfg, ce);
    EXPECT_EQ(verify_trace(t), "") << mutation_name(cfg.mutation);
  }
  EXPECT_TRUE(caught.count(GetParam().expected) != 0)
      << mutation_name(cfg.mutation) << " missed " << GetParam().expected;
}

INSTANTIATE_TEST_SUITE_P(
    AllMutations, ModelMutationTest,
    ::testing::Values(
        MutationCase{Mutation::kSkipFreeClear, "fuse-coherence"},
        MutationCase{Mutation::kSkipDrainScrub, "fuse-coherence"},
        MutationCase{Mutation::kEagerFreeClear, "seal-monotonicity"},
        MutationCase{Mutation::kForgetDirty, "lazy-free-drain"},
        MutationCase{Mutation::kSkipSealedNeighbourMerge,
                     "seal-monotonicity"},
        MutationCase{Mutation::kIgnoreSealViolation, "divergence"},
        MutationCase{Mutation::kRefillWrongRange, "cam-coherence"},
        MutationCase{Mutation::kIgnorePkeyOnAccess,
                     "permission-intersection"},
        MutationCase{Mutation::kSpecForgetDirty, "divergence"}),
    [](const auto& info) {
      std::string name = mutation_name(info.param.mutation);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Counterexample-to-regression pipeline: committed traces replay
// byte-for-byte and reproduce their recorded finding.
// ---------------------------------------------------------------------------

std::vector<std::filesystem::path> committed_traces() {
  const std::filesystem::path dir =
      std::filesystem::path(SEALPK_SOURCE_DIR) / "tests" / "model_traces";
  std::vector<std::filesystem::path> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ModelTraces, CommittedTracesReplayByteForByte) {
  const auto paths = committed_traces();
  ASSERT_GE(paths.size(), 5u);
  for (const auto& path : paths) {
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    const auto trace = parse_trace(buf.str(), &error);
    ASSERT_TRUE(trace.has_value()) << path << ": " << error;
    // Canonical form: parse + rewrite reproduces the committed bytes.
    EXPECT_EQ(trace_to_json(*trace), buf.str()) << path;
    EXPECT_EQ(verify_trace(*trace), "") << path;
  }
}

TEST(ModelTraces, KernelFreeSealLeakRegression) {
  // The bug the checker found in sys_pkey_free: freeing a perm-sealed key
  // with no pages skipped the SealReg/CAM scrub, leaking hardware seal
  // state to the key's next owner. The committed trace pins the broken
  // behaviour under the skip-free-clear mutation; the same script must
  // replay clean against the fixed machine.
  const std::filesystem::path path =
      std::filesystem::path(SEALPK_SOURCE_DIR) / "tests" / "model_traces" /
      "kernel-free-seal-leak-divergence.json";
  std::ifstream in(path);
  ASSERT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto trace = parse_trace(buf.str(), nullptr);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->mutation, Mutation::kSkipFreeClear);
  EXPECT_EQ(verify_trace(*trace), "");

  Trace fixed = *trace;
  fixed.mutation = Mutation::kNone;
  fixed.kind = "clean";
  fixed.invariant.clear();
  fixed.message.clear();
  fixed.op_index = 0;
  EXPECT_EQ(verify_trace(fixed), "");
}

// ---------------------------------------------------------------------------
// Trace codec.
// ---------------------------------------------------------------------------

TEST(ModelTraces, MakeTraceRoundTripsThroughJson) {
  ModelConfig cfg = small_config();
  cfg.mutation = Mutation::kRefillWrongRange;
  Counterexample ce;
  Op alloc{};
  alloc.kind = OpKind::kAlloc;
  alloc.perm = 0b11;
  Op seal{};
  seal.kind = OpKind::kPermSeal;
  seal.pkey = 1;
  seal.range = 1;
  ce.ops = {alloc, seal};
  ce.kind = "divergence";
  ce.message = "state differs after perm_seal(pkey=1, range=1)";
  const Trace t = make_trace(cfg, ce);
  EXPECT_EQ(t.op_index, 1u);

  const std::string json = trace_to_json(t);
  std::string error;
  const auto back = parse_trace(json, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->ops, t.ops);
  EXPECT_EQ(back->mutation, t.mutation);
  EXPECT_EQ(back->kind, t.kind);
  EXPECT_EQ(back->message, t.message);
  EXPECT_EQ(trace_to_json(*back), json);
}

TEST(ModelTraces, ParserRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(parse_trace("", &error).has_value());
  EXPECT_FALSE(parse_trace("{", &error).has_value());
  EXPECT_FALSE(parse_trace("[]", &error).has_value());
  EXPECT_FALSE(parse_trace("{\"schema\": \"bogus\"}", &error).has_value());
  // Valid JSON, wrong shape: op kind unknown.
  const std::string bad_op =
      "{\"schema\": \"sealpk-model-trace-v1\", \"pkeys\": 2, \"pages\": 2,"
      " \"cam\": 2, \"mutation\": \"none\", \"expect\": {\"kind\":"
      " \"clean\", \"invariant\": \"\", \"op_index\": 0, \"message\":"
      " \"\"}, \"ops\": [{\"op\": \"frobnicate\"}]}";
  EXPECT_FALSE(parse_trace(bad_op, &error).has_value());
  EXPECT_NE(error.find("frobnicate"), std::string::npos);
  // Hostile depth is a parse error from the shared reader.
  EXPECT_FALSE(parse_trace(std::string(200'000, '['), &error).has_value());
  EXPECT_NE(error.find("json parse error"), std::string::npos) << error;
  // Numbers are read as doubles; an integer field takes only integral
  // values in range, and a refusal is an error, never an exception.
  const auto with_pkeys = [](const std::string& pkeys) {
    return "{\"schema\": \"sealpk-model-trace-v1\", \"pkeys\": " + pkeys +
           ", \"pages\": 2, \"cam\": 2, \"mutation\": \"none\", \"expect\":"
           " {\"kind\": \"clean\", \"invariant\": \"\", \"op_index\": 0,"
           " \"message\": \"\"}, \"ops\": []}";
  };
  for (const char* pkeys :
       {"99999999999999999999999", "33", "-1", "2.5", "1e999", "-1e999"}) {
    error.clear();
    EXPECT_FALSE(parse_trace(with_pkeys(pkeys), &error).has_value()) << pkeys;
    EXPECT_EQ(error, "missing or invalid field \"pkeys\"") << pkeys;
  }
  // An integral spelling parses; the canonical rewrite differs from it, so
  // `sealpk-model repro` still refuses such a file as non-canonical.
  const auto two = parse_trace(with_pkeys("2.0"), &error);
  ASSERT_TRUE(two.has_value()) << error;
  EXPECT_EQ(two->num_pkeys, 2u);
  EXPECT_NE(trace_to_json(*two), with_pkeys("2.0"));
}

// ---------------------------------------------------------------------------
// Replay: a harness-check failure (broken machine wedging the harness) is
// reported, not thrown.
// ---------------------------------------------------------------------------

TEST(ModelReplay, ReplayReportsFirstFailingOp) {
  ModelConfig cfg = small_config();
  cfg.mutation = Mutation::kForgetDirty;
  Op alloc{};
  alloc.kind = OpKind::kAlloc;
  Op touch{};
  touch.kind = OpKind::kMprotect;
  touch.pkey = 1;
  touch.page = 0;
  touch.prot = 0b11;
  Op free_op{};
  free_op.kind = OpKind::kFree;
  free_op.pkey = 1;
  const ReplayResult r = replay(cfg, {alloc, touch, free_op});
  ASSERT_TRUE(r.failed);
  EXPECT_EQ(r.op_index, 2u);
  ASSERT_FALSE(r.findings.empty());
  EXPECT_EQ(r.findings.front().kind, "divergence");
}

}  // namespace
}  // namespace sealpk::model
