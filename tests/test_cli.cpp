// The shared command-line layer of the `sealpk` commands (tools/cli.h):
// strict value parsing per target kind, the flag table, generated usage,
// and the shared flag groups.
#include "cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace sealpk::cli {
namespace {

template <typename T>
void expect_accepts(const std::vector<std::pair<std::string, T>>& cases) {
  for (const auto& [text, want] : cases) {
    EXPECT_EQ(parse<T>(text), want) << "'" << text << "'";
  }
}

template <typename T>
void expect_rejects(const std::vector<std::string>& cases) {
  for (const std::string& text : cases) {
    EXPECT_THROW(parse<T>(text), BadValue) << "'" << text << "'";
  }
}

TEST(CliParse, Unsigned32) {
  expect_accepts<unsigned>({{"0", 0u},
                            {"42", 42u},
                            {"0x10", 16u},
                            {"010", 8u},
                            {"4294967295", 4294967295u},
                            {"0xffffffff", 4294967295u}});
  expect_rejects<unsigned>({"", "abc", "12x", "-1", "+1", " 5", "0x",
                            "4294967296", "0x100000000", "1e3", "1.0"});
}

TEST(CliParse, Unsigned64) {
  expect_accepts<u64>({{"0", 0},
                       {"8000000000", 8'000'000'000ULL},
                       {"0x4000", 0x4000},
                       {"18446744073709551615", ~u64{0}},
                       {"0xffffffffffffffff", ~u64{0}}});
  expect_rejects<u64>({"", "banana", "7x", "-1", "+7", "18446744073709551616",
                       "0x10000000000000000", "1e3", "2.5"});
}

TEST(CliParse, Signed64) {
  expect_accepts<i64>({{"0", 0},
                       {"-5", -5},
                       {"+5", 5},
                       {"0x10", 16},
                       {"9223372036854775807", INT64_MAX},
                       {"-9223372036854775808", INT64_MIN}});
  expect_rejects<i64>({"", "-", "--1", "5-", "9223372036854775808",
                       "-9223372036854775809", "1e3", "1.5"});
}

TEST(CliParse, Double) {
  expect_accepts<double>({{"2e-5", 2e-5},
                          {"0.3", 0.3},
                          {"1", 1.0},
                          {"-0.5", -0.5},
                          {"0x1p-4", 0.0625}});
  expect_rejects<double>(
      {"", "nan", "NAN", "inf", "-inf", "infinity", "1e-4x", " 1", "1e999"});
}

TEST(CliParse, CommaLists) {
  EXPECT_EQ(parse<std::vector<std::string>>("a"),
            (std::vector<std::string>{"a"}));
  EXPECT_EQ(parse<std::vector<std::string>>("none,sealpk-*"),
            (std::vector<std::string>{"none", "sealpk-*"}));
  EXPECT_EQ(parse<std::vector<u64>>("192,0x280"),
            (std::vector<u64>{192, 640}));
  // One rule everywhere: an empty list or an empty item is malformed.
  expect_rejects<std::vector<std::string>>({"", ",", "a,,b", ",a", "a,"});
  expect_rejects<std::vector<u64>>({"", "192,,640", "192,x", "192,"});
}

TEST(CliParse, FaultKindsAndRates) {
  using fault::FaultKind;
  EXPECT_EQ(parse_kinds("pkr"), kind_bit(FaultKind::kPkrBitFlip));
  EXPECT_EQ(parse_kinds("pkr,tlb"), kind_bit(FaultKind::kPkrBitFlip) |
                                        kind_bit(FaultKind::kTlbCorrupt));
  EXPECT_EQ(parse_kinds("all"), fault::kAllFaultKinds);
  for (const char* bad : {"", "pkr,,tlb", "pkr,", "bogus", "pkr,bogus"}) {
    EXPECT_THROW(parse_kinds(bad), BadValue) << bad;
  }
  EXPECT_EQ(kind_names(" "), "pkr tlb pte cam-drop cam-dup trap all");

  EXPECT_EQ(parse_rate("0"), 0.0);
  EXPECT_EQ(parse_rate("1"), 1.0);
  EXPECT_EQ(parse_rate("2e-5"), 2e-5);
  // Exactly the rates a snapshot's embedded config may not carry.
  for (const char* bad : {"2", "-0.1", "1e-30", "nan", "1e-4x"}) {
    EXPECT_THROW(parse_rate(bad), BadValue) << bad;
  }
}

// argv for Tool::parse; element 0 is the program name.
struct Argv {
  explicit Argv(std::vector<std::string> a) : args(std::move(a)) {
    args.insert(args.begin(), "sealpk-test");
    for (std::string& s : args) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> args;
  std::vector<char*> ptrs;
};

struct Fixture {
  bool quiet = false;
  unsigned threads = 1;
  u64 sessions = 7;
  std::optional<u64> at;
  std::string out;
  JsonSink json;
  ShadowStack ss;
  Tool tool{"sealpk-test", {"run [options]"}};

  Fixture() {
    tool.add(cli::quiet(&quiet));
    tool.add(cli::threads(&threads, "workers"));
    tool.add(at_least("--sessions", &sessions, 1, "<n>", "sessions"));
    tool.add(value("--at", &at, "<instret>", "point"));
    tool.add(value("--out", &out, "<file>", "output"));
    tool.add(json_sink(&json, "report"));
    add_shadow_stack(tool, &ss);
  }

  std::vector<std::string> parse(std::vector<std::string> args) {
    Argv a(std::move(args));
    return tool.parse(a.argc(), a.argv());
  }

  std::string error(std::vector<std::string> args) {
    try {
      parse(std::move(args));
    } catch (const UsageError& e) {
      return e.what();
    }
    return "(accepted)";
  }
};

TEST(CliTool, AppliesFlagsAndKeepsPositionalsInOrder) {
  Fixture f;
  EXPECT_EQ(f.parse({"run", "-q", "a", "--threads=0x4", "--at=20000",
                     "--ss=sealpk-wr", "--seal", "b", "--sessions=2048"}),
            (std::vector<std::string>{"run", "a", "b"}));
  EXPECT_TRUE(f.quiet);
  EXPECT_EQ(f.threads, 4u);
  EXPECT_EQ(f.at, std::optional<u64>(20000));
  EXPECT_EQ(f.ss.kind, passes::ShadowStackKind::kSealPkWr);
  EXPECT_TRUE(f.ss.seal);
  EXPECT_EQ(f.sessions, 2048u);
  Fixture g;
  g.parse({"--quiet"});
  EXPECT_TRUE(g.quiet);
  EXPECT_FALSE(g.at.has_value());
}

TEST(CliTool, RejectsMalformedCommandLines) {
  Fixture f;
  EXPECT_EQ(f.error({"--threads=banana"}),
            "bad value for --threads: 'banana'");
  EXPECT_EQ(f.error({"--threads=-1"}), "bad value for --threads: '-1'");
  EXPECT_EQ(f.error({"--threads=4294967296"}),
            "bad value for --threads: '4294967296'");
  EXPECT_EQ(f.error({"--sessions=0"}), "bad value for --sessions: '0'");
  EXPECT_EQ(f.error({"--at=1e3"}), "bad value for --at: '1e3'");
  EXPECT_EQ(f.error({"--ss=shadow"}), "bad value for --ss: 'shadow'");
  EXPECT_EQ(f.error({"--bogus"}), "unknown flag '--bogus'");
  EXPECT_EQ(f.error({"-"}), "unknown flag '-'");
  EXPECT_EQ(f.error({"--seal=1"}), "--seal takes no value");
  EXPECT_NE(f.error({"--threads"}).find("--threads needs a value"),
            std::string::npos);
}

TEST(CliTool, JsonSinkVersusPathFlag) {
  Fixture bare;
  bare.parse({"--json"});
  EXPECT_TRUE(bare.json.on);
  EXPECT_EQ(bare.json.path, "");
  Fixture file;
  file.parse({"--json=out.json"});
  EXPECT_TRUE(file.json.on);
  EXPECT_EQ(file.json.path, "out.json");
  Fixture none;
  none.parse({});
  EXPECT_FALSE(none.json.on);

  // Tools without a stdout report keep --json=<path> as a plain path flag,
  // so a bare --json stays a usage error there.
  std::string path;
  Tool tool{"sealpk-test", {"run"}};
  tool.add(value("--json", &path, "<path>", "report"));
  Argv a({"--json"});
  EXPECT_THROW(tool.parse(a.argc(), a.argv()), UsageError);
  Argv b({"--json=x.json"});
  tool.parse(b.argc(), b.argv());
  EXPECT_EQ(path, "x.json");
}

TEST(CliTool, UsageNamesEveryFlag) {
  Fixture f;
  Rollback rb;
  fault::FaultPlan plan;
  add_rollback(f.tool, &rb);
  add_fault_plan(f.tool, plan_targets(&plan));
  const std::string usage = f.tool.usage();
  EXPECT_EQ(usage.rfind("usage: sealpk-test run [options]\n", 0), 0u);
  for (const Flag& flag : f.tool.flags) {
    EXPECT_NE(usage.find(flag.name), std::string::npos) << flag.name;
    EXPECT_NE(usage.find(flag.help), std::string::npos) << flag.name;
  }
  EXPECT_NE(usage.find("-q, --quiet"), std::string::npos);
  EXPECT_NE(usage.find("--json[=<path>]"), std::string::npos);
  EXPECT_NE(usage.find("--ss=<none|inline|func|sealpk-wr|sealpk-rdwr|"
                       "mprotect>"),
            std::string::npos);
}

TEST(CliTool, TakeMode) {
  std::vector<std::string> args = {"qsort", "run", "sha"};
  EXPECT_EQ(take_mode(args, {{"run", 2, 2}, {"sweep"}}), "run");
  EXPECT_EQ(args, (std::vector<std::string>{"qsort", "sha"}));
  std::vector<std::string> none = {"qsort"};
  EXPECT_THROW(take_mode(none, {{"run"}, {"sweep"}}), UsageError);
  std::vector<std::string> two = {"run", "sweep"};
  EXPECT_THROW(take_mode(two, {{"run"}, {"sweep"}}), UsageError);
  // Each mode takes its own count of other arguments; after the mode, a
  // word that spells another mode is one of them.
  const auto diff = [](std::vector<std::string> a) {
    return take_mode(a, {{"diff", 2, 2}, {"run", 1, kMany}, {"list"}});
  };
  EXPECT_EQ(diff({"diff", "a", "b"}), "diff");
  EXPECT_THROW(diff({"diff", "a"}), UsageError);
  EXPECT_THROW(diff({"diff", "a", "b", "c"}), UsageError);
  EXPECT_EQ(diff({"run", "a", "b", "c"}), "run");
  EXPECT_THROW(diff({"run"}), UsageError);
  EXPECT_THROW(diff({"list", "a"}), UsageError);
  EXPECT_EQ(diff({"run", "list"}), "run");
}

TEST(CliTool, RunMapsOutcomesToExitStatus) {
  Fixture f;
  Argv ok({"run"});
  EXPECT_EQ(run(f.tool, ok.argc(), ok.argv(),
                [](std::vector<std::string>& args) {
                  return args.size() == 1 ? 1 : 0;
                }),
            1);
  Argv bad({"--threads=banana"});
  EXPECT_EQ(run(f.tool, bad.argc(), bad.argv(),
                [](std::vector<std::string>&) { return 0; }),
            2);
  Argv any({});
  EXPECT_EQ(run(f.tool, any.argc(), any.argv(),
                [](std::vector<std::string>&) -> int { throw Exit{3}; }),
            3);
  EXPECT_EQ(run(f.tool, any.argc(), any.argv(),
                [](std::vector<std::string>&) -> int {
                  throw std::logic_error("boom");
                }),
            2);
}

TEST(CliGroups, FaultPlanEnableRule) {
  fault::FaultPlan plan;
  FaultTargets targets = plan_targets(&plan);
  targets.kinds = nullptr;
  targets.enable = &plan.enabled;
  Tool tool{"sealpk-test", {"save"}};
  add_fault_plan(tool, targets);
  Argv budget({"--max-faults=4"});
  tool.parse(budget.argc(), budget.argv());
  EXPECT_FALSE(plan.enabled);  // the budget alone does not arm the plan
  EXPECT_EQ(plan.max_faults, 4u);
  Argv rate({"--chaos-rate=5e-5"});
  tool.parse(rate.argc(), rate.argv());
  EXPECT_TRUE(plan.enabled);
  EXPECT_EQ(plan.rate, 5e-5);
  Argv kinds({"--kinds=pkr"});
  EXPECT_THROW(tool.parse(kinds.argc(), kinds.argv()), UsageError);
}

TEST(CliGroups, RollbackConfig) {
  sim::MachineConfig base;
  sim::MachineConfig off = base;
  Rollback{}.apply(&off);
  EXPECT_EQ(off.checkpoint_interval, base.checkpoint_interval);
  EXPECT_EQ(off.max_rollbacks, base.max_rollbacks);
  EXPECT_TRUE(off.kernel.save_pkr_on_switch);

  sim::MachineConfig on;
  Rollback{.on = true, .no_pkr_save = true, .max_rollbacks = 8}.apply(&on);
  EXPECT_EQ(on.checkpoint_interval, 25'000u);
  EXPECT_EQ(on.max_rollbacks, 8u);
  EXPECT_FALSE(on.kernel.save_pkr_on_switch);

  sim::MachineConfig interval;
  Rollback{.interval = 5000}.apply(&interval);
  EXPECT_EQ(interval.checkpoint_interval, 5000u);
  EXPECT_EQ(interval.max_rollbacks, 3u);
}

TEST(CliSelfcheck, RecordsMatch) {
  EXPECT_TRUE(records_match("a\nb\n", "a\nb\n", 4));
  EXPECT_FALSE(records_match("a\nb\n", "a\nc\n", 4));
  EXPECT_FALSE(records_match("a\nb\n", "a\n", 4));
}

TEST(CliSelfcheck, SweepRunsOnceWithoutSelfcheck) {
  std::vector<unsigned> runs;
  testing::internal::CaptureStdout();
  const int rc = sweep(
      {.threads = 4},
      [&](unsigned threads) {
        runs.push_back(threads);
        return std::string("a\n");
      },
      std::identity{}, [](const std::string&) { return 3; });
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
  EXPECT_EQ(rc, 3);
  EXPECT_EQ(runs, std::vector<unsigned>{4});
}

TEST(CliSelfcheck, SweepMatchPrintsOneLineAndKeepsTheStatus) {
  for (const int status : {0, 1}) {
    std::vector<unsigned> runs;
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int rc = sweep(
        {.threads = 4, .selfcheck = true},
        [&](unsigned threads) {
          runs.push_back(threads);
          return std::string("a\nb\n");
        },
        std::identity{}, [status](const std::string&) { return status; });
    EXPECT_EQ(testing::internal::GetCapturedStdout(),
              "selfcheck: serial re-run byte-identical\n");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(rc, status);
    EXPECT_EQ(runs, (std::vector<unsigned>{4, 1}));
  }
  // -q keeps the verdict and drops the line.
  testing::internal::CaptureStdout();
  EXPECT_EQ(sweep({.threads = 4, .selfcheck = true, .quiet = true},
                  [](unsigned) { return std::string("a"); }, std::identity{},
                  [](const std::string&) { return 0; }),
            0);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
}

// Records that are the stdout report come first, then the selfcheck line,
// then whatever the report writer prints.
TEST(CliSelfcheck, SweepPrintsRecordsBeforeTheVerdictLine) {
  testing::internal::CaptureStdout();
  const int rc = sweep(
      {.threads = 2, .selfcheck = true, .print_records = true},
      [](unsigned) { return std::string("cell 0\n"); }, std::identity{},
      [](const std::string&) {
        std::printf("report\n");
        return 0;
      });
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "cell 0\nselfcheck: serial re-run byte-identical\nreport\n");
  EXPECT_EQ(rc, 0);
}

// The mutation every tool's selfcheck must catch: a record that depends on
// the thread count.
TEST(CliSelfcheck, SweepMismatchFailsAfterTheReportIsWritten) {
  std::string report;
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = sweep(
      {.threads = 4, .selfcheck = true},
      [](unsigned threads) {
        return "cell 0\ncell 1 worker " + std::to_string(threads) + "\n";
      },
      std::identity{},
      [&report](const std::string& records) {
        report = records;
        return 0;
      });
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
  EXPECT_EQ(rc, 1);
  EXPECT_EQ(report, "cell 0\ncell 1 worker 4\n");
  EXPECT_NE(err.find("selfcheck FAILED: line 2 differs"), std::string::npos)
      << err;
  EXPECT_NE(err.find("4 threads: cell 1 worker 4"), std::string::npos) << err;
  EXPECT_NE(err.find("serial:    cell 1 worker 1"), std::string::npos) << err;
}

}  // namespace
}  // namespace sealpk::cli
