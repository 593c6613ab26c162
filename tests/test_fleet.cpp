// Fleet batch-execution engine tests: the determinism contract (per-job
// canonical records byte-identical for any thread count), image-cache
// sharing (one build per distinct workload x variant x scale), per-job
// timeout / crash containment (a failing job harms only itself), and
// aggregation (a fleet job == the serial reference run below).
#include <gtest/gtest.h>

#include <atomic>
#include <optional>

#include "fleet/engine.h"
#include "fleet/report.h"

namespace sealpk {
namespace {

const wl::Workload& named(const char* name, wl::Suite suite) {
  const wl::Workload* w = wl::find_workload(suite, name);
  SEALPK_CHECK_MSG(w != nullptr, "unknown workload " << name);
  return *w;
}

fleet::JobSpec run_spec(u32 id, const wl::Workload& w,
                        passes::ShadowStackKind ss, u64 scale = 1) {
  fleet::JobSpec spec;
  spec.id = id;
  spec.workload = &w;
  spec.ss = ss;
  spec.scale = scale;
  return spec;
}

struct VariantResult {
  passes::ShadowStackKind kind;
  u64 cycles = 0;
  u64 instructions = 0;
  u64 calls = 0;          // jal/jalr-with-ra retired
  u64 pages_mapped = 0;   // resident set at exit
};

// The serial reference for one (workload, variant) cell: a fresh machine,
// checksum verified against the golden model (throws CheckError on
// mismatch). scale defaults to the workload's bench_scale.
VariantResult run_cell(const wl::Workload& workload,
                       passes::ShadowStackKind kind,
                       std::optional<u64> scale_opt = std::nullopt) {
  const u64 scale = scale_opt.value_or(workload.bench_scale);
  isa::Program prog = workload.build(scale);
  passes::ShadowStackOptions opts;
  opts.kind = kind;
  passes::apply_shadow_stack(prog, opts);

  sim::Machine machine{sim::MachineConfig{}};
  const int pid = machine.load(prog.link());
  const sim::RunOutcome outcome = machine.run(8'000'000'000ULL);
  SEALPK_CHECK_MSG(outcome.completed,
                   workload.name << " did not finish under "
                                 << passes::shadow_stack_kind_name(kind));
  SEALPK_CHECK_MSG(machine.exit_code(pid) == 0,
                   workload.name << " exited "
                                 << machine.exit_code(pid) << " under "
                                 << passes::shadow_stack_kind_name(kind));
  const auto& reports = machine.kernel().reports();
  SEALPK_CHECK_MSG(reports.size() == 1 &&
                       reports[0] == workload.golden(scale),
                   workload.name << " checksum mismatch under "
                                 << passes::shadow_stack_kind_name(kind));
  VariantResult result{kind, outcome.cycles, outcome.instructions,
                       machine.hart().stats().calls,
                       machine.kernel().process(pid).aspace->pages_mapped()};
  return result;
}

std::vector<std::string> records_of(const std::vector<fleet::JobResult>& rs) {
  std::vector<std::string> out;
  out.reserve(rs.size());
  for (const auto& r : rs) out.push_back(fleet::canonical_record(r));
  return out;
}

// --- determinism ------------------------------------------------------------

TEST(Fleet, RunRecordsByteIdenticalAcrossThreadCounts) {
  const char* names[] = {"qsort", "sha", "bitcount", "dijkstra", "FFT"};
  const passes::ShadowStackKind kinds[] = {
      passes::ShadowStackKind::kNone, passes::ShadowStackKind::kSealPkWr,
      passes::ShadowStackKind::kMprotect};
  std::vector<fleet::JobSpec> specs;
  for (const char* name : names) {
    for (const auto kind : kinds) {
      specs.push_back(run_spec(static_cast<u32>(specs.size()),
                               named(name, wl::Suite::kMiBench), kind));
    }
  }
  fleet::ImageCache cache1, cache4;
  fleet::FleetOptions serial, pooled;
  serial.threads = 1;
  pooled.threads = 4;
  const auto a = records_of(fleet::run_jobs(specs, cache1, serial));
  const auto b = records_of(fleet::run_jobs(specs, cache4, pooled));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "record " << i << " depends on thread count";
  }
  for (const std::string& rec : a) {
    EXPECT_NE(rec.find("\"ok\": true"), std::string::npos) << rec;
  }
}

TEST(Fleet, TracedRecordsAndBlobsByteIdenticalAcrossThreadCounts) {
  const char* names[] = {"qsort", "sha", "bitcount"};
  std::vector<fleet::JobSpec> specs;
  for (const char* name : names) {
    fleet::JobSpec spec = run_spec(static_cast<u32>(specs.size()),
                                   named(name, wl::Suite::kMiBench),
                                   passes::ShadowStackKind::kSealPkWr);
    spec.perm_seal = true;
    spec.config.trace.enabled = true;
    spec.config.trace.sample_interval = 512;
    spec.keep_trace_blob = true;
    specs.push_back(spec);
  }
  fleet::ImageCache cache1, cache4;
  fleet::FleetOptions serial, pooled;
  serial.threads = 1;
  pooled.threads = 4;
  const auto a = fleet::run_jobs(specs, cache1, serial);
  const auto b = fleet::run_jobs(specs, cache4, pooled);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(fleet::canonical_record(a[i]), fleet::canonical_record(b[i]));
    ASSERT_TRUE(a[i].has_trace);
    EXPECT_GT(a[i].trace.wrpkr, 0u);
    EXPECT_GT(a[i].trace.samples, 0u);
    ASSERT_FALSE(a[i].trace_blob.empty());
    EXPECT_EQ(a[i].trace_blob, b[i].trace_blob)
        << "trace blob " << i << " depends on thread count";
    // The trace block is part of the canonical record for traced jobs.
    EXPECT_NE(fleet::canonical_record(a[i]).find("\"trace\""),
              std::string::npos);
  }
}

TEST(Fleet, ChaosDiffRecordsByteIdenticalAcrossThreadCounts) {
  const char* names[] = {"qsort", "sha", "bitcount", "stringsearch"};
  std::vector<fleet::JobSpec> specs;
  for (const char* name : names) {
    fleet::JobSpec spec = run_spec(static_cast<u32>(specs.size()),
                                   named(name, wl::Suite::kMiBench),
                                   passes::ShadowStackKind::kNone);
    spec.kind = fleet::JobKind::kChaosDiff;
    spec.budget = 400'000'000;
    spec.config.fault_plan.enabled = true;
    spec.config.fault_plan.seed = 7;
    spec.config.fault_plan.rate = 1e-4;
    specs.push_back(std::move(spec));
  }
  fleet::ImageCache cache1, cache4;
  fleet::FleetOptions serial, pooled;
  serial.threads = 1;
  pooled.threads = 4;
  const auto a = records_of(fleet::run_jobs(specs, cache1, serial));
  const auto b = records_of(fleet::run_jobs(specs, cache4, pooled));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "chaos record " << i
                          << " depends on thread count";
  }
}

// --- image cache ------------------------------------------------------------

TEST(Fleet, ImageCacheBuildsOncePerDistinctKey) {
  const wl::Workload& qsort = named("qsort", wl::Suite::kMiBench);
  const wl::Workload& sha = named("sha", wl::Suite::kMiBench);
  // 8 jobs over 3 distinct (workload, variant, scale) keys.
  std::vector<fleet::JobSpec> specs;
  for (int dup = 0; dup < 3; ++dup) {
    specs.push_back(run_spec(static_cast<u32>(specs.size()), qsort,
                             passes::ShadowStackKind::kNone));
  }
  for (int dup = 0; dup < 3; ++dup) {
    specs.push_back(run_spec(static_cast<u32>(specs.size()), qsort,
                             passes::ShadowStackKind::kSealPkWr));
  }
  for (int dup = 0; dup < 2; ++dup) {
    specs.push_back(run_spec(static_cast<u32>(specs.size()), sha,
                             passes::ShadowStackKind::kNone));
  }
  fleet::ImageCache cache;
  fleet::FleetOptions opts;
  opts.threads = 4;
  const auto results = fleet::run_jobs(specs, cache, opts);
  EXPECT_EQ(cache.builds(), 3u);  // == unique images, not jobs
  // Duplicate jobs share the image and must agree bit-for-bit.
  for (int i : {1, 2}) {
    EXPECT_EQ(results[0].cycles, results[i].cycles);
    EXPECT_EQ(results[0].instructions, results[i].instructions);
    EXPECT_EQ(results[0].reports, results[i].reports);
  }
  EXPECT_EQ(results[3].cycles, results[4].cycles);
  EXPECT_EQ(results[6].cycles, results[7].cycles);
}

TEST(Fleet, ImageCacheSharedByChaosDiffPair) {
  // One differential job = two machines (clean + chaos) but one image.
  fleet::JobSpec spec = run_spec(0, named("qsort", wl::Suite::kMiBench),
                                 passes::ShadowStackKind::kNone);
  spec.kind = fleet::JobKind::kChaosDiff;
  spec.config.fault_plan.enabled = true;
  spec.config.fault_plan.seed = 3;
  fleet::ImageCache cache;
  const auto results = fleet::run_jobs({spec}, cache, {});
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_TRUE(results[0].ok) << results[0].verdict;
}

// --- timeout & crash containment -------------------------------------------

TEST(Fleet, InstructionBudgetTimeoutIsContained) {
  const wl::Workload& qsort = named("qsort", wl::Suite::kMiBench);
  const wl::Workload& sha = named("sha", wl::Suite::kMiBench);
  const wl::Workload& bit = named("bitcount", wl::Suite::kMiBench);
  std::vector<fleet::JobSpec> specs;
  specs.push_back(run_spec(0, qsort, passes::ShadowStackKind::kNone));
  fleet::JobSpec strangled = run_spec(1, sha, passes::ShadowStackKind::kNone);
  strangled.budget = 5'000;  // nowhere near enough to finish
  specs.push_back(std::move(strangled));
  specs.push_back(run_spec(2, bit, passes::ShadowStackKind::kNone));

  fleet::ImageCache cache;
  fleet::FleetOptions opts;
  opts.threads = 3;
  const auto results = fleet::run_jobs(specs, cache, opts);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok) << results[0].verdict;
  EXPECT_TRUE(results[2].ok) << results[2].verdict;
  EXPECT_FALSE(results[1].ok);
  EXPECT_TRUE(results[1].ran);
  EXPECT_FALSE(results[1].completed);
  EXPECT_EQ(results[1].verdict, "timeout: instruction budget exhausted");
  // The budget bounded the work actually done.
  EXPECT_LE(results[1].instructions, 6'000u);
}

TEST(Fleet, MachineCheckKillOnlyFailsItsOwnJob) {
  // Unrecoverable PKR corruption (no trusted shadow to scrub from) kills
  // the victim process with the machine-check exit code; sibling jobs in
  // the same pool must be untouched.
  const wl::Workload& qsort = named("qsort", wl::Suite::kMiBench);
  const wl::Workload& sha = named("sha", wl::Suite::kMiBench);
  std::vector<fleet::JobSpec> specs;
  specs.push_back(run_spec(0, qsort, passes::ShadowStackKind::kNone));
  fleet::JobSpec doomed = run_spec(1, sha, passes::ShadowStackKind::kNone);
  doomed.config.kernel.save_pkr_on_switch = false;
  doomed.config.fault_plan.enabled = true;
  doomed.config.fault_plan.seed = 11;
  doomed.config.fault_plan.rate = 1e-3;
  doomed.config.fault_plan.kinds = fault::kind_bit(fault::FaultKind::kPkrBitFlip);
  specs.push_back(std::move(doomed));
  specs.push_back(run_spec(2, qsort, passes::ShadowStackKind::kSealPkWr));

  fleet::ImageCache cache;
  fleet::FleetOptions opts;
  opts.threads = 3;
  const auto results = fleet::run_jobs(specs, cache, opts);
  EXPECT_TRUE(results[0].ok) << results[0].verdict;
  EXPECT_TRUE(results[2].ok) << results[2].verdict;
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(results[1].exit_code, os::kExitMachineCheck);
  EXPECT_GT(results[1].injected, 0u);
}

// --- aggregation ------------------------------------------------------------

TEST(Fleet, CellResultsMatchTheSerialReference) {
  // A fleet job must reproduce run_cell (the pre-fleet serial driver)
  // bit-for-bit: same cycles, instructions, calls and resident set.
  const wl::Workload& qsort = named("qsort", wl::Suite::kMiBench);
  for (const auto kind : {passes::ShadowStackKind::kNone,
                          passes::ShadowStackKind::kSealPkRdWr,
                          passes::ShadowStackKind::kMprotect}) {
    const VariantResult serial = run_cell(qsort, kind, 1);
    fleet::ImageCache cache;
    const auto results =
        fleet::run_jobs({run_spec(0, qsort, kind)}, cache, {});
    ASSERT_TRUE(results[0].ok) << results[0].verdict;
    EXPECT_EQ(results[0].cycles, serial.cycles);
    EXPECT_EQ(results[0].instructions, serial.instructions);
    EXPECT_EQ(results[0].calls, serial.calls);
    EXPECT_EQ(results[0].pages_mapped, serial.pages_mapped);
  }
}

// --- reports ----------------------------------------------------------------

TEST(Fleet, CanonicalReportsDiffCleanAcrossThreadCounts) {
  std::vector<fleet::JobSpec> specs;
  specs.push_back(run_spec(0, named("qsort", wl::Suite::kMiBench),
                           passes::ShadowStackKind::kNone));
  specs.push_back(run_spec(1, named("sha", wl::Suite::kMiBench),
                           passes::ShadowStackKind::kFunc));
  fleet::ImageCache cache1, cache2;
  fleet::FleetOptions serial, pooled;
  serial.threads = 1;
  pooled.threads = 2;
  const auto a = fleet::run_jobs(specs, cache1, serial);
  const auto b = fleet::run_jobs(specs, cache2, pooled);

  fleet::ReportOptions ra, rb;
  ra.threads = 1;
  rb.threads = 2;
  rb.elapsed_ms = 123.0;  // timing differs; canonical records must not
  std::ostringstream ta, tb;
  fleet::write_report(ta, a, ra);
  fleet::write_report(tb, b, rb);
  std::ostringstream log;
  EXPECT_EQ(fleet::diff_reports(ta.str(), tb.str(), log), 0u) << log.str();

  // A doctored record is caught and reported. Tamper inside the "records"
  // array — totals/geomeans are derived and not part of the contract.
  std::string tampered = tb.str();
  const size_t records = tampered.find("\"records\": [");
  ASSERT_NE(records, std::string::npos);
  const size_t pos = tampered.find("\"cycles\": ", records);
  ASSERT_NE(pos, std::string::npos);
  tampered.insert(pos + 10, 1, '9');
  std::ostringstream log2;
  EXPECT_GT(fleet::diff_reports(ta.str(), tampered, log2), 0u);
}

TEST(Fleet, DiffJsonReportCarriesTheVerdictNotJustTheLog) {
  // `sealpk fleet diff --json` must exit nonzero on divergence exactly like
  // the plain mode; the JSON body is the machine-readable mirror of that
  // verdict. Pin the library layer both CLI paths are built on: the same
  // `diverging` count feeds the exit code and the report, so the two can
  // never disagree.
  std::vector<fleet::JobSpec> specs;
  specs.push_back(run_spec(0, named("qsort", wl::Suite::kMiBench),
                           passes::ShadowStackKind::kNone));
  fleet::ImageCache cache;
  fleet::FleetOptions opts;
  const auto results = fleet::run_jobs(specs, cache, opts);
  fleet::ReportOptions ropts;
  std::ostringstream ta;
  fleet::write_report(ta, results, ropts);

  // Identical reports: zero diverging, and the JSON says identical=true.
  std::ostringstream log0, same;
  const size_t none = fleet::diff_reports(ta.str(), ta.str(), log0);
  EXPECT_EQ(none, 0u);
  fleet::write_diff_report(same, "a.json", "b.json", none, log0.str());
  EXPECT_NE(same.str().find("\"diverging\": 0"), std::string::npos);
  EXPECT_NE(same.str().find("\"identical\": true"), std::string::npos);

  // Tampered report: nonzero diverging (the CLI exit code), and the JSON
  // carries the same count plus identical=false.
  std::string tampered = ta.str();
  const size_t records = tampered.find("\"records\": [");
  ASSERT_NE(records, std::string::npos);
  const size_t pos = tampered.find("\"cycles\": ", records);
  ASSERT_NE(pos, std::string::npos);
  tampered.insert(pos + 10, 1, '9');
  std::ostringstream log1, diff;
  const size_t diverging = fleet::diff_reports(ta.str(), tampered, log1);
  ASSERT_GT(diverging, 0u);
  fleet::write_diff_report(diff, "a.json", "b.json", diverging, log1.str());
  EXPECT_NE(diff.str().find("\"identical\": false"), std::string::npos);
  EXPECT_NE(diff.str().find("\"diverging\": " + std::to_string(diverging)),
            std::string::npos);
}

TEST(Fleet, AggregateSumsAcrossJobs) {
  std::vector<fleet::JobSpec> specs;
  specs.push_back(run_spec(0, named("qsort", wl::Suite::kMiBench),
                           passes::ShadowStackKind::kNone));
  specs.push_back(run_spec(1, named("sha", wl::Suite::kMiBench),
                           passes::ShadowStackKind::kNone));
  fleet::ImageCache cache;
  const auto results = fleet::run_jobs(specs, cache, {});
  const fleet::Aggregate agg = fleet::aggregate(results);
  EXPECT_EQ(agg.jobs, 2u);
  EXPECT_EQ(agg.ok, 2u);
  EXPECT_EQ(agg.failures, 0u);
  EXPECT_EQ(agg.instructions,
            results[0].instructions + results[1].instructions);
  EXPECT_EQ(agg.cycles, results[0].cycles + results[1].cycles);
  // No (baseline, variant) pair: the geomean and the headline are negative.
  EXPECT_LT(fleet::gmean_overhead(results, wl::Suite::kMiBench,
                                  passes::ShadowStackKind::kMprotect),
            0.0);
  EXPECT_LT(fleet::gmean_overhead(results, wl::Suite::kSpec2000,
                                  passes::ShadowStackKind::kMprotect),
            0.0);
  EXPECT_LT(fleet::mprotect_speedup(results), 0.0);
}

TEST(Fleet, LoadRefusalIsAFailedJobNotACrash) {
  // With no trusted gates, the SealPK shadow-stack runtime's WRPKR sites
  // are error findings and kEnforce refuses the image at the loader gate.
  // The fleet must record that as a cleanly-failed job, not a host crash,
  // and a sibling job sharing the pool stays healthy.
  fleet::JobSpec refused = run_spec(0, named("qsort", wl::Suite::kMiBench),
                                    passes::ShadowStackKind::kSealPkWr);
  refused.config.verify_policy = analysis::LoadVerifyPolicy::kEnforce;
  refused.config.verify_options.trusted_gates.clear();
  fleet::JobSpec healthy = run_spec(1, named("sha", wl::Suite::kMiBench),
                                    passes::ShadowStackKind::kNone);
  fleet::ImageCache cache;
  fleet::FleetOptions opts;
  opts.threads = 2;
  const auto results = fleet::run_jobs({refused, healthy}, cache, opts);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_FALSE(results[0].ran);
  EXPECT_EQ(results[0].verdict, "load refused");
  EXPECT_EQ(results[0].exit_code, sim::Machine::kNoExitCode);
  EXPECT_TRUE(results[1].ok) << results[1].verdict;
}

}  // namespace
}  // namespace sealpk
