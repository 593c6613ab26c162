// Observability subsystem tests (src/obs): event blob round-trips and
// damage rejection, ring-buffer capture, metric aggregation reconciled
// against MachineStats, the zero-perturbation contract (tracing on changes
// nothing the guest can see), determinism across host threads and across a
// snapshot save/restore boundary, and the exporters.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "common/check.h"
#include "common/json_parse.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/slo.h"
#include "passes/shadow_stack.h"
#include "sim/machine.h"
#include "sim/stats.h"
#include "snapshot/snapshot.h"
#include "workloads/workload.h"

namespace sealpk {
namespace {

const wl::Workload& workload_named(const char* name) {
  for (const auto& w : wl::all_workloads()) {
    if (std::string(name) == w.name) return w;
  }
  SEALPK_CHECK_MSG(false, "unknown workload " << name);
  std::abort();
}

isa::Image sealed_qsort_image() {
  const wl::Workload& w = workload_named("qsort");
  isa::Program prog = w.build(w.test_scale);
  passes::ShadowStackOptions ss;
  ss.kind = passes::ShadowStackKind::kSealPkWr;
  ss.perm_seal = true;
  passes::apply_shadow_stack(prog, ss);
  return prog.link();
}

obs::TraceConfig traced(u64 sample_interval = 0, u64 ring = 0) {
  obs::TraceConfig t;
  t.enabled = true;
  t.sample_interval = sample_interval;
  t.ring_capacity = ring;
  return t;
}

// --- event / blob encoding --------------------------------------------------

TEST(ObsEvent, Log2BucketBoundaries) {
  EXPECT_EQ(obs::log2_bucket(0), 0u);
  EXPECT_EQ(obs::log2_bucket(1), 0u);
  EXPECT_EQ(obs::log2_bucket(2), 1u);
  EXPECT_EQ(obs::log2_bucket(3), 1u);
  EXPECT_EQ(obs::log2_bucket(4), 2u);
  EXPECT_EQ(obs::log2_bucket(1024), 10u);
  EXPECT_EQ(obs::log2_bucket(~0ULL), obs::kHistBuckets - 1);
}

TEST(ObsEvent, KindNamesAreDistinct) {
  for (u32 k = 0; k < obs::kEventKindCount; ++k) {
    const char* name = obs::event_kind_name(static_cast<obs::EventKind>(k));
    ASSERT_NE(name, nullptr);
    for (u32 j = 0; j < k; ++j) {
      EXPECT_STRNE(name,
                   obs::event_kind_name(static_cast<obs::EventKind>(j)));
    }
  }
}

TEST(ObsBlob, SerializeParseRoundTrip) {
  obs::Trace t;
  t.ring_capacity = 16;
  t.sample_interval = 64;
  t.dropped = 3;
  t.symbols.push_back({1, "main", 0x1000, 0x1100});
  t.symbols.push_back({2, "helper", 0x2000, 0x2040});
  obs::Event e;
  e.kind = obs::EventKind::kWrpkr;
  e.pid = 1;
  e.tid = 2;
  e.pkey = 5;
  e.instret = 1234;
  e.cycles = 5678;
  e.arg0 = 0xdead;
  e.arg1 = 0xbeef;
  t.events.push_back(e);
  e.kind = obs::EventKind::kSample;
  e.arg0 = 0x1010;
  t.events.push_back(e);

  const std::vector<u8> blob = obs::serialize(t);
  const obs::Trace back = obs::parse(blob);
  EXPECT_EQ(back.ring_capacity, t.ring_capacity);
  EXPECT_EQ(back.sample_interval, t.sample_interval);
  EXPECT_EQ(back.dropped, t.dropped);
  EXPECT_EQ(back.symbols, t.symbols);
  EXPECT_EQ(back.events, t.events);
}

TEST(ObsBlob, RejectsDamage) {
  obs::Trace t;
  obs::Event e;
  e.kind = obs::EventKind::kTrap;
  t.events.push_back(e);
  const std::vector<u8> blob = obs::serialize(t);

  std::vector<u8> corrupt = blob;
  corrupt[corrupt.size() - 1] ^= 0xFF;  // payload byte: checksum mismatch
  EXPECT_THROW(obs::parse(corrupt), CheckError);

  std::vector<u8> truncated(blob.begin(), blob.end() - 4);
  EXPECT_THROW(obs::parse(truncated), CheckError);

  std::vector<u8> bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_THROW(obs::parse(bad_magic), CheckError);

  std::vector<u8> bad_version = blob;
  bad_version[8] ^= 0xFF;  // version field follows the 8-byte magic
  EXPECT_THROW(obs::parse(bad_version), CheckError);
}

TEST(ObsRecorder, RingCapacityEvictsOldestAndCountsDrops) {
  obs::Recorder rec(traced(0, /*ring=*/4));
  for (u64 i = 0; i < 10; ++i) {
    rec.emit(obs::EventKind::kTrap, i, i, obs::kNoPkey, i, 0);
  }
  EXPECT_EQ(rec.events().size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  EXPECT_EQ(rec.events().front().arg0, 6u);  // oldest retained
  EXPECT_EQ(rec.events().back().arg0, 9u);
  // Metrics still aggregated every event ever emitted.
  EXPECT_EQ(rec.metrics().events(), 10u);
  EXPECT_EQ(rec.metrics().traps(), 10u);
}

// --- machine integration ----------------------------------------------------

TEST(ObsMachine, MetricsReconcileWithMachineStats) {
  sim::MachineConfig config;
  config.trace = traced();
  sim::Machine machine(config);
  ASSERT_GT(machine.load(sealed_qsort_image()), 0);
  ASSERT_TRUE(machine.run().completed);

  const sim::MachineStats stats = sim::collect_stats(machine);
  const obs::TraceSummary s =
      machine.recorder()->summary(machine.hart().cycles());
  EXPECT_EQ(s.wrpkr, stats.wrpkr);
  EXPECT_EQ(s.rdpkr, stats.rdpkr);
  EXPECT_EQ(s.denials, stats.pkey_denials);
  EXPECT_EQ(s.seal_violations, stats.seal_violations);
  EXPECT_EQ(s.cam_refills, stats.cam_refills);
  EXPECT_EQ(s.traps, stats.traps);
  EXPECT_EQ(s.syscalls, stats.syscalls);
  EXPECT_EQ(s.context_switches, stats.context_switches);
  EXPECT_EQ(machine.recorder()->metrics().page_faults(), stats.page_faults);
  EXPECT_GT(s.wrpkr, 0u);  // the sealed shadow stack really used WRPKR
  EXPECT_GT(s.events, 0u);
  EXPECT_EQ(s.dropped, 0u);
}

TEST(ObsMachine, EnabledTracingDoesNotPerturbTheRun) {
  const isa::Image image = sealed_qsort_image();

  sim::Machine plain{sim::MachineConfig{}};
  const int pid_plain = plain.load(image);
  const sim::RunOutcome a = plain.run();

  sim::MachineConfig config;
  config.trace = traced(/*sample_interval=*/64);
  sim::Machine watched(config);
  const int pid_watched = watched.load(image);
  const sim::RunOutcome b = watched.run();

  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(plain.exit_code(pid_plain), watched.exit_code(pid_watched));
  EXPECT_EQ(plain.kernel().console(), watched.kernel().console());
  EXPECT_EQ(plain.kernel().reports(), watched.kernel().reports());
  EXPECT_EQ(snapshot::save(plain), snapshot::save(watched));
}

TEST(ObsMachine, BlobByteIdenticalAcrossHostThreads) {
  const isa::Image image = sealed_qsort_image();
  (void)wl::all_workloads();  // warm the registry outside the racing threads

  auto record = [&image]() {
    sim::MachineConfig config;
    config.trace = traced(/*sample_interval=*/256);
    sim::Machine machine(config);
    machine.load(image);
    machine.run();
    return machine.recorder()->serialize_blob();
  };

  const std::vector<u8> reference = record();
  std::vector<std::vector<u8>> blobs(4);
  std::vector<std::thread> pool;
  for (auto& blob : blobs) {
    pool.emplace_back([&blob, &record]() { blob = record(); });
  }
  for (auto& t : pool) t.join();
  for (const auto& blob : blobs) EXPECT_EQ(blob, reference);
}

// An uninterrupted traced run against the same run torn down at instret
// `boundary` and resumed from the snapshot in a fresh traced machine. The
// snapshot does not carry trace state; the resumed recorder starts empty
// and its stream must continue exactly where part one stopped (pid/tid
// stamps and sample points included, since samples fire at absolute
// instret multiples).
void expect_stream_concatenates(const isa::Image& image, u64 sample_interval,
                                u64 boundary) {
  sim::MachineConfig config;
  config.trace = traced(sample_interval);

  sim::Machine straight(config);
  straight.load(image);
  ASSERT_TRUE(straight.run().completed);
  const auto& full = straight.recorder()->events();

  sim::Machine first(config);
  first.load(image);
  first.run(boundary);
  const std::vector<obs::Event> part1(first.recorder()->events().begin(),
                                      first.recorder()->events().end());
  const std::vector<u8> mid = snapshot::save(first);

  sim::MachineConfig resumed_config = snapshot::config_from(mid);
  resumed_config.trace = config.trace;
  sim::Machine resumed(resumed_config);
  snapshot::restore(resumed, mid);
  ASSERT_TRUE(resumed.run().completed);
  const auto& part2 = resumed.recorder()->events();

  ASSERT_EQ(part1.size() + part2.size(), full.size());
  for (size_t i = 0; i < part1.size(); ++i) {
    ASSERT_EQ(part1[i], full[i]) << "event " << i << " diverged pre-snapshot";
  }
  for (size_t i = 0; i < part2.size(); ++i) {
    ASSERT_EQ(part2[i], full[part1.size() + i])
        << "event " << i << " diverged post-restore";
  }
}

TEST(ObsMachine, EventStreamConcatenatesAcrossSnapshotBoundary) {
  const isa::Image image = sealed_qsort_image();
  {
    SCOPED_TRACE("boundary between sample points");
    expect_stream_concatenates(image, /*sample_interval=*/512, 20'000);
  }
  // A boundary on a sample point whose next step traps: R is the instret of
  // the first syscall, and an ecall retires nothing. Part one sampled R;
  // the resumed run's first tick is at R again and must not repeat it.
  sim::MachineConfig config;
  config.trace = traced();
  sim::Machine probe(config);
  probe.load(image);
  probe.run();
  u64 first_syscall = 0;
  for (const obs::Event& e : probe.recorder()->events()) {
    if (e.kind == obs::EventKind::kSyscall) {
      first_syscall = e.instret;
      break;
    }
  }
  ASSERT_GT(first_syscall, 0u);
  {
    SCOPED_TRACE("boundary on a sample point before a trap");
    expect_stream_concatenates(image, first_syscall, first_syscall);
  }
}

// --- exporters --------------------------------------------------------------

// One traced run shared by the exporter checks.
obs::Trace recorded_trace() {
  sim::MachineConfig config;
  config.trace = traced(/*sample_interval=*/256);
  sim::Machine machine(config);
  machine.load(sealed_qsort_image());
  SEALPK_CHECK(machine.run().completed);
  return machine.recorder()->trace();
}

TEST(ObsExport, PerfettoJsonIsStructurallySound) {
  const obs::Trace trace = recorded_trace();
  std::ostringstream os;
  obs::write_perfetto_json(trace, os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"pkey domain\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // domain slices
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // page counters
  const JsonValue doc = json_parse(json);
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_GT(events->items.size(), trace.events.size() / 2);
  for (const JsonValue& e : events->items) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.find("ph"), nullptr);
    EXPECT_TRUE(e.find("ph")->is_string());
  }
}

TEST(ObsExport, ReportJsonParsesAndMatchesMetrics) {
  const obs::Trace trace = recorded_trace();
  const obs::Metrics m = obs::compute_metrics(trace);
  std::ostringstream os;
  obs::write_report_json(trace, os);
  const JsonValue doc = json_parse(os.str());
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->str, "sealpk-trace-report-v1");
  const auto number = [&doc](const char* key) {
    const JsonValue* v = doc.find(key);
    return v != nullptr && v->is_number() ? v->number : -1.0;
  };
  EXPECT_EQ(number("events"), static_cast<double>(trace.events.size()));
  EXPECT_EQ(number("samples"), static_cast<double>(m.samples()));
  EXPECT_GT(m.samples(), 0u);
  EXPECT_EQ(number("syscalls"), static_cast<double>(m.syscalls()));
  const JsonValue* pkeys = doc.find("pkeys");
  ASSERT_NE(pkeys, nullptr);
  EXPECT_EQ(pkeys->items.size(), m.pkeys().size());
  const JsonValue* by_kind = obs::resolve_path(doc, "spans.by_kind");
  ASSERT_NE(by_kind, nullptr);
  EXPECT_TRUE(by_kind->is_object());
}

// Rule names and details are free text: quotes, backslashes and control
// characters must come back intact through the parser.
TEST(ObsExport, SloVerdictJsonParsesWithEscapes) {
  obs::SloVerdict v;
  v.pass = false;
  v.rules.push_back({"plain", true, 1, ""});
  v.rules.push_back({"quote\"back\\slash", false, 3, "line1\nline2\ttab"});
  std::ostringstream os;
  obs::write_slo_json(v, os);
  const JsonValue doc = json_parse(os.str());
  EXPECT_EQ(doc.find("schema")->str, obs::kSloSchema);
  EXPECT_EQ(doc.find("pass")->type, JsonValue::Type::kBool);
  EXPECT_FALSE(doc.find("pass")->boolean);
  const JsonValue* rules = doc.find("rules");
  ASSERT_NE(rules, nullptr);
  ASSERT_EQ(rules->items.size(), v.rules.size());
  for (size_t i = 0; i < v.rules.size(); ++i) {
    const JsonValue& r = rules->items[i];
    EXPECT_EQ(r.find("name")->str, v.rules[i].name);
    EXPECT_EQ(r.find("pass")->boolean, v.rules[i].pass);
    EXPECT_EQ(r.find("matched")->number,
              static_cast<double>(v.rules[i].matched));
    EXPECT_EQ(r.find("detail")->str, v.rules[i].detail);
  }
}

TEST(ObsExport, CollapsedStacksNameGuestFunctions) {
  const obs::Trace trace = recorded_trace();
  std::ostringstream os;
  obs::write_collapsed(trace, os);
  const std::string folded = os.str();
  EXPECT_NE(folded.find("guest1;quicksort "), std::string::npos);
  EXPECT_EQ(folded.find("[unknown"), std::string::npos);
}

TEST(ObsExport, ReportAndTimelineCoverTheRun) {
  const obs::Trace trace = recorded_trace();
  const obs::Metrics m = obs::compute_metrics(trace);
  EXPECT_EQ(m.events(), trace.events.size());

  std::ostringstream report;
  obs::write_report(trace, report);
  EXPECT_NE(report.str().find("per-pkey activity"), std::string::npos);
  EXPECT_NE(report.str().find("hottest functions"), std::string::npos);

  std::ostringstream timeline;
  obs::write_timeline(trace, timeline);
  const std::string text = timeline.str();
  const size_t lines =
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
  EXPECT_EQ(lines, trace.events.size());
}

TEST(ObsExport, DiffReportsFirstDivergence) {
  const obs::Trace a = recorded_trace();
  EXPECT_EQ(obs::diff_traces(a, a), "");

  obs::Trace b = a;
  b.events[b.events.size() / 2].arg0 ^= 1;
  const std::string delta = obs::diff_traces(a, b);
  EXPECT_NE(delta, "");
  EXPECT_NE(delta.find("event"), std::string::npos);

  obs::Trace c = a;
  c.events.pop_back();
  EXPECT_NE(obs::diff_traces(a, c), "");
}

// --- duration histograms (obs/hist.h) ---------------------------------------

TEST(ObsHist, EmptyAndSingleSamplePercentiles) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.percentile(99), 0u);
  EXPECT_EQ(h.max(), 0u);

  // With exactly one sample every percentile is that sample.
  h.record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile(1), 42u);
  EXPECT_EQ(h.percentile(50), 42u);
  EXPECT_EQ(h.percentile(99), 42u);
  EXPECT_EQ(h.percentile(100), 42u);
  EXPECT_EQ(h.max(), 42u);
}

TEST(ObsHist, ZeroDurationSpansAreRealSamples) {
  // Point spans (unseal, evict, quarantine) have duration 0; they must
  // count and must drag the low percentiles to 0, not vanish.
  obs::Histogram h;
  for (int i = 0; i < 9; ++i) h.record(0);
  h.record(1000);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.percentile(90), 0u);
  // p99 is the 1000 sample quantized to its bucket floor (16-wide
  // sub-buckets over [512, 1024)); max() keeps the exact value.
  EXPECT_EQ(h.percentile(99), 992u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.sum(), 1000u);
}

TEST(ObsHist, LinearRangeIsExact) {
  // Below kLinearLimit every value owns its own bucket: percentiles are
  // exact, not bucket floors.
  obs::Histogram h;
  for (u64 v = 1; v <= 4; ++v) h.record(v);
  // rank = ceil(count * p / 100), 1-based over the sorted samples.
  EXPECT_EQ(h.percentile(25), 1u);
  EXPECT_EQ(h.percentile(50), 2u);
  EXPECT_EQ(h.percentile(75), 3u);
  EXPECT_EQ(h.percentile(100), 4u);
}

TEST(ObsHist, TopBucketSaturationStaysWithinObservedRange) {
  obs::Histogram h;
  h.record(~0ULL);
  h.record(~0ULL - 1);
  h.record(1ULL << 63);
  // All three land in the top exponent range. Percentiles report bucket
  // floors clamped into the observed [min, max]; max() keeps the exact
  // largest sample even when its bucket floor is far below it.
  EXPECT_EQ(h.max(), ~0ULL);
  EXPECT_GE(h.percentile(1), 1ULL << 63);
  EXPECT_LE(h.percentile(100), ~0ULL);
  EXPECT_GE(h.percentile(100), h.percentile(50));
  EXPECT_GE(h.percentile(50), h.percentile(1));
}

TEST(ObsHist, MergeIsAssociativeAndCommutativeByteForByte) {
  obs::Histogram a, b, c;
  for (u64 v = 0; v < 40; ++v) a.record(v * 7);
  for (u64 v = 0; v < 25; ++v) b.record(1 + (v << 9));
  c.record(0);
  c.record(~0ULL);

  obs::Histogram ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  obs::Histogram a_bc = b;
  a_bc.merge(c);
  a_bc.merge(a);
  obs::Histogram cba = c;
  cba.merge(b);
  cba.merge(a);

  EXPECT_EQ(ab_c, a_bc);
  EXPECT_EQ(ab_c, cba);
  // Byte-for-byte: the JSON renderings (the bytes committed in
  // BENCH_spans.json) must match too, not just the counters.
  EXPECT_EQ(ab_c.quantiles_json(), a_bc.quantiles_json());
  EXPECT_EQ(ab_c.quantiles_json(), cba.quantiles_json());
}

// --- causal spans (obs/span.h) ----------------------------------------------

obs::Event span_event(obs::EventKind kind, u64 instret, u64 arg0, u64 arg1,
                      u32 pkey = obs::kNoPkey) {
  obs::Event e;
  e.kind = kind;
  e.pid = 1;
  e.tid = 1;
  e.pkey = pkey;
  e.instret = instret;
  e.cycles = instret * 2;
  e.arg0 = arg0;
  e.arg1 = arg1;
  return e;
}

TEST(ObsSpan, RequestLifecycleWithRetryFlow) {
  obs::Trace t;
  t.events = {
      span_event(obs::EventKind::kGateEnter, 100, /*req=*/0, /*slot=*/0),
      // No gate-exit: the next enter for the same request closes the
      // first visit as failed and chains a retry flow.
      span_event(obs::EventKind::kGateEnter, 300, 0, /*slot=*/1),
      span_event(obs::EventKind::kGateExit, 400, 0, /*checksum=*/7),
      span_event(obs::EventKind::kRequestDisposition, 450, 0,
                 /*disposition=retried*/ 1),
  };
  const obs::SpanSet set = obs::build_spans(t);
  ASSERT_EQ(set.spans.size(), 3u);  // request + 2 handler visits
  EXPECT_EQ(set.spans[0].kind, obs::SpanKind::kRequest);
  EXPECT_EQ(set.spans[0].begin, 100u);
  EXPECT_EQ(set.spans[0].end, 450u);
  EXPECT_EQ(set.spans[0].status, obs::SpanStatus::kRetried);
  EXPECT_EQ(set.spans[1].status, obs::SpanStatus::kFailed);
  EXPECT_EQ(set.spans[2].status, obs::SpanStatus::kOk);
  EXPECT_EQ(set.spans[1].parent, set.spans[0].id);
  EXPECT_EQ(set.spans[2].parent, set.spans[0].id);
  ASSERT_EQ(set.flows.size(), 1u);
  EXPECT_EQ(set.flows[0].kind, obs::FlowEdge::Kind::kRetry);
  EXPECT_EQ(set.flows[0].from, set.spans[1].id);
  EXPECT_EQ(set.flows[0].to, set.spans[2].id);
}

TEST(ObsSpan, DanglingSpansCloseAsOpenAtStreamEnd) {
  obs::Trace t;
  t.events = {
      span_event(obs::EventKind::kGateEnter, 100, 0, 0),
      span_event(obs::EventKind::kSyscall, 900, 0, 0),
  };
  const obs::SpanSet set = obs::build_spans(t);
  ASSERT_EQ(set.spans.size(), 2u);
  for (const obs::Span& s : set.spans) {
    EXPECT_EQ(s.status, obs::SpanStatus::kOpen);
    EXPECT_EQ(s.end, 900u);
  }
  EXPECT_EQ(set.final_ts, 900u);
}

TEST(ObsSpan, ClockRestartOpensSegmentRollbackDoesNot) {
  obs::Trace t;
  t.events = {
      span_event(obs::EventKind::kVaultIntent, 500, /*bundle=*/1, 0),
      span_event(obs::EventKind::kVaultCommit, 700, 1, 0),
      // instret drops with no kRollback: a fresh machine (serve epoch 2).
      // The virtual timeline must keep rising instead of folding back.
      span_event(obs::EventKind::kVaultIntent, 50, 2, 0),
      span_event(obs::EventKind::kVaultCommit, 90, 2, 0),
      // A kRollback stamped at the *restored* clock rewinds the watermark
      // without opening a segment.
      span_event(obs::EventKind::kRollback, 60, /*ordinal=*/0, 0),
      span_event(obs::EventKind::kVaultIntent, 70, 3, 0),
      span_event(obs::EventKind::kVaultCommit, 80, 3, 0),
  };
  const obs::SpanSet set = obs::build_spans(t);
  EXPECT_EQ(set.segments, 2u);
  ASSERT_EQ(set.spans.size(), 4u);  // 3 txns + 1 rollback window
  // Segment 2 offsets by segment 1's watermark (700).
  EXPECT_EQ(set.spans[1].begin, 750u);
  EXPECT_EQ(set.spans[1].end, 790u);
  // Post-rollback txn continues on the same segment's virtual axis.
  EXPECT_EQ(set.spans[3].kind, obs::SpanKind::kVaultTxn);
  EXPECT_EQ(set.spans[3].begin, 770u);
  // The rollback window spans restored ts -> pre-rollback high-water mark.
  EXPECT_EQ(set.spans[2].kind, obs::SpanKind::kRollbackWindow);
  EXPECT_EQ(set.spans[2].begin, 760u);
  EXPECT_EQ(set.spans[2].end, 790u);
}

TEST(ObsSpan, BuildIsDeterministicAndPureOverConcatenatedStreams) {
  // The serve plane concatenates per-epoch rings recorded on different
  // machines; build_spans must be a pure function of the joined stream.
  const obs::Trace whole = recorded_trace();
  const obs::SpanSet a = obs::build_spans(whole);
  const obs::SpanSet b = obs::build_spans(whole);
  ASSERT_EQ(a.spans.size(), b.spans.size());
  ASSERT_EQ(a.flows.size(), b.flows.size());
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.final_ts, b.final_ts);
  const auto ha = obs::span_histograms(a);
  const auto hb = obs::span_histograms(b);
  for (u32 k = 0; k < obs::kSpanKindCount; ++k) {
    EXPECT_EQ(ha[k], hb[k]);
    EXPECT_EQ(ha[k].quantiles_json(), hb[k].quantiles_json());
  }
}

TEST(ObsSpan, SpanSetMatchesAcrossSnapshotBoundary) {
  // The event stream already concatenates exactly across a snapshot
  // boundary (test above); spans derived from the stitched stream must
  // equal spans from the uninterrupted run, histogram bytes included.
  const isa::Image image = sealed_qsort_image();
  sim::MachineConfig config;
  config.trace = traced();
  config.checkpoint_interval = 20'000;

  sim::Machine straight(config);
  straight.load(image);
  SEALPK_CHECK(straight.run().completed);
  const obs::Trace full = straight.recorder()->trace();

  sim::Machine first(config);
  first.load(image);
  first.run(30'000);
  obs::Trace stitched = first.recorder()->trace();
  const std::vector<u8> mid = snapshot::save(first);

  sim::MachineConfig resumed_config = snapshot::config_from(mid);
  resumed_config.trace = config.trace;
  sim::Machine resumed(resumed_config);
  snapshot::restore(resumed, mid);
  SEALPK_CHECK(resumed.run().completed);
  for (const obs::Event& e : resumed.recorder()->events()) {
    stitched.events.push_back(e);
  }

  const auto ha = obs::span_histograms(obs::build_spans(full));
  const auto hb = obs::span_histograms(obs::build_spans(stitched));
  for (u32 k = 0; k < obs::kSpanKindCount; ++k) {
    EXPECT_EQ(ha[k].quantiles_json(), hb[k].quantiles_json());
  }
}

}  // namespace
}  // namespace sealpk
