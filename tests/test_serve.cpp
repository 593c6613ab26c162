// Tests for the in-process plugin server (src/serve): clean-run behaviour,
// the full red-team suite (every attack caught by its declared catcher,
// monitor untouched, server still serving), graceful degradation under
// chaos, ledger determinism across host thread counts, and bit-identical
// snapshot/resume of the guest workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/event.h"
#include "serve/program.h"
#include "serve/redteam.h"
#include "serve/server.h"
#include "sim/machine.h"
#include "snapshot/snapshot.h"

namespace sealpk {
namespace {

using serve::Disposition;
using serve::ServeConfig;
using serve::ServeResult;
using serve::redteam::AttackKind;
using serve::redteam::Catcher;

ServeConfig small_config() {
  ServeConfig cfg;
  cfg.primaries = 2;
  cfg.requests = 10;
  cfg.rounds = 4;
  cfg.seed = 11;
  return cfg;
}

u64 disposition_total(const ServeResult& r) {
  return r.served + r.retried + r.shed + r.quarantined;
}

// ---------------------------------------------------------------------------
// Clean runs
// ---------------------------------------------------------------------------

TEST(Serve, CleanRunServesEveryRequest) {
  ServeConfig cfg = small_config();
  const ServeResult r = serve::run_server(cfg);

  EXPECT_TRUE(r.config_ok);
  EXPECT_TRUE(r.monitor_alive);
  EXPECT_TRUE(r.canary_intact);
  EXPECT_EQ(r.served, cfg.requests);
  EXPECT_EQ(r.retried, 0u);
  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.quarantined, 0u);
  EXPECT_EQ(r.epochs, 1u);
  // Two domain crossings (monitor->handler, handler->monitor) per request.
  EXPECT_EQ(r.crossings, 2ull * cfg.requests);
  EXPECT_GT(r.crossings_per_sec(), 0.0);
  EXPECT_GT(r.instructions, 0u);

  ASSERT_EQ(r.records.size(), cfg.requests);
  for (const serve::RequestRecord& rec : r.records) {
    EXPECT_EQ(rec.disposition, Disposition::kServed);
    EXPECT_EQ(rec.attempts, 0u);
    EXPECT_EQ(rec.served_by, rec.home_slot);
    EXPECT_GT(rec.latency, 0u);
  }
  // A clean run produces no attack evidence of any kind.
  EXPECT_FALSE(r.evidence.verifier_refused);
  EXPECT_EQ(r.evidence.seal_violations, 0u);
  EXPECT_EQ(r.evidence.monitor_denials, 0u);
  EXPECT_EQ(r.evidence.gate_scrubs, 0u);
  EXPECT_EQ(r.evidence.budget_timeouts, 0u);
  EXPECT_EQ(r.evidence.probe_successes, 0u);
  EXPECT_EQ(r.evidence.vault_probe_denials, 0u);
  EXPECT_EQ(r.evidence.unseal_denials, 0u);
  EXPECT_EQ(r.evidence.vault_leaks, 0u);
}

TEST(Serve, ChecksumModelMatchesGuest) {
  // The clean run only reports kServed when the guest checksum matches the
  // host model, so a larger sweep across every slot exercises the model.
  ServeConfig cfg;
  cfg.primaries = 3;
  cfg.requests = 24;
  cfg.rounds = 8;
  cfg.seed = 1234567;
  const ServeResult r = serve::run_server(cfg);
  EXPECT_EQ(r.served, cfg.requests);
  std::set<u32> slots_used;
  for (const serve::RequestRecord& rec : r.records)
    slots_used.insert(rec.served_by);
  // Round-robin dispatch touches every primary slot.
  EXPECT_EQ(slots_used.size(), cfg.primaries);
}

TEST(Serve, LatenciesScaleWithRounds) {
  ServeConfig light = small_config();
  light.rounds = 2;
  ServeConfig heavy = small_config();
  heavy.rounds = 40;
  const ServeResult a = serve::run_server(light);
  const ServeResult b = serve::run_server(heavy);
  ASSERT_EQ(a.served, light.requests);
  ASSERT_EQ(b.served, heavy.requests);
  EXPECT_GT(b.records[0].latency, a.records[0].latency);
}

TEST(Serve, TraceCarriesGateAndDispositionEvents) {
  ServeConfig cfg = small_config();
  cfg.trace = true;
  const ServeResult r = serve::run_server(cfg);
  ASSERT_EQ(r.served, cfg.requests);
  u64 enters = 0, exits = 0;
  for (const obs::Event& e : r.trace.events) {
    if (e.kind == obs::EventKind::kGateEnter) ++enters;
    if (e.kind == obs::EventKind::kGateExit) ++exits;
  }
  EXPECT_EQ(enters, cfg.requests);
  EXPECT_EQ(exits, cfg.requests);
  // The host mirrors every final disposition onto the bus — the span
  // builder needs the edge to close request spans.
  u64 dispositions = 0;
  for (const obs::Event& e : r.trace.events) {
    if (e.kind == obs::EventKind::kRequestDisposition) ++dispositions;
  }
  EXPECT_EQ(dispositions, cfg.requests);
}

TEST(Serve, JsonReportCarriesLatencyQuantiles) {
  ServeConfig cfg = small_config();
  const ServeResult r = serve::run_server(cfg);
  std::ostringstream os;
  serve::write_result_json(os, cfg, r);
  const std::string json = os.str();
  // The latency block aggregates served-request latencies through the
  // deterministic histogram; a clean run has count == requests and p50
  // equal to the uniform per-request latency.
  EXPECT_NE(json.find("\"latency\": {\"count\": " +
                      std::to_string(cfg.requests)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"p99\": " + std::to_string(r.records[0].latency)),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Red team: every attack must be caught by its declared catcher while the
// monitor survives and the server keeps serving.
// ---------------------------------------------------------------------------

ServeResult run_attack(AttackKind kind) {
  ServeConfig cfg = small_config();
  cfg.attack = kind;
  return serve::run_server(cfg);
}

TEST(ServeRedTeam, EveryAttackCaughtByDeclaredCatcher) {
  for (const serve::redteam::Attack& atk : serve::redteam::attacks()) {
    SCOPED_TRACE(atk.name);
    const ServeResult r = run_attack(atk.kind);
    ASSERT_NE(r.attack, nullptr);
    EXPECT_EQ(r.attack->kind, atk.kind);
    // The declared catcher fired.
    EXPECT_TRUE(r.attack_caught)
        << atk.name << " not caught by " << catcher_name(atk.catcher);
    EXPECT_TRUE(caught_by(atk.catcher, r.evidence));
    // The attack never reached monitor memory.
    EXPECT_TRUE(r.monitor_alive);
    EXPECT_TRUE(r.canary_intact);
    EXPECT_EQ(r.evidence.probe_successes, 0u);
    // The server kept serving: the replica absorbs slot 0's load.
    EXPECT_GT(r.served + r.retried, 0u);
    // Every request ended in exactly one canonical disposition.
    EXPECT_EQ(disposition_total(r), r.records.size());
  }
}

TEST(ServeRedTeam, GadgetWrpkrRefusedByAdmissionGate) {
  const ServeResult r = run_attack(AttackKind::kGadgetWrpkr);
  EXPECT_TRUE(r.evidence.verifier_refused);
  EXPECT_GT(r.evidence.gate_escape_findings, 0u);
  // Load refusal quarantines the hostile slot immediately; its requests are
  // retried on the replica, so nothing is lost.
  ASSERT_FALSE(r.slot_quarantined.empty());
  EXPECT_TRUE(r.slot_quarantined[0]);
  EXPECT_EQ(r.served + r.retried, r.records.size());
  EXPECT_EQ(r.shed, 0u);
}

TEST(ServeRedTeam, RogueWrpkrTrippedBySealUnit) {
  const ServeResult r = run_attack(AttackKind::kRogueWrpkr);
  // The admission gate is deliberately bypassed for this one (models JIT'd
  // code); the hardware seal check must deliver the violation instead.
  EXPECT_FALSE(r.evidence.verifier_refused);
  EXPECT_GT(r.evidence.seal_violations, 0u);
  EXPECT_EQ(r.served + r.retried + r.quarantined, r.records.size());
  // Retries land on the benign replica.
  EXPECT_GT(r.retried, 0u);
}

TEST(ServeRedTeam, MonitorStoresNeverLand) {
  for (AttackKind kind :
       {AttackKind::kMonitorTamper, AttackKind::kStackTamper}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const ServeResult r = run_attack(kind);
    EXPECT_GT(r.evidence.monitor_denials, 0u);
    EXPECT_TRUE(r.canary_intact);
    EXPECT_TRUE(r.monitor_alive);
  }
}

TEST(ServeRedTeam, GateExitHijackScrubbedByMonotonicCheck) {
  const ServeResult r = run_attack(AttackKind::kGateExitHijack);
  EXPECT_GT(r.evidence.gate_scrubs, 0u);
  // The scrub restores the closed row before the monitor resumes, so the
  // monitor's own loads keep working.
  EXPECT_TRUE(r.monitor_alive);
}

TEST(ServeRedTeam, InterruptedGateProbesAllDenied) {
  const ServeResult r = run_attack(AttackKind::kInterruptedGate);
  EXPECT_GT(r.evidence.probe_attempts, 0u);
  EXPECT_EQ(r.evidence.probe_successes, 0u);
}

TEST(ServeRedTeam, RunawayHandlerKilledByBudgetAndQuarantined) {
  const ServeResult r = run_attack(AttackKind::kRunawayHandler);
  EXPECT_GT(r.evidence.budget_timeouts, 0u);
  ASSERT_FALSE(r.slot_quarantined.empty());
  EXPECT_TRUE(r.slot_quarantined[0]);
  EXPECT_TRUE(r.monitor_alive);
  // Requests homed on the runaway slot still complete via the replica.
  EXPECT_GT(r.retried, 0u);
}

TEST(ServeRedTeam, PkrGlitchHandledByAuditor) {
  const ServeResult r = run_attack(AttackKind::kPkrGlitch);
  EXPECT_GT(r.evidence.faults_injected, 0u);
  EXPECT_GT(r.evidence.faults_recovered_or_killed, 0u);
  EXPECT_TRUE(r.monitor_alive);
}

TEST(ServeRedTeam, VaultProbeLoadsAllDenied) {
  const ServeResult r = run_attack(AttackKind::kVaultProbe);
  // Every load against the write-only vault was issued and denied: the
  // sentinel survived in the handler's register each time, and each denial
  // left a pkey-fault record naming the vault key.
  EXPECT_GT(r.evidence.probe_attempts, 0u);
  EXPECT_EQ(r.evidence.probe_successes, 0u);
  EXPECT_GT(r.evidence.vault_probe_denials, 0u);
  EXPECT_EQ(r.evidence.vault_leaks, 0u);
  EXPECT_TRUE(r.monitor_alive);
  // The denied probes poison the attempt; retries land on the replica.
  EXPECT_GT(r.retried, 0u);
}

TEST(ServeRedTeam, ForgedUnsealRefusedAndNotarised) {
  const ServeResult r = run_attack(AttackKind::kForgedUnseal);
  EXPECT_GT(r.evidence.unseal_denials, 0u);
  EXPECT_EQ(r.evidence.vault_leaks, 0u);
  // The ownership refusal is an error return, not a delivered fault: the
  // request itself still serves while the kernel notarises each denial.
  EXPECT_EQ(r.served, r.records.size());
  EXPECT_TRUE(r.monitor_alive);
  EXPECT_TRUE(r.canary_intact);
}

TEST(ServeRedTeam, RegistryIsCompleteAndNamed) {
  const auto& reg = serve::redteam::attacks();
  EXPECT_EQ(reg.size(), 11u);
  std::set<std::string> names;
  for (const auto& atk : reg) {
    EXPECT_NE(atk.kind, AttackKind::kNone);
    EXPECT_STRNE(atk.name, "");
    EXPECT_STRNE(atk.description, "");
    names.insert(atk.name);
    EXPECT_EQ(serve::redteam::find_attack(atk.name), &atk);
  }
  EXPECT_EQ(names.size(), reg.size());
  EXPECT_EQ(serve::redteam::find_attack("no-such-attack"), nullptr);
}

// ---------------------------------------------------------------------------
// Graceful degradation + determinism
// ---------------------------------------------------------------------------

TEST(ServeChaos, ChaosRunCompletesWithCanonicalLedger) {
  ServeConfig cfg = small_config();
  cfg.chaos.enabled = true;
  cfg.chaos.seed = 77;
  const ServeResult r = serve::run_server(cfg);
  EXPECT_TRUE(r.monitor_alive);
  EXPECT_EQ(disposition_total(r), r.records.size());
  const std::string ledger = serve::canonical_ledger(r);
  EXPECT_FALSE(ledger.empty());
  EXPECT_EQ(ledger.back(), '\n');
  // Chaos is seeded: the same config reproduces the same ledger bytes.
  const ServeResult again = serve::run_server(cfg);
  EXPECT_EQ(ledger, serve::canonical_ledger(again));
}

TEST(ServeChaos, AttackUnderChaosStillCaughtAndDeterministic) {
  ServeConfig cfg = small_config();
  cfg.attack = AttackKind::kGateExitHijack;
  cfg.chaos.enabled = true;
  cfg.chaos.seed = 3;
  const ServeResult a = serve::run_server(cfg);
  const ServeResult b = serve::run_server(cfg);
  EXPECT_TRUE(a.monitor_alive);
  EXPECT_TRUE(a.attack_caught);
  EXPECT_EQ(serve::canonical_ledger(a), serve::canonical_ledger(b));
}

TEST(ServeDeterminism, LedgerByteIdenticalAcrossHostThreadCounts) {
  // The attack suite `sealpk serve attack --all --threads` runs: the ledger
  // for each scenario must not depend on how many host threads ran
  // siblings.
  const std::vector<serve::AttackRun> one =
      serve::run_attack_suite(small_config(), 1);
  const std::vector<serve::AttackRun> many =
      serve::run_attack_suite(small_config(), 4);
  ASSERT_EQ(one.size(), serve::redteam::attacks().size());
  ASSERT_EQ(one.size(), many.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(serve::canonical_ledger(one[i].result),
              serve::canonical_ledger(many[i].result))
        << "scenario " << i;
  }
}

TEST(ServeDeterminism, JsonReportIsStable) {
  ServeConfig cfg = small_config();
  cfg.attack = AttackKind::kRunawayHandler;
  const ServeResult r = serve::run_server(cfg);
  std::ostringstream a, b;
  serve::write_result_json(a, cfg, r);
  serve::write_result_json(b, cfg, serve::run_server(cfg));
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"schema\": \"sealpk-serve-v1\""), std::string::npos);
  EXPECT_NE(a.str().find("\"crossings_per_sec\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Snapshot/resume: the guest workload itself is bit-identical across a
// save/restore boundary (mark log concatenation equals the uninterrupted
// run's mark log).
// ---------------------------------------------------------------------------

std::vector<os::MarkRecord> marks_of(sim::Machine& m) {
  return m.kernel().marks();
}

bool marks_equal(const os::MarkRecord& a, const os::MarkRecord& b) {
  return a.kind == b.kind && a.arg0 == b.arg0 && a.arg1 == b.arg1 &&
         a.pkey == b.pkey && a.tid == b.tid && a.instret == b.instret &&
         a.cycles == b.cycles;
}

TEST(ServeSnapshot, ResumeIsBitIdentical) {
  serve::WorkloadSpec spec;
  spec.primaries = 2;
  spec.rounds = 4;
  spec.seed = 5;
  for (u32 i = 0; i < 8; ++i) spec.requests.push_back({i, i % 2});
  const serve::BuiltServer built = serve::build_server(spec);

  sim::MachineConfig cfg;
  cfg.verify_policy = analysis::LoadVerifyPolicy::kEnforce;
  cfg.verify_options = built.verify_options;

  // Reference: uninterrupted run.
  sim::Machine ref(cfg);
  const int ref_pid = ref.load(built.image);
  ASSERT_GE(ref_pid, 0);
  ASSERT_TRUE(ref.run(50'000'000).completed);
  ASSERT_EQ(ref.exit_code(ref_pid), 0);
  const std::vector<os::MarkRecord> want = marks_of(ref);
  ASSERT_FALSE(want.empty());

  // Interrupted run: stop mid-flight, snapshot, restore into a fresh
  // machine, finish there.
  sim::Machine first(cfg);
  const int pid = first.load(built.image);
  ASSERT_GE(pid, 0);
  ASSERT_FALSE(first.run(ref.hart().instret() / 2).completed);
  const std::vector<os::MarkRecord> head = marks_of(first);
  const std::vector<u8> blob = snapshot::save(first);

  sim::Machine second(snapshot::config_from(blob));
  snapshot::restore(second, blob);
  ASSERT_TRUE(second.run(50'000'000).completed);
  EXPECT_EQ(second.exit_code(pid), 0);
  EXPECT_EQ(second.kernel().reports(), ref.kernel().reports());
  EXPECT_EQ(second.hart().instret(), ref.hart().instret());

  // Marks are runtime-log state (not serialized): the resumed machine logs
  // only the tail, and head + tail must equal the uninterrupted log.
  const std::vector<os::MarkRecord> tail = marks_of(second);
  ASSERT_EQ(head.size() + tail.size(), want.size());
  for (size_t i = 0; i < head.size(); ++i)
    EXPECT_TRUE(marks_equal(head[i], want[i])) << "head mark " << i;
  for (size_t i = 0; i < tail.size(); ++i)
    EXPECT_TRUE(marks_equal(tail[i], want[head.size() + i]))
        << "tail mark " << i;
}

// ---------------------------------------------------------------------------
// Host-side model helpers
// ---------------------------------------------------------------------------

TEST(ServeModel, ChecksumIsDeterministicAndSlotSensitive) {
  EXPECT_EQ(serve::checksum_for(1, 0, 0, 8), serve::checksum_for(1, 0, 0, 8));
  EXPECT_NE(serve::checksum_for(1, 0, 0, 8), serve::checksum_for(1, 0, 1, 8));
  EXPECT_NE(serve::checksum_for(1, 0, 0, 8), serve::checksum_for(1, 1, 0, 8));
  EXPECT_NE(serve::checksum_for(1, 0, 0, 8), serve::checksum_for(2, 0, 0, 8));
  // The one splitmix64 finalizer (common/rng.h): first output of the
  // reference splitmix64 stream seeded with 0.
  EXPECT_EQ(mix64(0), 0xE220A8397B1DCDAFULL);
  EXPECT_NE(mix64(3), 3u);
}

TEST(ServeModel, DispositionNamesAreCanonical) {
  EXPECT_STREQ(serve::disposition_name(Disposition::kServed), "served");
  EXPECT_STREQ(serve::disposition_name(Disposition::kRetried), "retried");
  EXPECT_STREQ(serve::disposition_name(Disposition::kShed), "shed");
  EXPECT_STREQ(serve::disposition_name(Disposition::kQuarantined),
               "quarantined");
}

}  // namespace
}  // namespace sealpk
