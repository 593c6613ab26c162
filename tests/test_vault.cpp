// Tests for the sealed-storage vault (src/vault): on-disk format
// round-trips, cold-replay semantics, the kernel's vault-syscall gates
// (ownership, seal-state, duplicate-commit, torn-intent and destination
// checks), the clean guest workload against its build-time oracle, seeded
// vault-fault detection, and a down-scaled crash-anywhere sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/fault.h"
#include "isa/program.h"
#include "os/syscall_abi.h"
#include "runtime/guest.h"
#include "sim/machine.h"
#include "obs/span.h"
#include "vault/format.h"
#include "vault/program.h"
#include "vault/run.h"
#include "vault/sweep.h"

namespace sealpk {
namespace {

using namespace sealpk::isa;

// ---------------------------------------------------------------------------
// Format round-trips
// ---------------------------------------------------------------------------

vault::Geometry small_geometry() {
  vault::Geometry g;
  g.vault_pkey = 2;
  g.owner_pkey = 1;
  g.journal_cap = 4;
  g.data_off = g.journal_off + 4 * vault::kRecordSize;
  g.n_slots = 2;
  g.slot_size = 64;
  return g;
}

TEST(VaultFormat, SuperblockRoundTrips) {
  const vault::Geometry g = small_geometry();
  const std::vector<u8> b = vault::superblock_bytes(g);
  ASSERT_EQ(b.size(), vault::kSuperblockSize);
  const auto parsed = vault::parse_superblock(b.data(), b.size());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->vault_pkey, g.vault_pkey);
  EXPECT_EQ(parsed->owner_pkey, g.owner_pkey);
  EXPECT_EQ(parsed->journal_cap, g.journal_cap);
  EXPECT_EQ(parsed->data_off, g.data_off);
  EXPECT_EQ(parsed->n_slots, g.n_slots);
  EXPECT_EQ(parsed->slot_size, g.slot_size);
  EXPECT_EQ(parsed->total_len(), g.data_off + 2 * 64);
}

TEST(VaultFormat, SuperblockRejectsCorruptionAndBadGeometry) {
  const vault::Geometry g = small_geometry();
  std::vector<u8> b = vault::superblock_bytes(g);
  // Any flipped bit breaks the FNV seal.
  b[17] ^= 0x40;
  EXPECT_FALSE(vault::parse_superblock(b.data(), b.size()).has_value());

  // A well-checksummed superblock with inconsistent geometry is refused.
  vault::Geometry odd = g;
  odd.journal_cap = 3;  // must be even (intent/commit pairs)
  const std::vector<u8> ob = vault::superblock_bytes(odd);
  EXPECT_FALSE(vault::parse_superblock(ob.data(), ob.size()).has_value());

  vault::Geometry self = g;
  self.owner_pkey = self.vault_pkey;  // owner must be a distinct domain
  const std::vector<u8> sb = vault::superblock_bytes(self);
  EXPECT_FALSE(vault::parse_superblock(sb.data(), sb.size()).has_value());

  vault::Geometry overlap = g;
  overlap.data_off = overlap.journal_off;  // slots inside the journal
  const std::vector<u8> vb = vault::superblock_bytes(overlap);
  EXPECT_FALSE(vault::parse_superblock(vb.data(), vb.size()).has_value());
}

TEST(VaultFormat, RecordRoundTripsAndDetectsTearing) {
  const std::vector<u8> b =
      vault::record_bytes(vault::kRecordCommit, 7, 1, 64, 3, 0xABCDEF);
  ASSERT_EQ(b.size(), vault::kRecordSize);
  const vault::Record r = vault::parse_record(b.data());
  EXPECT_TRUE(r.present);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.type, vault::kRecordCommit);
  EXPECT_EQ(r.id, 7u);
  EXPECT_EQ(r.slot, 1u);
  EXPECT_EQ(r.len, 64u);
  EXPECT_EQ(r.seq, 3u);
  EXPECT_EQ(r.payload_fnv, 0xABCDEFu);

  // A torn record (any byte off) stays present but turns invalid.
  std::vector<u8> torn = b;
  torn[24] ^= 1;
  const vault::Record t = vault::parse_record(torn.data());
  EXPECT_TRUE(t.present);
  EXPECT_FALSE(t.valid);

  // An all-zero slot is absent, not torn.
  const std::vector<u8> zero(vault::kRecordSize, 0);
  const vault::Record z = vault::parse_record(zero.data());
  EXPECT_FALSE(z.present);
  EXPECT_FALSE(z.valid);
}

// ---------------------------------------------------------------------------
// Cold replay
// ---------------------------------------------------------------------------

struct TestRegion {
  vault::Geometry geo = small_geometry();
  std::vector<u8> bytes;

  TestRegion() : bytes(geo.total_len(), 0) {
    const std::vector<u8> sb = vault::superblock_bytes(geo);
    std::copy(sb.begin(), sb.end(), bytes.begin());
  }
  void put_record(u64 index, const std::vector<u8>& rec) {
    std::copy(rec.begin(), rec.end(), bytes.begin() + geo.record_off(index));
  }
  void put_payload(u64 slot, const std::vector<u8>& payload) {
    std::copy(payload.begin(), payload.end(),
              bytes.begin() + geo.slot_off(slot));
  }
};

std::vector<u8> test_payload(u8 salt) {
  std::vector<u8> p(64);
  for (size_t i = 0; i < p.size(); ++i) p[i] = static_cast<u8>(salt + i);
  return p;
}

TEST(VaultReplay, IntentsAloneCommitNothing) {
  TestRegion r;
  const std::vector<u8> payload = test_payload(1);
  r.put_record(0, vault::record_bytes(vault::kRecordIntentSeal, 1, 0, 64, 1,
                                      checksum64(payload.data(), 64)));
  r.put_payload(0, payload);
  const vault::Ledger led = vault::replay(r.bytes.data(), r.bytes.size());
  EXPECT_TRUE(led.superblock_ok);
  EXPECT_TRUE(led.live.empty());
  EXPECT_EQ(led.records_seen, 1u);
  EXPECT_EQ(led.commits_seen, 0u);
  EXPECT_EQ(led.torn_or_corrupt, 0u);
}

TEST(VaultReplay, CommitAdmitsBundleAndNewestSeqWins) {
  TestRegion r;
  const std::vector<u8> v1 = test_payload(1);
  const std::vector<u8> v2 = test_payload(2);
  r.put_payload(0, v1);
  r.put_payload(1, v2);
  r.put_record(1, vault::record_bytes(vault::kRecordCommit, 5, 0, 64, 1,
                                      checksum64(v1.data(), 64)));
  r.put_record(3, vault::record_bytes(vault::kRecordCommit, 5, 1, 64, 2,
                                      checksum64(v2.data(), 64)));
  const vault::Ledger led = vault::replay(r.bytes.data(), r.bytes.size());
  ASSERT_EQ(led.live.size(), 1u);
  const vault::Bundle& b = led.live.at(5);
  EXPECT_EQ(b.seq, 2u);
  EXPECT_EQ(b.slot, 1u);
  EXPECT_EQ(led.commits_seen, 2u);
}

TEST(VaultReplay, TornCommitAndPayloadMismatchAreDetectedNeverServed) {
  TestRegion r;
  const std::vector<u8> v1 = test_payload(1);
  r.put_payload(0, v1);
  std::vector<u8> commit = vault::record_bytes(
      vault::kRecordCommit, 5, 0, 64, 1, checksum64(v1.data(), 64));
  commit[40] ^= 0x10;  // torn mid-write
  r.put_record(1, commit);
  const vault::Ledger torn = vault::replay(r.bytes.data(), r.bytes.size());
  EXPECT_TRUE(torn.live.empty());
  EXPECT_EQ(torn.torn_or_corrupt, 1u);

  // Valid commit, rotted payload: demoted to payload_mismatch, not served.
  TestRegion q;
  std::vector<u8> rotted = v1;
  rotted[10] ^= 0x08;
  q.put_payload(0, rotted);
  q.put_record(1, vault::record_bytes(vault::kRecordCommit, 5, 0, 64, 1,
                                      checksum64(v1.data(), 64)));
  const vault::Ledger led = vault::replay(q.bytes.data(), q.bytes.size());
  EXPECT_TRUE(led.live.empty());
  EXPECT_EQ(led.payload_mismatch, 1u);
  EXPECT_EQ(led.commits_seen, 1u);
}

// ---------------------------------------------------------------------------
// Kernel syscall gates (a scripted mini-guest reports every ecall result)
// ---------------------------------------------------------------------------

// One straight-line guest: bootstrap a 2-slot vault, then push a scripted
// sequence of vault syscalls through the kernel and report each a0. The
// two knobs select the gate under test: the owner key's live permission
// (ownership gate) and whether the vault key gets sealed at all
// (seal-state gate).
isa::Image build_gate_probe(u64 owner_perm, bool seal_vault) {
  const vault::Geometry geo = small_geometry();
  const std::vector<u8> payload = test_payload(9);
  const u64 fnv = checksum64(payload.data(), payload.size());

  Program p;
  rt::add_crt0(p, "main");
  Function& f = p.add_function("main");
  f.instrumentable = false;

  auto copy_words = [&f](const char* src, const char* base_ptr, i64 dst_off,
                         int words) {
    f.la(t0, src);
    f.la(t1, base_ptr);
    f.ld(t1, 0, t1);
    for (int i = 0; i < words; ++i) {
      f.ld(t2, 8 * i, t0);
      f.sd(t2, dst_off + 8 * i, t1);
    }
  };

  f.li(a0, 0);
  f.li(a1, 4096);
  f.li(a2, 3);
  rt::syscall(f, os::sys::kMmap);
  f.la(t0, "__base");
  f.sd(a0, 0, t0);
  f.li(a0, 0);
  f.li(a1, 4096);
  f.li(a2, 3);
  rt::syscall(f, os::sys::kMmap);
  f.la(t0, "__reveal");
  f.sd(a0, 0, t0);
  copy_words("__super", "__base", 0, 10);

  f.li(a0, 0);
  f.li(a1, static_cast<i64>(owner_perm));
  rt::syscall(f, os::sys::kPkeyAlloc);  // -> 1 (the owner domain)
  f.li(a0, 0);
  f.li(a1, static_cast<i64>(os::pkeyperm::kWriteOnly));
  rt::syscall(f, os::sys::kPkeyAlloc);  // -> 2 (the vault domain)
  f.la(a0, "__reveal");
  f.ld(a0, 0, a0);
  f.li(a1, 4096);
  f.li(a2, 3);
  f.li(a3, 1);
  rt::syscall(f, os::sys::kPkeyMprotect);
  f.la(a0, "__base");
  f.ld(a0, 0, a0);
  f.li(a1, 4096);
  f.li(a2, 3);
  f.li(a3, 2);
  rt::syscall(f, os::sys::kPkeyMprotect);
  if (seal_vault) {
    f.li(a0, 2);
    f.li(a1, 1);
    f.li(a2, 1);
    rt::syscall(f, os::sys::kPkeySeal);
    f.call("__latch");
    f.li(a0, 2);
    rt::syscall(f, os::sys::kPkeyPermSeal);
  }

  // Intent + payload for (id=1, slot=0, seq=1), then the script.
  copy_words("__intent", "__base",
             static_cast<i64>(geo.record_off(0)), 8);
  copy_words("__payload", "__base", static_cast<i64>(geo.slot_off(0)), 8);

  auto vault_seal = [&f, &geo](u64 index) {
    f.la(a0, "__base");
    f.ld(a0, 0, a0);
    f.li(a1, static_cast<i64>(geo.record_off(index)));
    rt::syscall(f, os::sys::kVaultSeal);
    rt::syscall(f, os::sys::kReport);
  };
  auto vault_unseal = [&f](u64 id, const char* dst, bool deref) {
    f.la(a0, "__base");
    f.ld(a0, 0, a0);
    f.li(a1, static_cast<i64>(id));
    f.la(a2, dst);
    if (deref) f.ld(a2, 0, a2);
    rt::syscall(f, os::sys::kVaultUnseal);
    rt::syscall(f, os::sys::kReport);
  };

  vault_seal(0);  // [0] first commit
  vault_seal(0);  // [1] duplicate: the id is already live
  // [2] torn intent at journal index 2: copy then clobber the type word.
  copy_words("__intent", "__base", static_cast<i64>(geo.record_off(2)), 8);
  f.li(t2, 0xDEAD);
  f.sd(t2, static_cast<i64>(geo.record_off(2)) + 8, t1);
  vault_seal(2);
  vault_unseal(1, "__reveal", true);    // [3] legitimate readback
  vault_unseal(99, "__reveal", true);   // [4] unknown bundle id
  vault_unseal(1, "__dst0", false);     // [5] dst outside the owner domain
  // [6] write(2) straight from the read-disabled vault page.
  f.li(a0, 1);
  f.la(a1, "__base");
  f.ld(a1, 0, a1);
  f.li(a2, 8);
  rt::syscall(f, os::sys::kWrite);
  rt::syscall(f, os::sys::kReport);

  f.li(a0, 0);
  rt::syscall(f, os::sys::kExit);

  Function& latch = p.add_function("__latch");
  latch.instrumentable = false;
  latch.seal_start(0);
  latch.seal_end(0);
  latch.ret();

  p.add_zero("__base", 8);
  p.add_zero("__reveal", 8);
  p.add_zero("__dst0", 64);
  p.add_rodata("__super", vault::superblock_bytes(geo));
  p.add_rodata("__intent", vault::record_bytes(vault::kRecordIntentSeal, 1,
                                               0, 64, 1, fnv));
  p.add_rodata("__payload", payload);
  return p.link();
}

std::vector<i64> run_gate_probe(u64 owner_perm, bool seal_vault,
                                sim::Machine& m) {
  const int pid = m.load(build_gate_probe(owner_perm, seal_vault));
  EXPECT_GE(pid, 0);
  EXPECT_TRUE(m.run(2'000'000).completed);
  EXPECT_EQ(m.exit_code(pid), 0);
  std::vector<i64> out;
  for (const u64 r : m.kernel().reports()) out.push_back(static_cast<i64>(r));
  return out;
}

TEST(VaultKernel, GateOrderForHealthyOwner) {
  sim::Machine m;
  const std::vector<i64> r = run_gate_probe(os::pkeyperm::kRw, true, m);
  ASSERT_EQ(r.size(), 7u);
  EXPECT_EQ(r[0], 0);                 // seal commits
  EXPECT_EQ(r[1], os::err::kBusy);    // id already live
  EXPECT_EQ(r[2], os::err::kInval);   // torn intent refused
  EXPECT_EQ(r[3], 64);                // unseal returns the byte length
  EXPECT_EQ(r[4], os::err::kInval);   // unknown id
  EXPECT_EQ(r[5], os::err::kAcces);   // dst not owner-tagged
  EXPECT_EQ(r[6], os::err::kAcces);   // write(2) from the vault refused

  const os::VaultStats& vs = m.kernel().vault_stats();
  EXPECT_EQ(vs.seals, 1u);
  EXPECT_EQ(vs.unseals, 1u);
  EXPECT_EQ(vs.denials, 0u);
  EXPECT_EQ(vs.corruption_detected, 1u);
}

TEST(VaultKernel, OwnershipGateDeniesAndNotarises) {
  sim::Machine m;
  // The caller never holds kRw on the owner domain: every vault operation
  // must be refused (the torn intent is still detected first).
  const std::vector<i64> r = run_gate_probe(os::pkeyperm::kNone, true, m);
  ASSERT_EQ(r.size(), 7u);
  EXPECT_EQ(r[0], os::err::kAcces);
  EXPECT_EQ(r[1], os::err::kAcces);
  EXPECT_EQ(r[2], os::err::kInval);
  EXPECT_EQ(r[3], os::err::kAcces);
  EXPECT_EQ(r[4], os::err::kAcces);
  EXPECT_EQ(r[5], os::err::kAcces);
  EXPECT_EQ(r[6], os::err::kAcces);

  const os::VaultStats& vs = m.kernel().vault_stats();
  EXPECT_EQ(vs.seals, 0u);
  EXPECT_EQ(vs.unseals, 0u);
  EXPECT_EQ(vs.denials, 5u);
  u64 denied_marks = 0;
  for (const os::MarkRecord& mk : m.kernel().marks()) {
    if (mk.kind == os::mark::kVaultDenied) ++denied_marks;
  }
  EXPECT_EQ(denied_marks, 5u);
}

TEST(VaultKernel, UnsealedVaultIsRefusedService) {
  sim::Machine m;
  // Skipping pkey_seal/pkey_perm_seal leaves an unsealed "vault": the
  // kernel must refuse to notarise into it (kPerm), while the write(2)
  // hardening still applies (it keys off the live permission bits).
  const std::vector<i64> r = run_gate_probe(os::pkeyperm::kRw, false, m);
  ASSERT_EQ(r.size(), 7u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(r[i], os::err::kPerm) << i;
  EXPECT_EQ(r[6], os::err::kAcces);
  EXPECT_EQ(m.kernel().vault_stats().seals, 0u);
  EXPECT_EQ(m.kernel().vault_stats().corruption_detected, 0u);
}

// ---------------------------------------------------------------------------
// The full workload against its oracle
// ---------------------------------------------------------------------------

TEST(VaultWorkload, CleanRunReproducesExpectedLedger) {
  vault::VaultSpec spec;
  spec.seals = 3;
  spec.reseals = 2;
  spec.unseals = 2;
  spec.seed = 42;
  const vault::BuiltVault built = vault::build_vault(spec);
  sim::Machine m;
  const int pid = m.load(built.image);
  ASSERT_GE(pid, 0);
  ASSERT_TRUE(m.run(400'000'000).completed);
  EXPECT_EQ(m.exit_code(pid), 0);

  const os::Process& proc = m.kernel().process(pid);
  const auto loc = vault::find_vault(*proc.aspace);
  ASSERT_TRUE(loc.has_value());
  std::vector<u8> region(loc->geo.total_len());
  ASSERT_TRUE(proc.aspace->copy_in(loc->base, region.data(), region.size()));
  EXPECT_EQ(vault::ledger_string(vault::replay(region.data(), region.size())),
            built.expected_ledger);

  const os::VaultStats& vs = m.kernel().vault_stats();
  EXPECT_EQ(vs.seals, spec.seals);
  EXPECT_EQ(vs.reseals, spec.reseals);
  EXPECT_EQ(vs.unseals, spec.unseals);
  EXPECT_EQ(vs.denials, 0u);
  EXPECT_EQ(vs.corruption_detected, 0u);

  u64 intents = 0, commits = 0, unseals = 0;
  for (const os::MarkRecord& mk : m.kernel().marks()) {
    if (mk.kind == os::mark::kVaultIntent) ++intents;
    if (mk.kind == os::mark::kVaultCommit) ++commits;
    if (mk.kind == os::mark::kVaultUnseal) ++unseals;
  }
  EXPECT_EQ(intents, u64{spec.seals} + spec.reseals);
  EXPECT_EQ(commits, u64{spec.seals} + spec.reseals);
  EXPECT_EQ(unseals, u64{spec.unseals});
}

TEST(VaultWorkload, SeededJournalFaultsAreDetectedNeverServed) {
  vault::VaultSpec spec;
  const vault::BuiltVault built = vault::build_vault(spec);
  bool saw_injection = false;
  for (u64 seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    sim::MachineConfig mc;
    mc.fault_plan.enabled = true;
    mc.fault_plan.seed = seed;
    mc.fault_plan.rate = 2e-3;
    mc.fault_plan.max_faults = 3;
    mc.fault_plan.kinds = fault::kVaultFaultKinds;
    sim::Machine m(mc);
    const int pid = m.load(built.image);
    ASSERT_GE(pid, 0);
    ASSERT_TRUE(m.run(400'000'000).completed);
    const i64 code = m.exit_code(pid);
    const u64 injected =
        m.injector() != nullptr ? m.injector()->total_injected() : 0;
    if (injected == 0) {
      EXPECT_EQ(code, 0);
      continue;
    }
    saw_injection = true;
    if (code == 0) {
      // Survived: either the flip was benign (ledger byte-exact) or it is
      // visible to cold replay / the kernel — never a silent divergence.
      const os::Process& proc = m.kernel().process(pid);
      const auto loc = vault::find_vault(*proc.aspace);
      ASSERT_TRUE(loc.has_value());
      std::vector<u8> region(loc->geo.total_len());
      ASSERT_TRUE(
          proc.aspace->copy_in(loc->base, region.data(), region.size()));
      const vault::Ledger led = vault::replay(region.data(), region.size());
      const u64 detected = m.kernel().vault_stats().corruption_detected +
                           led.torn_or_corrupt + led.payload_mismatch;
      if (vault::ledger_string(led) != built.expected_ledger) {
        EXPECT_GT(detected, 0u) << "silent ledger divergence";
      }
    } else {
      // Refused: the guest aborted on a kernel refusal or reveal mismatch —
      // a detected fault, never silent divergence.
      EXPECT_TRUE(code == vault::kExitSealFailed ||
                  code == vault::kExitUnsealFailed ||
                  code == vault::kExitRevealMismatch)
          << "exit=" << code;
    }
  }
  EXPECT_TRUE(saw_injection) << "no seed injected anything; rate too low";
}

// ---------------------------------------------------------------------------
// Crash-anywhere sweep (down-scaled smoke; the CLI runs the full matrix)
// ---------------------------------------------------------------------------

TEST(VaultSweep, SmokeSweepHoldsAllInvariants) {
  vault::SweepConfig cfg;
  cfg.spec.seals = 2;
  cfg.spec.reseals = 1;
  cfg.spec.unseals = 1;
  cfg.min_points = 48;
  cfg.stride_points = 32;
  cfg.threads = 2;
  const vault::SweepResult r = vault::run_sweep(cfg);
  EXPECT_TRUE(r.ok) << r.canonical;
  EXPECT_TRUE(r.learning_failure.empty());
  EXPECT_GE(r.points, cfg.min_points);
  EXPECT_GT(r.boundary_points, 0u);
  EXPECT_GT(r.resume_points, 0u);
  EXPECT_EQ(r.failures, 0u);

  // The canonical verdict is byte-identical when run serially.
  vault::SweepConfig serial = cfg;
  serial.threads = 1;
  EXPECT_EQ(vault::run_sweep(serial).canonical, r.canonical);
}

TEST(VaultSweep, ChaosSweepWeakensOnlyToDetection) {
  vault::SweepConfig cfg;
  cfg.spec.seals = 2;
  cfg.spec.reseals = 1;
  cfg.spec.unseals = 1;
  cfg.min_points = 24;
  cfg.stride_points = 16;
  cfg.threads = 2;
  cfg.chaos = true;
  cfg.chaos_runs = 3;
  cfg.chaos_rate = 2e-3;
  const vault::SweepResult r = vault::run_sweep(cfg);
  EXPECT_TRUE(r.ok) << r.canonical;
  EXPECT_EQ(r.chaos.size(), cfg.chaos_runs);
  for (const vault::ChaosVerdict& cv : r.chaos) {
    EXPECT_TRUE(cv.ok) << cv.failure;
  }
}

TEST(VaultWorkload, RunOncePrimitiveMatchesOracleAndTraces) {
  const vault::VaultSpec spec;
  const vault::VaultRunResult bare = vault::run_vault_once(spec);
  ASSERT_TRUE(bare.ok()) << bare.ledger;
  EXPECT_TRUE(bare.trace.events.empty());

  const vault::VaultRunResult traced =
      vault::run_vault_once(spec, /*trace=*/true);
  ASSERT_TRUE(traced.ok());
  // Tracing never perturbs the run: ledger and instruction count are
  // byte-identical with the recorder on.
  EXPECT_EQ(traced.ledger, bare.ledger);
  EXPECT_EQ(traced.instructions, bare.instructions);

  u64 intents = 0, commits = 0, unseals = 0;
  for (const obs::Event& e : traced.trace.events) {
    if (e.kind == obs::EventKind::kVaultIntent) ++intents;
    if (e.kind == obs::EventKind::kVaultCommit) ++commits;
    if (e.kind == obs::EventKind::kVaultUnseal) ++unseals;
  }
  EXPECT_GT(intents, 0u);
  EXPECT_GT(commits, 0u);
  EXPECT_GT(unseals, 0u);

  // Every intent->commit pair folds into a vault txn span.
  const obs::SpanSet set = obs::build_spans(traced.trace);
  u64 txns = 0;
  for (const obs::Span& s : set.spans) {
    if (s.kind == obs::SpanKind::kVaultTxn &&
        s.status == obs::SpanStatus::kOk) {
      ++txns;
    }
  }
  EXPECT_EQ(txns, commits);
}

// ---------------------------------------------------------------------------
// Confidentiality scan: the zero-page-skipping search finds exactly what a
// full std::search finds.
// ---------------------------------------------------------------------------

constexpr size_t kPage = 4096;

size_t full_search(const std::vector<u8>& buf, const std::vector<u8>& needle) {
  return static_cast<size_t>(
      std::search(buf.begin(), buf.end(), needle.begin(), needle.end()) -
      buf.begin());
}

size_t scan(const std::vector<u8>& buf, const std::vector<u8>& needle) {
  return vault::find_needle(buf.data(), buf.size(),
                            vault::nonzero_page_runs(buf.data(), buf.size()),
                            needle);
}

void put(std::vector<u8>& buf, size_t at, const std::vector<u8>& bytes) {
  std::copy(bytes.begin(), bytes.end(), buf.begin() + static_cast<i64>(at));
}

TEST(VaultScan, RunsCoverExactlyTheNonZeroPages) {
  std::vector<u8> buf(5 * kPage + 100);
  buf[kPage + 7] = 1;
  buf[2 * kPage] = 2;
  buf[5 * kPage + 99] = 3;  // short last page
  using Run = vault::ByteRun;
  EXPECT_EQ(vault::nonzero_page_runs(buf.data(), buf.size()),
            (std::vector<Run>{{kPage, 3 * kPage},
                              {5 * kPage, 5 * kPage + 100}}));
  // A prefix ending inside a page keeps that page's short chunk.
  EXPECT_EQ(vault::nonzero_page_runs(buf.data(), 2 * kPage + 1),
            (std::vector<Run>{{kPage, 2 * kPage + 1}}));
  EXPECT_TRUE(vault::nonzero_page_runs(buf.data(), kPage).empty());
}

TEST(VaultScan, NeedleStraddlingAZeroPageIsFound) {
  // Leading zeros in a zero page, tail in the next, non-zero page.
  const std::vector<u8> lead = {0, 0, 0, 0, 0, 0xA1, 0xA2, 0xA3};
  std::vector<u8> buf(4 * kPage);
  put(buf, 2 * kPage - 5, lead);
  ASSERT_EQ(full_search(buf, lead), 2 * kPage - 5);
  EXPECT_EQ(scan(buf, lead), 2 * kPage - 5);

  // Non-zero head in a non-zero page, trailing zeros in the next, zero page.
  const std::vector<u8> trail = {0xB1, 0xB2, 0xB3, 0, 0, 0, 0, 0};
  std::vector<u8> buf2(4 * kPage);
  put(buf2, 2 * kPage - 3, trail);
  ASSERT_EQ(full_search(buf2, trail), 2 * kPage - 3);
  EXPECT_EQ(scan(buf2, trail), 2 * kPage - 3);
}

TEST(VaultScan, NeedleAtTheFirstAndLastByte) {
  const std::vector<u8> needle = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<u8> buf(3 * kPage + 17);  // not a page multiple
  put(buf, buf.size() - needle.size(), needle);
  EXPECT_EQ(scan(buf, needle), buf.size() - needle.size());
  put(buf, 0, needle);
  EXPECT_EQ(scan(buf, needle), 0u);
  // A needle one byte longer than what is left never matches.
  std::vector<u8> tail(buf.end() - 8, buf.end());
  tail.push_back(0);
  EXPECT_EQ(scan(buf, tail), full_search(buf, tail));
}

TEST(VaultScan, AllZeroNeedleSearchesTheWholeBuffer) {
  const std::vector<u8> zeros(8, 0);
  std::vector<u8> buf(2 * kPage + 9, 0xEE);
  EXPECT_EQ(scan(buf, zeros), buf.size());  // no zero run at all
  buf[kPage + 100] = 0;
  std::fill(buf.begin() + kPage + 200, buf.begin() + kPage + 208, 0);
  EXPECT_EQ(scan(buf, zeros), kPage + 200);
  std::vector<u8> sparse(3 * kPage);
  sparse[0] = 1;
  EXPECT_EQ(scan(sparse, zeros), 1u);
}

TEST(VaultScan, MatchesStdSearchOnRandomSparseBuffers) {
  Rng rng(20261017);
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<u8> buf(rng.range(1, 9 * kPage));
    // A few non-zero pages, each with a handful of bytes drawn from a small
    // alphabet so needles recur.
    const u64 dirty = rng.below(4);
    for (u64 d = 0; d < dirty; ++d) {
      const size_t page = rng.below((buf.size() + kPage - 1) / kPage);
      for (u64 k = rng.range(1, 24); k > 0; --k) {
        const size_t at = page * kPage + rng.below(kPage);
        if (at < buf.size()) buf[at] = static_cast<u8>(rng.range(1, 3));
      }
    }
    // Needles: copied from the buffer (a hit), or random over the alphabet
    // including zeros.
    for (int n = 0; n < 6; ++n) {
      const size_t len = rng.range(8, 16);
      std::vector<u8> needle(len);
      if (n % 2 == 0 && buf.size() >= len) {
        const size_t at = rng.below(buf.size() - len + 1);
        std::copy(buf.begin() + static_cast<i64>(at),
                  buf.begin() + static_cast<i64>(at + len), needle.begin());
      } else {
        for (u8& b : needle) b = static_cast<u8>(rng.below(3));
      }
      ASSERT_EQ(scan(buf, needle), full_search(buf, needle))
          << "iter " << iter << " len " << buf.size();
    }
  }
}

}  // namespace
}  // namespace sealpk
