// Tests for the sealed-storage vault (src/vault): on-disk format
// round-trips, cold-replay semantics, the kernel's vault-syscall gates
// (ownership, seal-state, duplicate-commit, torn-intent and destination
// checks), the clean guest workload against its build-time oracle, seeded
// vault-fault detection, and a down-scaled crash-anywhere sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serial.h"
#include "fault/fault.h"
#include "isa/program.h"
#include "os/syscall_abi.h"
#include "runtime/guest.h"
#include "sim/machine.h"
#include "snapshot/snapshot.h"
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
// Confidentiality scan: the one-pass in-place search finds exactly what a
// per-needle std::search over each copied-out mapping finds.
// ---------------------------------------------------------------------------

constexpr u64 kPage = mem::kPageSize;

// The scan's reference: every scanned mapping copied out whole and
// searched needle by needle, in plan order, with std::search.
std::optional<u64> reference_find(
    const os::AddressSpace& aspace,
    const std::optional<vault::VaultLocation>& vault_loc,
    const std::vector<std::vector<u8>>& needles) {
  for (const auto& [start, vma] : aspace.vmas()) {
    if (vault_loc.has_value() && start == vault_loc->base) continue;
    if (vma.pkey == vault::kOwnerPkey) continue;
    const u64 len = vma.end - vma.start;
    if (len > (8u << 20)) continue;
    std::vector<u8> buf(len);
    if (!aspace.copy_in(start, buf.data(), len)) continue;
    for (const std::vector<u8>& needle : needles) {
      const auto it =
          std::search(buf.begin(), buf.end(), needle.begin(), needle.end());
      if (it != buf.end()) return start + static_cast<u64>(it - buf.begin());
    }
  }
  return std::nullopt;
}

class VaultScan : public ::testing::Test {
 protected:
  static constexpr u64 kBase = 0x40000000;

  VaultScan()
      : mem_(64 << 20),
        frames_(1 << 20, (64 << 20) - (1 << 20)),
        aspace_(mem_, frames_, mem::pte::kSealPkPkeyBits) {}

  // Maps `bytes` (whole pages) at `at` and writes them.
  void map(u64 at, const std::vector<u8>& bytes, u32 pkey = 0) {
    ASSERT_EQ(bytes.size() % kPage, 0u);
    ASSERT_EQ(aspace_.map(at, bytes.size(), os::prot::kRead | os::prot::kWrite,
                          pkey),
              static_cast<i64>(at));
    ASSERT_TRUE(aspace_.copy_out(at, bytes.data(), bytes.size()));
  }

  // Round-trips guest memory through its snapshot port, which drops every
  // all-zero page: afterwards those read as never written.
  void forget_zero_pages() {
    ByteWriter w;
    mem_.save_state(w);
    const std::vector<u8> blob = w.take();
    ByteReader r(blob);
    mem_.load_state(r);
  }

  std::optional<u64> scan(const std::vector<std::vector<u8>>& needles) {
    return vault::SecretScan(needles).find(aspace_, std::nullopt);
  }
  std::optional<u64> reference(const std::vector<std::vector<u8>>& needles) {
    return reference_find(aspace_, std::nullopt, needles);
  }

  mem::PhysMem mem_;
  os::FrameAllocator frames_;
  os::AddressSpace aspace_;
};

void put(std::vector<u8>& buf, size_t at, const std::vector<u8>& bytes) {
  std::copy(bytes.begin(), bytes.end(), buf.begin() + static_cast<i64>(at));
}

TEST_F(VaultScan, RunsCoverExactlyTheNonZeroPages) {
  // The scan reads the page views; after the zero pages are dropped, a
  // view is present exactly for each page holding a non-zero byte.
  std::vector<u8> buf(5 * kPage);
  buf[kPage + 7] = 1;
  buf[2 * kPage] = 2;
  buf[5 * kPage - 1] = 3;
  map(kBase, buf);
  std::vector<const u8*> views;
  ASSERT_TRUE(aspace_.page_views(kBase, 5, views));
  EXPECT_EQ(std::count(views.begin(), views.end(), nullptr), 0);
  forget_zero_pages();
  ASSERT_TRUE(aspace_.page_views(kBase, 5, views));
  ASSERT_EQ(views.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(views[i] == nullptr, i == 0 || i == 3) << "page " << i;
  }
  EXPECT_EQ(views[1][7], 1);
  // A range reaching past the mapping is refused, like copy_in.
  EXPECT_FALSE(aspace_.page_views(kBase, 6, views));
}

TEST_F(VaultScan, NeedleStraddlingAZeroPageIsFound) {
  for (const bool forget : {false, true}) {
    SCOPED_TRACE(forget);
    // Leading zeros in a zero page, tail in the next, non-zero page; then
    // a non-zero head whose trailing zeros run into a zero page.
    const std::vector<u8> lead = {0, 0, 0, 0, 0, 0xA1, 0xA2, 0xA3};
    const std::vector<u8> trail = {0xB1, 0xB2, 0xB3, 0, 0, 0, 0, 0};
    std::vector<u8> buf(4 * kPage);
    put(buf, 2 * kPage - 5, lead);
    const u64 second = kBase + 8 * kPage;
    std::vector<u8> buf2(4 * kPage);
    put(buf2, 2 * kPage - 3, trail);
    map(kBase, buf);
    map(second, buf2);
    if (forget) forget_zero_pages();
    EXPECT_EQ(scan({lead}), kBase + 2 * kPage - 5);
    EXPECT_EQ(scan({trail}), second + 2 * kPage - 3);
    EXPECT_EQ(scan({trail}), reference({trail}));
    aspace_.unmap(kBase, 4 * kPage);
    aspace_.unmap(second, 4 * kPage);
  }
}

TEST_F(VaultScan, NeedleAtTheFirstAndLastByte) {
  const std::vector<u8> needle = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<u8> buf(3 * kPage);
  put(buf, buf.size() - needle.size(), needle);
  map(kBase, buf);
  EXPECT_EQ(scan({needle}), kBase + buf.size() - needle.size());
  ASSERT_TRUE(aspace_.copy_out(kBase, needle.data(), needle.size()));
  EXPECT_EQ(scan({needle}), kBase);
  // A needle one byte longer than what is left never matches, even when
  // the next mapping holds that byte: each mapping is its own buffer.
  std::vector<u8> tail(needle.end() - 8, needle.end());
  tail.push_back(0x77);
  map(kBase + buf.size(), std::vector<u8>(kPage, 0x77), /*pkey=*/3);
  EXPECT_EQ(scan({tail}), std::nullopt);
  EXPECT_EQ(reference({tail}), std::nullopt);
}

TEST_F(VaultScan, AllZeroNeedleSearchesTheWholeBuffer) {
  const std::vector<u8> zeros(8, 0);
  std::vector<u8> buf(3 * kPage, 0xEE);
  map(kBase, buf);
  EXPECT_EQ(scan({zeros}), std::nullopt);  // no zero run at all
  const std::vector<u8> one_zero = {0};
  ASSERT_TRUE(aspace_.copy_out(kBase + kPage + 100, one_zero.data(), 1));
  ASSERT_TRUE(aspace_.copy_out(kBase + kPage + 200, zeros.data(), 8));
  EXPECT_EQ(scan({zeros}), kBase + kPage + 200);
  // A mapping whose only zeros are a page that reads as never written.
  std::vector<u8> sparse(3 * kPage, 0xEE);
  std::fill(sparse.begin() + kPage, sparse.begin() + 2 * kPage, 0);
  map(kBase + 0x100000, sparse);
  aspace_.unmap(kBase, buf.size());
  forget_zero_pages();
  EXPECT_EQ(scan({zeros}), kBase + 0x100000 + kPage);
}

TEST_F(VaultScan, MatchesStdSearchOnRandomSparseBuffers) {
  Rng rng(20261017);
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<u8> buf(rng.range(1, 9) * kPage);
    // A few non-zero pages, each with a handful of bytes drawn from a small
    // alphabet so needles recur.
    const u64 dirty = rng.below(4);
    for (u64 d = 0; d < dirty; ++d) {
      const size_t page = rng.below(buf.size() / kPage);
      for (u64 k = rng.range(1, 24); k > 0; --k) {
        buf[page * kPage + rng.below(kPage)] =
            static_cast<u8>(rng.range(1, 3));
      }
    }
    map(kBase, buf);
    if (rng.below(2) == 0) forget_zero_pages();
    // Needle sets in plan order: each needle copied from the buffer (a
    // hit) or random over the alphabet including zeros.
    for (int set = 0; set < 4; ++set) {
      std::vector<std::vector<u8>> needles(rng.range(1, 4));
      for (std::vector<u8>& needle : needles) {
        needle.resize(rng.range(8, 16));
        if (rng.below(2) == 0) {
          const size_t at = rng.below(buf.size() - needle.size() + 1);
          std::copy(buf.begin() + static_cast<i64>(at),
                    buf.begin() + static_cast<i64>(at + needle.size()),
                    needle.begin());
        } else {
          for (u8& b : needle) b = static_cast<u8>(rng.below(3));
        }
      }
      ASSERT_EQ(scan(needles), reference(needles))
          << "iter " << iter << " pages " << buf.size() / kPage;
    }
    aspace_.unmap(kBase, buf.size());
  }
}

TEST_F(VaultScan, SecretPlantedInTheGuestStackIsFound) {
  const vault::BuiltVault built = vault::build_vault(vault::VaultSpec{});
  sim::Machine m;
  const int pid = m.load(built.image);
  ASSERT_GE(pid, 0);
  ASSERT_TRUE(m.run(400'000'000).completed);
  ASSERT_EQ(m.exit_code(pid), 0);
  os::AddressSpace& aspace = *m.kernel().process(pid).aspace;
  const std::optional<vault::VaultLocation> loc = vault::find_vault(aspace);
  ASSERT_TRUE(loc.has_value());
  const vault::SecretScan secrets = vault::secret_scan(built);
  EXPECT_EQ(secrets.find(aspace, loc), std::nullopt);

  // The stack is the highest mapping; its deep pages were never touched.
  const os::Vma& stack = aspace.vmas().rbegin()->second;
  ASSERT_EQ(stack.pkey, 0u);
  ASSERT_GE(stack.pages(), 16u);
  ASSERT_GE(built.payloads.size(), 2u);
  ASSERT_GE(built.payloads[1].size(), 16u);
  ASSERT_GE(built.payloads[0].size(), 16u);
  const std::vector<u8> first(built.payloads[0].begin(),
                              built.payloads[0].begin() + 16);
  const std::vector<u8> second(built.payloads[1].begin(),
                               built.payloads[1].begin() + 16);
  // The first needle in plan order straddles stack pages 5 and 6, between
  // zero pages 4 and 7, and recurs higher up; the second needle sits lower
  // than both.
  const u64 straddle = stack.start + 6 * kPage - 5;
  ASSERT_TRUE(aspace.copy_out(stack.start + 12 * kPage, first.data(), 16));
  ASSERT_TRUE(aspace.copy_out(straddle, first.data(), 16));
  ASSERT_TRUE(aspace.copy_out(stack.start + 2 * kPage + 40, second.data(), 16));
  EXPECT_EQ(secrets.find(aspace, loc), straddle);
  const std::vector<std::vector<u8>> needles = {first, second};
  EXPECT_EQ(reference_find(aspace, loc, needles), straddle);
}

// ---------------------------------------------------------------------------
// The single-pass sweep against its reference: a fresh machine killed at
// each point, its own checkpoint resumed, nothing shared or memoised.
// ---------------------------------------------------------------------------

vault::PointVerdict fresh_machine_point(const vault::BuiltVault& built,
                                        const vault::VaultSpec& spec,
                                        const sim::MachineConfig& mc,
                                        u64 crash_at, bool resume,
                                        std::set<std::vector<u8>>& blobs) {
  vault::PointVerdict v;
  v.instret = crash_at;
  const auto fail = [&v](const std::string& why) {
    if (v.ok) {
      v.ok = false;
      v.failure = why;
    }
  };
  // The recovered ledger of `aspace`'s vault; nullopt when unreadable.
  const auto ledger_of = [](const os::AddressSpace& aspace) {
    std::optional<vault::Ledger> ledger = vault::Ledger{};
    if (const auto loc = vault::find_vault(aspace)) {
      std::vector<u8> region(loc->geo.total_len());
      ledger.reset();
      if (aspace.copy_in(loc->base, region.data(), region.size())) {
        ledger = vault::replay(region.data(), region.size());
      }
    }
    return ledger;
  };
  sim::Machine m(mc);
  const int pid = m.load(built.image);
  EXPECT_GE(pid, 0);
  m.run(crash_at);
  const os::AddressSpace& aspace = *m.kernel().process(pid).aspace;
  const std::optional<vault::Ledger> read = ledger_of(aspace);
  if (!read.has_value()) fail("vault region unreadable");
  const vault::Ledger ledger = read.value_or(vault::Ledger{});
  v.live = ledger.live.size();
  v.commits = ledger.commits_seen;
  v.torn = ledger.torn_or_corrupt;
  for (const auto& [id, b] : ledger.live) {
    const bool planned = std::any_of(
        built.ops.begin(), built.ops.end(), [&](const vault::VaultOp& op) {
          return op.type != vault::OpType::kUnseal && op.id == id &&
                 op.seq == b.seq && op.slot == b.slot && op.len == b.len;
        });
    const std::vector<u8> expect =
        vault::payload_bytes(spec.seed, id, b.seq, b.len);
    if (!planned) {
      fail("unplanned live bundle id=" + std::to_string(id) +
           " seq=" + std::to_string(b.seq));
    } else if (checksum64(expect.data(), expect.size()) != b.payload_fnv) {
      fail("foreign payload content id=" + std::to_string(id));
    }
  }
  for (const os::MarkRecord& mr : m.kernel().marks()) {
    if (mr.kind == os::mark::kVaultDenied) {
      fail("unexpected ownership denial id=" + std::to_string(mr.arg0));
    }
    if (mr.kind != os::mark::kVaultCommit) continue;
    const auto it = ledger.live.find(mr.arg0);
    if (it == ledger.live.end() || it->second.seq < mr.arg1) {
      fail("committed bundle lost id=" + std::to_string(mr.arg0) +
           " seq=" + std::to_string(mr.arg1));
    }
  }
  std::vector<std::vector<u8>> needles;
  for (const std::vector<u8>& payload : built.payloads) {
    if (payload.size() >= 8) {
      needles.emplace_back(payload.begin(),
                           payload.begin() +
                               static_cast<i64>(std::min<size_t>(
                                   16, payload.size())));
    }
  }
  if (const auto at =
          reference_find(aspace, vault::find_vault(aspace), needles)) {
    fail("secret bytes outside vault at vaddr=" + std::to_string(*at));
  }
  if (resume && m.has_checkpoint()) {
    v.resumed = true;
    const std::vector<u8>& blob = m.checkpoint_blob();
    blobs.insert(blob);
    sim::Machine resumed(snapshot::config_from(blob));
    snapshot::restore(resumed, blob);
    if (!resumed.run(400'000'000).completed) {
      fail("resume did not complete");
    } else if (resumed.exit_code(pid) != 0) {
      fail("resume exit=" + std::to_string(resumed.exit_code(pid)));
    } else {
      const std::optional<vault::Ledger> led =
          ledger_of(*resumed.kernel().process(pid).aspace);
      if (!led.has_value() ||
          vault::ledger_string(*led) != built.expected_ledger) {
        fail("resume ledger diverged");
      }
    }
  }
  return v;
}

TEST(VaultSweep, SinglePassEqualsFreshMachinePerPoint) {
  vault::SweepConfig cfg;
  cfg.spec.seals = 2;
  cfg.spec.reseals = 1;
  cfg.spec.unseals = 1;
  cfg.min_points = 48;
  cfg.stride_points = 32;
  cfg.rollback_every = 1;
  cfg.checkpoint_interval = 300;  // several distinct checkpoints to resume
  const vault::BuiltVault built = vault::build_vault(cfg.spec);
  sim::MachineConfig mc;
  mc.checkpoint_interval = cfg.checkpoint_interval;

  std::vector<vault::PointVerdict> expect;
  std::set<std::vector<u8>> blobs;
  for (const unsigned threads : {1u, 2u, 3u}) {
    SCOPED_TRACE(threads);
    cfg.threads = threads;
    const vault::SweepResult r = vault::run_sweep(cfg);
    ASSERT_TRUE(r.learning_failure.empty()) << r.learning_failure;
    ASSERT_EQ(r.verdicts.size(), r.points);
    if (expect.empty()) {
      for (const vault::PointVerdict& v : r.verdicts) {
        expect.push_back(
            fresh_machine_point(built, cfg.spec, mc, v.instret, true, blobs));
      }
    }
    ASSERT_EQ(r.verdicts.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      const vault::PointVerdict& got = r.verdicts[i];
      const vault::PointVerdict& want = expect[i];
      SCOPED_TRACE(got.instret);
      EXPECT_EQ(got.instret, want.instret);
      EXPECT_EQ(got.ok, want.ok);
      EXPECT_EQ(got.failure, want.failure);
      EXPECT_EQ(got.resumed, want.resumed);
      EXPECT_EQ(got.live, want.live);
      EXPECT_EQ(got.commits, want.commits);
      EXPECT_EQ(got.torn, want.torn);
    }
  }
  // The points saw more than one checkpoint, and some crashed with
  // recoverable bundles and some before any commit.
  EXPECT_GE(blobs.size(), 3u);
  EXPECT_TRUE(std::any_of(expect.begin(), expect.end(),
                          [](const auto& v) { return v.live > 0; }));
  EXPECT_TRUE(std::any_of(expect.begin(), expect.end(),
                          [](const auto& v) { return v.live == 0; }));
}

}  // namespace
}  // namespace sealpk
