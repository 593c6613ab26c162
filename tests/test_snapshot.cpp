// Checkpoint/restore tests: serialization primitives, whole-machine
// snapshot round trips (bit-exact resume across ≥5 workloads, with and
// without fault injection), snapshot-rollback recovery, malformed-blob
// rejection, and the committed golden-file format-compatibility check.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "common/serial.h"
#include "guest_test_util.h"
#include "passes/shadow_stack.h"
#include "snapshot/snapshot.h"
#include "snapshot_test_util.h"
#include "workloads/workload.h"

namespace sealpk {
namespace {

// ---------------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------------

TEST(Serial, RoundTripsEveryPrimitive) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0xBEEF);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  w.put_bool(true);
  w.put_bool(false);
  w.put_f64(3.25);
  const std::string with_nul("hello\0world", 11);  // strings may carry NULs
  w.put_str(with_nul);
  std::bitset<128> bits;
  bits.set(0);
  bits.set(63);
  bits.set(64);
  bits.set(127);
  w.put_bitset(bits);

  ByteReader r(w.buffer());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0xBEEF);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_TRUE(r.get_bool());
  EXPECT_FALSE(r.get_bool());
  EXPECT_EQ(r.get_f64(), 3.25);
  EXPECT_EQ(r.get_str(), with_nul);
  EXPECT_EQ(r.get_bitset<128>(), bits);
  EXPECT_TRUE(r.done());
}

TEST(Serial, ReaderRejectsTruncatedStream) {
  ByteWriter w;
  w.put_u32(7);
  ByteReader r(w.buffer());
  r.get_u16();
  r.get_u16();
  EXPECT_THROW(r.get_u8(), CheckError);
}

// Byte-at-a-time little-endian reference for the word-wise writer.
std::vector<u8> ref_le(u64 v, unsigned bytes) {
  std::vector<u8> out;
  for (unsigned i = 0; i < bytes; ++i) {
    out.push_back(static_cast<u8>(v >> (8 * i)));
  }
  return out;
}

TEST(Serial, WordWritesMatchByteAtATimeReference) {
  std::vector<u64> values = {0,          1,           0x80,
                             0xFF,       0x8000,      0xFFFF,
                             0x80000000, 0xFFFFFFFF,  u64{1} << 63,
                             ~u64{0},    0x0123456789ABCDEFull,
                             std::bit_cast<u64>(-0.0)};
  Rng rng(2026);
  for (int i = 0; i < 256; ++i) values.push_back(rng.next());
  for (const u64 v : values) {
    ByteWriter w;
    w.put_u16(static_cast<u16>(v));
    w.put_u32(static_cast<u32>(v));
    w.put_u64(v);
    w.put_i64(static_cast<i64>(v));
    w.put_f64(std::bit_cast<double>(v));
    std::vector<u8> want;
    for (const unsigned bytes : {2u, 4u, 8u, 8u, 8u}) {
      const std::vector<u8> part = ref_le(v, bytes);
      want.insert(want.end(), part.begin(), part.end());
    }
    ASSERT_EQ(w.buffer(), want) << "value 0x" << std::hex << v;

    ByteReader r(w.buffer());
    EXPECT_EQ(r.get_u16(), static_cast<u16>(v));
    EXPECT_EQ(r.get_u32(), static_cast<u32>(v));
    EXPECT_EQ(r.get_u64(), v);
    EXPECT_EQ(r.get_i64(), static_cast<i64>(v));
    EXPECT_EQ(std::bit_cast<u64>(r.get_f64()), v);  // NaN payloads too
    EXPECT_TRUE(r.done());
  }
}

TEST(Serial, BitsetWordsMatchBitAtATimeReference) {
  using Bits = std::bitset<1024>;
  std::vector<Bits> patterns(6);
  patterns[1].set();
  for (size_t word = 0; word < 16; ++word) patterns[2].set(word * 64 + 63);
  for (size_t i = 960; i < 1024; ++i) patterns[3].set(i);  // top word only
  patterns[4].set(1023);
  patterns[5].set(0);
  Rng rng(77);
  for (int i = 0; i < 16; ++i) {
    Bits bits;
    for (size_t b = 0; b < 1024; ++b) {
      if (rng.chance(0.1 * (i % 10))) bits.set(b);
    }
    patterns.push_back(bits);
  }
  for (const Bits& bits : patterns) {
    std::vector<u8> want;
    for (size_t word = 0; word < 16; ++word) {
      u64 w = 0;
      for (size_t i = 0; i < 64; ++i) {
        if (bits[word * 64 + i]) w |= u64{1} << i;
      }
      const std::vector<u8> part = ref_le(w, 8);
      want.insert(want.end(), part.begin(), part.end());
    }
    ByteWriter w;
    w.put_bitset(bits);
    ASSERT_EQ(w.buffer(), want) << bits;
    ByteReader r(w.buffer());
    EXPECT_EQ(r.get_bitset<1024>(), bits);
    EXPECT_TRUE(r.done());
  }
}

TEST(Serial, CountTheStreamCannotHoldIsRejected) {
  ByteWriter w;
  w.put_u64(3);
  for (u64 i = 0; i < 3; ++i) w.put_u64(i);
  {
    ByteReader r(w.buffer());
    EXPECT_EQ(r.get_count(8), 3u);  // exactly fits
  }
  {
    ByteReader r(w.buffer());
    EXPECT_THROW(r.get_count(9), CheckError);
  }
  ByteWriter big;
  big.put_u64(u64{1} << 28);
  big.put_u64(0);
  ByteReader r(big.buffer());
  try {
    r.get_count(8);
    ADD_FAILURE() << "count 2^28 accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("count 268435456"),
              std::string::npos)
        << e.what();
  }
}

TEST(Rng, StateRoundTripResumesIdentically) {
  Rng a(1234);
  for (int i = 0; i < 100; ++i) a.next();
  const u64 mid = a.state();
  std::vector<u64> expect;
  for (int i = 0; i < 64; ++i) expect.push_back(a.next());

  Rng b(999);  // different seed: state() must fully override it
  b.set_state(mid);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(b.next(), expect[i]);
  EXPECT_EQ(a.state(), b.state());
}

TEST(Checksum, MatchesKnownFnv1aVector) {
  // FNV-1a 64 of "a" is a published test vector.
  const u8 a = 'a';
  EXPECT_EQ(checksum64(&a, 1), 0xAF63DC4C8601EC8Cull);
  Checksum64 inc;
  inc.update(&a, 1);
  EXPECT_EQ(inc.value(), 0xAF63DC4C8601EC8Cull);
}

TEST(Checksum, ZeroWordShortcutMatchesByteAtATime) {
  const auto reference = [](const std::vector<u8>& bytes, size_t from,
                            size_t len) {
    u64 h = Checksum64::kOffsetBasis;
    for (size_t i = from; i < from + len; ++i) {
      h ^= bytes[i];
      h *= Checksum64::kPrime;
    }
    return h;
  };
  Rng rng(64);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<u8> bytes(rng.range(1, 700));
    // Sparse: zero runs of every length and alignment between the bytes.
    for (u64 k = rng.below(12); k > 0; --k) {
      bytes[rng.below(bytes.size())] = static_cast<u8>(rng.range(1, 255));
    }
    const size_t from = rng.below(std::min<size_t>(bytes.size(), 9));
    const size_t len = bytes.size() - from;
    ASSERT_EQ(checksum64(bytes.data() + from, len),
              reference(bytes, from, len))
        << "iter " << iter;
    // Split updates continue the same state.
    Checksum64 split;
    const size_t cut = rng.below(len + 1);
    split.update(bytes.data() + from, cut);
    split.update(bytes.data() + from + cut, len - cut);
    ASSERT_EQ(split.value(), reference(bytes, from, len)) << "iter " << iter;
  }
}

// ---------------------------------------------------------------------------
// Whole-machine round trips.
// ---------------------------------------------------------------------------

const wl::Workload& workload_named(const std::string& name) {
  for (const auto& w : wl::all_workloads()) {
    if (name == w.name) return w;
  }
  ADD_FAILURE() << "unknown workload " << name;
  return wl::all_workloads().front();
}

// Runs `image` to `at`, snapshots, finishes, and checks that a second
// machine resumed from the snapshot reaches a bit-identical final state.
void expect_bit_exact_resume(const isa::Image& image,
                             const sim::MachineConfig& config, u64 at) {
  sim::Machine first(config);
  ASSERT_NE(first.load(image), sim::Machine::kLoadRefused);
  first.run(at);
  const std::vector<u8> mid = snapshot::save(first);

  // Canonical encoding: restoring a snapshot and re-saving immediately must
  // reproduce the blob byte for byte.
  sim::Machine probe(snapshot::config_from(mid));
  snapshot::restore(probe, mid);
  EXPECT_EQ(snapshot::save(probe), mid);

  ASSERT_TRUE(first.run(400'000'000).completed);
  const std::vector<u8> final_first = snapshot::save(first);

  sim::Machine resumed(snapshot::config_from(mid));
  snapshot::restore(resumed, mid);
  ASSERT_TRUE(resumed.run(400'000'000).completed);
  const std::vector<u8> final_resumed = snapshot::save(resumed);

  EXPECT_EQ(final_first, final_resumed)
      << "resumed execution diverged; first difference:\n"
      << (snapshot::diff(final_first, final_resumed).empty()
              ? std::string("(none)")
              : snapshot::diff(final_first, final_resumed).front());
}

TEST(SnapshotRoundTrip, FiveWorkloadsResumeBitExact) {
  for (const char* name :
       {"qsort", "sha", "bitcount", "dijkstra", "patricia"}) {
    SCOPED_TRACE(name);
    const wl::Workload& w = workload_named(name);
    expect_bit_exact_resume(w.build(w.test_scale).link(),
                            sim::MachineConfig{}, 50'000);
  }
}

TEST(SnapshotRoundTrip, MultiProcessPreemptedMachineResumesBitExact) {
  const wl::Workload& w = workload_named("qsort");
  const isa::Image image = w.build(w.test_scale).link();
  sim::MachineConfig config;
  config.preempt_quantum = 1'000;

  sim::Machine first(config);
  first.load(image);
  first.load(image);  // two tenants sharing the machine
  first.run(30'000);
  const std::vector<u8> mid = snapshot::save(first);
  ASSERT_TRUE(first.run(400'000'000).completed);
  const std::vector<u8> final_first = snapshot::save(first);

  sim::Machine resumed(snapshot::config_from(mid));
  snapshot::restore(resumed, mid);
  ASSERT_TRUE(resumed.run(400'000'000).completed);
  EXPECT_EQ(snapshot::save(resumed), final_first);
}

TEST(SnapshotRoundTrip, ChaosRunResumesBitExact) {
  // The injector's RNG stream, fire schedule and event log travel in the
  // snapshot, so even a fault-injected run must resume bit-identically.
  const wl::Workload& w = workload_named("sha");
  sim::MachineConfig config;
  config.fault_plan.enabled = true;
  config.fault_plan.seed = 9;
  config.fault_plan.rate = 5e-5;
  expect_bit_exact_resume(w.build(w.test_scale).link(), config, 50'000);
}

TEST(SnapshotRoundTrip, SealedShadowStackResumesBitExact) {
  const wl::Workload& w = workload_named("sha");
  isa::Program prog = w.build(w.test_scale);
  passes::ShadowStackOptions ss;
  ss.kind = passes::ShadowStackKind::kSealPkWr;
  ss.perm_seal = true;
  passes::apply_shadow_stack(prog, ss);
  expect_bit_exact_resume(prog.link(), sim::MachineConfig{}, 50'000);
}

TEST(Snapshot, ConfigRoundTripsThroughBlob) {
  sim::MachineConfig config;
  config.preempt_quantum = 123;
  config.checkpoint_interval = 7'000;
  config.max_rollbacks = 9;
  config.kernel.save_pkr_on_switch = false;
  config.fault_plan.enabled = true;
  config.fault_plan.seed = 77;
  config.fault_plan.rate = 1e-6;
  config.fault_plan.cam_rate = 0.25;
  config.fault_plan.max_faults = 5;
  config.fault_plan.kinds = kind_bit(fault::FaultKind::kPkrBitFlip);
  sim::Machine machine(config);
  const std::vector<u8> blob = snapshot::save(machine);

  const sim::MachineConfig back = snapshot::config_from(blob);
  EXPECT_EQ(back.preempt_quantum, 123u);
  EXPECT_EQ(back.checkpoint_interval, 7'000u);
  EXPECT_EQ(back.max_rollbacks, 9u);
  EXPECT_FALSE(back.kernel.save_pkr_on_switch);
  EXPECT_TRUE(back.fault_plan.enabled);
  EXPECT_EQ(back.fault_plan.seed, 77u);
  EXPECT_EQ(back.fault_plan.rate, 1e-6);
  EXPECT_EQ(back.fault_plan.cam_rate, 0.25);
  EXPECT_EQ(back.fault_plan.max_faults, 5u);
  EXPECT_EQ(back.fault_plan.kinds, kind_bit(fault::FaultKind::kPkrBitFlip));
}

TEST(Snapshot, CheckpointingItselfIsInvisibleToTheGuest) {
  // Checkpoints are taken with peek-only serialization, so enabling them
  // must not change a single guest-visible bit or cycle.
  const wl::Workload& w = workload_named("qsort");
  const isa::Image image = w.build(w.test_scale).link();

  sim::Machine plain{sim::MachineConfig{}};
  const int plain_pid = plain.load(image);
  ASSERT_TRUE(plain.run(400'000'000).completed);

  sim::MachineConfig ckpt_config;
  ckpt_config.checkpoint_interval = 5'000;
  sim::Machine ckpt(ckpt_config);
  const int ckpt_pid = ckpt.load(image);
  ASSERT_TRUE(ckpt.run(400'000'000).completed);

  EXPECT_GE(ckpt.checkpoints_taken(), 2u);
  EXPECT_EQ(ckpt.exit_code(ckpt_pid), plain.exit_code(plain_pid));
  EXPECT_EQ(ckpt.kernel().console(), plain.kernel().console());
  EXPECT_EQ(ckpt.kernel().reports(), plain.kernel().reports());
  EXPECT_EQ(ckpt.hart().instret(), plain.hart().instret());
  EXPECT_EQ(ckpt.hart().cycles(), plain.hart().cycles());
}

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------

std::vector<u8> small_snapshot() {
  sim::Machine machine{sim::MachineConfig{}};
  return snapshot::save(machine);
}

TEST(SnapshotValidation, RejectsCorruptedPayload) {
  std::vector<u8> blob = small_snapshot();
  blob[blob.size() / 2] ^= 0x40;
  sim::Machine machine{sim::MachineConfig{}};
  EXPECT_THROW(snapshot::restore(machine, blob), snapshot::SnapshotError);
  EXPECT_THROW(snapshot::info(blob), snapshot::SnapshotError);
}

TEST(SnapshotValidation, RejectsTruncation) {
  std::vector<u8> blob = small_snapshot();
  blob.resize(blob.size() - 7);
  sim::Machine machine{sim::MachineConfig{}};
  EXPECT_THROW(snapshot::restore(machine, blob), snapshot::SnapshotError);
  blob.resize(4);  // shorter than the header
  EXPECT_THROW(snapshot::restore(machine, blob), snapshot::SnapshotError);
}

TEST(SnapshotValidation, RejectsBadMagicAndUnknownVersion) {
  std::vector<u8> blob = small_snapshot();
  {
    std::vector<u8> bad = blob;
    bad[0] = 'X';
    EXPECT_THROW(snapshot::info(bad), snapshot::SnapshotError);
  }
  {
    std::vector<u8> bad = blob;
    bad[8] = 0xFF;  // version field
    EXPECT_THROW(snapshot::info(bad), snapshot::SnapshotError);
  }
}

TEST(SnapshotValidation, RejectsConfigMismatch) {
  std::vector<u8> blob = small_snapshot();
  sim::MachineConfig other;
  other.preempt_quantum = 1;  // differs from the default used in the blob
  sim::Machine machine(other);
  EXPECT_THROW(snapshot::restore(machine, blob), snapshot::SnapshotError);
}

TEST(Snapshot, InfoAndDiffReportSections) {
  const wl::Workload& w = workload_named("qsort");
  sim::Machine machine{sim::MachineConfig{}};
  machine.load(w.build(w.test_scale).link());
  machine.run(10'000);
  const std::vector<u8> a = snapshot::save(machine);
  machine.run(10'000);
  const std::vector<u8> b = snapshot::save(machine);

  const snapshot::Info info = snapshot::info(a);
  EXPECT_EQ(info.version, snapshot::kFormatVersion);
  EXPECT_TRUE(info.checksum_ok);
  EXPECT_GE(info.instret, 10'000u);
  ASSERT_GE(info.sections.size(), 10u);
  EXPECT_EQ(info.sections.front().name, "CFG");
  EXPECT_EQ(info.sections[1].name, "HART");

  EXPECT_TRUE(snapshot::diff(a, a).empty());
  const std::vector<std::string> d = snapshot::diff(a, b);
  EXPECT_FALSE(d.empty());  // 10k more instructions: HART must differ
  bool saw_hart = false;
  for (const auto& line : d) saw_hart |= line.rfind("HART", 0) == 0;
  EXPECT_TRUE(saw_hart);
}

TEST(Snapshot, FileRoundTrip) {
  const std::vector<u8> blob = small_snapshot();
  const std::string path = ::testing::TempDir() + "sealpk_test.spksnap";
  snapshot::write_file(path, blob);
  EXPECT_EQ(snapshot::read_file(path), blob);
  std::remove(path.c_str());
  EXPECT_THROW(snapshot::read_file(path), snapshot::SnapshotError);
}

// ---------------------------------------------------------------------------
// Rollback recovery.
// ---------------------------------------------------------------------------

struct RollbackRun {
  bool completed = false;
  i64 exit_code = 0;
  std::string console;
  std::vector<u64> reports;
  u64 rollbacks = 0;
  u64 rollback_failures = 0;
  u64 checkpoints = 0;
};

RollbackRun run_pkr_chaos(const isa::Image& image, u64 checkpoint_interval,
                          u64 max_rollbacks, double rate, u64 max_faults) {
  sim::MachineConfig config;
  // No trusted PKR shadow: a parity-bad row cannot be scrubbed, so every
  // PKR flip escalates to an unrecoverable machine check.
  config.kernel.save_pkr_on_switch = false;
  config.fault_plan.enabled = true;
  config.fault_plan.seed = 7;
  config.fault_plan.rate = rate;
  config.fault_plan.max_faults = max_faults;
  config.fault_plan.kinds = kind_bit(fault::FaultKind::kPkrBitFlip);
  config.checkpoint_interval = checkpoint_interval;
  config.max_rollbacks = max_rollbacks;
  sim::Machine machine(config);
  const int pid = machine.load(image);
  RollbackRun out;
  out.completed = machine.run(400'000'000).completed;
  out.exit_code = machine.exit_code(pid);
  out.console = machine.kernel().console();
  out.reports = machine.kernel().reports();
  out.rollbacks = machine.rollbacks();
  out.rollback_failures = machine.rollback_failures();
  out.checkpoints = machine.checkpoints_taken();
  return out;
}

RollbackRun run_clean(const isa::Image& image) {
  sim::Machine machine{sim::MachineConfig{}};
  const int pid = machine.load(image);
  RollbackRun out;
  out.completed = machine.run(400'000'000).completed;
  out.exit_code = machine.exit_code(pid);
  out.console = machine.kernel().console();
  out.reports = machine.kernel().reports();
  return out;
}

TEST(Rollback, ConvertsMachineCheckKillIntoCleanCompletion) {
  const wl::Workload& w = workload_named("sha");
  const isa::Image image = w.build(w.test_scale).link();
  const RollbackRun clean = run_clean(image);
  ASSERT_TRUE(clean.completed);

  // Baseline: one PKR flip with no trusted shadow and no checkpointing is
  // an unrecoverable machine check — the process dies.
  const RollbackRun killed = run_pkr_chaos(image, /*checkpoint_interval=*/0,
                                           /*max_rollbacks=*/3,
                                           /*rate=*/1e-4, /*max_faults=*/1);
  ASSERT_TRUE(killed.completed);  // the kill ends the (only) process
  ASSERT_EQ(killed.exit_code, os::kExitMachineCheck);
  EXPECT_EQ(killed.rollbacks, 0u);

  // Same plan with periodic checkpoints: the machine restores the last
  // known-good snapshot, suppresses the injection, and the re-executed run
  // finishes with output identical to the clean one.
  const RollbackRun rolled = run_pkr_chaos(image, /*checkpoint_interval=*/5'000,
                                           /*max_rollbacks=*/3,
                                           /*rate=*/1e-4, /*max_faults=*/1);
  ASSERT_TRUE(rolled.completed);
  EXPECT_GE(rolled.rollbacks, 1u);
  EXPECT_EQ(rolled.exit_code, clean.exit_code);
  EXPECT_EQ(rolled.console, clean.console);
  EXPECT_EQ(rolled.reports, clean.reports);
}

TEST(Rollback, RetryCapContainsPermanentlyCorruptingPlan) {
  const wl::Workload& w = workload_named("sha");
  const isa::Image image = w.build(w.test_scale).link();

  // Unlimited PKR flips at a hot rate: every rollback re-executes into
  // fresh corruption. The cap must stop the retry loop and let the machine
  // check kill stand.
  const RollbackRun run = run_pkr_chaos(image, /*checkpoint_interval=*/5'000,
                                        /*max_rollbacks=*/2,
                                        /*rate=*/1e-3, /*max_faults=*/0);
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(run.exit_code, os::kExitMachineCheck);
  EXPECT_EQ(run.rollbacks, 2u);
  EXPECT_GE(run.rollback_failures, 1u);
}

TEST(Rollback, CorruptionInFlightAtCheckpointTimeKeepsPreviousKnownGood) {
  // A machine check brewing *during* the periodic checkpoint window must
  // never be frozen into the "known-good" blob: take_checkpoint's peek-only
  // audit sees the latent PKR flip, skips the save (keeping the previous
  // checkpoint), and the eventual machine check rolls back to that
  // pre-fault state and completes clean.
  const wl::Workload& w = workload_named("sha");
  const isa::Image image = w.build(w.test_scale).link();
  const RollbackRun clean = run_clean(image);
  ASSERT_TRUE(clean.completed);

  sim::MachineConfig config;
  config.kernel.save_pkr_on_switch = false;
  config.fault_plan.enabled = true;
  config.fault_plan.seed = 7;
  config.fault_plan.rate = 1e-4;
  config.fault_plan.max_faults = 1;
  config.fault_plan.kinds = kind_bit(fault::FaultKind::kPkrBitFlip);
  config.checkpoint_interval = 1'000;
  config.max_rollbacks = 3;
  // Escalating audits far apart: between injection and escalation the only
  // audits are the peek-only ones inside take_checkpoint, so several
  // checkpoint deadlines pass while the corruption is in flight.
  config.audit_interval = 50'000;
  sim::Machine machine(config);
  const int pid = machine.load(image);
  ASSERT_GE(pid, 0);

  bool completed = false;
  bool saw_injection = false;
  u64 ckpts_at_injection = 0;
  u64 instret_at_injection = 0;
  u64 latent_instret = 0;  // furthest point reached while corrupted
  for (int slice = 0; slice < 4'000 && !completed; ++slice) {
    completed = machine.run(500).completed;
    if (!saw_injection && machine.injector()->total_injected() == 1) {
      saw_injection = true;
      ckpts_at_injection = machine.checkpoints_taken();
      instret_at_injection = machine.hart().instret();
    }
    if (saw_injection && machine.rollbacks() == 0) {
      if (machine.hart().instret() > latent_instret) {
        latent_instret = machine.hart().instret();
      }
      EXPECT_EQ(machine.checkpoints_taken(), ckpts_at_injection)
          << "checkpoint taken while corruption was in flight";
    }
  }
  ASSERT_TRUE(completed);
  ASSERT_TRUE(saw_injection);
  // The latent window spanned several checkpoint deadlines — each one was
  // skipped — and the rollback then used the kept pre-fault checkpoint.
  EXPECT_GE(latent_instret,
            instret_at_injection + 2 * config.checkpoint_interval);
  EXPECT_GE(machine.rollbacks(), 1u);
  EXPECT_EQ(machine.rollback_failures(), 0u);
  EXPECT_GT(machine.checkpoints_taken(), ckpts_at_injection);
  EXPECT_EQ(machine.exit_code(pid), clean.exit_code);
  EXPECT_EQ(machine.kernel().console(), clean.console);
  EXPECT_EQ(machine.kernel().reports(), clean.reports);
}

// ---------------------------------------------------------------------------
// Unsealed saves and lazily sealed checkpoints.
// ---------------------------------------------------------------------------

TEST(LazySeal, SaveIsSealOfSaveUnsealed) {
  const auto m = testutil::mid_run_vault_machine();
  ASSERT_NE(m, nullptr);
  std::vector<u8> blob = snapshot::save_unsealed(*m);
  EXPECT_THROW(snapshot::info(blob), snapshot::SnapshotError);
  snapshot::seal(blob);
  EXPECT_EQ(blob, snapshot::save(*m));
  std::vector<u8> stub(5);
  EXPECT_THROW(snapshot::seal(stub), snapshot::SnapshotError);
}

TEST(LazySeal, CheckpointBlobEqualsSaveAtTheCheckpointInstret) {
  const auto m = testutil::mid_run_vault_machine();
  ASSERT_NE(m, nullptr);
  ASSERT_TRUE(m->has_checkpoint());
  const std::vector<u8> blob = m->checkpoint_blob();
  const snapshot::Info info = snapshot::info(blob);  // sealed: header valid
  EXPECT_GT(info.instret, 0u);
  EXPECT_LE(info.instret, testutil::kVaultMidRun);
  EXPECT_EQ(m->checkpoint_blob(), blob);  // sealing happens once

  // A second machine run to the same instret saves the same bytes. The
  // checkpointing machine had already moved its schedule on when it saved.
  sim::Machine straight(testutil::vault_config());
  ASSERT_GE(straight.load(testutil::vault_image()), 0);
  straight.run(info.instret);
  ASSERT_EQ(straight.hart().instret(), info.instret);
  straight.runloop().next_checkpoint =
      info.instret + testutil::kVaultCheckpointInterval;
  EXPECT_EQ(snapshot::save(straight), blob);

  // And the blob restores and re-saves canonically.
  sim::Machine restored(snapshot::config_from(blob));
  snapshot::restore(restored, blob);
  EXPECT_EQ(snapshot::save(restored), blob);
}

TEST(LazySeal, CheckpointEventCarriesTheSealedSize) {
  sim::MachineConfig config = testutil::vault_config();
  config.trace.enabled = true;
  const auto m = testutil::mid_run_vault_machine(config);
  ASSERT_NE(m, nullptr);
  ASSERT_NE(m->recorder(), nullptr);
  const obs::Event* last = nullptr;
  for (const obs::Event& e : m->recorder()->events()) {
    if (e.kind == obs::EventKind::kCheckpoint) last = &e;
  }
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->arg0, m->checkpoints_taken());
  const std::vector<u8>& blob = m->checkpoint_blob();
  EXPECT_EQ(last->arg1, blob.size());
  EXPECT_EQ(snapshot::info(blob).payload_len + testutil::kSnapshotHeader,
            blob.size());
}

// ---------------------------------------------------------------------------
// Bounded decoding: a corrupt count is refused before it allocates.
// ---------------------------------------------------------------------------

TEST(SnapshotValidation, OverLongCountIsRejectedBeforeAllocating) {
  const auto m = testutil::mid_run_vkey_machine();
  ASSERT_NE(m, nullptr);
  const mpk::VkeyTable* table = m->kernel().process(1).vkeys.get();
  ASSERT_NE(table, nullptr);
  ASSERT_FALSE(table->entries().empty());
  std::vector<u8> blob = snapshot::save(*m);
  const auto vkey = testutil::section_named(blob, "VKEY");
  ASSERT_TRUE(vkey.has_value());
  // VKEY body: process count, pid, has-table, then the table: mru_slots,
  // lazy_sync, next_vkey, park key, entry count, and the first entry's
  // vkey, state, perm, phys and pages ahead of its group count.
  const size_t groups_at =
      vkey->body + (8 + 4 + 1) + (4 + 1 + 8 + 4 + 8) + (8 + 1 + 1 + 4 + 8);
  ASSERT_EQ(testutil::load_le64(blob, groups_at),
            table->entries().begin()->second.groups.size());
  testutil::store_le64(blob, groups_at, u64{1} << 28);
  snapshot::seal(blob);

  sim::Machine target(snapshot::config_from(blob));
  try {
    snapshot::restore(target, blob);
    ADD_FAILURE() << "over-long group count restored";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("count 268435456"),
              std::string::npos)
        << e.what();
  }
}

TEST(SnapshotValidation, ConfigFromRefusesUnbuildableMachines) {
  const std::vector<u8> good = small_snapshot();
  const auto cfg = testutil::section_named(good, "CFG");
  ASSERT_TRUE(cfg.has_value());
  // CFG body: flavour byte, then dtlb_entries.
  std::vector<u8> bad = good;
  testutil::store_le64(bad, cfg->body + 1, u64{1} << 40);
  snapshot::seal(bad);
  EXPECT_THROW(snapshot::config_from(bad), snapshot::SnapshotError);
  bad = good;
  bad[cfg->body] = 0x7F;
  snapshot::seal(bad);
  EXPECT_THROW(snapshot::config_from(bad), snapshot::SnapshotError);
}

// ---------------------------------------------------------------------------
// Golden-file format compatibility.
// ---------------------------------------------------------------------------

TEST(SnapshotGolden, CommittedV1SnapshotStillRestoresAndCompletes) {
  // tests/golden/qsort_mid.spksnap is a committed v1 snapshot (qsort at
  // instret 20'000, mid-run). Any encoding change that breaks old files must
  // show up here — bump kFormatVersion and regenerate deliberately, never
  // silently:
  //   sealpk-snapshot save qsort --at=20000 --out=tests/golden/qsort_mid.spksnap
  const std::string path =
      std::string(SEALPK_SOURCE_DIR) + "/tests/golden/qsort_mid.spksnap";
  const std::vector<u8> blob = snapshot::read_file(path);

  const snapshot::Info info = snapshot::info(blob);
  EXPECT_EQ(info.version, 1u);  // committed blob predates the v2 VKEY bump
  EXPECT_EQ(info.instret, 20'000u);

  sim::Machine machine(snapshot::config_from(blob));
  snapshot::restore(machine, blob);
  ASSERT_TRUE(machine.run(400'000'000).completed);
  ASSERT_TRUE(machine.has_process(1));
  EXPECT_EQ(machine.exit_code(1), 0);
}

TEST(SnapshotGolden, TracingDoesNotPerturbGoldenReplay) {
  // Zero-perturbation contract for the committed v1 snapshot: restoring it
  // into a machine with the event recorder enabled must replay exactly the
  // run the untraced machine replays — same outcome, same console, and the
  // same final serialized state (trace config and recorder state live
  // outside the snapshot format on purpose).
  const std::string path =
      std::string(SEALPK_SOURCE_DIR) + "/tests/golden/qsort_mid.spksnap";
  const std::vector<u8> blob = snapshot::read_file(path);

  sim::Machine plain(snapshot::config_from(blob));
  snapshot::restore(plain, blob);
  ASSERT_TRUE(plain.run(400'000'000).completed);

  sim::MachineConfig traced_config = snapshot::config_from(blob);
  traced_config.trace.enabled = true;
  traced_config.trace.sample_interval = 512;
  sim::Machine traced(traced_config);
  snapshot::restore(traced, blob);
  ASSERT_TRUE(traced.run(400'000'000).completed);

  EXPECT_EQ(plain.exit_code(1), traced.exit_code(1));
  EXPECT_EQ(plain.kernel().console(), traced.kernel().console());
  EXPECT_EQ(plain.kernel().reports(), traced.kernel().reports());
  EXPECT_EQ(snapshot::save(plain), snapshot::save(traced));
  ASSERT_NE(traced.recorder(), nullptr);
  EXPECT_GT(traced.recorder()->events().size(), 0u);
}

}  // namespace
}  // namespace sealpk
