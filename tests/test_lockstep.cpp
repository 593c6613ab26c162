// Lockstep oracle for the block-threaded hart (DESIGN.md §17).
//
// Seeded generated programs (guest_gen.h) run several to a machine, each
// process ending in its own way, under preemption. Each machine runs
//   - warm: one Machine stepped by run(1), its decoded pages and page
//     caches kept from step to step;
//   - cold: from the same start, save -> restore into a fresh Machine
//     before every instruction, so every fetch decodes and every access
//     looks the TLB up. Both are compared after every step: snapshot
//     bytes and the TLB/PKR counters;
//   - straight: one run() call, so blocks run to their natural ends;
//   - chunked: run(k) over random k, so chunk boundaries split blocks at
//     arbitrary points, restored into a fresh Machine after half of the
//     chunks. Its snapshot is compared at every chunk end with the warm
//     run's at the same instret;
//   - traced, straight and stepped: the event streams must be equal.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "guest_gen.h"
#include "isa/inst.h"
#include "snapshot/snapshot.h"

namespace sealpk {
namespace {

using testutil::GenEnd;

constexpr u64 kSeed = 0x10c5;
constexpr unsigned kMachines = 6;
constexpr unsigned kProcessesPerMachine = 3;
constexpr u64 kMaxSteps = 20'000;

struct Counters {
  mem::TlbStats itlb, dtlb;
  hw::PkrStats pkr;
  bool operator==(const Counters& o) const {
    const auto same = [](const mem::TlbStats& a, const mem::TlbStats& b) {
      return a.hits == b.hits && a.misses == b.misses &&
             a.flushes == b.flushes;
    };
    return same(itlb, o.itlb) && same(dtlb, o.dtlb) &&
           pkr.perm_lookups == o.pkr.perm_lookups &&
           pkr.row_reads == o.pkr.row_reads &&
           pkr.row_writes == o.pkr.row_writes;
  }
};

Counters counters_of(sim::Machine& m) {
  return {m.hart().itlb().stats(), m.hart().dtlb().stats(),
          m.hart().pkr().stats()};
}

std::string first_difference(const std::vector<u8>& want,
                             const std::vector<u8>& got) {
  const auto d = snapshot::diff(want, got);
  return d.empty() ? std::string("(no section differs)") : d.front();
}

std::unique_ptr<sim::Machine> restored(const std::vector<u8>& blob) {
  auto m = std::make_unique<sim::Machine>(snapshot::config_from(blob));
  snapshot::restore(*m, blob);
  return m;
}

struct Corpus {
  sim::MachineConfig config;
  std::vector<isa::Image> images;
};

Corpus make_corpus(unsigned machine, Rng& rng, unsigned* next_end) {
  Corpus c;
  c.config.hart.flavor = machine % 2 == 0 ? core::IsaFlavor::kSealPk
                                          : core::IsaFlavor::kIntelMpkCompat;
  c.config.kernel.sv48 = machine % 3 == 2;
  c.config.preempt_quantum = rng.range(16, 300);
  for (unsigned p = 0; p < kProcessesPerMachine; ++p) {
    testutil::GenOptions options;
    options.flavor = c.config.hart.flavor;
    options.end = static_cast<GenEnd>((*next_end)++ % testutil::kNumGenEnds);
    options.words = static_cast<unsigned>(rng.range(250, 550));
    c.images.push_back(
        testutil::generate_program(rng.next(), options).image);
  }
  return c;
}

std::unique_ptr<sim::Machine> boot(const Corpus& c) {
  auto m = std::make_unique<sim::Machine>(c.config);
  for (const auto& image : c.images) {
    EXPECT_NE(m->load(image), sim::Machine::kLoadRefused);
  }
  return m;
}

TEST(Lockstep, GeneratedProgramsMatchTheColdRestoreReference) {
  Rng rng(kSeed);
  unsigned next_end = 0;
  std::set<isa::Op> executed;
  u64 total_steps = 0;
  for (unsigned mi = 0; mi < kMachines; ++mi) {
    SCOPED_TRACE("machine " + std::to_string(mi));
    const Corpus corpus = make_corpus(mi, rng, &next_end);

    // Warm and cold, compared after every instruction.
    auto warm = boot(corpus);
    std::vector<u8> cold_blob = snapshot::save(*warm);
    // The warm snapshot's hash once i + 1 instructions have retired. Each
    // run(1) retires one, except the last, which may end the machine
    // without retiring any.
    std::vector<u64> hashes;
    std::vector<u8> warm_blob;
    bool completed = false;
    while (!completed && hashes.size() < kMaxSteps) {
      const sim::RunOutcome out = warm->run(1);
      completed = out.completed;
      warm_blob = snapshot::save(*warm);
      auto cold = restored(cold_blob);
      cold->run(1);
      cold_blob = snapshot::save(*cold);
      ASSERT_TRUE(warm_blob == cold_blob)
          << "step " << hashes.size() << ": "
          << first_difference(cold_blob, warm_blob);
      ASSERT_TRUE(counters_of(*warm) == counters_of(*cold))
          << "step " << hashes.size();
      if (out.instructions != 0) hashes.push_back(checksum64(warm_blob));
    }
    ASSERT_TRUE(completed) << "a generated machine ran past " << kMaxSteps
                           << " instructions";
    total_steps += hashes.size();

    // Straight through.
    auto straight = boot(corpus);
    ASSERT_TRUE(straight->run().completed);
    const std::vector<u8> straight_blob = snapshot::save(*straight);
    ASSERT_TRUE(straight_blob == warm_blob)
        << first_difference(warm_blob, straight_blob);
    ASSERT_TRUE(counters_of(*straight) == counters_of(*warm));

    // Random chunks, and after half of them a restore into a fresh
    // Machine (empty decoded pages and page caches).
    auto chunked = boot(corpus);
    u64 done = 0;
    while (true) {
      const u64 k = rng.chance(0.7) ? rng.range(1, 16) : rng.range(17, 400);
      const sim::RunOutcome out = chunked->run(k);
      done += out.instructions;
      ASSERT_GE(done, 1u);
      ASSERT_LE(done, hashes.size());
      const std::vector<u8> blob = snapshot::save(*chunked);
      if (out.completed) {
        ASSERT_TRUE(blob == warm_blob) << first_difference(warm_blob, blob);
        break;
      }
      ASSERT_EQ(checksum64(blob), hashes[done - 1])
          << "chunk of " << k << " ending at instruction " << done;
      if (rng.chance(0.5)) chunked = restored(blob);
    }
    ASSERT_EQ(done, hashes.size());
    ASSERT_TRUE(counters_of(*chunked) == counters_of(*warm));

    // Events published inside a block (pkey denials, RDPKR/WRPKR, traps)
    // carry the instret and cycles of a per-instruction run.
    Corpus traced = corpus;
    traced.config.trace = {true, 0, 0};
    auto events_straight = boot(traced);
    ASSERT_TRUE(events_straight->run().completed);
    auto events_stepped = boot(traced);
    while (!events_stepped->run(1).completed) {
    }
    ASSERT_TRUE(events_straight->recorder()->serialize_blob() ==
                events_stepped->recorder()->serialize_blob());

    // Coverage, from the instruction log: it names every instruction the
    // hart attempts, trapping ones and those the kernel resumes at
    // included.
    traced.config.trace.sample_interval = 1;
    auto logged = boot(traced);
    ASSERT_TRUE(logged->run().completed);
    for (const obs::Event& e : logged->recorder()->events()) {
      if (e.kind == obs::EventKind::kSample) {
        executed.insert(isa::decode(static_cast<u32>(e.arg1)).op);
      }
    }
  }

  // Every op ran somewhere (for the ends, ran and trapped).
  for (unsigned op = 0; op < isa::kNumOps; ++op) {
    EXPECT_TRUE(executed.count(static_cast<isa::Op>(op)) != 0)
        << "never executed: "
        << (op == static_cast<unsigned>(isa::Op::kIllegal)
                ? "illegal"
                : isa::op_info(static_cast<isa::Op>(op)).name);
  }
  RecordProperty("steps", static_cast<int>(total_steps));
}

// The generator is deterministic in its seed and covers the ISA.
TEST(Lockstep, GeneratorIsSeededAndEmitsEveryOp) {
  std::set<isa::Op> emitted;
  for (unsigned end = 0; end < testutil::kNumGenEnds; ++end) {
    for (auto flavor : {core::IsaFlavor::kSealPk,
                        core::IsaFlavor::kIntelMpkCompat}) {
      testutil::GenOptions options;
      options.flavor = flavor;
      options.end = static_cast<GenEnd>(end);
      const auto a = testutil::generate_program(end, options);
      const auto b = testutil::generate_program(end, options);
      EXPECT_EQ(a.image.segments[0].bytes, b.image.segments[0].bytes);
      emitted.insert(a.ops.begin(), a.ops.end());
    }
  }
  EXPECT_EQ(emitted.size(), isa::kNumOps);
}

}  // namespace
}  // namespace sealpk
