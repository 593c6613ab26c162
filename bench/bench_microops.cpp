// Micro-operation latencies (paper §I / §II / §V-B narrative):
//   - WRPKR / RDPKR: unprivileged user-space instructions, a few cycles,
//     no context switch, no TLB flush (vs. Intel's WRPKRU at 11-260).
//   - pkey_set (RDPKR + modify + WRPKR round trip).
//   - mprotect(1 page): the costly kernel path (~1094 cycles on the
//     paper's reference processor).
//   - pkey_alloc / pkey_free / pkey_mprotect / pkey_seal syscalls.
//
// Wall time measures the simulator itself; the architectural result is the
// sim_cycles_per_op counter.
//
// The BM_Hart* benchmarks time the interpreter alone: host nanoseconds per
// guest instruction (host_ns_per_inst) on a straight-line ALU loop, a
// load/store loop on one data page, a loop that hops across eight code
// pages and eight data pages, and loads and stores streamed over 8 to 40
// data pages beside two hot ones (the data set's reach against the
// DTLB's).
//
// The services layers, each in isolation: snapshot save and restore of a
// mid-run vault machine (bytes/s), vpkey_set through the vkey table at 6x
// the physical keys (ns per set), and the vault sweep's confidentiality
// scan of one sparse 256 KiB mapping for 7 needles (bytes/s).
//
// The kernel-bound path under those services, each structure alone: a TLB
// refill after a shootdown (2, 8 or 32 live pages), one pkey_mprotect among
// 64 or 6144 VMAs, and a PhysMem read over 8 or 6144 written pages.
#include <benchmark/benchmark.h>

#include <chrono>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "mem/phys_mem.h"
#include "mem/tlb.h"
#include "mpk/vkey_table.h"
#include "os/addr_space.h"
#include "os/key_manager.h"
#include "os/syscall_abi.h"
#include "runtime/guest.h"
#include "sim/machine.h"
#include "snapshot/snapshot.h"
#include "vault/program.h"
#include "vault/sweep.h"

using namespace sealpk;
using isa::Function;
using isa::Label;
using isa::Program;
using namespace sealpk::isa;

namespace {

constexpr i64 kIters = 512;

// Builds a program that runs `body` kIters times inside main's loop; the
// harness measures total machine cycles. `fixture` runs once before the
// loop.
template <typename FixtureFn, typename BodyFn>
Program loop_program(FixtureFn&& fixture, BodyFn&& body) {
  Program prog;
  rt::add_crt0(prog);
  rt::add_pkey_lib(prog);
  Function& f = prog.add_function("main");
  f.addi(sp, sp, -16);
  f.sd(ra, 0, sp);
  fixture(prog, f);
  const Label loop = f.new_label(), done = f.new_label();
  f.li(s0, 0);
  f.bind(loop);
  f.li(t0, kIters);
  f.bgeu(s0, t0, done);
  body(prog, f);
  f.addi(s0, s0, 1);
  f.j(loop);
  f.bind(done);
  f.ld(ra, 0, sp);
  f.addi(sp, sp, 16);
  f.li(a0, 0);
  f.ret();
  return prog;
}

u64 run_cycles(const Program& prog,
               core::IsaFlavor flavor = core::IsaFlavor::kSealPk) {
  sim::MachineConfig cfg;
  cfg.hart.flavor = flavor;
  sim::Machine machine(cfg);
  const int pid = machine.load(prog.link());
  const auto outcome = machine.run();
  SEALPK_CHECK(outcome.completed && machine.exit_code(pid) == 0);
  return outcome.cycles;
}

// Cycles per op, net of the loop scaffolding (measured with an empty body).
double per_op_cycles(const Program& with_op, const Program& empty,
                     core::IsaFlavor flavor = core::IsaFlavor::kSealPk) {
  const u64 a = run_cycles(with_op, flavor);
  const u64 b = run_cycles(empty, flavor);
  return static_cast<double>(a - b) / kIters;
}

void no_fixture(Program&, Function&) {}

Program empty_loop() {
  return loop_program(no_fixture, [](Program&, Function&) {});
}

void bench_counters(benchmark::State& state, double cycles_per_op) {
  state.counters["sim_cycles_per_op"] = cycles_per_op;
}

}  // namespace

static void BM_Wrpkr(benchmark::State& state) {
  double cycles = 0;
  for (auto _ : state) {
    auto prog = loop_program(no_fixture, [](Program&, Function& f) {
      f.li(t1, 5);
      f.li(t2, 0b01);
      f.wrpkr(t1, t2);
    });
    auto base = loop_program(no_fixture, [](Program&, Function& f) {
      f.li(t1, 5);
      f.li(t2, 0b01);
    });
    cycles = per_op_cycles(prog, base);
    benchmark::DoNotOptimize(cycles);
  }
  bench_counters(state, cycles);
}
BENCHMARK(BM_Wrpkr);

static void BM_Rdpkr(benchmark::State& state) {
  double cycles = 0;
  for (auto _ : state) {
    auto prog = loop_program(no_fixture, [](Program&, Function& f) {
      f.li(t1, 5);
      f.rdpkr(t2, t1);
    });
    auto base = loop_program(no_fixture, [](Program&, Function& f) {
      f.li(t1, 5);
    });
    cycles = per_op_cycles(prog, base);
    benchmark::DoNotOptimize(cycles);
  }
  bench_counters(state, cycles);
}
BENCHMARK(BM_Rdpkr);

static void BM_PkeySetRoundTrip(benchmark::State& state) {
  // The full read-modify-write permission toggle (what the SealPK-RD+WR
  // shadow stack does twice per function call).
  double cycles = 0;
  for (auto _ : state) {
    auto prog = loop_program(no_fixture, [](Program&, Function& f) {
      f.li(a0, 5);
      f.li(a1, 0b01);
      f.call("__pkey_set");
    });
    cycles = per_op_cycles(prog, empty_loop());
    benchmark::DoNotOptimize(cycles);
  }
  bench_counters(state, cycles);
}
BENCHMARK(BM_PkeySetRoundTrip);

static void BM_Wrpkru_IntelMpkFlavour(benchmark::State& state) {
  // Intel reports 11-260 cycles for WRPKRU; our RoCC-modelled WRPKRU.
  double cycles = 0;
  for (auto _ : state) {
    auto prog = loop_program(no_fixture, [](Program&, Function& f) {
      f.li(t1, 0b0100);
      f.wrpkru(t1);
    });
    auto base = loop_program(no_fixture, [](Program&, Function& f) {
      f.li(t1, 0b0100);
    });
    cycles = per_op_cycles(prog, base, core::IsaFlavor::kIntelMpkCompat);
    benchmark::DoNotOptimize(cycles);
  }
  bench_counters(state, cycles);
}
BENCHMARK(BM_Wrpkru_IntelMpkFlavour);

static void BM_MprotectOnePage(benchmark::State& state) {
  // The comparison point the paper quotes at ~1094 cycles on a modern
  // processor: context switch + PTE update + TLB flush (+ the RSS-
  // dependent shootdown term).
  double cycles = 0;
  for (auto _ : state) {
    auto fixture = [](Program&, Function& f) {
      f.li(a0, 0);
      f.li(a1, 4096);
      f.li(a2, 3);
      rt::syscall(f, os::sys::kMmap);
      f.mv(s1, a0);
    };
    auto prog = loop_program(fixture, [](Program&, Function& f) {
      f.mv(a0, s1);
      f.li(a1, 4096);
      f.andi(a2, s0, 1);  // alternate RW / R
      f.addi(a2, a2, 1);
      rt::syscall(f, os::sys::kMprotect);
    });
    auto base = loop_program(fixture, [](Program&, Function& f) {
      f.mv(a0, s1);
      f.li(a1, 4096);
      f.andi(a2, s0, 1);
      f.addi(a2, a2, 1);
    });
    cycles = per_op_cycles(prog, base);
    benchmark::DoNotOptimize(cycles);
  }
  bench_counters(state, cycles);
}
BENCHMARK(BM_MprotectOnePage);

static void BM_PkeyAllocFree(benchmark::State& state) {
  double cycles = 0;
  for (auto _ : state) {
    auto prog = loop_program(no_fixture, [](Program&, Function& f) {
      f.li(a0, 0);
      f.li(a1, 0);
      rt::syscall(f, os::sys::kPkeyAlloc);
      rt::syscall(f, os::sys::kPkeyFree);  // pkey already in a0
    });
    cycles = per_op_cycles(prog, empty_loop()) / 2;  // per syscall
    benchmark::DoNotOptimize(cycles);
  }
  bench_counters(state, cycles);
}
BENCHMARK(BM_PkeyAllocFree);

static void BM_PkeyMprotectOnePage(benchmark::State& state) {
  double cycles = 0;
  for (auto _ : state) {
    auto fixture = [](Program&, Function& f) {
      f.li(a0, 0);
      f.li(a1, 4096);
      f.li(a2, 3);
      rt::syscall(f, os::sys::kMmap);
      f.mv(s1, a0);
      f.li(a0, 0);
      f.li(a1, 0);
      rt::syscall(f, os::sys::kPkeyAlloc);
      f.mv(s2, a0);
    };
    auto prog = loop_program(fixture, [](Program&, Function& f) {
      f.mv(a0, s1);
      f.li(a1, 4096);
      f.li(a2, 3);
      f.mv(a3, s2);
      rt::syscall(f, os::sys::kPkeyMprotect);
    });
    auto base = loop_program(fixture, [](Program&, Function& f) {
      f.mv(a0, s1);
      f.li(a1, 4096);
      f.li(a2, 3);
      f.mv(a3, s2);
    });
    cycles = per_op_cycles(prog, base);
    benchmark::DoNotOptimize(cycles);
  }
  bench_counters(state, cycles);
}
BENCHMARK(BM_PkeyMprotectOnePage);

static void BM_WrpkrSealedInRange(benchmark::State& state) {
  // A sealed key written from inside its permissible range: the PK-CAM hit
  // path adds no measurable latency over an unsealed WRPKR (the check runs
  // in parallel with the PKR write port, Figure 4).
  double cycles = 0;
  // touch_key(): seal.start; RDPKR/WRPKR; seal.end; ret — the trusted
  // function whose body is the permissible range.
  auto add_touch_key = [](Program& p) {
    Function& t = p.add_function("touch_key");
    t.seal_start(0);
    t.rdpkr(t1, s2);
    t.wrpkr(s2, t1);
    t.seal_end(0);
    t.ret();
  };
  auto fixture = [](Program&, Function& f) {
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s2, a0);
    f.call("touch_key");  // latches the permissible range
  };
  for (auto _ : state) {
    auto prog = loop_program(
        [&](Program& p, Function& f) {
          add_touch_key(p);
          fixture(p, f);
          f.mv(a0, s2);
          rt::syscall(f, os::sys::kPkeyPermSeal);  // commit the fuse
        },
        [](Program&, Function& f) { f.call("touch_key"); });
    auto base = loop_program(
        [&](Program& p, Function& f) {
          add_touch_key(p);
          fixture(p, f);  // no seal committed
        },
        [](Program&, Function& f) { f.call("touch_key"); });
    cycles = per_op_cycles(prog, base);
    benchmark::DoNotOptimize(cycles);
  }
  bench_counters(state, cycles);
}
BENCHMARK(BM_WrpkrSealedInRange);

namespace {

constexpr u64 kHartChunk = 100'000;  // guest instructions per iteration

// main runs `fixture` once, then `body` in an endless loop.
template <typename FixtureFn, typename BodyFn>
Program forever_program(FixtureFn&& fixture, BodyFn&& body) {
  Program prog;
  rt::add_crt0(prog);
  Function& f = prog.add_function("main");
  fixture(prog, f);
  const Label loop = f.new_label();
  f.bind(loop);
  body(prog, f);
  f.j(loop);
  return prog;
}

// Loads `prog` once, runs it past its setup, then times kHartChunk more
// instructions per iteration.
void run_hart_bench(benchmark::State& state, const Program& prog) {
  sim::Machine machine;
  machine.load(prog.link());
  machine.run(kHartChunk);
  double ns = 0;
  u64 instructions = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const sim::RunOutcome out = machine.run(kHartChunk);
    ns += std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - start)
              .count();
    benchmark::DoNotOptimize(out);
    SEALPK_CHECK(!out.completed && out.instructions == kHartChunk);
    instructions += out.instructions;
  }
  state.counters["host_ns_per_inst"] = ns / static_cast<double>(instructions);
}

void mmap_pages(Function& f, i64 pages, u8 rd) {
  f.li(a0, 0);
  f.li(a1, pages * 4096);
  f.li(a2, 3);
  rt::syscall(f, os::sys::kMmap);
  f.mv(rd, a0);
}

}  // namespace

static void BM_HartStraightLine(benchmark::State& state) {
  run_hart_bench(state, forever_program(no_fixture, [](Program&, Function& f) {
    for (int i = 0; i < 4; ++i) {
      f.addi(t0, t0, 3);
      f.xor_(t1, t1, t0);
      f.slli(t2, t1, 1);
      f.add(t3, t3, t2);
      f.srli(t4, t3, 2);
      f.or_(t5, t5, t4);
    }
  }));
}
BENCHMARK(BM_HartStraightLine);

static void BM_HartHotPageLoadStore(benchmark::State& state) {
  run_hart_bench(
      state, forever_program(
                 [](Program&, Function& f) { mmap_pages(f, 1, s1); },
                 [](Program&, Function& f) {
                   for (int i = 0; i < 4; ++i) {
                     f.ld(t0, 8 * i, s1);
                     f.addi(t0, t0, 1);
                     f.sd(t0, 8 * i, s1);
                     f.ld(t1, 8 * i + 256, s1);
                     f.add(t1, t1, t0);
                     f.sd(t1, 8 * i + 256, s1);
                   }
                 }));
}
BENCHMARK(BM_HartHotPageLoadStore);

static void BM_HartPageHopping(benchmark::State& state) {
  // Eight leaf functions, each on its own code page, each touching its own
  // data page: every call and return switches both pages.
  constexpr int kHops = 8;
  run_hart_bench(
      state,
      forever_program(
          [](Program& p, Function& f) {
            mmap_pages(f, kHops, s1);
            for (int i = 0; i < kHops; ++i) {
              Function& hop = p.add_function("hop" + std::to_string(i));
              hop.ld(t0, 0, a0);
              hop.addi(t0, t0, 1);
              hop.sd(t0, 0, a0);
              hop.ret();
              for (u64 pad = 0; pad < 4096 / 4; ++pad) hop.nop();
            }
          },
          [](Program&, Function& f) {
            f.mv(a0, s1);
            f.li(t1, 4096);
            for (int i = 0; i < kHops; ++i) {
              f.call("hop" + std::to_string(i));
              f.add(a0, a0, t1);
            }
          }));
}
BENCHMARK(BM_HartPageHopping);

static void BM_HartDataFootprint(benchmark::State& state) {
  // A load and a store on each of `pages` streamed pages in turn, each next
  // to a load and a store on one of two hot pages, as mcf's pointer chase
  // walks its arcs: the data set's reach against the DTLB's 32 entries.
  const i64 pages = state.range(0);
  run_hart_bench(
      state, forever_program(
                 [pages](Program&, Function& f) {
                   mmap_pages(f, pages + 2, s1);
                   f.li(t1, 4096);
                   f.li(t2, pages * 4096);
                   f.add(s2, s1, t2);  // the hot pages follow the stream
                   f.add(s3, s2, t1);
                 },
                 [pages](Program&, Function& f) {
                   f.mv(a0, s1);
                   for (i64 i = 0; i < pages; ++i) {
                     const u8 hot = i % 2 == 0 ? s2 : s3;
                     f.ld(t0, 0, a0);
                     f.sd(t0, 8, a0);
                     f.ld(t3, 0, hot);
                     f.add(t3, t3, t0);
                     f.sd(t3, 8, hot);
                     f.add(a0, a0, t1);
                   }
                 }));
}
BENCHMARK(BM_HartDataFootprint)
    ->ArgName("pages")
    ->Arg(8)
    ->Arg(24)
    ->Arg(32)
    ->Arg(40);

// --- services layers ----------------------------------------------------------

namespace {

// The vault workload with the sweep's checkpoint cadence, stopped halfway.
std::unique_ptr<sim::Machine> mid_run_vault() {
  static const vault::BuiltVault built = vault::build_vault({});
  sim::MachineConfig cfg;
  cfg.checkpoint_interval = 2'000;
  sim::Machine probe(cfg);
  SEALPK_CHECK(probe.load(built.image) >= 0);
  const u64 total = probe.run().instructions;
  auto m = std::make_unique<sim::Machine>(cfg);
  m->load(built.image);
  m->run(total / 2);
  SEALPK_CHECK(!m->kernel().all_exited());
  return m;
}

// The kernel's side of the vkey table with nothing behind it: physical keys
// 1..1023 as on SealPK, one page per rekey.
class NullVkeyOps : public mpk::VkeyOps {
 public:
  i64 acquire_phys() override {
    return next_ < 1024 ? next_++ : os::err::kNoSpc;
  }
  i64 rekey(u64, u64, u64, u32) override { return 1; }
  void set_perm(u32, u8) override {}
  void flush_tlb() override {}

 private:
  i64 next_ = 1;
};

}  // namespace

static void BM_SnapshotSave(benchmark::State& state) {
  const auto m = mid_run_vault();
  size_t bytes = 0;
  for (auto _ : state) {
    const std::vector<u8> blob = snapshot::save(*m);
    bytes += blob.size();
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetBytesProcessed(static_cast<i64>(bytes));
}
BENCHMARK(BM_SnapshotSave);

static void BM_SnapshotRestore(benchmark::State& state) {
  const std::vector<u8> blob = snapshot::save(*mid_run_vault());
  sim::Machine target(snapshot::config_from(blob));
  for (auto _ : state) snapshot::restore(target, blob);
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * blob.size()));
}
BENCHMARK(BM_SnapshotRestore);

static void BM_VkeySetChurn(benchmark::State& state) {
  // 6x the physical keys, each vkey owning one page group; every set picks
  // a random vkey, so most map in by evicting the LRU mapping.
  constexpr u64 kVkeys = 6 * 1023;
  mpk::VkeyTable table({.mru_slots = 8, .lazy_sync = state.range(0) != 0});
  NullVkeyOps ops;
  std::vector<u64> vkeys;
  for (u64 i = 0; i < kVkeys; ++i) {
    const u64 vkey = static_cast<u64>(table.alloc(0, 0));
    table.mprotect(ops, i << 12, 4096, 3, vkey);
    vkeys.push_back(vkey);
  }
  Rng rng(6144);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.set(ops, vkeys[rng.below(kVkeys)], static_cast<u8>(rng.below(4))));
  }
  state.counters["ns_per_set"] = benchmark::Counter(
      static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["evictions_per_set"] =
      static_cast<double>(table.stats().evictions) /
      static_cast<double>(std::max<benchmark::IterationCount>(
          1, state.iterations()));
}
BENCHMARK(BM_VkeySetChurn)->ArgName("lazy")->Arg(0)->Arg(1);

static void BM_VaultConfidentialityScan(benchmark::State& state) {
  // A 256 KiB stack mapping: zero but for its two top pages, scanned in
  // place for 7 16-byte needles that are absent, so every candidate offset
  // is probed.
  constexpr u64 kLen = 256 * 1024;
  constexpr u64 kStack = 0x3ffffc0000;
  mem::PhysMem mem(64 << 20);
  os::FrameAllocator frames(1 << 20, (64 << 20) - (1 << 20));
  os::AddressSpace aspace(mem, frames, mem::pte::kSealPkPkeyBits);
  if (aspace.map(kStack, kLen, os::prot::kRead | os::prot::kWrite) < 0) {
    state.SkipWithError("map failed");
    return;
  }
  std::vector<u8> top(2 * 4096);
  Rng rng(7);
  for (size_t i = 0; i < top.size(); i += 3) {
    top[i] = static_cast<u8>(rng.range(1, 255));
  }
  aspace.copy_out(kStack + kLen - top.size(), top.data(), top.size());
  std::vector<std::vector<u8>> needles(7, std::vector<u8>(16));
  for (auto& needle : needles) {
    for (u8& b : needle) b = static_cast<u8>(rng.range(1, 255));
  }
  const vault::SecretScan scan(std::move(needles));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan.find(aspace, std::nullopt));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * kLen));
}
BENCHMARK(BM_VaultConfidentialityScan);

// --- kernel-bound path ---------------------------------------------------------

static void BM_TlbRefillAfterFlush(benchmark::State& state) {
  // A shootdown, then a working set of `live` pages refilled (a missing
  // lookup and an insert each) and hit once, in a 32-entry TLB: the DTLB's
  // traffic after every re-key batch.
  const u64 live = static_cast<u64>(state.range(0));
  mem::Tlb tlb(32);
  for (auto _ : state) {
    tlb.flush();
    for (u64 vpn = 0; vpn < live; ++vpn) {
      if (!tlb.lookup(vpn)) tlb.insert({.vpn = vpn, .ppn = vpn, .r = true});
    }
    for (u64 vpn = 0; vpn < live; ++vpn) {
      benchmark::DoNotOptimize(tlb.lookup(vpn));
    }
  }
  state.counters["ns_per_refill"] = benchmark::Counter(
      static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TlbRefillAfterFlush)->ArgName("live")->Arg(2)->Arg(8)->Arg(32);

static void BM_ProtectPkey(benchmark::State& state) {
  // pkey_mprotect of one whole one-page VMA among `vmas`, with the seal
  // vetoes consulted: the re-key a vkey map-in or eviction issues per page
  // group.
  const u64 vmas = static_cast<u64>(state.range(0));
  mem::PhysMem mem;
  os::FrameAllocator frames(1 << 20, (256 << 20) - (1 << 20));
  os::AddressSpace aspace(mem, frames, mem::pte::kSealPkPkeyBits);
  os::SealPkKeyManager keys;
  for (u32 k = 1; k <= 15; ++k) keys.alloc();
  std::vector<u64> pages;
  for (u64 i = 0; i < vmas; ++i) {
    const i64 addr = aspace.map(0, 4096, os::prot::kRead | os::prot::kWrite);
    if (addr < 0) {
      state.SkipWithError("map failed");
      return;
    }
    pages.push_back(static_cast<u64>(addr));
  }
  Rng rng(vmas);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aspace.protect_pkey(
        pages[rng.below(vmas)], 4096, os::prot::kRead | os::prot::kWrite,
        static_cast<u32>(rng.range(1, 15)), &keys, nullptr));
  }
  state.counters["ns_per_call"] = benchmark::Counter(
      static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ProtectPkey)->ArgName("vmas")->Arg(64)->Arg(6144);

static void BM_PhysMemPageLookup(benchmark::State& state) {
  // 8-byte reads spread over `pages` written pages of 256 MiB of DRAM, in a
  // random order fixed up front: the page-table and session-frame reads of
  // the kernel's re-key path.
  const u64 pages = static_cast<u64>(state.range(0));
  constexpr u64 kStride = 7;  // pages apart, so they span many 2 MiB runs
  mem::PhysMem mem;
  for (u64 i = 0; i < pages; ++i) mem.write_u64(i * kStride * 4096, i);
  Rng rng(pages);
  std::vector<u64> addrs(4096);
  for (u64& a : addrs) a = rng.below(pages) * kStride * 4096 + 8 * rng.below(512);
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.read_u64(addrs[next]));
    next = (next + 1) % addrs.size();
  }
  state.counters["ns_per_read"] = benchmark::Counter(
      static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_PhysMemPageLookup)->ArgName("pages")->Arg(8)->Arg(6144);

BENCHMARK_MAIN();
