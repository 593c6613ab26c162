// Ablations over SealPK's design points (DESIGN.md §5):
//   1. PK-CAM capacity vs. sealed-domain working set: miss/refill rate and
//      the cycle cost of the OS refill path (the paper fixes 16 entries).
//   2. Permission-sealing cost on the shadow stack: Figure-5-style
//      overhead of SealPK-RD+WR with and without pkey_perm_seal.
//   3. Hardware-cost sensitivity: Table-I deltas as PKR size and PK-CAM
//      capacity sweep (the area knee behind choosing 1024 keys).
#include <cstdio>

#include "common/rng.h"
#include "hw/donky.h"
#include "hw/seal_unit.h"
#include "fleet/report.h"
#include "hwcost/fpga_model.h"

using namespace sealpk;

namespace {

void cam_sweep() {
  std::printf("1) PK-CAM behaviour vs. sealed working set (unit-level; "
              "round-robin WRPKR over K sealed keys)\n");
  std::printf("%22s %12s %14s\n", "sealed keys (K)", "miss rate",
              "refill cyc/use");
  const core::TimingModel timing;
  for (const u32 k : {4u, 8u, 16u, 17u, 24u, 32u, 64u}) {
    hw::SealUnit unit;
    for (u32 i = 0; i < k; ++i) {
      unit.set_sealed(i);
      unit.refill(i, 0x1000, 0x2000);
    }
    u64 misses = 0;
    constexpr u64 kUses = 100'000;
    for (u64 u = 0; u < kUses; ++u) {
      const u32 key = static_cast<u32>(u % k);
      if (unit.check_wrpkr(key, 0x1500) == hw::SealCheck::kMiss) {
        ++misses;
        unit.refill(key, 0x1000, 0x2000);  // the OS handler's action
      }
    }
    const double miss_rate = static_cast<double>(misses) / kUses;
    std::printf("%22u %11.2f%% %14.1f\n", k, 100.0 * miss_rate,
                miss_rate * (timing.trap_enter_cycles +
                             timing.cam_refill_handler_cycles +
                             timing.trap_return_cycles));
  }
  std::printf("  (16 entries cover 16 concurrently sealed domains with a "
              "0%% steady-state miss rate; a 17th thrashes the FIFO — the "
              "paper's capacity choice)\n\n");
}

void perm_seal_cost() {
  std::printf("2) Cost of permission sealing on the SealPK-RD+WR shadow "
              "stack (MiBench qsort + SPEC bzip2 proxies)\n");
  std::printf("%24s %16s %16s\n", "workload", "RD+WR", "RD+WR + perm seal");
  for (const char* pick : {"qsort", "bzip2"}) {
    const wl::Workload* w =
        wl::find_workload(pick[0] == 'q' ? wl::Suite::kMiBench
                                         : wl::Suite::kSpec2000,
                          pick);
    isa::Program base_prog = w->build(w->test_scale);
    sim::Machine base_m{sim::MachineConfig{}};
    base_m.load(base_prog.link());
    const u64 base = base_m.run().cycles;

    auto run_variant = [&](bool perm_seal) {
      isa::Program prog = w->build(w->test_scale);
      passes::ShadowStackOptions opts;
      opts.kind = passes::ShadowStackKind::kSealPkRdWr;
      opts.perm_seal = perm_seal;
      passes::apply_shadow_stack(prog, opts);
      sim::Machine machine{sim::MachineConfig{}};
      machine.load(prog.link());
      return machine.run().cycles;
    };
    std::printf("%24s %15.2f%% %15.2f%%\n", w->name,
                fleet::overhead_pct(run_variant(false), base),
                fleet::overhead_pct(run_variant(true), base));
  }
  std::printf("  (steady-state cost: one seal.start latch instruction per call "
              "plus a parallel CAM hit per WRPKR — one to two points)\n\n");
}

void hwcost_sweep() {
  std::printf("3) Hardware-cost sensitivity (structural estimate deltas "
              "over the baseline Rocket)\n");
  std::printf("%10s %12s | %10s %8s %8s\n", "keys", "CAM entries",
              "LUT logic", "LUT mem", "FF");
  for (const u32 rows : {8u, 16u, 32u, 64u}) {
    for (const u32 cam : {8u, 16u, 32u}) {
      hwcost::SealPkHwConfig cfg;
      cfg.pkr_rows = rows;
      cfg.cam_entries = cam;
      cfg.pkey_bits = 0;
      for (u32 n = rows * cfg.keys_per_row; n > 1; n >>= 1) ++cfg.pkey_bits;
      const auto d = hwcost::sealpk_overhead(cfg);
      std::printf("%10u %12u | %10u %8u %8u\n", rows * cfg.keys_per_row,
                  cam, d.luts_logic, d.luts_mem, d.ffs);
    }
  }
  std::printf("  (PKR LUTRAM scales linearly with key count; the CAM "
              "dominates FF growth — 1024 keys + 16 entries is the paper's "
              "sweet spot at ~5.6%% LUT overhead)\n");
}

void donky_comparison() {
  std::printf("\n4) Per-access pkey-permission lookup: SealPK PKR vs. a "
              "Donky-style 4-slot key CSR (paper §VI)\n");
  std::printf("%14s %14s %22s %24s\n", "live domains", "Donky miss%",
              "Donky extra cyc/access", "SealPK extra cyc/access");
  // Donky's reload is a user-level fault into its software library; model
  // it as a user-trap round trip plus the table lookup (~60 cycles, the
  // optimistic end of Donky's own figures). SealPK reads PKR in the same
  // cycle as the PTE check: zero extra.
  constexpr double kReloadCycles = 60.0;
  for (const u64 domains : {2u, 4u, 5u, 8u, 16u, 64u}) {
    hw::DonkyKeyCsr csr;
    Rng rng(domains * 31 + 7);
    constexpr u64 kAccesses = 200'000;
    for (u64 i = 0; i < kAccesses; ++i) {
      const u32 key = static_cast<u32>(rng.below(domains));
      u8 perm;
      if (!csr.lookup(key, &perm)) csr.reload(key, 0);
    }
    const double miss_rate =
        static_cast<double>(csr.stats().reloads) / kAccesses;
    std::printf("%14llu %13.2f%% %22.2f %24.2f\n",
                static_cast<unsigned long long>(domains), 100.0 * miss_rate,
                miss_rate * kReloadCycles, 0.0);
  }
  std::printf("  (with > 4 live domains the 4-slot CSR thrashes; SealPK's "
              "PKR covers all 1024 keys at fixed cost)\n");
}

void leaf_skip() {
  std::printf("\n5) Leaf-function skip (compiler-pass optimisation the "
              "paper does not apply)\n");
  std::printf("%24s %18s %18s\n", "workload", "RD+WR all fns",
              "RD+WR skip leaves");
  for (const auto* name : {"bitcount", "sjeng"}) {
    const wl::Workload* w = wl::find_workload(
        name[0] == 'b' ? wl::Suite::kMiBench : wl::Suite::kSpec2006, name);
    isa::Program base_prog = w->build(w->test_scale);
    sim::Machine base_m{sim::MachineConfig{}};
    base_m.load(base_prog.link());
    const u64 base = base_m.run().cycles;
    auto run_variant = [&](bool skip) {
      isa::Program prog = w->build(w->test_scale);
      passes::ShadowStackOptions opts;
      opts.kind = passes::ShadowStackKind::kSealPkRdWr;
      opts.skip_leaf_functions = skip;
      passes::apply_shadow_stack(prog, opts);
      sim::Machine machine{sim::MachineConfig{}};
      machine.load(prog.link());
      return machine.run().cycles;
    };
    std::printf("%24s %17.2f%% %17.2f%%\n", w->name,
                fleet::overhead_pct(run_variant(false), base),
                fleet::overhead_pct(run_variant(true), base));
  }
  std::printf("  (leaf-heavy workloads save most of the overhead — at the "
              "cost of leaving leaf frames unguarded)\n");
}

void tlb_sweep() {
  std::printf("\n6) DTLB capacity sensitivity (SPEC gzip proxy)\n");
  std::printf("%14s %18s %18s\n", "DTLB entries", "RD+WR overhead",
              "mprotect overhead");
  const wl::Workload* w = wl::find_workload(wl::Suite::kSpec2000, "gzip");
  for (const size_t entries : {8u, 16u, 32u, 64u}) {
    auto run_variant = [&](passes::ShadowStackKind kind) {
      isa::Program prog = w->build(w->test_scale);
      passes::ShadowStackOptions opts;
      opts.kind = kind;
      passes::apply_shadow_stack(prog, opts);
      sim::MachineConfig cfg;
      cfg.hart.dtlb_entries = entries;
      cfg.hart.itlb_entries = entries;
      sim::Machine machine(cfg);
      machine.load(prog.link());
      return machine.run().cycles;
    };
    const u64 base = run_variant(passes::ShadowStackKind::kNone);
    const double rdwr = fleet::overhead_pct(
        run_variant(passes::ShadowStackKind::kSealPkRdWr), base);
    const double mprot = fleet::overhead_pct(
        run_variant(passes::ShadowStackKind::kMprotect), base);
    std::printf("%14zu %17.2f%% %17.2f%%\n", entries, rdwr, mprot);
  }
  std::printf("  (mprotect's cost here is dominated by the kernel path + "
              "RSS-dependent shootdown, not by post-flush refills, so both "
              "variants are TLB-size insensitive once the working set "
              "fits; at 8 entries the *baseline* thrashes, inflating every "
              "relative overhead)\n");
}

}  // namespace

int main() {
  std::printf("SealPK design-point ablations\n\n");
  cam_sweep();
  perm_seal_cost();
  hwcost_sweep();
  donky_comparison();
  leaf_skip();
  tlb_sweep();
  return 0;
}
