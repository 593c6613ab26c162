#include "snapshot/snapshot.h"

#include <array>
#include <fstream>
#include <sstream>

#include "common/checksum.h"
#include "common/serial.h"
#include "fault/fault.h"

namespace sealpk::snapshot {

namespace {

constexpr char kMagic[8] = {'S', 'P', 'K', 'S', 'N', 'A', 'P', '1'};
// Header: magic | u32 version | u64 payload_len | u64 checksum.
constexpr size_t kPayloadLenAt = sizeof(kMagic) + 4;
constexpr size_t kChecksumAt = kPayloadLenAt + 8;
constexpr size_t kHeader = kChecksumAt + 8;

constexpr u32 fourcc(char a, char b, char c, char d) {
  return static_cast<u32>(static_cast<u8>(a)) |
         (static_cast<u32>(static_cast<u8>(b)) << 8) |
         (static_cast<u32>(static_cast<u8>(c)) << 16) |
         (static_cast<u32>(static_cast<u8>(d)) << 24);
}

constexpr u32 kSecConfig = fourcc('C', 'F', 'G', ' ');
constexpr u32 kSecHart = fourcc('H', 'A', 'R', 'T');
constexpr u32 kSecPkr = fourcc('P', 'K', 'R', ' ');
constexpr u32 kSecSeal = fourcc('S', 'E', 'A', 'L');
constexpr u32 kSecPkru = fourcc('P', 'K', 'R', 'U');
constexpr u32 kSecDtlb = fourcc('D', 'T', 'L', 'B');
constexpr u32 kSecItlb = fourcc('I', 'T', 'L', 'B');
constexpr u32 kSecMem = fourcc('M', 'E', 'M', ' ');
constexpr u32 kSecKernel = fourcc('K', 'E', 'R', 'N');
constexpr u32 kSecRunLoop = fourcc('R', 'U', 'N', 'S');
constexpr u32 kSecVkey = fourcc('V', 'K', 'E', 'Y');
constexpr u32 kSecInjector = fourcc('F', 'I', 'N', 'J');

std::string fourcc_name(u32 cc) {
  std::string s(4, ' ');
  for (int i = 0; i < 4; ++i) s[i] = static_cast<char>((cc >> (8 * i)) & 0xFF);
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

[[noreturn]] void fail(const std::string& what) { throw SnapshotError(what); }

// --- config ------------------------------------------------------------------
// Only execution-relevant fields serialize: hooks cannot, and the loader
// verify policy only matters at image-admission time, before any snapshot
// exists. Restore demands the target machine's serialized config be
// byte-identical, so every field below is a compatibility axis. Format v1
// ends before the vkey knobs.

template <typename Io, typename Config>
void config_fields(Io& io, Config& cfg, u32 version) {
  auto& t = cfg.hart.timing;
  auto& plan = cfg.fault_plan;
  io.fields(as<u8>(cfg.hart.flavor), cfg.hart.dtlb_entries,
            cfg.hart.itlb_entries);
  io.fields(t.base_cycles, t.mul_cycles, t.div_cycles, t.mem_extra_cycles,
            t.tlb_miss_per_access, t.rocc_cycles, t.trap_enter_cycles,
            t.trap_return_cycles, t.syscall_dispatch_cycles,
            t.vma_lookup_cycles, t.pte_update_cycles,
            t.mprotect_rss_cycles_per_page, t.tlb_flush_cycles,
            t.pkey_bookkeeping_cycles, t.fault_handler_cycles,
            t.cam_refill_handler_cycles, t.context_switch_cycles,
            t.pkr_row_swap_cycles);
  io.fields(cfg.kernel.save_pkr_on_switch, cfg.kernel.stack_pages,
            cfg.kernel.sv48, cfg.mem_bytes, cfg.preempt_quantum);
  io.fields(plan.enabled, plan.seed, plan.rate, plan.cam_rate,
            plan.max_faults, plan.kinds);
  io.fields(cfg.audit_interval, cfg.watchdog_trap_storm,
            cfg.watchdog_livelock, cfg.checkpoint_interval,
            cfg.max_rollbacks);
  if (version >= 2) {
    io.fields(cfg.kernel.vkey_mru_slots, cfg.kernel.vkey_lazy_sync);
  }
}

// config_from hands its result to a Machine constructor, so a decoded
// config must describe a machine that can be built, without unbounded
// allocation: a value no real config carries is refused here.
constexpr u64 kMaxTlbEntries = 1 << 16;

void check_buildable(const sim::MachineConfig& cfg) {
  if (cfg.hart.flavor != core::IsaFlavor::kSealPk &&
      cfg.hart.flavor != core::IsaFlavor::kIntelMpkCompat) {
    fail("snapshot config names an unknown ISA flavour");
  }
  for (const size_t n : {cfg.hart.dtlb_entries, cfg.hart.itlb_entries}) {
    if (n == 0 || n > kMaxTlbEntries) {
      fail("snapshot config has a TLB of " + std::to_string(n) +
           " entries");
    }
  }
  if (cfg.mem_bytes % mem::kPageSize != 0 ||
      cfg.mem_bytes <= os::Kernel::kReservedBytes) {
    fail("snapshot config has DRAM of " + std::to_string(cfg.mem_bytes) +
         " bytes");
  }
  if (!fault::valid_rate(cfg.fault_plan.rate) ||
      !fault::valid_rate(cfg.fault_plan.cam_rate)) {
    fail("snapshot config has a fault rate outside [0, 1]");
  }
}

// --- hart --------------------------------------------------------------------

// The HART section. The Hart keeps this state behind accessors, so it is
// gathered into a plain record that one field list encodes and decodes,
// with or without a machine (info and diff decode it from a blob alone).
struct HartState {
  std::array<u64, 32> regs{};
  u64 pc = 0;
  core::Priv priv = core::Priv::kSupervisor;
  u64 cycles = 0;
  u64 instret = 0;
  core::HartStats stats;
  core::CsrFile csrs;

  static HartState of(const core::Hart& hart) {
    HartState s{.pc = hart.pc(),
                .priv = hart.priv(),
                .cycles = hart.cycles(),
                .instret = hart.instret(),
                .stats = hart.stats(),
                .csrs = hart.csrs()};
    for (unsigned i = 0; i < 32; ++i) s.regs[i] = hart.reg(i);
    return s;
  }

  void apply(core::Hart& hart) const {
    for (unsigned i = 0; i < 32; ++i) hart.set_reg(i, regs[i]);
    hart.set_pc(pc);
    hart.set_priv(priv);
    hart.set_cycles(cycles);
    hart.set_instret(instret);
    hart.set_stats(stats);
    hart.csrs() = csrs;
  }

  template <typename Io, typename Self>
  static void fields(Io& io, Self& s) {
    auto& st = s.stats;
    auto& c = s.csrs;
    io.fields(s.regs, s.pc, as<u8>(s.priv), s.cycles, s.instret);
    io.fields(st.loads, st.stores, st.calls, st.traps, st.pkey_denials,
              st.wrpkr_count, st.rdpkr_count, st.wrpkru_count);
    io.fields(c.sstatus, c.stvec, c.sscratch, c.sepc, c.scause, c.stval,
              c.satp, c.spkinfo, c.seal_start, c.seal_end);
  }
};

template <typename Io, typename Self>
void runloop_fields(Io& io, Self& rl) {
  io.fields(rl.since_switch, rl.trap_streak, rl.last_trap_pc,
            rl.stall_streak, rl.next_audit, rl.next_checkpoint);
}

// --- section plumbing --------------------------------------------------------

// Appends `fourcc | u64 len | body`, the body written in place by
// `write_body` and its length patched in afterwards.
template <typename WriteBody>
void put_section(ByteWriter& out, u32 cc, WriteBody&& write_body) {
  out.put_u32(cc);
  const size_t len_at = out.size();
  out.put_u64(0);
  write_body(out);
  out.patch_u64(len_at, out.size() - len_at - 8);
}

// The payload's sections in wire order: `since` is the format version
// that added one, and FINJ travels iff the machine carries a fault
// injector.
struct SectionDef {
  u32 cc;
  u32 since;
  bool injector_only;
};
constexpr SectionDef kSections[] = {
    {kSecConfig, 1, false},  {kSecHart, 1, false},   {kSecPkr, 1, false},
    {kSecSeal, 1, false},    {kSecPkru, 1, false},   {kSecDtlb, 1, false},
    {kSecItlb, 1, false},    {kSecMem, 1, false},    {kSecKernel, 1, false},
    {kSecRunLoop, 1, false}, {kSecVkey, 2, false},   {kSecInjector, 1, true}};

bool carried(const SectionDef& def, u32 version, sim::Machine& machine) {
  return def.since <= version &&
         (!def.injector_only || machine.injector() != nullptr);
}

// Encodes or decodes the component behind section `cc`. CFG only encodes:
// restore compares it instead (see restore).
template <typename Io>
void section_io(Io& io, u32 cc, sim::Machine& machine) {
  core::Hart& hart = machine.hart();
  switch (cc) {
    case kSecConfig:
      if constexpr (!Io::kLoading) {
        config_fields(io, machine.config(), kFormatVersion);
      }
      return;
    case kSecHart: {
      HartState s = HartState::of(hart);
      HartState::fields(io, s);
      if constexpr (Io::kLoading) s.apply(hart);
      return;
    }
    case kSecPkr: return state_io(io, hart.pkr());
    case kSecSeal: return state_io(io, hart.seal_unit());
    case kSecPkru: {
      u32 pkru = hart.pkru().value();
      io.field(pkru);
      if constexpr (Io::kLoading) hart.pkru().set(pkru);
      return;
    }
    case kSecDtlb: return state_io(io, hart.dtlb());
    case kSecItlb: return state_io(io, hart.itlb());
    case kSecMem: return state_io(io, machine.mem());
    case kSecKernel: return state_io(io, machine.kernel());
    case kSecRunLoop: return runloop_fields(io, machine.runloop());
    case kSecVkey:
      if constexpr (Io::kLoading) {
        return machine.kernel().load_vkey_state(io);
      } else {
        return machine.kernel().save_vkey_state(io);
      }
    case kSecInjector: return state_io(io, *machine.injector());
  }
  SEALPK_CHECK_MSG(false, "no component for section " << cc);
}

struct Section {
  u32 cc = 0;
  const u8* data = nullptr;
  u64 len = 0;

  ByteReader reader() const { return {data, static_cast<size_t>(len)}; }
};

// Validates the header (magic, version, length, checksum) and splits the
// payload into its section table. `version_out` (optional) receives the
// blob's format version — readers accept every version in
// [kMinFormatVersion, kFormatVersion] and decode version-dependent parts
// accordingly.
std::vector<Section> parse(const std::vector<u8>& blob,
                           u32* version_out = nullptr) {
  if (blob.size() < kHeader) fail("snapshot too short for header");
  ByteReader hdr(blob);
  char magic[8];
  hdr.get_bytes(reinterpret_cast<u8*>(magic), sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    fail("bad snapshot magic");
  }
  const u32 version = hdr.get_u32();
  if (version < kMinFormatVersion || version > kFormatVersion) {
    std::ostringstream os;
    os << "unsupported snapshot version " << version << " (supported "
       << kMinFormatVersion << ".." << kFormatVersion << ")";
    fail(os.str());
  }
  if (version_out != nullptr) *version_out = version;
  const u64 payload_len = hdr.get_u64();
  const u64 want_sum = hdr.get_u64();
  if (payload_len != blob.size() - kHeader) {
    fail("snapshot payload length mismatch (truncated or trailing bytes)");
  }
  const u8* payload = blob.data() + kHeader;
  if (checksum64(payload, static_cast<size_t>(payload_len)) != want_sum) {
    fail("snapshot checksum mismatch (corrupted file)");
  }

  std::vector<Section> sections;
  ByteReader r(payload, static_cast<size_t>(payload_len));
  while (!r.done()) {
    if (r.remaining() < 12) fail("truncated section header");
    Section sec;
    sec.cc = r.get_u32();
    sec.len = r.get_u64();
    if (sec.len > r.remaining()) fail("section overruns payload");
    sec.data = payload + r.position();
    r.skip(sec.len);
    sections.push_back(sec);
  }
  return sections;
}

const Section* find(const std::vector<Section>& sections, u32 cc) {
  for (const auto& sec : sections) {
    if (sec.cc == cc) return &sec;
  }
  return nullptr;
}

const Section& need(const std::vector<Section>& sections, u32 cc) {
  const Section* sec = find(sections, cc);
  if (sec == nullptr) fail("snapshot missing section " + fourcc_name(cc));
  return *sec;
}

HartState decode_hart(const Section& sec) {
  ByteReader r = sec.reader();
  HartState s;
  HartState::fields(r, s);
  return s;
}

}  // namespace

std::vector<u8> save_unsealed(sim::Machine& machine) {
  ByteWriter out;
  out.put_bytes(reinterpret_cast<const u8*>(kMagic), sizeof(kMagic));
  out.put_u32(kFormatVersion);
  out.put_u64(0);  // payload_len, patched below
  out.put_u64(0);  // checksum, written by seal()
  for (const SectionDef& def : kSections) {
    if (!carried(def, kFormatVersion, machine)) continue;
    put_section(out, def.cc,
                [&](ByteWriter& w) { section_io(w, def.cc, machine); });
  }
  out.patch_u64(kPayloadLenAt, out.size() - kHeader);
  return out.take();
}

void seal(std::vector<u8>& blob) {
  if (blob.size() < kHeader) fail("snapshot too short for header");
  // Host order is the little-endian wire order (common/serial.h).
  const u64 sum = checksum64(blob.data() + kHeader, blob.size() - kHeader);
  std::memcpy(blob.data() + kChecksumAt, &sum, sizeof(sum));
}

std::vector<u8> save(sim::Machine& machine) {
  std::vector<u8> blob = save_unsealed(machine);
  seal(blob);
  return blob;
}

void restore(sim::Machine& machine, const std::vector<u8>& blob) {
  u32 version = 0;
  const std::vector<Section> sections = parse(blob, &version);
  try {
    // Config compatibility: the restoring machine must serialize to the
    // exact CFG bytes of the snapshot — the state sections are only
    // meaningful against identical geometry, flavour and timing. The
    // compare runs at the blob's version; a v1 blob predates the vkey
    // knobs, so the restoring machine must still carry their defaults.
    {
      const Section& sec = need(sections, kSecConfig);
      ByteWriter mine;
      config_fields(mine, machine.config(), version);
      if (mine.size() != sec.len ||
          std::memcmp(mine.buffer().data(), sec.data,
                      static_cast<size_t>(sec.len)) != 0) {
        fail(
            "snapshot was taken under a different machine config "
            "(construct the machine with snapshot::config_from)");
      }
      if (version < 2) {
        const os::KernelConfig defaults;
        if (machine.config().kernel.vkey_mru_slots !=
                defaults.vkey_mru_slots ||
            machine.config().kernel.vkey_lazy_sync !=
                defaults.vkey_lazy_sync) {
          fail(
              "v1 snapshot predates vkey virtualization but the machine "
              "carries non-default vkey knobs");
        }
      }
    }
    if ((machine.injector() != nullptr) !=
        (find(sections, kSecInjector) != nullptr)) {
      fail("snapshot and machine disagree about fault injection");
    }

    // v1 blobs predate the VKEY section: load_state already left every
    // process's vkey table null, which is exactly the pre-v2 state.
    for (const SectionDef& def : kSections) {
      if (def.cc == kSecConfig || !carried(def, version, machine)) continue;
      ByteReader r = need(sections, def.cc).reader();
      section_io(r, def.cc, machine);
    }
    // Tracing state travels outside snapshots; re-seed the recorder's
    // pid/tid stamping context from the just-restored scheduler so events
    // published after this point stamp exactly as in an uninterrupted run.
    machine.reseed_recorder();
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::exception& e) {
    fail(std::string("snapshot decode failed: ") + e.what());
  }
}

sim::MachineConfig config_from(const std::vector<u8>& blob) {
  u32 version = 0;
  const std::vector<Section> sections = parse(blob, &version);
  try {
    ByteReader r = need(sections, kSecConfig).reader();
    sim::MachineConfig cfg;
    config_fields(r, cfg, version);
    check_buildable(cfg);
    return cfg;
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::exception& e) {
    fail(std::string("snapshot config decode failed: ") + e.what());
  }
}

Info info(const std::vector<u8>& blob) {
  Info out;
  const std::vector<Section> sections = parse(blob);
  ByteReader hdr(blob.data() + sizeof(kMagic), kHeader - sizeof(kMagic));
  out.version = hdr.get_u32();
  out.payload_len = hdr.get_u64();
  out.checksum = hdr.get_u64();
  out.checksum_ok = true;  // parse() already validated it
  for (const auto& sec : sections) {
    out.sections.push_back({fourcc_name(sec.cc), sec.len});
  }
  try {
    const HartState hart = decode_hart(need(sections, kSecHart));
    out.pc = hart.pc;
    out.cycles = hart.cycles;
    out.instret = hart.instret;
  } catch (const std::exception& e) {
    fail(std::string("snapshot HART section decode failed: ") + e.what());
  }
  return out;
}

std::vector<std::string> diff(const std::vector<u8>& a,
                              const std::vector<u8>& b) {
  const std::vector<Section> sa = parse(a);
  const std::vector<Section> sb = parse(b);
  std::vector<std::string> lines;

  auto describe = [&](const Section& x, const Section& y) {
    std::ostringstream os;
    os << fourcc_name(x.cc) << ": differs (" << x.len << " vs " << y.len
       << " bytes)";
    if (x.len == y.len) {
      for (u64 i = 0; i < x.len; ++i) {
        if (x.data[i] != y.data[i]) {
          os << "; first at byte " << i;
          break;
        }
      }
    }
    if (x.cc == kSecHart && x.len == y.len) {
      const HartState hx = decode_hart(x);
      const HartState hy = decode_hart(y);
      for (unsigned i = 0; i < 32; ++i) {
        if (hx.regs[i] != hy.regs[i]) {
          os << "; x" << i << "=0x" << std::hex << hx.regs[i] << "/0x"
             << hy.regs[i] << std::dec;
        }
      }
      if (hx.pc != hy.pc) {
        os << "; pc=0x" << std::hex << hx.pc << "/0x" << hy.pc << std::dec;
      }
      if (hx.cycles != hy.cycles) {
        os << "; cycles=" << hx.cycles << "/" << hy.cycles;
      }
      if (hx.instret != hy.instret) {
        os << "; instret=" << hx.instret << "/" << hy.instret;
      }
    }
    if (x.cc == kSecMem) {
      ByteReader rx = x.reader();
      ByteReader ry = y.reader();
      rx.get_u64();
      ry.get_u64();  // size
      os << "; resident pages " << rx.get_u64() << "/" << ry.get_u64();
    }
    return os.str();
  };

  try {
    for (const auto& sec : sa) {
      const Section* other = find(sb, sec.cc);
      if (other == nullptr) {
        lines.push_back(fourcc_name(sec.cc) + ": only in first snapshot");
        continue;
      }
      if (sec.len != other->len ||
          std::memcmp(sec.data, other->data,
                      static_cast<size_t>(sec.len)) != 0) {
        lines.push_back(describe(sec, *other));
      }
    }
  } catch (const std::exception& e) {
    fail(std::string("snapshot section decode failed: ") + e.what());
  }
  for (const auto& sec : sb) {
    if (find(sa, sec.cc) == nullptr) {
      lines.push_back(fourcc_name(sec.cc) + ": only in second snapshot");
    }
  }
  return lines;
}

std::vector<u8> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open snapshot file: " + path);
  std::vector<u8> blob((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  if (in.bad()) fail("read failed: " + path);
  return blob;
}

void write_file(const std::string& path, const std::vector<u8>& blob) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail("cannot create snapshot file: " + path);
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  out.flush();
  if (!out) fail("write failed: " + path);
}

}  // namespace sealpk::snapshot
