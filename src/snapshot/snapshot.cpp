#include "snapshot/snapshot.h"

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
// byte-identical, so every field below is a compatibility axis.

void save_config(ByteWriter& w, const sim::MachineConfig& cfg,
                 u32 version = kFormatVersion) {
  w.put_u8(static_cast<u8>(cfg.hart.flavor));
  w.put_u64(cfg.hart.dtlb_entries);
  w.put_u64(cfg.hart.itlb_entries);
  const core::TimingModel& t = cfg.hart.timing;
  w.put_u64(t.base_cycles);
  w.put_u64(t.mul_cycles);
  w.put_u64(t.div_cycles);
  w.put_u64(t.mem_extra_cycles);
  w.put_u64(t.tlb_miss_per_access);
  w.put_u64(t.rocc_cycles);
  w.put_u64(t.trap_enter_cycles);
  w.put_u64(t.trap_return_cycles);
  w.put_u64(t.syscall_dispatch_cycles);
  w.put_u64(t.vma_lookup_cycles);
  w.put_u64(t.pte_update_cycles);
  w.put_u64(t.mprotect_rss_cycles_per_page);
  w.put_u64(t.tlb_flush_cycles);
  w.put_u64(t.pkey_bookkeeping_cycles);
  w.put_u64(t.fault_handler_cycles);
  w.put_u64(t.cam_refill_handler_cycles);
  w.put_u64(t.context_switch_cycles);
  w.put_u64(t.pkr_row_swap_cycles);
  w.put_bool(cfg.kernel.save_pkr_on_switch);
  w.put_u64(cfg.kernel.stack_pages);
  w.put_bool(cfg.kernel.sv48);
  w.put_u64(cfg.mem_bytes);
  w.put_u64(cfg.preempt_quantum);
  w.put_bool(cfg.fault_plan.enabled);
  w.put_u64(cfg.fault_plan.seed);
  w.put_f64(cfg.fault_plan.rate);
  w.put_f64(cfg.fault_plan.cam_rate);
  w.put_u64(cfg.fault_plan.max_faults);
  w.put_u32(cfg.fault_plan.kinds);
  w.put_u64(cfg.audit_interval);
  w.put_u64(cfg.watchdog_trap_storm);
  w.put_u64(cfg.watchdog_livelock);
  w.put_u64(cfg.checkpoint_interval);
  w.put_u64(cfg.max_rollbacks);
  if (version >= 2) {
    w.put_u32(cfg.kernel.vkey_mru_slots);
    w.put_bool(cfg.kernel.vkey_lazy_sync);
  }
}

sim::MachineConfig load_config(ByteReader& r, u32 version) {
  sim::MachineConfig cfg;
  cfg.hart.flavor = static_cast<core::IsaFlavor>(r.get_u8());
  cfg.hart.dtlb_entries = static_cast<size_t>(r.get_u64());
  cfg.hart.itlb_entries = static_cast<size_t>(r.get_u64());
  core::TimingModel& t = cfg.hart.timing;
  t.base_cycles = r.get_u64();
  t.mul_cycles = r.get_u64();
  t.div_cycles = r.get_u64();
  t.mem_extra_cycles = r.get_u64();
  t.tlb_miss_per_access = r.get_u64();
  t.rocc_cycles = r.get_u64();
  t.trap_enter_cycles = r.get_u64();
  t.trap_return_cycles = r.get_u64();
  t.syscall_dispatch_cycles = r.get_u64();
  t.vma_lookup_cycles = r.get_u64();
  t.pte_update_cycles = r.get_u64();
  t.mprotect_rss_cycles_per_page = r.get_u64();
  t.tlb_flush_cycles = r.get_u64();
  t.pkey_bookkeeping_cycles = r.get_u64();
  t.fault_handler_cycles = r.get_u64();
  t.cam_refill_handler_cycles = r.get_u64();
  t.context_switch_cycles = r.get_u64();
  t.pkr_row_swap_cycles = r.get_u64();
  cfg.kernel.save_pkr_on_switch = r.get_bool();
  cfg.kernel.stack_pages = r.get_u64();
  cfg.kernel.sv48 = r.get_bool();
  cfg.mem_bytes = r.get_u64();
  cfg.preempt_quantum = r.get_u64();
  cfg.fault_plan.enabled = r.get_bool();
  cfg.fault_plan.seed = r.get_u64();
  cfg.fault_plan.rate = r.get_f64();
  cfg.fault_plan.cam_rate = r.get_f64();
  cfg.fault_plan.max_faults = r.get_u64();
  cfg.fault_plan.kinds = r.get_u32();
  cfg.audit_interval = r.get_u64();
  cfg.watchdog_trap_storm = r.get_u64();
  cfg.watchdog_livelock = r.get_u64();
  cfg.checkpoint_interval = r.get_u64();
  cfg.max_rollbacks = r.get_u64();
  if (version >= 2) {
    cfg.kernel.vkey_mru_slots = r.get_u32();
    cfg.kernel.vkey_lazy_sync = r.get_bool();
  }
  return cfg;
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

void save_hart(ByteWriter& w, core::Hart& hart) {
  for (unsigned i = 0; i < 32; ++i) w.put_u64(hart.reg(i));
  w.put_u64(hart.pc());
  w.put_u8(static_cast<u8>(hart.priv()));
  w.put_u64(hart.cycles());
  w.put_u64(hart.instret());
  const core::HartStats& s = hart.stats();
  w.put_u64(s.loads);
  w.put_u64(s.stores);
  w.put_u64(s.calls);
  w.put_u64(s.traps);
  w.put_u64(s.pkey_denials);
  w.put_u64(s.wrpkr_count);
  w.put_u64(s.rdpkr_count);
  w.put_u64(s.wrpkru_count);
  const core::CsrFile& c = hart.csrs();
  w.put_u64(c.sstatus);
  w.put_u64(c.stvec);
  w.put_u64(c.sscratch);
  w.put_u64(c.sepc);
  w.put_u64(c.scause);
  w.put_u64(c.stval);
  w.put_u64(c.satp);
  w.put_u64(c.spkinfo);
  w.put_u64(c.seal_start);
  w.put_u64(c.seal_end);
}

void load_hart(ByteReader& r, core::Hart& hart) {
  for (unsigned i = 0; i < 32; ++i) hart.set_reg(i, r.get_u64());
  hart.set_pc(r.get_u64());
  hart.set_priv(static_cast<core::Priv>(r.get_u8()));
  hart.set_cycles(r.get_u64());
  hart.set_instret(r.get_u64());
  core::HartStats s;
  s.loads = r.get_u64();
  s.stores = r.get_u64();
  s.calls = r.get_u64();
  s.traps = r.get_u64();
  s.pkey_denials = r.get_u64();
  s.wrpkr_count = r.get_u64();
  s.rdpkr_count = r.get_u64();
  s.wrpkru_count = r.get_u64();
  hart.set_stats(s);
  core::CsrFile& c = hart.csrs();
  c.sstatus = r.get_u64();
  c.stvec = r.get_u64();
  c.sscratch = r.get_u64();
  c.sepc = r.get_u64();
  c.scause = r.get_u64();
  c.stval = r.get_u64();
  c.satp = r.get_u64();
  c.spkinfo = r.get_u64();
  c.seal_start = r.get_u64();
  c.seal_end = r.get_u64();
}

void save_runloop(ByteWriter& w, const sim::Machine::RunLoopState& rl) {
  w.put_u64(rl.since_switch);
  w.put_u64(rl.trap_streak);
  w.put_u64(rl.last_trap_pc);
  w.put_u64(rl.stall_streak);
  w.put_u64(rl.next_audit);
  w.put_u64(rl.next_checkpoint);
}

void load_runloop(ByteReader& r, sim::Machine::RunLoopState& rl) {
  rl.since_switch = r.get_u64();
  rl.trap_streak = r.get_u64();
  rl.last_trap_pc = r.get_u64();
  rl.stall_streak = r.get_u64();
  rl.next_audit = r.get_u64();
  rl.next_checkpoint = r.get_u64();
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

}  // namespace

std::vector<u8> save_unsealed(sim::Machine& machine) {
  ByteWriter out;
  out.put_bytes(reinterpret_cast<const u8*>(kMagic), sizeof(kMagic));
  out.put_u32(kFormatVersion);
  out.put_u64(0);  // payload_len, patched below
  out.put_u64(0);  // checksum, written by seal()
  put_section(out, kSecConfig,
              [&](ByteWriter& w) { save_config(w, machine.config()); });
  put_section(out, kSecHart,
              [&](ByteWriter& w) { save_hart(w, machine.hart()); });
  put_section(out, kSecPkr,
              [&](ByteWriter& w) { machine.hart().pkr().save_state(w); });
  put_section(out, kSecSeal, [&](ByteWriter& w) {
    machine.hart().seal_unit().save_state(w);
  });
  put_section(out, kSecPkru, [&](ByteWriter& w) {
    w.put_u32(machine.hart().pkru().value());
  });
  put_section(out, kSecDtlb,
              [&](ByteWriter& w) { machine.hart().dtlb().save_state(w); });
  put_section(out, kSecItlb,
              [&](ByteWriter& w) { machine.hart().itlb().save_state(w); });
  put_section(out, kSecMem,
              [&](ByteWriter& w) { machine.mem().save_state(w); });
  put_section(out, kSecKernel,
              [&](ByteWriter& w) { machine.kernel().save_state(w); });
  put_section(out, kSecRunLoop,
              [&](ByteWriter& w) { save_runloop(w, machine.runloop()); });
  put_section(out, kSecVkey, [&](ByteWriter& w) {
    machine.kernel().save_vkey_state(w);
  });
  if (machine.injector() != nullptr) {
    put_section(out, kSecInjector, [&](ByteWriter& w) {
      machine.injector()->save_state(w);
    });
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
      save_config(mine, machine.config(), version);
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

    {
      ByteReader r = need(sections, kSecHart).reader();
      load_hart(r, machine.hart());
    }
    {
      ByteReader r = need(sections, kSecPkr).reader();
      machine.hart().pkr().load_state(r);
    }
    {
      ByteReader r = need(sections, kSecSeal).reader();
      machine.hart().seal_unit().load_state(r);
    }
    {
      ByteReader r = need(sections, kSecPkru).reader();
      machine.hart().pkru().set(r.get_u32());
    }
    {
      ByteReader r = need(sections, kSecDtlb).reader();
      machine.hart().dtlb().load_state(r);
    }
    {
      ByteReader r = need(sections, kSecItlb).reader();
      machine.hart().itlb().load_state(r);
    }
    {
      ByteReader r = need(sections, kSecMem).reader();
      machine.mem().load_state(r);
    }
    {
      ByteReader r = need(sections, kSecKernel).reader();
      machine.kernel().load_state(r);
    }
    {
      ByteReader r = need(sections, kSecRunLoop).reader();
      load_runloop(r, machine.runloop());
    }
    if (version >= 2) {
      ByteReader r = need(sections, kSecVkey).reader();
      machine.kernel().load_vkey_state(r);
    }
    // v1 blobs predate the VKEY section: load_state already left every
    // process's vkey table null, which is exactly the pre-v2 state.
    if (machine.injector() != nullptr) {
      ByteReader r = need(sections, kSecInjector).reader();
      machine.injector()->load_state(r);
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
    sim::MachineConfig cfg = load_config(r, version);
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
    ByteReader r = need(sections, kSecHart).reader();
    for (unsigned i = 0; i < 32; ++i) r.get_u64();  // regs
    out.pc = r.get_u64();
    r.get_u8();  // priv
    out.cycles = r.get_u64();
    out.instret = r.get_u64();
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
      ByteReader rx = x.reader();
      ByteReader ry = y.reader();
      for (unsigned i = 0; i < 32; ++i) {
        const u64 vx = rx.get_u64();
        const u64 vy = ry.get_u64();
        if (vx != vy) os << "; x" << i << "=0x" << std::hex << vx << "/0x"
                         << vy << std::dec;
      }
      const u64 pcx = rx.get_u64();
      const u64 pcy = ry.get_u64();
      if (pcx != pcy) os << "; pc=0x" << std::hex << pcx << "/0x" << pcy
                         << std::dec;
      rx.get_u8();
      ry.get_u8();
      const u64 cx = rx.get_u64();
      const u64 cy = ry.get_u64();
      if (cx != cy) os << "; cycles=" << cx << "/" << cy;
      const u64 ix = rx.get_u64();
      const u64 iy = ry.get_u64();
      if (ix != iy) os << "; instret=" << ix << "/" << iy;
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

  for (const auto& sec : sa) {
    const Section* other = find(sb, sec.cc);
    if (other == nullptr) {
      lines.push_back(fourcc_name(sec.cc) + ": only in first snapshot");
      continue;
    }
    if (sec.len != other->len ||
        std::memcmp(sec.data, other->data, static_cast<size_t>(sec.len)) !=
            0) {
      lines.push_back(describe(sec, *other));
    }
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
