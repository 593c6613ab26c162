// Sealed-storage vault format (DESIGN.md §14).
//
// A vault is a contiguous guest-memory region tagged with a write-only,
// perm-sealed pkey. Layout, all offsets relative to the vault base:
//
//   [0, 80)                        superblock (10 u64 words, FNV-1a sealed)
//   [journal_off, +journal_cap*64) write-ahead journal, 64-byte records
//   [data_off, +n_slots*slot_size) payload slots
//
// The journal is record-PAIRED: operation r writes its intent record at
// slot 2r (guest-side, word-by-word, so a crash can tear it) and the
// kernel writes the matching commit record at slot 2r+1 (host-side, in
// one atomic trap). Every record carries an FNV-1a 64 checksum over its
// first 56 bytes, and each intent/commit carries the FNV of the payload
// it covers — so cold replay can always distinguish "fully present",
// "torn" and "absent" without trusting anything outside the region.
//
// Everything here is header-only on purpose: the kernel (src/os), the
// fault injector (src/fault) and the sweep harness (src/vault) all parse
// the same bytes, and none of them should grow a link-time edge for it.
#pragma once

#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/checksum.h"
#include "os/addr_space.h"

namespace sealpk::vault {

// "SPKVAULT" / "SPKVJRNL" little-endian.
inline constexpr u64 kVaultMagic = 0x544C5541564B5053ULL;
inline constexpr u64 kRecordMagic = 0x4C4E524A564B5053ULL;
inline constexpr u64 kFormatVersion = 1;

inline constexpr u64 kSuperblockSize = 80;  // 10 u64 words
inline constexpr u64 kRecordSize = 64;      // 8 u64 words

// Record types. Intents are guest-written (torn writes possible); commits
// are kernel-written inside one trap and are the durability points.
inline constexpr u64 kRecordIntentSeal = 1;
inline constexpr u64 kRecordIntentReseal = 2;
inline constexpr u64 kRecordCommit = 3;

inline u64 load_u64(const u8* p) {
  u64 v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store_u64(u8* p, u64 v) { std::memcpy(p, &v, sizeof(v)); }

// ---------------------------------------------------------------------------
// Superblock.
// ---------------------------------------------------------------------------

struct Geometry {
  u64 version = kFormatVersion;
  u64 vault_pkey = 0;   // write-only + perm-sealed domain tagging the region
  u64 owner_pkey = 0;   // domain whose kRw holders may seal/unseal
  u64 journal_off = kSuperblockSize;
  u64 journal_cap = 0;  // record slots (always even: intent/commit pairs)
  u64 data_off = 0;
  u64 n_slots = 0;
  u64 slot_size = 0;    // bytes, multiple of 8

  u64 total_len() const { return data_off + n_slots * slot_size; }
  u64 record_off(u64 index) const { return journal_off + index * kRecordSize; }
  u64 slot_off(u64 slot) const { return data_off + slot * slot_size; }
};

// A slot size the format accepts: a non-zero multiple of 8 bytes.
constexpr bool valid_slot_size(u64 bytes) {
  return bytes != 0 && bytes % 8 == 0;
}

inline std::vector<u8> superblock_bytes(const Geometry& g) {
  std::vector<u8> b(kSuperblockSize, 0);
  store_u64(&b[0], kVaultMagic);
  store_u64(&b[8], g.version);
  store_u64(&b[16], g.vault_pkey);
  store_u64(&b[24], g.owner_pkey);
  store_u64(&b[32], g.journal_off);
  store_u64(&b[40], g.journal_cap);
  store_u64(&b[48], g.data_off);
  store_u64(&b[56], g.n_slots);
  store_u64(&b[64], g.slot_size);
  store_u64(&b[72], checksum64(b.data(), 72));
  return b;
}

inline std::optional<Geometry> parse_superblock(const u8* p, u64 len) {
  if (len < kSuperblockSize) return std::nullopt;
  if (load_u64(p) != kVaultMagic) return std::nullopt;
  if (load_u64(p + 72) != checksum64(p, 72)) return std::nullopt;
  Geometry g;
  g.version = load_u64(p + 8);
  g.vault_pkey = load_u64(p + 16);
  g.owner_pkey = load_u64(p + 24);
  g.journal_off = load_u64(p + 32);
  g.journal_cap = load_u64(p + 40);
  g.data_off = load_u64(p + 48);
  g.n_slots = load_u64(p + 56);
  g.slot_size = load_u64(p + 64);
  if (g.version != kFormatVersion) return std::nullopt;
  if (g.vault_pkey == 0 || g.vault_pkey == g.owner_pkey) return std::nullopt;
  if (g.journal_off < kSuperblockSize) return std::nullopt;
  if (g.journal_cap == 0 || (g.journal_cap % 2) != 0) return std::nullopt;
  if (g.data_off < g.journal_off + g.journal_cap * kRecordSize) {
    return std::nullopt;
  }
  if (g.n_slots == 0 || !valid_slot_size(g.slot_size)) return std::nullopt;
  return g;
}

// ---------------------------------------------------------------------------
// Journal records.
// ---------------------------------------------------------------------------

struct Record {
  u64 magic = 0;
  u64 type = 0;
  u64 id = 0;
  u64 slot = 0;
  u64 len = 0;
  u64 seq = 0;
  u64 payload_fnv = 0;
  u64 record_fnv = 0;
  bool present = false;  // any nonzero byte in the 64-byte slot
  bool valid = false;    // magic + record checksum + known type
};

inline std::vector<u8> record_bytes(u64 type, u64 id, u64 slot, u64 len,
                                    u64 seq, u64 payload_fnv) {
  std::vector<u8> b(kRecordSize, 0);
  store_u64(&b[0], kRecordMagic);
  store_u64(&b[8], type);
  store_u64(&b[16], id);
  store_u64(&b[24], slot);
  store_u64(&b[32], len);
  store_u64(&b[40], seq);
  store_u64(&b[48], payload_fnv);
  store_u64(&b[56], checksum64(b.data(), 56));
  return b;
}

inline Record parse_record(const u8* p) {
  Record r;
  for (u64 i = 0; i < kRecordSize; ++i) r.present |= p[i] != 0;
  if (!r.present) return r;
  r.magic = load_u64(p);
  r.type = load_u64(p + 8);
  r.id = load_u64(p + 16);
  r.slot = load_u64(p + 24);
  r.len = load_u64(p + 32);
  r.seq = load_u64(p + 40);
  r.payload_fnv = load_u64(p + 48);
  r.record_fnv = load_u64(p + 56);
  r.valid = r.magic == kRecordMagic && r.record_fnv == checksum64(p, 56) &&
            (r.type == kRecordIntentSeal || r.type == kRecordIntentReseal ||
             r.type == kRecordCommit);
  return r;
}

// ---------------------------------------------------------------------------
// Cold replay.
// ---------------------------------------------------------------------------

struct Bundle {
  u64 slot = 0;
  u64 len = 0;
  u64 seq = 0;
  u64 payload_fnv = 0;

  bool operator==(const Bundle&) const = default;
};

// The recovered view of a vault region: only commit records admit a bundle
// into `live`, and a live bundle whose payload bytes fail their checksum is
// demoted to `payload_mismatch` (detected, never served) rather than kept.
struct Ledger {
  bool superblock_ok = false;
  std::map<u64, Bundle> live;  // bundle id -> newest committed version
  u64 records_seen = 0;        // non-empty journal record slots
  u64 commits_seen = 0;        // valid commit records
  u64 torn_or_corrupt = 0;     // non-empty records failing magic/checksum
  u64 payload_mismatch = 0;    // committed payloads failing their FNV
};

inline Ledger replay(const u8* region, u64 len) {
  Ledger ledger;
  const std::optional<Geometry> g = parse_superblock(region, len);
  if (!g || g->total_len() > len) return ledger;
  ledger.superblock_ok = true;
  for (u64 i = 0; i < g->journal_cap; ++i) {
    const Record r = parse_record(region + g->record_off(i));
    if (!r.present) continue;
    ++ledger.records_seen;
    if (!r.valid) {
      ++ledger.torn_or_corrupt;
      continue;
    }
    if (r.type != kRecordCommit) continue;  // intents alone commit nothing
    if (r.slot >= g->n_slots || r.len > g->slot_size || (r.len % 8) != 0) {
      ++ledger.torn_or_corrupt;
      continue;
    }
    ++ledger.commits_seen;
    auto it = ledger.live.find(r.id);
    if (it == ledger.live.end() || r.seq >= it->second.seq) {
      ledger.live[r.id] = Bundle{r.slot, r.len, r.seq, r.payload_fnv};
    }
  }
  for (auto it = ledger.live.begin(); it != ledger.live.end();) {
    const Bundle& b = it->second;
    if (checksum64(region + g->slot_off(b.slot), b.len) != b.payload_fnv) {
      ++ledger.payload_mismatch;
      it = ledger.live.erase(it);
    } else {
      ++it;
    }
  }
  return ledger;
}

// Canonical text form — the byte-identity oracle across thread counts.
inline std::string ledger_string(const Ledger& ledger) {
  std::ostringstream os;
  os << "vault ledger sb=" << (ledger.superblock_ok ? 1 : 0) << "\n";
  for (const auto& [id, b] : ledger.live) {
    os << "  bundle id=" << id << " seq=" << b.seq << " slot=" << b.slot
       << " len=" << b.len << " fnv=" << std::hex << b.payload_fnv
       << std::dec << "\n";
  }
  os << "  summary live=" << ledger.live.size()
     << " records=" << ledger.records_seen
     << " commits=" << ledger.commits_seen
     << " torn=" << ledger.torn_or_corrupt
     << " mismatch=" << ledger.payload_mismatch << "\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Locating a vault inside a guest address space.
// ---------------------------------------------------------------------------

struct VaultLocation {
  u64 base = 0;
  u64 len = 0;  // VMA extent, >= geo.total_len()
  Geometry geo;
};

// Scans the VMAs of `aspace` for a region whose first bytes parse as a
// vault superblock claiming the VMA's own pkey. Used by the kernel (to
// resolve syscall arguments defensively), the fault injector (to aim
// journal corruption) and the sweep harness (to dump the region).
inline std::optional<VaultLocation> find_vault(const os::AddressSpace& aspace) {
  for (const auto& [start, vma] : aspace.vmas()) {
    if (vma.pkey == 0) continue;
    u8 sb[kSuperblockSize];
    if (!aspace.copy_in(start, sb, kSuperblockSize)) continue;
    const std::optional<Geometry> g = parse_superblock(sb, kSuperblockSize);
    if (!g || g->vault_pkey != vma.pkey) continue;
    if (g->total_len() > vma.end - vma.start) continue;
    return VaultLocation{start, vma.end - vma.start, *g};
  }
  return std::nullopt;
}

}  // namespace sealpk::vault
