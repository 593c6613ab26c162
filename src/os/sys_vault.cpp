// The sealed-storage vault service (src/vault, DESIGN.md §14): the
// kernel half of vault_seal / vault_reseal / vault_unseal.
#include "os/kernel.h"

#include "vault/format.h"

namespace sealpk::os {

i64 Kernel::open_vault(u64 vault_base, vault::Geometry* geo) {
  if (hart_.config().flavor != core::IsaFlavor::kSealPk) return err::kNoSys;
  hart_.add_cycles(hart_.timing().pkey_bookkeeping_cycles);
  AddressSpace& as = current_aspace();
  u8 sb[vault::kSuperblockSize];
  if (!as.copy_in(vault_base, sb, vault::kSuperblockSize)) return err::kFault;
  const std::optional<vault::Geometry> parsed =
      vault::parse_superblock(sb, vault::kSuperblockSize);
  if (!parsed) return err::kInval;
  const Vma* vma = as.find_vma(vault_base);
  if (vma == nullptr || vma->pkey != parsed->vault_pkey ||
      vault_base + parsed->total_len() > vma->end) {
    return err::kInval;
  }
  // The vault domain itself must be fully sealed before the kernel will
  // notarise anything into it or serve anything out of it: an unsealed
  // "vault" offers no guarantee the guest can't rewrite history behind the
  // journal's back.
  const u32 vk = static_cast<u32>(parsed->vault_pkey);
  if (!current_keys().domain_sealed(vk) || !current_keys().pages_sealed(vk)) {
    return err::kPerm;
  }
  *geo = *parsed;
  return 0;
}

i64 Kernel::owner_region(u64 vault_base, const vault::Geometry& geo, u64 id,
                         std::vector<u8>* region) {
  // Ownership gate: the caller's *live* PKR must grant read+write on the
  // vault's owner domain. A handler running with the owner key closed (or
  // a foreign process) is refused and the refusal is notarised.
  if (hart_.pkr().peek_perm(static_cast<u32>(geo.owner_pkey)) !=
      pkeyperm::kRw) {
    ++vault_stats_.denials;
    record_mark(mark::kVaultDenied, id, static_cast<u64>(-err::kAcces),
                static_cast<u32>(geo.vault_pkey));
    return err::kAcces;
  }
  region->resize(geo.total_len());
  if (!current_aspace().copy_in(vault_base, region->data(), region->size())) {
    return err::kFault;
  }
  hart_.add_cycles(region->size() / 8);  // journal scan + checksum cost
  return 0;
}

i64 Kernel::sys_vault_commit(u64 vault_base, u64 intent_off, bool reseal) {
  vault::Geometry geo;
  if (const i64 rc = open_vault(vault_base, &geo); rc != 0) return rc;
  AddressSpace& as = current_aspace();
  const u32 vk = static_cast<u32>(geo.vault_pkey);

  // Intent records live at even journal indices; the kernel owns the odd
  // slot right after each one.
  if (intent_off < geo.journal_off ||
      (intent_off - geo.journal_off) % vault::kRecordSize != 0) {
    return err::kInval;
  }
  const u64 index = (intent_off - geo.journal_off) / vault::kRecordSize;
  if ((index % 2) != 0 || index + 1 >= geo.journal_cap) return err::kInval;

  u8 rb[vault::kRecordSize];
  if (!as.copy_in(vault_base + intent_off, rb, vault::kRecordSize)) {
    return err::kFault;
  }
  const vault::Record intent = vault::parse_record(rb);
  if (!intent.present) return err::kInval;
  if (!intent.valid) {
    // A torn or corrupted intent is detected — and refused — here, never
    // silently committed.
    ++vault_stats_.corruption_detected;
    return err::kInval;
  }
  if (intent.type != (reseal ? vault::kRecordIntentReseal
                             : vault::kRecordIntentSeal)) {
    return err::kInval;
  }
  if (intent.slot >= geo.n_slots || intent.len == 0 ||
      intent.len > geo.slot_size || (intent.len % 8) != 0) {
    return err::kInval;
  }

  std::vector<u8> region;
  const i64 rc = owner_region(vault_base, geo, intent.id, &region);
  if (rc != 0) return rc;
  const vault::Ledger ledger = vault::replay(region.data(), region.size());
  const auto live = ledger.live.find(intent.id);
  if (!reseal && live != ledger.live.end()) return err::kBusy;
  if (reseal) {
    if (live == ledger.live.end()) return err::kInval;
    // Copy-on-write: a reseal must land in a fresh slot with a newer
    // sequence number, so a crash mid-payload-write can never tear the
    // still-committed previous version.
    if (live->second.slot == intent.slot || intent.seq <= live->second.seq) {
      return err::kInval;
    }
  }
  for (const auto& [id, b] : ledger.live) {
    if (b.slot == intent.slot) return err::kBusy;  // slot holds live data
  }
  // The kernel's half of the record pair must still be virgin.
  const vault::Record existing =
      vault::parse_record(region.data() + geo.record_off(index + 1));
  if (existing.present) return err::kBusy;

  // The payload must already be fully in place and match the intent's
  // checksum — the commit record is the durability point, so nothing may
  // be outstanding once it exists.
  if (checksum64(region.data() + geo.slot_off(intent.slot), intent.len) !=
      intent.payload_fnv) {
    ++vault_stats_.corruption_detected;
    return err::kBadMsg;
  }

  const std::vector<u8> commit =
      vault::record_bytes(vault::kRecordCommit, intent.id, intent.slot,
                          intent.len, intent.seq, intent.payload_fnv);
  if (!as.copy_out(vault_base + geo.record_off(index + 1), commit.data(),
                   commit.size())) {
    return err::kFault;
  }
  if (reseal) {
    ++vault_stats_.reseals;
  } else {
    ++vault_stats_.seals;
  }
  record_mark(mark::kVaultCommit, intent.id, intent.seq, vk);
  return 0;
}

i64 Kernel::sys_vault_unseal(u64 vault_base, u64 id, u64 dst) {
  vault::Geometry geo;
  if (const i64 rc = open_vault(vault_base, &geo); rc != 0) return rc;
  AddressSpace& as = current_aspace();
  const u32 vk = static_cast<u32>(geo.vault_pkey);
  std::vector<u8> region;
  const i64 rc = owner_region(vault_base, geo, id, &region);
  if (rc != 0) return rc;
  // Newest valid commit for `id` (structural scan; payload verified below
  // so a checksum failure is reported as corruption, not as "absent").
  bool found = false;
  vault::Record best;
  for (u64 i = 1; i < geo.journal_cap; i += 2) {
    const vault::Record r =
        vault::parse_record(region.data() + geo.record_off(i));
    if (!r.present || !r.valid || r.type != vault::kRecordCommit) continue;
    if (r.id != id || r.slot >= geo.n_slots || r.len > geo.slot_size) {
      continue;
    }
    if (!found || r.seq >= best.seq) {
      best = r;
      found = true;
    }
  }
  if (!found) return err::kInval;
  if (checksum64(region.data() + geo.slot_off(best.slot), best.len) !=
      best.payload_fnv) {
    // Detected before serving: a corrupted committed payload is never
    // handed out.
    ++vault_stats_.corruption_detected;
    return err::kBadMsg;
  }

  // The destination must sit entirely inside the owner domain and be
  // writable under the caller's live PKR: secrets never leave the
  // {vault, owner} domain pair through this syscall.
  const u64 first = align_down(dst, mem::kPageSize);
  for (u64 page = first; page < dst + best.len; page += mem::kPageSize) {
    const std::optional<u32> pkey = as.page_pkey(page);
    if (!pkey.has_value()) return err::kFault;
    if (*pkey != geo.owner_pkey ||
        (hart_.pkr().peek_perm(*pkey) & 0b01) != 0) {
      return err::kAcces;
    }
  }
  if (!as.copy_out(dst, region.data() + geo.slot_off(best.slot), best.len)) {
    return err::kFault;
  }
  hart_.add_cycles(best.len);  // copy_to_user cost
  ++vault_stats_.unseals;
  record_mark(mark::kVaultUnseal, id, best.len, vk);
  return static_cast<i64>(best.len);
}

}  // namespace sealpk::os
