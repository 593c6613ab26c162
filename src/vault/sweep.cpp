#include "vault/sweep.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>

#include "common/json.h"
#include "common/pool.h"
#include "os/syscall_abi.h"
#include "sim/machine.h"
#include "snapshot/snapshot.h"

namespace sealpk::vault {

namespace {

// Dense-window width after each guest kVaultIntent mark: wide enough to
// land on every one of the 16 ld/sd word steps of the intent-record copy
// plus the first payload stores.
constexpr u64 kIntentWindow = 96;
constexpr u64 kRunBudget = 400'000'000ULL;
constexpr u64 kMaxScanVma = 8u << 20;  // skip pathological giant mappings
constexpr size_t kPrefixBytes = 8;     // the secret scan's filter width

std::vector<u8> dump_region(const os::AddressSpace& aspace,
                            const VaultLocation& loc) {
  std::vector<u8> region(loc.geo.total_len());
  if (!aspace.copy_in(loc.base, region.data(), region.size())) {
    region.clear();
  }
  return region;
}

// Invariant (a): a recoverable bundle must be byte-exact one of the
// planned payload versions. replay() already demoted checksum-bad
// payloads, so matching the planned (id, seq) -> slot/len/fnv tuple pins
// the content to the build-time oracle.
void check_integrity(const BuiltVault& built, const VaultSpec& spec,
                     const Ledger& ledger,
                     const std::function<void(std::string)>& fail) {
  for (const auto& [id, b] : ledger.live) {
    const VaultOp* match = nullptr;
    for (const VaultOp& op : built.ops) {
      if (op.type == OpType::kUnseal) continue;
      if (op.id == id && op.seq == b.seq) {
        match = &op;
        break;
      }
    }
    if (match == nullptr || match->slot != b.slot || match->len != b.len) {
      fail("unplanned live bundle id=" + std::to_string(id) +
           " seq=" + std::to_string(b.seq));
      continue;
    }
    const std::vector<u8> expect =
        payload_bytes(spec.seed, id, b.seq, b.len);
    if (checksum64(expect.data(), expect.size()) != b.payload_fnv) {
      fail("foreign payload content id=" + std::to_string(id));
    }
  }
}

// Invariant (b): every commit the kernel acknowledged (its kVaultCommit
// mark, stamped inside the committing trap) is still recoverable at that
// or a newer sequence number.
void check_durability(const os::Kernel& kernel, const Ledger& ledger,
                      const std::function<void(std::string)>& fail) {
  for (const os::MarkRecord& mr : kernel.marks()) {
    if (mr.kind == os::mark::kVaultDenied) {
      fail("unexpected ownership denial id=" + std::to_string(mr.arg0));
      continue;
    }
    if (mr.kind != os::mark::kVaultCommit) continue;
    const auto it = ledger.live.find(mr.arg0);
    if (it == ledger.live.end() || it->second.seq < mr.arg1) {
      fail("committed bundle lost id=" + std::to_string(mr.arg0) +
           " seq=" + std::to_string(mr.arg1));
    }
  }
}

// The checkpoint-resume leg: restore the sealed checkpoint `blob` into a
// fresh machine and re-run to completion; the recovered machine must land
// on the exact expected final ledger. Returns the failure ("" when it
// does). A pure function of the blob bytes.
std::string resume_failure(const BuiltVault& built,
                           const std::vector<u8>& blob, int pid) {
  try {
    sim::Machine resumed(snapshot::config_from(blob));
    snapshot::restore(resumed, blob);
    if (!resumed.run(kRunBudget).completed) return "resume did not complete";
    if (resumed.exit_code(pid) != 0) {
      return "resume exit=" + std::to_string(resumed.exit_code(pid));
    }
    const os::Process& rp = resumed.kernel().process(pid);
    const std::optional<VaultLocation> rloc = find_vault(*rp.aspace);
    std::string led = "(no vault)";
    if (rloc.has_value()) {
      const std::vector<u8> region = dump_region(*rp.aspace, *rloc);
      if (!region.empty()) {
        led = ledger_string(replay(region.data(), region.size()));
      }
    }
    return led == built.expected_ledger ? "" : "resume ledger diverged";
  } catch (const std::exception& e) {
    return std::string("host exception: ") + e.what();
  }
}

// One shard of the point loop: a single machine run forward through the
// ascending points[begin, end), stopped at each to check the invariant
// triple on the live machine.
void run_shard(const BuiltVault& built, const SweepConfig& cfg,
               const sim::MachineConfig& mc, const SecretScan& secrets,
               const std::vector<u64>& points, size_t begin, size_t end,
               std::vector<PointVerdict>& verdicts) {
  std::unique_ptr<sim::Machine> machine;
  int pid = -1;
  // Resume-leg failure ("" = ok) by sealed checkpoint bytes.
  std::map<std::vector<u8>, std::string> resumes;
  for (size_t i = begin; i < end; ++i) {
    PointVerdict& v = verdicts[i];
    v.instret = points[i];
    const auto fail = [&v](std::string why) {
      if (v.ok) {
        v.ok = false;
        v.failure = std::move(why);
      }
    };
    try {
      if (machine == nullptr) {
        machine = std::make_unique<sim::Machine>(mc);
        pid = machine->load(built.image);
        if (pid < 0) {
          machine.reset();
          fail("load refused");
          continue;
        }
      }
      sim::Machine& m = *machine;
      // A stopped run() ends at its first loop turn at or past its budget,
      // so a machine already there is where run(crash_at) from 0 stops.
      if (m.hart().instret() < v.instret) m.run(v.instret - m.hart().instret());

      const os::Process& proc = m.kernel().process(pid);
      const std::optional<VaultLocation> loc = find_vault(*proc.aspace);
      Ledger ledger;
      if (loc.has_value()) {
        const std::vector<u8> region = dump_region(*proc.aspace, *loc);
        if (region.empty()) {
          fail("vault region unreadable");
        } else {
          ledger = replay(region.data(), region.size());
        }
      }
      v.live = ledger.live.size();
      v.commits = ledger.commits_seen;
      v.torn = ledger.torn_or_corrupt;

      check_integrity(built, cfg.spec, ledger, fail);
      check_durability(m.kernel(), ledger, fail);
      if (const std::optional<u64> at = secrets.find(*proc.aspace, loc)) {
        fail("secret bytes outside vault at vaddr=" + std::to_string(*at));
      }

      const bool do_resume =
          cfg.rollback_every != 0 && (i % cfg.rollback_every) == 0;
      if (do_resume && m.has_checkpoint()) {
        v.resumed = true;
        const std::vector<u8>& blob = m.checkpoint_blob();
        auto it = resumes.find(blob);
        if (it == resumes.end()) {
          it = resumes.emplace(blob, resume_failure(built, blob, pid)).first;
        }
        if (!it->second.empty()) fail(it->second);
      }
    } catch (const std::exception& e) {
      // The machine may be torn: the shard's next point starts afresh.
      machine.reset();
      fail(std::string("host exception: ") + e.what());
    }
  }
}

ChaosVerdict run_chaos(const BuiltVault& built, const VaultSpec& spec,
                       sim::MachineConfig mc, u64 seed, double rate,
                       u64 max_faults) {
  ChaosVerdict cv;
  cv.seed = seed;
  const auto fail = [&cv](std::string why) {
    if (cv.ok) {
      cv.ok = false;
      cv.failure = std::move(why);
    }
  };
  mc.fault_plan.enabled = true;
  mc.fault_plan.seed = seed;
  mc.fault_plan.kinds = fault::kVaultFaultKinds;
  mc.fault_plan.rate = rate;
  mc.fault_plan.max_faults = max_faults;
  try {
    sim::Machine m(mc);
    const int pid = m.load(built.image);
    if (pid < 0) {
      fail("load refused");
      return cv;
    }
    if (!m.run(kRunBudget).completed) {
      fail("chaos run did not complete");
      return cv;
    }
    cv.exit_code = m.exit_code(pid);
    cv.injected = m.injector()->total_injected();

    const os::Process& proc = m.kernel().process(pid);
    const std::optional<VaultLocation> loc = find_vault(*proc.aspace);
    Ledger ledger;
    std::string led = "(no vault)";
    if (loc.has_value()) {
      const std::vector<u8> region = dump_region(*proc.aspace, *loc);
      if (!region.empty()) {
        ledger = replay(region.data(), region.size());
        led = ledger_string(ledger);
      }
    }
    cv.detected = m.kernel().vault_stats().corruption_detected +
                  ledger.torn_or_corrupt + ledger.payload_mismatch;

    // Never serve invalid data, chaos or not.
    check_integrity(built, spec, ledger, fail);

    const bool guest_refused = cv.exit_code == kExitSealFailed ||
                               cv.exit_code == kExitUnsealFailed ||
                               cv.exit_code == kExitRevealMismatch;
    if (cv.injected == 0) {
      if (cv.exit_code != 0 || led != built.expected_ledger) {
        fail("fault-free chaos run diverged");
      }
    } else {
      // Invariants weaken exactly to detection: a flip may lose data, but
      // a divergent outcome with no detection anywhere is a silent lie.
      if (led != built.expected_ledger && cv.detected == 0 &&
          !guest_refused) {
        fail("silent ledger divergence under chaos");
      }
      if (cv.exit_code != 0 && !guest_refused) {
        fail("unexpected exit=" + std::to_string(cv.exit_code));
      }
    }
  } catch (const std::exception& e) {
    fail(std::string("host exception: ") + e.what());
  }
  return cv;
}

std::string compose_canonical(const SweepResult& r) {
  std::string out = "vault sweep T=" + std::to_string(r.total_instructions) +
                    " points=" + std::to_string(r.points) +
                    " boundary=" + std::to_string(r.boundary_points) +
                    " resume=" + std::to_string(r.resume_points) +
                    " failures=" + std::to_string(r.failures) +
                    " chaos=" + std::to_string(r.chaos.size()) + "\n";
  if (!r.learning_failure.empty()) {
    out += "  learning FAIL " + r.learning_failure + "\n";
  }
  for (const PointVerdict& v : r.verdicts) {
    if (v.ok) continue;
    out += "  point " + std::to_string(v.instret) + " FAIL " + v.failure +
           "\n";
  }
  for (const ChaosVerdict& cv : r.chaos) {
    out += "  chaos seed=" + std::to_string(cv.seed) +
           " exit=" + std::to_string(cv.exit_code) +
           " injected=" + std::to_string(cv.injected) +
           " detected=" + std::to_string(cv.detected) +
           (cv.ok ? " ok" : " FAIL " + cv.failure) + "\n";
  }
  out += r.final_ledger;
  out += r.ok ? "verdict ok\n" : "verdict FAIL\n";
  return out;
}

}  // namespace

SecretScan::SecretScan(std::vector<std::vector<u8>> needles)
    : needles_(std::move(needles)) {
  for (const std::vector<u8>& needle : needles_) {
    SEALPK_CHECK_MSG(needle.size() >= kPrefixBytes,
                     "secret needle shorter than its prefix");
    const u64 prefix = load_u64(needle.data());
    prefixes_.push_back(prefix);
    filter_.set(filter_slot(prefix));
    widen_ = std::max(widen_, needle.size() - 1);
    zero_needle_ = zero_needle_ ||
                   std::all_of(needle.begin(), needle.end(),
                               [](u8 b) { return b == 0; });
  }
}

std::optional<u64> SecretScan::find(
    const os::AddressSpace& aspace,
    const std::optional<VaultLocation>& vault) const {
  std::vector<const u8*> pages;
  for (const auto& [start, vma] : aspace.vmas()) {
    if (vault.has_value() && start == vault->base) continue;
    if (vma.pkey == kOwnerPkey) continue;
    if (vma.end - vma.start > kMaxScanVma) continue;
    if (!aspace.page_views(start, vma.pages(), pages)) continue;
    if (const std::optional<u64> at = find_in(pages)) return start + *at;
  }
  return std::nullopt;
}

std::optional<u64> SecretScan::find_in(
    const std::vector<const u8*>& pages) const {
  static const u8 kZeroPage[mem::kPageSize] = {};
  constexpr u64 kPage = mem::kPageSize;
  const u64 len = pages.size() * kPage;
  const auto page = [&](u64 index) {
    return pages[index] != nullptr ? pages[index] : kZeroPage;
  };
  const auto byte_at = [&](u64 off) { return page(off / kPage)[off % kPage]; };

  // Offsets are visited in ascending order, so the first match of a needle
  // is its lowest. `best` is the first needle in plan order matched so far
  // (at `best_at`); only needles before it are still compared, and needle 0
  // ends the search.
  size_t best = needles_.size();
  u64 best_at = 0;
  const auto probe = [&](u64 at, u64 prefix) {
    for (size_t k = 0; k < best; ++k) {
      const std::vector<u8>& needle = needles_[k];
      if (prefixes_[k] != prefix || at + needle.size() > len) continue;
      bool equal = true;
      for (size_t j = kPrefixBytes; j < needle.size() && equal; ++j) {
        equal = byte_at(at + j) == needle[j];
      }
      if (equal) {
        best = k;
        best_at = at;
      }
    }
    return best == 0;
  };
  // The prefix at an offset near a page edge, read byte by byte.
  const auto straddling_prefix = [&](u64 at) {
    u8 bytes[kPrefixBytes];
    for (u64 j = 0; j < kPrefixBytes; ++j) bytes[j] = byte_at(at + j);
    return load_u64(bytes);
  };

  // A match holds one of its needle's non-zero bytes (unless the needle
  // is all zero), so it starts inside a page holding a non-zero byte or at
  // most widen_ bytes before one. Those start offsets are visited in
  // ascending order, each once: first the ones before the page, then those
  // whose prefix lies in the page, then its last 7, which span into the
  // next page.
  u64 next = 0;  // offsets below this were visited
  for (u64 i = 0; i < pages.size(); ++i) {
    if (!zero_needle_ && (pages[i] == nullptr ||
                          std::memcmp(pages[i], kZeroPage, kPage) == 0)) {
      continue;
    }
    const u64 page_start = i * kPage;
    const u64 in_page_end = page_start + kPage - (kPrefixBytes - 1);
    for (u64 at = std::max(next, page_start - std::min(page_start, widen_));
         at < page_start; ++at) {
      const u64 prefix = straddling_prefix(at);
      if (filter_[filter_slot(prefix)] && probe(at, prefix)) return best_at;
    }
    const u8* base = page(i);
    for (u64 off = 0; off < kPage - (kPrefixBytes - 1); ++off) {
      const u64 prefix = load_u64(base + off);
      if (filter_[filter_slot(prefix)] && probe(page_start + off, prefix)) {
        return best_at;
      }
    }
    next = page_start + kPage;
    for (u64 at = in_page_end; at < next && at + kPrefixBytes <= len; ++at) {
      const u64 prefix = straddling_prefix(at);
      if (filter_[filter_slot(prefix)] && probe(at, prefix)) return best_at;
    }
  }
  if (best == needles_.size()) return std::nullopt;
  return best_at;
}

SecretScan secret_scan(const BuiltVault& built) {
  std::vector<std::vector<u8>> needles;
  needles.reserve(built.payloads.size());
  for (const std::vector<u8>& payload : built.payloads) {
    const u64 n = std::min<u64>(16, payload.size());
    if (n >= 8) {
      needles.emplace_back(payload.begin(),
                           payload.begin() + static_cast<i64>(n));
    }
  }
  return SecretScan(std::move(needles));
}

SweepResult run_sweep(const SweepConfig& cfg) {
  SweepResult r;
  const BuiltVault built = build_vault(cfg.spec);
  r.final_ledger = built.expected_ledger;

  sim::MachineConfig mc;
  mc.checkpoint_interval = cfg.checkpoint_interval;

  // Learning run: clean completion, expected ledger, and the instret map
  // of every vault mark (the dense-window anchors).
  sim::Machine learn(mc);
  const int pid = learn.load(built.image);
  if (pid < 0) {
    r.learning_failure = "load refused";
  } else if (!learn.run(kRunBudget).completed) {
    r.learning_failure = "learning run did not complete";
  } else if (learn.exit_code(pid) != 0) {
    r.learning_failure =
        "learning run exit=" + std::to_string(learn.exit_code(pid));
  } else {
    const os::Process& proc = learn.kernel().process(pid);
    const std::optional<VaultLocation> loc = find_vault(*proc.aspace);
    if (!loc.has_value()) {
      r.learning_failure = "no vault after clean run";
    } else {
      const std::vector<u8> region = dump_region(*proc.aspace, *loc);
      const std::string led =
          region.empty()
              ? std::string("(unreadable)")
              : ledger_string(replay(region.data(), region.size()));
      if (led != built.expected_ledger) {
        r.learning_failure = "learning ledger mismatch:\n" + led;
      }
    }
  }
  r.total_instructions = learn.hart().instret();
  if (!r.learning_failure.empty()) {
    r.canonical = compose_canonical(r);
    return r;
  }

  // Crash-point sampling: dense windows around every journal-record write
  // and kernel commit/unseal trap, plus a uniform stride, plus a density
  // floor — deduped and sorted so verdict slots are index-deterministic.
  const u64 total = r.total_instructions;
  std::set<u64> pts;
  std::set<u64> boundary;
  for (const os::MarkRecord& mr : learn.kernel().marks()) {
    if (mr.kind == os::mark::kVaultIntent) {
      for (u64 d = 0; d < kIntentWindow; ++d) {
        const u64 t = mr.instret + d;
        if (t >= 1 && t < total) {
          pts.insert(t);
          boundary.insert(t);
        }
      }
    } else if (mr.kind == os::mark::kVaultCommit ||
               mr.kind == os::mark::kVaultUnseal) {
      for (i64 d = -2; d <= 2; ++d) {
        const i64 t = static_cast<i64>(mr.instret) + d;
        if (t >= 1 && static_cast<u64>(t) < total) {
          pts.insert(static_cast<u64>(t));
          boundary.insert(static_cast<u64>(t));
        }
      }
    }
  }
  const u64 stride =
      std::max<u64>(1, total / std::max<u64>(1, cfg.stride_points));
  for (u64 t = 1; t < total; t += stride) pts.insert(t);
  for (u64 t = 1; t < total && pts.size() < cfg.min_points; ++t) {
    pts.insert(t);
  }

  const std::vector<u64> points(pts.begin(), pts.end());
  r.points = points.size();
  for (const u64 t : points) r.boundary_points += boundary.count(t);

  // One contiguous shard of the sorted points per worker.
  r.verdicts.resize(points.size());
  const SecretScan secrets = secret_scan(built);
  const size_t shards = pool::workers(cfg.threads, points.size());
  pool::run(shards, shards, [&](size_t s, unsigned) {
    run_shard(built, cfg, mc, secrets, points, s * points.size() / shards,
              (s + 1) * points.size() / shards, r.verdicts);
  });
  for (const PointVerdict& v : r.verdicts) {
    if (!v.ok) ++r.failures;
    if (v.resumed) ++r.resume_points;
  }

  if (cfg.chaos) {
    r.chaos.resize(cfg.chaos_runs);
    pool::run(cfg.chaos_runs, cfg.threads, [&](size_t i, unsigned) {
      r.chaos[i] = run_chaos(built, cfg.spec, mc, cfg.chaos_seed + i,
                             cfg.chaos_rate, cfg.chaos_max_faults);
    });
  }

  r.ok = r.failures == 0;
  for (const ChaosVerdict& cv : r.chaos) r.ok = r.ok && cv.ok;
  r.canonical = compose_canonical(r);
  return r;
}

void write_sweep_json(std::ostream& os, const SweepConfig& cfg,
                      const SweepResult& r) {
  os << "{\n";
  os << "  \"ok\": " << (r.ok ? "true" : "false") << ",\n";
  os << "  \"total_instructions\": " << r.total_instructions << ",\n";
  os << "  \"points\": " << r.points << ",\n";
  os << "  \"boundary_points\": " << r.boundary_points << ",\n";
  os << "  \"resume_points\": " << r.resume_points << ",\n";
  os << "  \"failures\": " << r.failures << ",\n";
  os << "  \"learning_failure\": \"" << json_escape(r.learning_failure)
     << "\",\n";
  os << "  \"config\": {\"slots\": " << cfg.spec.n_slots
     << ", \"slot_size\": " << cfg.spec.slot_size
     << ", \"seals\": " << cfg.spec.seals
     << ", \"reseals\": " << cfg.spec.reseals
     << ", \"unseals\": " << cfg.spec.unseals
     << ", \"seed\": " << cfg.spec.seed
     << ", \"threads\": " << cfg.threads
     << ", \"chaos\": " << (cfg.chaos ? "true" : "false") << "},\n";
  os << "  \"failures_detail\": [";
  bool first = true;
  for (const PointVerdict& v : r.verdicts) {
    if (v.ok) continue;
    os << (first ? "" : ", ") << "{\"instret\": " << v.instret
       << ", \"failure\": \"" << json_escape(v.failure) << "\"}";
    first = false;
  }
  os << "],\n";
  os << "  \"chaos_runs\": [";
  for (size_t i = 0; i < r.chaos.size(); ++i) {
    const ChaosVerdict& cv = r.chaos[i];
    os << (i == 0 ? "" : ", ") << "{\"seed\": " << cv.seed
       << ", \"exit\": " << cv.exit_code << ", \"injected\": " << cv.injected
       << ", \"detected\": " << cv.detected
       << ", \"ok\": " << (cv.ok ? "true" : "false") << ", \"failure\": \""
       << json_escape(cv.failure) << "\"}";
  }
  os << "],\n";
  os << "  \"ledger\": \"" << json_escape(r.final_ledger) << "\"\n";
  os << "}\n";
}

}  // namespace sealpk::vault
