#include "vault/sweep.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <ostream>
#include <set>

#include "common/json.h"
#include "fleet/engine.h"
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

// Invariant (c): no committed secret prefix readable outside the vault
// region and the owner's reveal page (registers are not memory; the guest
// never spills payload words anywhere else).
void check_confidentiality(const BuiltVault& built,
                           const os::AddressSpace& aspace,
                           const std::optional<VaultLocation>& loc,
                           const std::function<void(std::string)>& fail) {
  std::vector<std::vector<u8>> needles;
  needles.reserve(built.payloads.size());
  for (const std::vector<u8>& payload : built.payloads) {
    const u64 n = std::min<u64>(16, payload.size());
    if (n >= 8) {
      needles.emplace_back(payload.begin(),
                           payload.begin() + static_cast<i64>(n));
    }
  }
  for (const auto& [start, vma] : aspace.vmas()) {
    if (loc.has_value() && start == loc->base) continue;
    if (vma.pkey == kOwnerPkey) continue;
    const u64 len = vma.end - vma.start;
    if (len > kMaxScanVma) continue;
    std::vector<u8> buf(len);
    if (!aspace.copy_in(start, buf.data(), len)) continue;
    const std::vector<ByteRun> runs = nonzero_page_runs(buf.data(), len);
    for (const std::vector<u8>& needle : needles) {
      const size_t at = find_needle(buf.data(), len, runs, needle);
      if (at != len) {
        fail("secret bytes outside vault at vaddr=" +
             std::to_string(start + at));
        return;
      }
    }
  }
}

PointVerdict check_point(const BuiltVault& built, const VaultSpec& spec,
                         const sim::MachineConfig& mc, u64 crash_at,
                         bool do_resume) {
  PointVerdict v;
  v.instret = crash_at;
  const auto fail = [&v](std::string why) {
    if (v.ok) {
      v.ok = false;
      v.failure = std::move(why);
    }
  };
  try {
    sim::Machine m(mc);
    const int pid = m.load(built.image);
    if (pid < 0) {
      fail("load refused");
      return v;
    }
    m.run(crash_at);

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

    check_integrity(built, spec, ledger, fail);
    check_durability(m.kernel(), ledger, fail);
    check_confidentiality(built, *proc.aspace, loc, fail);

    // Snapshot-rollback recovery: restore the last known-good checkpoint
    // and re-run to completion — the recovered machine must land on the
    // exact expected final ledger.
    if (do_resume && m.has_checkpoint()) {
      v.resumed = true;
      sim::Machine resumed(snapshot::config_from(m.checkpoint_blob()));
      snapshot::restore(resumed, m.checkpoint_blob());
      if (!resumed.run(kRunBudget).completed) {
        fail("resume did not complete");
      } else if (resumed.exit_code(pid) != 0) {
        fail("resume exit=" + std::to_string(resumed.exit_code(pid)));
      } else {
        const os::Process& rp = resumed.kernel().process(pid);
        const std::optional<VaultLocation> rloc = find_vault(*rp.aspace);
        std::string led = "(no vault)";
        if (rloc.has_value()) {
          const std::vector<u8> region = dump_region(*rp.aspace, *rloc);
          if (!region.empty()) {
            led = ledger_string(replay(region.data(), region.size()));
          }
        }
        if (led != built.expected_ledger) fail("resume ledger diverged");
      }
    }
  } catch (const std::exception& e) {
    fail(std::string("host exception: ") + e.what());
  }
  return v;
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

std::vector<ByteRun> nonzero_page_runs(const u8* data, size_t len) {
  static const u8 kZeroPage[mem::kPageSize] = {};
  std::vector<ByteRun> runs;
  for (size_t at = 0; at < len; at += mem::kPageSize) {
    const size_t n = std::min<size_t>(mem::kPageSize, len - at);
    if (std::memcmp(data + at, kZeroPage, n) == 0) continue;
    if (!runs.empty() && runs.back().end == at) {
      runs.back().end = at + n;
    } else {
      runs.push_back({at, at + n});
    }
  }
  return runs;
}

size_t find_needle(const u8* data, size_t len,
                   const std::vector<ByteRun>& runs,
                   const std::vector<u8>& needle) {
  const auto search = [&](size_t from, size_t to) {
    return static_cast<size_t>(
        std::search(data + from, data + to, needle.begin(), needle.end()) -
        data);
  };
  if (std::all_of(needle.begin(), needle.end(),
                  [](u8 b) { return b == 0; })) {
    return search(0, len);
  }
  // A match holds one of the needle's non-zero bytes, so it starts at most
  // n-1 bytes before that byte's run and ends at most n-1 bytes after it:
  // it lies whole inside the run's window widened by n-1 on each side.
  // Windows are searched in ascending order. Both their starts and their
  // ends ascend, so a match below the first hit would lie inside an earlier
  // window or inside the hit's own: the first hit is the lowest offset.
  const size_t widen = needle.size() - 1;
  for (const ByteRun& run : runs) {
    const size_t from = run.start - std::min(run.start, widen);
    const size_t to = std::min(len, run.end + widen);
    const size_t at = search(from, to);
    if (at != to) return at;
  }
  return len;
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

  r.verdicts.resize(points.size());
  fleet::run_indexed(points.size(), cfg.threads, [&](size_t i, unsigned) {
    const bool resume =
        cfg.rollback_every != 0 && (i % cfg.rollback_every) == 0;
    r.verdicts[i] =
        check_point(built, cfg.spec, mc, points[i], resume);
  });
  for (const PointVerdict& v : r.verdicts) {
    if (!v.ok) ++r.failures;
    if (v.resumed) ++r.resume_points;
  }

  if (cfg.chaos) {
    r.chaos.resize(cfg.chaos_runs);
    fleet::run_indexed(cfg.chaos_runs, cfg.threads, [&](size_t i, unsigned) {
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
