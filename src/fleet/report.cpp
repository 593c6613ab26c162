#include "fleet/report.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/json.h"

namespace sealpk::fleet {

Aggregate aggregate(const std::vector<JobResult>& results) {
  Aggregate agg;
  for (const JobResult& r : results) {
    ++agg.jobs;
    if (r.ok) ++agg.ok;
    else ++agg.failures;
    agg.instructions += r.instructions;
    agg.cycles += r.cycles;
    agg.faults_injected += r.injected;
    agg.recoveries += r.stats.recoveries;
    agg.kills += r.stats.machine_check_kills + r.stats.watchdog_kills;
    agg.checkpoints += r.stats.checkpoints;
    agg.rollbacks += r.stats.rollbacks;
    agg.wall_ms_sum += r.wall_ms;
  }
  return agg;
}

std::vector<JobSpec> figure5_jobs(u64 scale) {
  std::vector<JobSpec> specs;
  for (const wl::Workload& w : wl::all_workloads()) {
    for (size_t v = 0; v < kFig5Variants; ++v) {
      JobSpec spec;
      spec.id = static_cast<u32>(specs.size());
      spec.workload = &w;
      spec.ss = kVariants[v].ss;
      spec.scale = scale != 0 ? scale : w.bench_scale;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

double overhead_pct(u64 cycles, u64 base_cycles) {
  const double base = static_cast<double>(base_cycles);
  return 100.0 * (static_cast<double>(cycles) - base) / base;
}

double gmean_overhead(const std::vector<JobResult>& results, wl::Suite suite,
                      passes::ShadowStackKind ss, bool perm_seal) {
  double log_sum = 0;
  unsigned count = 0;
  for (const JobResult& v : results) {
    if (v.kind != JobKind::kRun || v.workload == nullptr) continue;
    if (v.workload->suite != suite || v.ss != ss) continue;
    if (v.perm_seal != perm_seal || ss == passes::ShadowStackKind::kNone) {
      continue;
    }
    // Baseline = the kNone job for the same workload (unique per workload
    // in a well-formed sweep).
    const JobResult* base = nullptr;
    for (const JobResult& b : results) {
      if (b.kind == JobKind::kRun && b.workload == v.workload &&
          b.ss == passes::ShadowStackKind::kNone) {
        base = &b;
        break;
      }
    }
    if (base == nullptr || base->cycles == 0) continue;
    log_sum += std::log(std::max(overhead_pct(v.cycles, base->cycles), 0.01));
    ++count;
  }
  if (count == 0) return -1.0;
  return std::exp(log_sum / count);
}

double mprotect_speedup(const std::vector<JobResult>& results) {
  double log_sum = 0;
  for (const wl::Suite suite : {wl::Suite::kSpec2000, wl::Suite::kSpec2006,
                                wl::Suite::kMiBench}) {
    const double mprot =
        gmean_overhead(results, suite, kVariants[kMprotectIdx].ss);
    const double rdwr =
        gmean_overhead(results, suite, kVariants[kSealPkRdWrIdx].ss);
    if (mprot < 0 || rdwr < 0) return -1.0;
    log_sum += std::log(mprot / rdwr);
  }
  return std::exp(log_sum / 3.0);
}

namespace {

struct VariantKey {
  passes::ShadowStackKind ss;
  bool perm_seal;
};

// Every instrumented (variant, seal) combination present among kRun jobs,
// in deterministic (enum, seal) order.
std::vector<VariantKey> present_variants(
    const std::vector<JobResult>& results) {
  std::vector<VariantKey> keys;
  for (const JobResult& r : results) {
    if (r.kind != JobKind::kRun ||
        r.ss == passes::ShadowStackKind::kNone) {
      continue;
    }
    const bool seen =
        std::any_of(keys.begin(), keys.end(), [&](const VariantKey& k) {
          return k.ss == r.ss && k.perm_seal == r.perm_seal;
        });
    if (!seen) keys.push_back({r.ss, r.perm_seal});
  }
  std::sort(keys.begin(), keys.end(),
            [](const VariantKey& a, const VariantKey& b) {
              if (a.ss != b.ss) {
                return static_cast<u8>(a.ss) < static_cast<u8>(b.ss);
              }
              return !a.perm_seal && b.perm_seal;
            });
  return keys;
}

}  // namespace

void write_report(std::ostream& os, const std::vector<JobResult>& results,
                  const ReportOptions& opts) {
  const Aggregate agg = aggregate(results);
  os << "{\n";
  os << "  \"schema\": \"sealpk-fleet-v1\",\n";
  os << "  \"jobs\": " << agg.jobs << ", \"ok\": " << agg.ok
     << ", \"failures\": " << agg.failures << ",\n";
  os << "  \"totals\": {\"instructions\": " << agg.instructions
     << ", \"cycles\": " << agg.cycles
     << ", \"faults_injected\": " << agg.faults_injected
     << ", \"recoveries\": " << agg.recoveries << ", \"kills\": " << agg.kills
     << ", \"checkpoints\": " << agg.checkpoints
     << ", \"rollbacks\": " << agg.rollbacks << "},\n";

  // Suite geomeans for whatever slice of the Figure-5 matrix was run (only
  // variants with a baseline available; deterministic given the records).
  const std::vector<VariantKey> variants = present_variants(results);
  os << "  \"geomeans\": [";
  bool first = true;
  for (const wl::Suite suite : {wl::Suite::kSpec2000, wl::Suite::kSpec2006,
                                wl::Suite::kMiBench}) {
    for (const VariantKey& key : variants) {
      const double g = gmean_overhead(results, suite, key.ss, key.perm_seal);
      if (g < 0) continue;
      if (!first) os << ",";
      first = false;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.4f", g);
      os << "\n    {\"suite\": \"" << wl::suite_name(suite)
         << "\", \"variant\": \"" << passes::shadow_stack_kind_name(key.ss)
         << "\", \"perm_seal\": " << (key.perm_seal ? "true" : "false")
         << ", \"overhead_gmean_pct\": " << buf << "}";
    }
  }
  os << (first ? "" : "\n  ") << "],\n";

  os << "  \"records\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    os << "    " << canonical_record(results[i])
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]";

  if (!opts.canonical) {
    char elapsed[64];
    std::snprintf(elapsed, sizeof(elapsed), "%.3f", opts.elapsed_ms);
    char worked[64];
    std::snprintf(worked, sizeof(worked), "%.3f", agg.wall_ms_sum);
    os << ",\n  \"timing\": {\"threads\": " << opts.threads
       << ", \"elapsed_ms\": " << elapsed << ", \"job_ms_sum\": " << worked
       << ",\n    \"job_ms\": [";
    for (size_t i = 0; i < results.size(); ++i) {
      char ms[64];
      std::snprintf(ms, sizeof(ms), "%.3f", results[i].wall_ms);
      if (i != 0) os << ", ";
      os << "{\"id\": " << results[i].id << ", \"ms\": " << ms
         << ", \"worker\": " << results[i].worker << "}";
    }
    os << "]}";
  }
  os << "\n}\n";
}

bool write_report_file(const std::string& path,
                       const std::vector<JobResult>& results,
                       const ReportOptions& opts) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  write_report(out, results, opts);
  out.flush();
  return static_cast<bool>(out);
}

namespace {

// Pulls the canonical record lines (one per job) out of a report text.
std::vector<std::string> extract_records(const std::string& text) {
  std::vector<std::string> records;
  std::istringstream in(text);
  std::string line;
  bool inside = false;
  while (std::getline(in, line)) {
    const size_t start = line.find_first_not_of(' ');
    const std::string trimmed =
        start == std::string::npos ? std::string() : line.substr(start);
    if (!inside) {
      if (trimmed.rfind("\"records\": [", 0) == 0) inside = true;
      continue;
    }
    if (trimmed.rfind("]", 0) == 0) break;
    std::string rec = trimmed;
    if (!rec.empty() && rec.back() == ',') rec.pop_back();
    records.push_back(std::move(rec));
  }
  return records;
}

}  // namespace

size_t diff_reports(const std::string& a_text, const std::string& b_text,
                    std::ostream& log) {
  const std::vector<std::string> a = extract_records(a_text);
  const std::vector<std::string> b = extract_records(b_text);
  size_t diverging = 0;
  const size_t common = std::min(a.size(), b.size());
  for (size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) {
      ++diverging;
      log << "record " << i << " differs:\n  a: " << a[i]
          << "\n  b: " << b[i] << "\n";
    }
  }
  if (a.size() != b.size()) {
    diverging += (a.size() > b.size() ? a.size() : b.size()) - common;
    log << "record count differs: " << a.size() << " vs " << b.size()
        << "\n";
  }
  return diverging;
}

void write_diff_report(std::ostream& os, const std::string& a_name,
                       const std::string& b_name, size_t diverging,
                       const std::string& log_text) {
  os << "{\n";
  os << "  \"a\": \"" << json_escape(a_name) << "\",\n";
  os << "  \"b\": \"" << json_escape(b_name) << "\",\n";
  os << "  \"diverging\": " << diverging << ",\n";
  os << "  \"identical\": " << (diverging == 0 ? "true" : "false") << ",\n";
  os << "  \"log\": \"" << json_escape(log_text) << "\"\n";
  os << "}\n";
}

bool write_diff_report_file(const std::string& path, const std::string& a_name,
                            const std::string& b_name, size_t diverging,
                            const std::string& log_text) {
  std::ofstream out(path);
  if (!out) return false;
  write_diff_report(out, a_name, b_name, diverging, log_text);
  return out.good();
}

void write_matrix_json(std::ostream& os) {
  const auto& workloads = wl::all_workloads();
  os << "{\n  \"schema\": \"sealpk-fleet-matrix-v1\",\n"
     << "  \"workloads\": [\n";
  for (size_t i = 0; i < workloads.size(); ++i) {
    const wl::Workload& w = workloads[i];
    os << "    {\"suite\": \"" << json_escape(wl::suite_name(w.suite))
       << "\", \"name\": \"" << json_escape(w.name)
       << "\", \"test_scale\": " << w.test_scale
       << ", \"bench_scale\": " << w.bench_scale << "}"
       << (i + 1 < workloads.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"variants\": [\n";
  const size_t variants = std::size(kVariants);
  for (size_t i = 0; i < variants; ++i) {
    const Variant& v = kVariants[i];
    os << "    {\"name\": \"" << json_escape(v.name) << "\", \"ss\": \""
       << passes::shadow_stack_kind_name(v.ss)
       << "\", \"perm_seal\": " << (v.perm_seal ? "true" : "false") << "}"
       << (i + 1 < variants ? "," : "") << "\n";
  }
  os << "  ],\n  \"cells\": [\n";
  const size_t total = workloads.size() * variants;
  size_t cell = 0;
  for (const wl::Workload& w : workloads) {
    for (const Variant& v : kVariants) {
      os << "    {\"id\": " << cell << ", \"workload\": \""
         << json_escape(std::string(wl::suite_name(w.suite)) + "/" + w.name)
         << "\", \"variant\": \"" << json_escape(v.name) << "\"}"
         << (cell + 1 < total ? "," : "") << "\n";
      ++cell;
    }
  }
  os << "  ]\n}\n";
}

}  // namespace sealpk::fleet
