#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "common/json.h"
#include "isa/inst.h"

namespace sealpk::obs {

namespace {

std::string hex(u64 v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

// Per-pid symbol table sorted by start address, for PC attribution.
class SymbolIndex {
 public:
  explicit SymbolIndex(const Trace& trace) {
    for (const auto& s : trace.symbols) by_pid_[s.pid].push_back(s);
    for (auto& [pid, v] : by_pid_) {
      std::sort(v.begin(), v.end(), [](const SymbolRange& a,
                                       const SymbolRange& b) {
        return a.start < b.start;
      });
    }
  }

  std::string lookup(u32 pid, u64 pc) const {
    auto it = by_pid_.find(pid);
    if (it != by_pid_.end()) {
      const auto& v = it->second;
      auto up = std::upper_bound(
          v.begin(), v.end(), pc,
          [](u64 addr, const SymbolRange& s) { return addr < s.start; });
      if (up != v.begin()) {
        --up;
        if (pc >= up->start && pc < up->end) return up->name;
      }
    }
    return "[unknown " + hex(pc & ~u64{0xFFF}) + "]";
  }

 private:
  std::map<u32, std::vector<SymbolRange>> by_pid_;
};

// Short per-kind detail string for the timeline and report.
std::string event_detail(const Event& e) {
  std::ostringstream os;
  switch (e.kind) {
    case EventKind::kPkeyAlloc: os << "perm=" << hex(e.arg0); break;
    case EventKind::kPkeyFree: os << "resident=" << e.arg0; break;
    case EventKind::kPkeyLazyDrain: break;
    case EventKind::kPkeyMprotect:
      os << "addr=" << hex(e.arg0) << " pages=" << e.arg1;
      break;
    case EventKind::kPkeySeal:
      os << "domain=" << e.arg0 << " page=" << e.arg1;
      break;
    case EventKind::kPkeyPermSeal:
      os << "range=[" << hex(e.arg0) << "," << hex(e.arg1) << ")";
      break;
    case EventKind::kPkeyPages:
      os << "delta=" << static_cast<i64>(e.arg0) << " now=" << e.arg1;
      break;
    case EventKind::kWrpkr:
      os << "row " << hex(e.arg0) << " -> " << hex(e.arg1);
      break;
    case EventKind::kRdpkr: os << "row=" << hex(e.arg0); break;
    case EventKind::kPkeyDenial:
      os << "addr=" << hex(e.arg0) << (e.arg1 != 0 ? " store" : " load");
      break;
    case EventKind::kSealViolation: os << "pc=" << hex(e.arg0); break;
    case EventKind::kTrap:
      os << "cause=" << e.arg0 << " tval=" << hex(e.arg1);
      break;
    case EventKind::kPageFault:
      os << "addr=" << hex(e.arg0) << " cause=" << e.arg1;
      break;
    case EventKind::kSyscall: os << "nr=" << e.arg0; break;
    case EventKind::kContextSwitch:
      os << "tid " << static_cast<i64>(e.arg0) << " -> "
         << static_cast<i64>(e.arg1);
      break;
    case EventKind::kCamRefill:
      os << "range=[" << hex(e.arg0) << "," << hex(e.arg1) << ")";
      break;
    case EventKind::kCheckpoint:
      os << "#" << e.arg0 << " bytes=" << e.arg1;
      break;
    case EventKind::kRollback:
      os << "#" << e.arg0 << " outstanding=" << e.arg1;
      break;
    case EventKind::kProcessExit:
      os << "code=" << static_cast<i64>(e.arg0) << " pid=" << e.arg1;
      break;
    case EventKind::kProcessKill:
      os << "code=" << static_cast<i64>(e.arg0) << " origin=" << e.arg1;
      break;
    case EventKind::kFaultInjected:
      os << "kind=" << e.arg0 << " detail=" << hex(e.arg1);
      break;
    case EventKind::kSample:  // arg1 = the instruction word at the pc
      os << "pc=" << hex(e.arg0) << " "
         << isa::disassemble(isa::decode(static_cast<u32>(e.arg1)));
      break;
    case EventKind::kGateEnter:
      os << "req=" << e.arg0 << " slot=" << e.arg1;
      break;
    case EventKind::kGateExit:
      os << "req=" << e.arg0 << " checksum=" << hex(e.arg1);
      break;
    case EventKind::kRequestDisposition:
      os << "req=" << e.arg0 << " disp=" << e.arg1;
      break;
    case EventKind::kQuarantine:
      os << "slot=" << e.arg0 << " strikes=" << e.arg1;
      break;
    case EventKind::kVaultIntent:
      os << "id=" << e.arg0 << " seq=" << e.arg1;
      break;
    case EventKind::kVaultCommit:
      os << "id=" << e.arg0 << " seq=" << e.arg1;
      break;
    case EventKind::kVaultUnseal:
      os << "id=" << e.arg0 << " len=" << e.arg1;
      break;
    case EventKind::kVaultDenied:
      os << "id=" << e.arg0 << " err=" << static_cast<i64>(e.arg1);
      break;
    case EventKind::kVkeyMap:
      os << "vkey=" << hex(e.arg0) << " pages=" << e.arg1;
      break;
    case EventKind::kVkeyEvict:
      os << "vkey=" << hex(e.arg0) << (e.arg1 != 0 ? " drained" : " parked");
      break;
    case EventKind::kVkeySync:
      os << "pages=" << e.arg0 << " vkeys=" << e.arg1;
      break;
  }
  return os.str();
}

}  // namespace

Metrics compute_metrics(const Trace& trace) {
  Metrics m;
  u64 last_cycles = 0;
  for (const auto& e : trace.events) {
    m.observe(e);
    last_cycles = std::max(last_cycles, e.cycles);
  }
  m.finish(last_cycles);
  return m;
}

void write_perfetto_json(const Trace& trace, std::ostream& os) {
  // Synthetic thread id hosting the pkey-domain residency track.
  constexpr u32 kDomainTid = 1000000;

  std::set<u32> pids;
  std::set<std::pair<u32, u32>> tids;
  for (const auto& e : trace.events) {
    pids.insert(e.pid);
    tids.insert({e.pid, e.tid});
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  for (u32 pid : pids) {
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"guest " << pid << "\"}}";
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":" << kDomainTid
       << ",\"args\":{\"name\":\"pkey domain\"}}";
  }
  for (const auto& [pid, tid] : tids) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":" << tid << ",\"args\":{\"name\":\"tid " << tid
       << "\"}}";
  }

  // Domain residency slices: a complete ("X") event per WRPKR interval.
  u32 domain = 0;
  u64 domain_since = 0;
  u32 domain_pid = pids.empty() ? 0 : *pids.begin();
  auto close_slice = [&](u64 end_cycles) {
    if (end_cycles <= domain_since) return;
    sep();
    os << "{\"name\":\"pkey " << domain << "\",\"ph\":\"X\",\"ts\":"
       << domain_since << ",\"dur\":" << (end_cycles - domain_since)
       << ",\"pid\":" << domain_pid << ",\"tid\":" << kDomainTid << "}";
  };

  u64 last_cycles = 0;
  for (const auto& e : trace.events) {
    last_cycles = std::max(last_cycles, e.cycles);
    if (e.kind == EventKind::kWrpkr) {
      close_slice(e.cycles);
      domain = e.pkey;
      domain_since = e.cycles;
      domain_pid = e.pid;
      continue;
    }
    if (e.kind == EventKind::kRollback) domain_since = e.cycles;
    if (e.kind == EventKind::kSample) continue;
    if (e.kind == EventKind::kPkeyPages) {
      sep();
      os << "{\"name\":\"resident pages\",\"ph\":\"C\",\"ts\":" << e.cycles
         << ",\"pid\":" << e.pid << ",\"args\":{\"pkey " << e.pkey
         << "\":" << e.arg1 << "}}";
      continue;
    }
    sep();
    os << "{\"name\":\"" << json_escape(event_kind_name(e.kind))
       << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << e.cycles
       << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid
       << ",\"args\":{\"instret\":" << e.instret;
    if (e.pkey != kNoPkey) os << ",\"pkey\":" << e.pkey;
    os << ",\"detail\":\"" << json_escape(event_detail(e)) << "\"}}";
  }
  close_slice(last_cycles);

  // Causal spans as nestable async slices: one "b"/"e" pair per span,
  // keyed so a child (handler visit) shares its parent request's id and
  // nests inside it in the UI. Point spans render as async instants.
  const SpanSet spans = build_spans(trace);
  for (const Span& s : spans.spans) {
    const u32 id = s.parent != kNoParent ? s.parent : s.id;
    std::ostringstream args;
    args << "{\"span\":" << s.id << ",\"key\":" << s.key << ",\"arg\":"
         << s.arg << ",\"status\":\"" << span_status_name(s.status)
         << "\",\"instret_dur\":" << s.duration() << "}";
    if (s.duration() == 0 && s.begin_cycles == s.end_cycles) {
      sep();
      os << "{\"cat\":\"span\",\"name\":\"" << span_kind_name(s.kind)
         << "\",\"ph\":\"n\",\"id\":" << id << ",\"ts\":" << s.begin_cycles
         << ",\"pid\":" << s.pid << ",\"tid\":" << s.tid
         << ",\"args\":" << args.str() << "}";
      continue;
    }
    sep();
    os << "{\"cat\":\"span\",\"name\":\"" << span_kind_name(s.kind)
       << "\",\"ph\":\"b\",\"id\":" << id << ",\"ts\":" << s.begin_cycles
       << ",\"pid\":" << s.pid << ",\"tid\":" << s.tid
       << ",\"args\":" << args.str() << "}";
    sep();
    os << "{\"cat\":\"span\",\"name\":\"" << span_kind_name(s.kind)
       << "\",\"ph\":\"e\",\"id\":" << id << ",\"ts\":" << s.end_cycles
       << ",\"pid\":" << s.pid << ",\"tid\":" << s.tid << "}";
  }

  // Flow arrows: retry chains, quarantine trips, drain membership.
  for (size_t i = 0; i < spans.flows.size(); ++i) {
    const FlowEdge& f = spans.flows[i];
    const Span& from = spans.spans[f.from];
    const Span& to = spans.spans[f.to];
    const char* name = f.kind == FlowEdge::Kind::kRetry         ? "retry"
                       : f.kind == FlowEdge::Kind::kQuarantine ? "quarantine"
                                                               : "drain";
    sep();
    os << "{\"cat\":\"flow\",\"name\":\"" << name
       << "\",\"ph\":\"s\",\"id\":" << (1000000 + i)
       << ",\"ts\":" << from.end_cycles << ",\"pid\":" << from.pid
       << ",\"tid\":" << from.tid << "}";
    sep();
    os << "{\"cat\":\"flow\",\"name\":\"" << name
       << "\",\"ph\":\"f\",\"bp\":\"e\",\"id\":" << (1000000 + i)
       << ",\"ts\":" << to.begin_cycles << ",\"pid\":" << to.pid
       << ",\"tid\":" << to.tid << "}";
  }

  os << "\n]}\n";
}

void write_timeline(const Trace& trace, std::ostream& os) {
  for (const auto& e : trace.events) {
    os << std::setw(12) << e.instret << " " << std::setw(12) << e.cycles
       << "  " << e.pid << "/" << e.tid << "  " << std::left
       << std::setw(16) << event_kind_name(e.kind) << std::right;
    if (e.pkey != kNoPkey) os << " pkey=" << e.pkey;
    const std::string detail = event_detail(e);
    if (!detail.empty()) os << "  " << detail;
    os << "\n";
  }
}

void write_collapsed(const Trace& trace, std::ostream& os) {
  const SymbolIndex symbols(trace);
  std::map<std::string, u64> stacks;
  for (const auto& e : trace.events) {
    if (e.kind != EventKind::kSample) continue;
    std::ostringstream key;
    key << "guest" << e.pid << ";" << symbols.lookup(e.pid, e.arg0);
    ++stacks[key.str()];
  }
  for (const auto& [stack, count] : stacks) {
    os << stack << " " << count << "\n";
  }
}

void write_report(const Trace& trace, std::ostream& os) {
  const Metrics m = compute_metrics(trace);
  os << "trace report\n";
  os << "  events            " << trace.events.size();
  if (trace.dropped != 0) {
    os << "  (+" << trace.dropped << " dropped by ring)";
  }
  os << "\n";
  os << "  traps             " << m.traps() << "  (syscalls "
     << m.syscalls() << ", page faults " << m.page_faults() << ")\n";
  os << "  context switches  " << m.context_switches() << "\n";
  if (m.checkpoints() != 0 || m.rollbacks() != 0) {
    os << "  checkpoints       " << m.checkpoints() << "  (rollbacks "
       << m.rollbacks() << ")\n";
  }
  if (m.faults_injected() != 0) {
    os << "  faults injected   " << m.faults_injected() << "\n";
  }

  os << "  per-pkey activity\n";
  os << "    pkey     wrpkr     rdpkr   denials  sealviol   refills  "
        "pages-hwm     cycles-in-domain\n";
  for (const auto& [pkey, pm] : m.pkeys()) {
    os << "    " << std::setw(4);
    if (pkey == kNoPkey) {
      os << "-";
    } else {
      os << pkey;
    }
    os << std::setw(10) << pm.wrpkr << std::setw(10) << pm.rdpkr
       << std::setw(10) << pm.denials << std::setw(10) << pm.seal_violations
       << std::setw(10) << pm.cam_refills << std::setw(11) << pm.pages_hwm
       << std::setw(21) << pm.cycles_in_domain << "\n";
  }

  for (const auto& [pkey, pm] : m.pkeys()) {
    if (pm.domain_visits == 0 || pkey == kNoPkey) continue;
    os << "  domain residency, pkey " << pkey << " (" << pm.domain_visits
       << " visits, log2 cycles)\n";
    for (u32 b = 0; b < kHistBuckets; ++b) {
      if (pm.residency_log2[b] == 0) continue;
      os << "    [2^" << std::setw(2) << b << ", 2^" << std::setw(2)
         << (b + 1) << ")  " << pm.residency_log2[b] << "\n";
    }
  }

  if (m.samples() != 0) {
    const SymbolIndex symbols(trace);
    std::map<std::string, u64> hot;
    for (const auto& e : trace.events) {
      if (e.kind == EventKind::kSample) {
        ++hot[symbols.lookup(e.pid, e.arg0)];
      }
    }
    std::vector<std::pair<std::string, u64>> ranked(hot.begin(), hot.end());
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    os << "  hottest functions (" << m.samples() << " samples, every "
       << trace.sample_interval << " instructions)\n";
    const size_t top = std::min<size_t>(ranked.size(), 10);
    for (size_t i = 0; i < top; ++i) {
      os << "    " << std::setw(8) << ranked[i].second << "  "
         << ranked[i].first << "\n";
    }
  }
}

void write_report_json(const Trace& trace, std::ostream& os) {
  const Metrics m = compute_metrics(trace);
  const SpanSet spans = build_spans(trace);
  const auto hists = span_histograms(spans);
  os << "{\n  \"schema\": \"sealpk-trace-report-v1\",\n"
     << "  \"events\": " << trace.events.size() << ",\n"
     << "  \"dropped\": " << trace.dropped << ",\n"
     << "  \"sample_interval\": " << trace.sample_interval << ",\n"
     << "  \"samples\": " << m.samples() << ",\n"
     << "  \"traps\": " << m.traps() << ",\n"
     << "  \"syscalls\": " << m.syscalls() << ",\n"
     << "  \"page_faults\": " << m.page_faults() << ",\n"
     << "  \"context_switches\": " << m.context_switches() << ",\n"
     << "  \"checkpoints\": " << m.checkpoints() << ",\n"
     << "  \"rollbacks\": " << m.rollbacks() << ",\n"
     << "  \"faults_injected\": " << m.faults_injected() << ",\n"
     << "  \"gate_enters\": " << m.gate_enters() << ",\n"
     << "  \"gate_exits\": " << m.gate_exits() << ",\n"
     << "  \"dispositions\": " << m.dispositions() << ",\n"
     << "  \"quarantines\": " << m.quarantines() << ",\n"
     << "  \"pkeys\": [\n";
  size_t left = m.pkeys().size();
  for (const auto& [pkey, pm] : m.pkeys()) {
    os << "    {\"pkey\": ";
    if (pkey == kNoPkey) {
      os << -1;
    } else {
      os << pkey;
    }
    os << ", \"wrpkr\": " << pm.wrpkr << ", \"rdpkr\": " << pm.rdpkr
       << ", \"denials\": " << pm.denials
       << ", \"seal_violations\": " << pm.seal_violations
       << ", \"cam_refills\": " << pm.cam_refills
       << ", \"pages_hwm\": " << pm.pages_hwm
       << ", \"domain_visits\": " << pm.domain_visits
       << ", \"cycles_in_domain\": " << pm.cycles_in_domain << "}"
       << (--left != 0 ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"spans\": {\n"
     << "    \"total\": " << spans.spans.size() << ",\n"
     << "    \"flows\": " << spans.flows.size() << ",\n"
     << "    \"segments\": " << spans.segments << ",\n"
     << "    \"final_ts\": " << spans.final_ts << ",\n"
     << "    \"by_kind\": {\n";
  for (u32 k = 0; k < kSpanKindCount; ++k) {
    os << "      \"" << span_kind_name(static_cast<SpanKind>(k))
       << "\": " << hists[k].quantiles_json()
       << (k + 1 < kSpanKindCount ? "," : "") << "\n";
  }
  os << "    }\n  }\n}\n";
}

std::string diff_traces(const Trace& a, const Trace& b) {
  std::ostringstream os;
  if (a.ring_capacity != b.ring_capacity ||
      a.sample_interval != b.sample_interval) {
    os << "config differs: ring " << a.ring_capacity << " vs "
       << b.ring_capacity << ", sample interval " << a.sample_interval
       << " vs " << b.sample_interval;
    return os.str();
  }
  if (a.dropped != b.dropped) {
    os << "dropped-event counts differ: " << a.dropped << " vs "
       << b.dropped;
    return os.str();
  }
  if (a.symbols != b.symbols) {
    os << "symbol tables differ (" << a.symbols.size() << " vs "
       << b.symbols.size() << " entries)";
    return os.str();
  }
  const size_t n = std::min(a.events.size(), b.events.size());
  for (size_t i = 0; i < n; ++i) {
    if (a.events[i] == b.events[i]) continue;
    const Event& x = a.events[i];
    const Event& y = b.events[i];
    os << "event " << i << " differs:\n  a: " << event_kind_name(x.kind)
       << " instret=" << x.instret << " cycles=" << x.cycles
       << " pid=" << x.pid << " tid=" << x.tid << " pkey=" << x.pkey
       << " " << event_detail(x) << "\n  b: " << event_kind_name(y.kind)
       << " instret=" << y.instret << " cycles=" << y.cycles
       << " pid=" << y.pid << " tid=" << y.tid << " pkey=" << y.pkey
       << " " << event_detail(y);
    return os.str();
  }
  if (a.events.size() != b.events.size()) {
    os << "event counts differ: " << a.events.size() << " vs "
       << b.events.size() << " (streams agree on the common prefix)";
    return os.str();
  }
  return "";
}

}  // namespace sealpk::obs
