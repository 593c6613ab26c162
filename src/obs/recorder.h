// Deterministic event recorder: the sink every publishing layer (hart,
// kernel, fault injector, machine) writes into.
//
// Publishers hold a raw nullable Recorder* and guard every emit with a
// null check, so a disabled trace is one predictable branch per publish
// site and zero allocations. Publishing charges no modelled cycles and
// never touches architectural state, which is what makes an enabled-tracing
// run byte-identical (instructions, cycles, snapshots) to a disabled one.
#pragma once

#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/event.h"
#include "obs/metrics.h"

namespace sealpk::obs {

struct TraceConfig {
  bool enabled = false;
  // 0 = unbounded full capture; otherwise keep only the last N events
  // (metrics still aggregate every event ever emitted).
  u64 ring_capacity = 0;
  // Sampling PC profiler period in retired instructions; 0 = off. Samples
  // fire at absolute instret multiples of the interval, so a run resumed
  // from a snapshot samples at the same points as an uninterrupted one.
  u64 sample_interval = 0;
};

// Guest function symbol range [start, end), tagged with the owning pid.
struct SymbolRange {
  u32 pid = 0;
  std::string name;
  u64 start = 0;
  u64 end = 0;

  bool operator==(const SymbolRange&) const = default;
};

// Parsed (or about-to-be-serialized) trace: what a .spktrc blob holds.
// Metrics are intentionally absent — they are a pure fold over `events`
// and are recomputed by report/export, so event streams captured across a
// snapshot boundary concatenate into exactly the uninterrupted blob.
struct Trace {
  u64 ring_capacity = 0;
  u64 sample_interval = 0;
  u64 dropped = 0;
  std::vector<SymbolRange> symbols;
  std::vector<Event> events;
};

// Blob container: 8-byte magic, u32 version, u64 payload length, u64
// FNV-1a checksum, payload — the same envelope as the snapshot format.
inline constexpr char kTraceMagic[8] = {'S', 'P', 'K', 'T',
                                        'R', 'A', 'C', 'E'};
inline constexpr u32 kTraceVersion = 1;

std::vector<u8> serialize(const Trace& trace);
Trace parse(const std::vector<u8>& blob);  // throws CheckError on damage

class Recorder {
 public:
  explicit Recorder(const TraceConfig& config) : config_(config) {
    align_samples(0);  // a fresh machine starts at instret 0
  }

  // Stamps the event with the current scheduling context and appends it.
  void emit(EventKind kind, u64 instret, u64 cycles, u32 pkey, u64 arg0,
            u64 arg1) {
    Event e;
    e.kind = kind;
    e.pid = cur_pid_;
    e.tid = cur_tid_;
    e.pkey = pkey;
    e.instret = instret;
    e.cycles = cycles;
    e.arg0 = arg0;
    e.arg1 = arg1;
    metrics_.observe(e);
    if (config_.ring_capacity != 0 &&
        events_.size() == config_.ring_capacity) {
      events_.pop_front();
      ++dropped_;
    }
    events_.push_back(e);
  }

  // Context switches also move the recorder's pid/tid stamp; the event
  // itself is stamped with the *incoming* thread.
  void context_switch(u64 instret, u64 cycles, u32 pid, u32 tid) {
    const u32 prev = cur_tid_;
    cur_pid_ = pid;
    cur_tid_ = tid;
    emit(EventKind::kContextSwitch, instret, cycles, kNoPkey, prev, tid);
  }

  // Re-seeds the stamping context without an event — used after a
  // snapshot restore, where the scheduling state arrives out of band.
  void seed_context(u32 pid, u32 tid) {
    cur_pid_ = pid;
    cur_tid_ = tid;
  }

  // The profiler's schedule: a machine at `instret` next samples at the
  // smallest multiple of the interval above it (never, with sampling off).
  // Set at construction and again after a snapshot restore, so a resumed
  // run samples at exactly the points the uninterrupted one does after
  // the boundary, and never repeats the sample at the boundary itself.
  void align_samples(u64 instret) {
    const u64 interval = config_.sample_interval;
    next_sample_ =
        interval == 0 ? ~u64{0} : (instret / interval + 1) * interval;
  }

  // Instret at which the next PC sample is due: a run-loop deadline, so
  // the machine ends a chunk there and samples.
  u64 next_sample() const { return next_sample_; }

  // Emits the sample due at `instret` (>= next_sample()): the pc of the
  // next instruction to fetch and its 32-bit instruction word (0 when the
  // pc does not translate). At interval 1 the samples are the instruction
  // log, and the machine also samples after each trap, at an instret
  // already sampled, to name the instruction the kernel resumes at.
  void sample(u64 instret, u64 cycles, u64 pc, u32 word) {
    emit(EventKind::kSample, instret, cycles, kNoPkey, pc, word);
    align_samples(instret);
  }

  // Registers a loaded image's function ranges for PC attribution.
  void add_symbols(u32 pid,
                   const std::map<std::string, std::pair<u64, u64>>& ranges) {
    for (const auto& [name, range] : ranges) {
      symbols_.push_back({pid, name, range.first, range.second});
    }
  }

  const TraceConfig& config() const { return config_; }
  const std::deque<Event>& events() const { return events_; }
  u64 dropped() const { return dropped_; }
  const Metrics& metrics() const { return metrics_; }

  // Summary with the open domain-residency interval closed at `cycles`.
  TraceSummary summary(u64 cycles) const {
    Metrics m = metrics_;
    m.finish(cycles);
    return m.summary(dropped_);
  }

  Trace trace() const {
    Trace t;
    t.ring_capacity = config_.ring_capacity;
    t.sample_interval = config_.sample_interval;
    t.dropped = dropped_;
    t.symbols = symbols_;
    t.events.assign(events_.begin(), events_.end());
    return t;
  }

  std::vector<u8> serialize_blob() const { return obs::serialize(trace()); }

 private:
  TraceConfig config_;
  u32 cur_pid_ = 0;
  u32 cur_tid_ = 0;
  u64 next_sample_ = ~u64{0};
  u64 dropped_ = 0;
  std::deque<Event> events_;
  std::vector<SymbolRange> symbols_;
  Metrics metrics_;
};

}  // namespace sealpk::obs
