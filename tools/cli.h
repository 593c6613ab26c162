// The command-line layer shared by the `sealpk` commands (DESIGN.md §18).
//
// Each command declares its flags once, as a table of typed entries; the
// layer parses argv against it, generates the usage text from it, and
// owns the conventions every tool shares:
//   - values are parsed strictly: the whole text must be consumed,
//     integers are base 0 (so 0x... works), unsigned targets refuse a
//     sign, a value that overflows its target is refused, doubles must be
//     finite;
//   - exit status 0 ok / 1 check failed / 2 usage or I/O error: a bad
//     value prints "<tool>: bad value for --flag: '<v>'" plus the usage,
//     and any exception escaping the tool body prints "<tool>: <what>";
//   - the -q/--quiet, --threads=, --json[=<path>] and --selfcheck
//     conventions (sweep() is the one serial-vs-threaded check), plus the
//     flag groups several tools repeat (shadow stack, fault plan,
//     rollback).
#pragma once

#include <cstdio>
#include <functional>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bits.h"
#include "fault/fault.h"
#include "passes/shadow_stack.h"
#include "sim/machine.h"
#include "workloads/workload.h"

namespace sealpk::cli {

// A malformed flag value. Thrown by parse<T>() and by flag actions; the
// parser reports it with the flag's name.
struct BadValue {};

// A command line the tool cannot run: run() prints "<tool>: <what>" (when
// non-empty) and the usage to stderr and exits 2.
struct UsageError : std::runtime_error {
  explicit UsageError(const std::string& what = "") : runtime_error(what) {}
};

// Ends the tool early with `code` (a query flag has printed its answer).
struct Exit {
  int code;
};

// Strict value parsing for T = unsigned, u64, i64, double, std::string, or
// a comma list (std::vector<std::string> / std::vector<u64>) in which an
// empty list or an empty item is refused. Throws BadValue.
template <typename T>
T parse(const std::string& text);

struct Flag {
  enum class Arity : u8 { kNone, kValue, kOptionalValue };
  std::string name;   // "--threads"
  std::string alias;  // "-q", or empty
  Arity arity = Arity::kNone;
  std::string meta;   // "<n>", as in --threads=<n>
  std::string help;
  // Receives the text after '=' ("" for switches and a bare optional
  // value); throws BadValue.
  std::function<void(const std::string&)> set;
};

// A switch: sets *target.
Flag sw(const char* name, bool* target, const char* help);
// A value flag (a switch when `meta` is empty) with a custom action.
Flag action(const char* name, std::string meta, const char* help,
            std::function<void(const std::string&)> set);

template <typename T>
struct Parsed {
  using type = T;
};
template <typename T>
struct Parsed<std::optional<T>> {
  using type = T;
};

// A typed value flag: any type parse<T>() accepts, or std::optional of a
// scalar (engaged = the flag was given).
template <typename T>
Flag value(const char* name, T* target, const char* meta, const char* help) {
  return action(name, meta, help, [target](const std::string& v) {
    *target = parse<typename Parsed<T>::type>(v);
  });
}

// A typed value flag refusing values for which ok(value) is false.
template <typename T, typename Ok>
Flag checked(const char* name, T* target, Ok ok, const char* meta,
             const char* help) {
  return action(name, meta, help, [target, ok](const std::string& v) {
    const T parsed = parse<T>(v);
    if (!ok(parsed)) throw BadValue{};
    *target = parsed;
  });
}

// An integer value flag refusing values below `min`.
template <typename T>
Flag at_least(const char* name, T* target, std::type_identity_t<T> min,
              const char* meta, const char* help) {
  return checked(name, target, [min](T v) { return v >= min; }, meta, help);
}

template <typename E>
struct Named {
  const char* name;
  E value;
};

// An enum chosen by name; the usage lists the names.
template <typename E>
Flag choice(const char* name, E* target, std::initializer_list<Named<E>> names,
            const char* help) {
  std::string meta;
  for (const Named<E>& n : names) {
    meta += (meta.empty() ? "<" : "|") + std::string(n.name);
  }
  return action(name, meta + ">", help,
                [target, table = std::vector<Named<E>>(names)](
                    const std::string& v) {
                  for (const Named<E>& n : table) {
                    if (v == n.name) {
                      *target = n.value;
                      return;
                    }
                  }
                  throw BadValue{};
                });
}

struct Tool {
  Tool(std::string tool_name, std::vector<std::string> usage_lines)
      : name(std::move(tool_name)), synopsis(std::move(usage_lines)) {}

  std::string name;                   // "sealpk vkey"
  std::vector<std::string> synopsis;  // usage lines after the tool name
  std::vector<Flag> flags;

  void add(Flag flag) { flags.push_back(std::move(flag)); }
  std::string usage() const;
  // Applies every flag in argv in order and returns the other arguments.
  // Throws UsageError.
  std::vector<std::string> parse(int argc, char** argv) const;
};

// Parses the command line and runs `body` on the positional arguments,
// mapping UsageError, Exit and escaping exceptions to exit statuses.
int run(const Tool& tool, int argc, char** argv,
        const std::function<int(std::vector<std::string>&)>& body);

// A mode word and how many positional arguments it takes.
struct Mode {
  const char* name;
  size_t min_args = 0;
  size_t max_args = 0;  // kMany: no limit
};
inline constexpr size_t kMany = static_cast<size_t>(-1);

// Removes the first argument that names a mode (e.g. "run"/"sweep") from
// `args`; later arguments stay positional even when they spell a mode. No
// mode, or a count of other arguments outside the mode's range, is a usage
// error.
std::string take_mode(std::vector<std::string>& args,
                      std::initializer_list<Mode> modes);

// --- shared conventions ------------------------------------------------------

Flag quiet(bool* target);
Flag threads(unsigned* target, const char* help);
Flag selfcheck(bool* target);

// --json[=<path>]: bare --json writes to stdout, --json=<path> to a file.
struct JsonSink {
  bool on = false;
  std::string path;
  void emit(const std::string& text) const;
};
Flag json_sink(JsonSink* sink, const char* help);

// --selfcheck: true when the threaded run's records equal the serial
// re-run's; otherwise the first diverging line goes to stderr.
bool records_match(const std::string& threaded, const std::string& serial,
                   unsigned threads);

// A batch tool's --threads, --selfcheck and -q.
struct Sweep {
  unsigned threads = 1;
  bool selfcheck = false;
  bool quiet = false;
  bool print_records = false;  // the records are the tool's stdout report
};

// The one --selfcheck. Runs work(threads), prints its records() when they
// are the stdout report, and hands the result to report(), which writes
// the tool's other reports and returns its exit status. With --selfcheck,
// work(1) runs in between and the two record strings must be
// byte-identical (records_match): a match prints one line (not under -q)
// and keeps the status; a mismatch names the first differing line on
// stderr and, once the reports are written, returns 1.
template <typename Work, typename Records, typename Report>
int sweep(const Sweep& flags, Work&& work, Records&& records,
          Report&& report) {
  const auto result = work(flags.threads);
  if (flags.print_records && !flags.quiet) {
    std::fputs(records(result).c_str(), stdout);
  }
  bool match = true;
  if (flags.selfcheck) {
    match = records_match(records(result), records(work(1u)), flags.threads);
    if (match && !flags.quiet) {
      std::printf("selfcheck: serial re-run byte-identical\n");
    }
  }
  const int status = report(result);
  return match ? status : 1;
}

// --- flag groups -------------------------------------------------------------

// --ss=<variant> and --seal.
struct ShadowStack {
  passes::ShadowStackKind kind = passes::ShadowStackKind::kNone;
  bool seal = false;
  // `w` at its test scale, instrumented with this variant.
  isa::Program build(const wl::Workload& w) const;
};
void add_shadow_stack(Tool& tool, ShadowStack* ss);

// The fault-plan flags. A null target leaves its flag out; `enable`, when
// set, is switched on by --chaos-seed, --chaos-rate and --cam-rate.
struct FaultTargets {
  u64* seed;
  double* rate;
  double* cam_rate;
  u64* max_faults;
  u32* kinds;
  bool* enable = nullptr;
};
FaultTargets plan_targets(fault::FaultPlan* plan);
void add_fault_plan(Tool& tool, const FaultTargets& targets);
// A fault rate that a machine can be built with (fault::valid_rate).
double parse_rate(const std::string& text);
// Comma list of fault kinds as a kind mask.
u32 parse_kinds(const std::string& text);
// The accepted fault-kind names, joined by `sep`.
std::string kind_names(const char* sep);

// --rollback, --ckpt-interval, --max-rollbacks, --no-pkr-save.
struct Rollback {
  bool on = false;
  bool no_pkr_save = false;
  u64 interval = 0;  // 0 = 25'000 with --rollback, else off
  u64 max_rollbacks = 3;
  void apply(sim::MachineConfig* config) const;
};
void add_rollback(Tool& tool, Rollback* rollback);

// --all and --list over workload-name arguments.
struct WorkloadPick {
  bool all = false;
  bool list = false;
  // The named workloads (all with --all) in registry order. --list prints
  // the registry and exits 0 instead.
  std::vector<const wl::Workload*> pick(
      const std::vector<std::string>& names) const;
};
void add_workload_pick(Tool& tool, WorkloadPick* pick);

// The workload called `name` (the first suite's, for a name two suites
// share); throws when there is none.
const wl::Workload& find_workload(const std::string& name);

// --- files (throw std::runtime_error naming the path) ------------------------

std::string read_text(const std::string& path);
void write_text(const std::string& path, const std::string& text);
std::vector<u8> read_bytes(const std::string& path);
void write_bytes(const std::string& path, const std::vector<u8>& bytes);

}  // namespace sealpk::cli
