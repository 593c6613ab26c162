// sealpk trace — record and inspect deterministic execution traces.
//
// Subcommands:
//   record <workload> [--out=<file>] [--sample=<n>] [--ring=<n>]
//       Build the workload, run it with the event recorder enabled and write
//       the serialized trace blob (default <workload>.spktrace). --sample=N
//       turns on the PC profiler (one sample every N retired instructions);
//       --ring=N bounds capture to the most recent N events (0 = keep all).
//   report <file>
//       Aggregate view: event counts, per-pkey attribution table, domain
//       residency histograms and the hottest functions by sample count.
//   export <file> [--json=<file>] [--collapsed=<file>] [--timeline]
//       Convert a trace blob: --json writes Chrome/Perfetto trace_event JSON
//       (load in ui.perfetto.dev), --collapsed writes folded stacks for
//       flamegraph.pl, --timeline prints the per-event text timeline.
//   diff <a> <b> [--json=<file>]
//       Structural comparison of two blobs (exit status 1 when they differ).
//       This is the CI determinism oracle: two records of the same workload
//       must produce byte-identical blobs. --json writes a machine-readable
//       verdict without changing the exit code.
//
// Workload construction accepts the same shaping flags as sealpk snapshot
// (--ss=, --seal), so sealed shadow-stack variants can be profiled too.
// Timestamps in every output are modelled instruction/cycle counts — never
// host wall-clock — which is what makes traces diffable at all.
//
// Exit status: 0 success, 1 diff/check failure, 2 usage or I/O errors.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "common/json.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "sim/machine.h"

using namespace sealpk;

namespace {

struct CliOptions {
  std::vector<std::string> positional;
  std::string out;
  cli::JsonSink json;  // report: --json[=path]; export/diff: --json=<path>
  std::string collapsed_out;
  bool timeline = false;
  u64 sample = 0;  // 0 = profiler off
  u64 ring = 0;    // 0 = unbounded capture
  bool quiet = false;
  cli::ShadowStack ss;
};

obs::Trace load_trace(const std::string& path) {
  return obs::parse(cli::read_bytes(path));
}

// Renders through `write` into the file at `path`.
template <typename Write>
void write_to(const std::string& path, Write write) {
  std::ostringstream os;
  write(os);
  cli::write_text(path, os.str());
}

int cmd_record(const CliOptions& cli) {
  const isa::Program prog = cli.ss.build(cli::find_workload(cli.positional[0]));

  sim::MachineConfig config;
  config.trace.enabled = true;
  config.trace.ring_capacity = cli.ring;
  config.trace.sample_interval = cli.sample;
  sim::Machine machine(config);
  if (machine.load(prog.link()) == sim::Machine::kLoadRefused) {
    std::fprintf(stderr, "workload refused by loader\n");
    return 1;
  }
  const sim::RunOutcome outcome = machine.run();
  if (!outcome.completed) {
    std::fprintf(stderr, "run did not complete\n");
    return 1;
  }

  const std::vector<u8> blob = machine.recorder()->serialize_blob();
  const std::string out =
      cli.out.empty() ? cli.positional[0] + ".spktrace" : cli.out;
  cli::write_bytes(out, blob);
  if (!cli.quiet) {
    const obs::TraceSummary s =
        machine.recorder()->summary(machine.hart().cycles());
    std::printf(
        "%s: %zu bytes, %llu event(s) (%llu dropped), %llu sample(s), "
        "%llu instructions\n",
        out.c_str(), blob.size(), static_cast<unsigned long long>(s.events),
        static_cast<unsigned long long>(s.dropped),
        static_cast<unsigned long long>(s.samples),
        static_cast<unsigned long long>(outcome.instructions));
  }
  return 0;
}

int cmd_report(const CliOptions& cli) {
  const obs::Trace trace = load_trace(cli.positional[0]);
  // --json[=path] swaps the rendering for the machine-readable report
  // ("sealpk-trace-report-v1": counters + per-pkey table + span
  // quantiles); exit-code parity with plain mode (both 0 on a loadable
  // blob — damage is caught by load_trace either way).
  if (cli.json.on) {
    if (cli.json.path.empty()) {
      obs::write_report_json(trace, std::cout);
      return 0;
    }
    write_to(cli.json.path,
             [&](std::ostream& os) { obs::write_report_json(trace, os); });
    if (!cli.quiet) std::printf("%s: report json\n", cli.json.path.c_str());
    return 0;
  }
  obs::write_report(trace, std::cout);
  return 0;
}

int cmd_export(const CliOptions& cli) {
  if (cli.json.path.empty() && cli.collapsed_out.empty() && !cli.timeline) {
    throw cli::UsageError();
  }
  const obs::Trace trace = load_trace(cli.positional[0]);
  if (!cli.json.path.empty()) {
    write_to(cli.json.path,
             [&](std::ostream& os) { obs::write_perfetto_json(trace, os); });
    if (!cli.quiet) std::printf("%s: perfetto json\n", cli.json.path.c_str());
  }
  if (!cli.collapsed_out.empty()) {
    write_to(cli.collapsed_out,
             [&](std::ostream& os) { obs::write_collapsed(trace, os); });
    if (!cli.quiet) {
      std::printf("%s: collapsed stacks\n", cli.collapsed_out.c_str());
    }
  }
  if (cli.timeline) obs::write_timeline(trace, std::cout);
  return 0;
}

int cmd_diff(const CliOptions& cli) {
  const std::string delta =
      obs::diff_traces(load_trace(cli.positional[0]),
                       load_trace(cli.positional[1]));
  // --json changes the output format, never the verdict: structural
  // divergence exits nonzero in JSON mode exactly as in plain mode (the
  // same contract sealpk fleet diff --json pins).
  if (!cli.json.path.empty()) {
    cli::write_text(cli.json.path,
                    "{\"a\": \"" + json_escape(cli.positional[0]) +
                        "\", \"b\": \"" + json_escape(cli.positional[1]) +
                        "\", \"identical\": " +
                        (delta.empty() ? "true" : "false") +
                        ", \"delta\": \"" + json_escape(delta) + "\"}\n");
    return delta.empty() ? 0 : 1;
  }
  if (delta.empty()) {
    if (!cli.quiet) std::printf("traces are identical\n");
    return 0;
  }
  std::printf("%s\n", delta.c_str());
  return 1;
}

}  // namespace

int sealpk_trace(int argc, char** argv) {
  CliOptions cli;
  cli::Tool tool{"sealpk trace",
                 {"record <workload> [--out=<file>] [--sample=<n>] "
                  "[--ring=<n>]",
                  "report <file> [--json[=<file>]]",
                  "export <file> [--json=<file>] [--collapsed=<file>] "
                  "[--timeline]",
                  "diff <a> <b> [--json=<file>]"}};
  tool.add(cli::value("--out", &cli.out, "<file>",
                      "trace blob (record; default <workload>.spktrace)"));
  tool.add(cli::value("--sample", &cli.sample, "<n>",
                      "PC sample every n instructions (record; 0 = off)"));
  tool.add(cli::value("--ring", &cli.ring, "<n>",
                      "keep the last n events (record; 0 = all)"));
  tool.add(cli::json_sink(&cli.json,
                          "report: JSON report; export: Perfetto JSON; "
                          "diff: JSON verdict"));
  tool.add(cli::value("--collapsed", &cli.collapsed_out, "<file>",
                      "folded stacks for flamegraph.pl (export)"));
  tool.add(cli::sw("--timeline", &cli.timeline,
                   "print the event timeline (export)"));
  cli::add_shadow_stack(tool, &cli.ss);
  tool.add(cli::quiet(&cli.quiet));
  return cli::run(tool, argc, argv, [&](std::vector<std::string>& args) {
    const std::string mode = cli::take_mode(
        args, {{"record", 1, 1}, {"report", 1, 1}, {"export", 1, 1},
               {"diff", 2, 2}});
    cli.positional = args;
    if (mode == "record") return cmd_record(cli);
    if (mode == "report") return cmd_report(cli);
    return mode == "export" ? cmd_export(cli) : cmd_diff(cli);
  });
}
