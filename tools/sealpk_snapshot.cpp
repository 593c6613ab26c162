// sealpk snapshot — checkpoint/restore workbench for the simulated machine.
//
// Subcommands:
//   save <workload> --at=<instret> [--out=<file>]
//       Build the workload, run it to the given retired-instruction point,
//       serialize the full machine and write the snapshot file.
//   restore <file> [--expect-exit=<code>]
//       Rebuild a machine from the snapshot's embedded config, restore, run
//       to completion and print the guest outcome. With --expect-exit the
//       process exit code is checked (exit status 1 on mismatch).
//   replay <workload> --at=<instret>
//       Determinism oracle: run the workload uninterrupted to completion and
//       snapshot the final state; then run it again but save/restore through
//       a snapshot at the given point before finishing. The two final
//       snapshots must be bit-identical.
//   diff <a> <b>
//       Section-level comparison of two snapshot files (exit status 1 when
//       they differ).
//   info <file>
//       Header, checksum and section table of a snapshot file.
//
// Workload construction accepts the same shaping flags as sealpk verify
// (--ss=, --seal) plus a fault plan (--chaos-seed/--chaos-rate/--cam-rate/
// --max-faults), so replay can prove determinism *under fault injection*:
// the injector's RNG stream and event log travel inside the snapshot.
//
// Exit status: 0 success, 1 oracle/check failure, 2 usage or I/O errors.
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "common/json.h"
#include "sim/machine.h"
#include "snapshot/snapshot.h"

using namespace sealpk;

namespace {

struct CliOptions {
  std::vector<std::string> positional;
  std::string out;
  std::optional<u64> at;
  std::optional<i64> expect_exit;
  bool quiet = false;
  cli::JsonSink json;  // machine-readable info/diff output
  cli::ShadowStack ss;
  fault::FaultPlan plan;  // disabled unless a --chaos-* flag appears
};

isa::Image build_image(const CliOptions& cli) {
  return cli.ss.build(cli::find_workload(cli.positional[0])).link();
}

sim::MachineConfig make_config(const CliOptions& cli) {
  sim::MachineConfig config;
  config.fault_plan = cli.plan;
  return config;
}

int cmd_save(const CliOptions& cli) {
  sim::Machine machine(make_config(cli));
  const int pid = machine.load(build_image(cli));
  if (pid == sim::Machine::kLoadRefused) {
    std::fprintf(stderr, "workload refused by loader\n");
    return 1;
  }
  machine.run(*cli.at);
  const std::vector<u8> blob = snapshot::save(machine);
  const std::string out =
      cli.out.empty() ? cli.positional[0] + ".spksnap" : cli.out;
  snapshot::write_file(out, blob);
  if (!cli.quiet) {
    std::printf("%s: %zu bytes at instret=%llu pc=0x%llx\n", out.c_str(),
                blob.size(),
                static_cast<unsigned long long>(machine.hart().instret()),
                static_cast<unsigned long long>(machine.hart().pc()));
  }
  return 0;
}

int cmd_restore(const CliOptions& cli) {
  const std::vector<u8> blob = snapshot::read_file(cli.positional[0]);
  sim::Machine machine(snapshot::config_from(blob));
  snapshot::restore(machine, blob);
  const sim::RunOutcome outcome = machine.run();
  int pid = -1;
  for (int p = 1; p < 64; ++p) {
    if (machine.has_process(p)) pid = p;
  }
  const i64 code = pid > 0 ? machine.exit_code(pid) : sim::Machine::kNoExitCode;
  if (!cli.quiet) {
    std::printf("resumed %llu instruction(s), completed=%d, exit=%lld\n",
                static_cast<unsigned long long>(outcome.instructions),
                outcome.completed ? 1 : 0, static_cast<long long>(code));
    std::fputs(machine.kernel().console().c_str(), stdout);
  }
  if (cli.expect_exit && code != *cli.expect_exit) {
    std::fprintf(stderr, "exit code %lld, expected %lld\n",
                 static_cast<long long>(code),
                 static_cast<long long>(*cli.expect_exit));
    return 1;
  }
  return outcome.completed ? 0 : 1;
}

int cmd_replay(const CliOptions& cli) {
  const isa::Image image = build_image(cli);

  // Reference: one uninterrupted run.
  sim::Machine straight(make_config(cli));
  if (straight.load(image) == sim::Machine::kLoadRefused) {
    std::fprintf(stderr, "workload refused by loader\n");
    return 1;
  }
  straight.run();
  const std::vector<u8> final_straight = snapshot::save(straight);

  // Candidate: same run, but torn down and resumed from a snapshot midway.
  sim::Machine first(make_config(cli));
  first.load(image);
  first.run(*cli.at);
  const std::vector<u8> mid = snapshot::save(first);

  sim::Machine resumed(snapshot::config_from(mid));
  snapshot::restore(resumed, mid);
  resumed.run();
  const std::vector<u8> final_resumed = snapshot::save(resumed);

  if (final_straight == final_resumed) {
    if (!cli.quiet) {
      std::printf(
          "%s: bit-identical after save/restore at instret=%llu "
          "(%zu-byte final state)\n",
          cli.positional[0].c_str(), static_cast<unsigned long long>(*cli.at),
          final_straight.size());
    }
    return 0;
  }
  std::printf("%s: FINAL STATE DIVERGED after restore at instret=%llu\n",
              cli.positional[0].c_str(),
              static_cast<unsigned long long>(*cli.at));
  for (const auto& line : snapshot::diff(final_straight, final_resumed)) {
    std::printf("  %s\n", line.c_str());
  }
  return 1;
}

int cmd_diff(const CliOptions& cli) {
  const std::vector<u8> a = snapshot::read_file(cli.positional[0]);
  const std::vector<u8> b = snapshot::read_file(cli.positional[1]);
  const std::vector<std::string> lines = snapshot::diff(a, b);
  if (cli.json.on) {
    std::ostringstream os;
    os << "{\"a\": \"" << json_escape(cli.positional[0]) << "\", \"b\": \""
       << json_escape(cli.positional[1])
       << "\", \"equivalent\": " << (lines.empty() ? "true" : "false")
       << ", \"differences\": [";
    for (size_t i = 0; i < lines.size(); ++i) {
      os << (i != 0 ? ", " : "") << "\"" << json_escape(lines[i]) << "\"";
    }
    os << "]}\n";
    cli.json.emit(os.str());
    return lines.empty() ? 0 : 1;
  }
  if (lines.empty()) {
    if (!cli.quiet) std::printf("snapshots are equivalent\n");
    return 0;
  }
  for (const auto& line : lines) std::printf("%s\n", line.c_str());
  return 1;
}

int cmd_info(const CliOptions& cli) {
  const std::vector<u8> blob = snapshot::read_file(cli.positional[0]);
  const snapshot::Info info = snapshot::info(blob);
  if (cli.json.on) {
    char checksum[32];
    std::snprintf(checksum, sizeof(checksum), "%016llx",
                  static_cast<unsigned long long>(info.checksum));
    std::ostringstream os;
    os << "{\"file\": \"" << json_escape(cli.positional[0])
       << "\", \"version\": " << info.version
       << ", \"payload_bytes\": " << info.payload_len << ", \"fnv1a64\": \""
       << checksum << "\", \"checksum_ok\": "
       << (info.checksum_ok ? "true" : "false")
       << ", \"instret\": " << info.instret << ", \"cycles\": " << info.cycles
       << ", \"pc\": " << info.pc << ", \"sections\": [";
    for (size_t i = 0; i < info.sections.size(); ++i) {
      os << (i != 0 ? ", " : "") << "{\"name\": \""
         << json_escape(info.sections[i].name)
         << "\", \"bytes\": " << info.sections[i].size << "}";
    }
    os << "]}\n";
    cli.json.emit(os.str());
    return 0;
  }
  std::printf("version   %u\n", info.version);
  std::printf("payload   %llu bytes, fnv1a64=%016llx (%s)\n",
              static_cast<unsigned long long>(info.payload_len),
              static_cast<unsigned long long>(info.checksum),
              info.checksum_ok ? "ok" : "MISMATCH");
  std::printf("instret   %llu\n",
              static_cast<unsigned long long>(info.instret));
  std::printf("cycles    %llu\n", static_cast<unsigned long long>(info.cycles));
  std::printf("pc        0x%llx\n", static_cast<unsigned long long>(info.pc));
  for (const auto& sec : info.sections) {
    std::printf("  %-4s  %llu bytes\n", sec.name.c_str(),
                static_cast<unsigned long long>(sec.size));
  }
  return 0;
}

}  // namespace

int sealpk_snapshot(int argc, char** argv) {
  CliOptions cli;
  cli::Tool tool{"sealpk snapshot",
                 {"save <workload> --at=<instret> [--out=<file>]",
                  "restore <file> [--expect-exit=<code>]",
                  "replay <workload> --at=<instret>",
                  "diff <a> <b> [--json[=<path>]]",
                  "info <file> [--json[=<path>]]"}};
  tool.add(cli::value("--at", &cli.at, "<instret>",
                      "retired-instruction point (save, replay)"));
  tool.add(cli::value("--out", &cli.out, "<file>",
                      "snapshot file (save; default <workload>.spksnap)"));
  tool.add(cli::value("--expect-exit", &cli.expect_exit, "<code>",
                      "required guest exit code (restore)"));
  tool.add(cli::json_sink(&cli.json, "machine-readable view (info, diff)"));
  cli::add_shadow_stack(tool, &cli.ss);
  cli::FaultTargets plan = cli::plan_targets(&cli.plan);
  plan.kinds = nullptr;
  plan.enable = &cli.plan.enabled;
  cli::add_fault_plan(tool, plan);
  tool.add(cli::quiet(&cli.quiet));
  return cli::run(tool, argc, argv, [&](std::vector<std::string>& args) {
    const std::string mode = cli::take_mode(
        args, {{"save", 1, 1}, {"restore", 1, 1}, {"replay", 1, 1},
               {"diff", 2, 2}, {"info", 1, 1}});
    cli.positional = args;
    if ((mode == "save" || mode == "replay") && !cli.at) {
      throw cli::UsageError();
    }
    if (mode == "save") return cmd_save(cli);
    if (mode == "restore") return cmd_restore(cli);
    if (mode == "replay") return cmd_replay(cli);
    return mode == "diff" ? cmd_diff(cli) : cmd_info(cli);
  });
}
