// sealpk-verify — static SealPK policy verifier CLI.
//
// Builds guest programs from the workload registry (optionally applying a
// shadow-stack instrumentation variant first, exactly as the Figure-5
// harness would), links them, and runs the src/analysis verifier over the
// resulting binaries. Exit status: 0 when every inspected program is
// admissible (no error-severity findings), 1 otherwise, 2 on usage errors.
//
// Usage:
//   sealpk-verify --all                      # inspect all 17 workloads
//   sealpk-verify qsort sha gzip             # inspect a subset
//   sealpk-verify --all --ss=sealpk-rdwr     # instrumented flavour
//   sealpk-verify --all --ss=sealpk-wr --seal
//   sealpk-verify --all --json               # machine-readable findings
//   sealpk-verify --all --json=out.json      # ... written to a file
//   sealpk-verify --list                     # list known workload names
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "cli.h"
#include "passes/shadow_stack.h"
#include "workloads/workload.h"

using namespace sealpk;

namespace {

struct CliOptions {
  cli::WorkloadPick workloads;
  bool quiet = false;
  cli::JsonSink json;
  cli::ShadowStack ss;
  analysis::VerifyOptions verify;
};

struct Verified {
  std::string label;
  analysis::Report report;
};

Verified verify_one(const wl::Workload& w, const CliOptions& cli) {
  const isa::Program prog = cli.ss.build(w);
  std::string label = std::string(wl::suite_name(w.suite)) + "/" + w.name;
  if (cli.ss.kind != passes::ShadowStackKind::kNone) {
    label += std::string(" [") + passes::shadow_stack_kind_name(cli.ss.kind) +
             (cli.ss.seal ? ", perm-sealed]" : "]");
  }
  return {label, analysis::verify_program(prog, cli.verify)};
}

int verify_workloads(const CliOptions& cli,
                     const std::vector<std::string>& names) {
  std::vector<Verified> results;
  for (const wl::Workload* w : cli.workloads.pick(names)) {
    results.push_back(verify_one(*w, cli));
  }

  size_t errors = 0;
  for (const auto& v : results) {
    errors += v.report.count(analysis::Severity::kError);
  }

  if (cli.json.on) {
    std::ostringstream os;
    os << "{\n  \"schema\": \"sealpk-verify-v1\",\n"
       << "  \"inspected\": " << results.size() << ",\n"
       << "  \"errors\": " << errors << ",\n"
       << "  \"programs\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      results[i].report.print_json(os, results[i].label, "    ");
      os << (i + 1 < results.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
    cli.json.emit(os.str());
  } else {
    for (const auto& v : results) {
      if (!cli.quiet || !v.report.clean()) {
        v.report.print(std::cout, v.label);
      }
    }
    if (!cli.quiet || errors != 0) {
      std::printf("%zu program(s) inspected, %zu error finding(s)\n",
                  results.size(), errors);
    }
  }
  return errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  cli::Tool tool{"sealpk-verify", {"[--all | <workload>...] [options]"}};
  cli::add_workload_pick(tool, &cli.workloads);
  cli::add_shadow_stack(tool, &cli.ss);
  tool.add(cli::action("--trust", "<function>",
                       "treat the function as a trusted gate (repeatable)",
                       [&cli](const std::string& v) {
                         cli.verify.trusted_gates.insert(v);
                       }));
  tool.add(cli::json_sink(&cli.json, "machine-readable findings"));
  tool.add(cli::quiet(&cli.quiet));
  return cli::run(tool, argc, argv, [&](std::vector<std::string>& names) {
    return verify_workloads(cli, names);
  });
}
