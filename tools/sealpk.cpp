// sealpk — the one tool binary: `sealpk <command> [arguments]`. Each
// command lives in tools/sealpk_<command>.cpp and parses its modes and flags
// through the shared layer (cli.h, DESIGN.md §18). It gets argv from the
// command word on, so its usage and errors read "sealpk <command>".
// Exit status: the command's; 2 when the command is missing or unknown.
#include <cstdio>
#include <cstring>

int sealpk_verify(int argc, char** argv);
int sealpk_fleet(int argc, char** argv);
int sealpk_serve(int argc, char** argv);
int sealpk_vault(int argc, char** argv);
int sealpk_model(int argc, char** argv);
int sealpk_snapshot(int argc, char** argv);
int sealpk_trace(int argc, char** argv);
int sealpk_vkey(int argc, char** argv);
int sealpk_slo(int argc, char** argv);

namespace {

struct Command {
  const char* name;
  int (*entry)(int argc, char** argv);
  const char* help;
};

constexpr Command kCommands[] = {
    {"verify", sealpk_verify, "static policy verifier over the workloads"},
    {"fleet", sealpk_fleet, "workload x variant matrix driver, chaos oracle"},
    {"serve", sealpk_serve, "sandboxed plugin server and gate red team"},
    {"vault", sealpk_vault, "sealed-storage vault and crash sweep"},
    {"model", sealpk_model, "model checker for the seal/pkey state machine"},
    {"snapshot", sealpk_snapshot, "checkpoint/restore workbench"},
    {"trace", sealpk_trace, "event-trace recorder and exporters"},
    {"vkey", sealpk_vkey, "pkey virtualization and key churn"},
    {"slo", sealpk_slo, "SLO gate and span bench"},
};

}  // namespace

int main(int argc, char** argv) {
  for (const Command& c : kCommands) {
    if (argc > 1 && std::strcmp(argv[1], c.name) == 0) {
      return c.entry(argc - 1, argv + 1);
    }
  }
  if (argc > 1) std::fprintf(stderr, "sealpk: unknown command '%s'\n", argv[1]);
  std::fputs("usage: sealpk <command> [arguments]\ncommands:\n", stderr);
  for (const Command& c : kCommands) {
    std::fprintf(stderr, "  %-10s%s\n", c.name, c.help);
  }
  return 2;
}
