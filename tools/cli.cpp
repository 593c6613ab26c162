#include "cli.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace sealpk::cli {

namespace {

std::string spelling(const Flag& f) {
  std::string s = f.alias.empty() ? f.name : f.alias + ", " + f.name;
  if (f.arity == Flag::Arity::kValue) s += "=" + f.meta;
  if (f.arity == Flag::Arity::kOptionalValue) s += "[=" + f.meta + "]";
  return s;
}

constexpr Named<u32> kKinds[] = {
    {"pkr", kind_bit(fault::FaultKind::kPkrBitFlip)},
    {"tlb", kind_bit(fault::FaultKind::kTlbCorrupt)},
    {"pte", kind_bit(fault::FaultKind::kPteCorrupt)},
    {"cam-drop", kind_bit(fault::FaultKind::kCamDropRefill)},
    {"cam-dup", kind_bit(fault::FaultKind::kCamDupRefill)},
    {"trap", kind_bit(fault::FaultKind::kSpuriousTrap)},
    {"all", fault::kAllFaultKinds},
};

}  // namespace

template <typename T>
T parse(const std::string& text) {
  if constexpr (std::is_same_v<T, std::string>) {
    return text;
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    std::vector<std::string> items;
    for (size_t start = 0;;) {
      const size_t comma = text.find(',', start);
      items.push_back(text.substr(start, comma - start));
      if (items.back().empty()) throw BadValue{};
      if (comma == std::string::npos) return items;
      start = comma + 1;
    }
  } else if constexpr (std::is_same_v<T, std::vector<u64>>) {
    std::vector<u64> out;
    for (const std::string& item : parse<std::vector<std::string>>(text)) {
      out.push_back(parse<u64>(item));
    }
    return out;
  } else {
    // The number must fill the text: no blanks, and a sign only where the
    // target can hold one (strto* would skip the one and wrap the other).
    constexpr bool kFloat = std::is_floating_point_v<T>;
    const size_t sign = (kFloat || std::is_signed_v<T>) && !text.empty() &&
                        (text[0] == '-' || text[0] == '+');
    if (sign >= text.size() || !(std::isdigit(static_cast<u8>(text[sign])) ||
                                 (kFloat && text[sign] == '.'))) {
      throw BadValue{};
    }
    errno = 0;
    char* end = nullptr;
    T out{};
    if constexpr (kFloat) {
      out = std::strtod(text.c_str(), &end);
      if (!std::isfinite(out)) throw BadValue{};
    } else if constexpr (std::is_signed_v<T>) {
      out = std::strtoll(text.c_str(), &end, 0);
    } else {
      const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
      if (v > std::numeric_limits<T>::max()) throw BadValue{};
      out = static_cast<T>(v);
    }
    if (errno == ERANGE || end != text.c_str() + text.size()) {
      throw BadValue{};
    }
    return out;
  }
}

template unsigned parse<unsigned>(const std::string&);
template u64 parse<u64>(const std::string&);
template i64 parse<i64>(const std::string&);
template double parse<double>(const std::string&);
template std::string parse<std::string>(const std::string&);
template std::vector<std::string> parse<std::vector<std::string>>(
    const std::string&);
template std::vector<u64> parse<std::vector<u64>>(const std::string&);

Flag sw(const char* name, bool* target, const char* help) {
  return action(name, "", help, [target](const std::string&) {
    *target = true;
  });
}

Flag action(const char* name, std::string meta, const char* help,
            std::function<void(const std::string&)> set) {
  const Flag::Arity arity =
      meta.empty() ? Flag::Arity::kNone : Flag::Arity::kValue;
  return {name, "", arity, std::move(meta), help, std::move(set)};
}

std::string Tool::usage() const {
  std::string out;
  for (size_t i = 0; i < synopsis.size(); ++i) {
    out += (i == 0 ? "usage: " : "       ") + name + " " + synopsis[i] + "\n";
  }
  if (!flags.empty()) out += "options:\n";
  for (const Flag& f : flags) {
    std::string line = "  " + spelling(f);
    line += line.size() < 27 ? std::string(28 - line.size(), ' ')
                             : "\n" + std::string(28, ' ');
    out += line + f.help + "\n";
  }
  return out;
}

std::vector<std::string> Tool::parse(int argc, char** argv) const {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      args.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const Flag* flag = nullptr;
    for (const Flag& f : flags) {
      if (name == f.name || (!f.alias.empty() && name == f.alias)) {
        flag = &f;
        break;
      }
    }
    if (flag == nullptr) throw UsageError("unknown flag '" + arg + "'");
    const bool has_value = eq != std::string::npos;
    if (has_value && flag->arity == Flag::Arity::kNone) {
      throw UsageError(name + " takes no value");
    }
    if (!has_value && flag->arity == Flag::Arity::kValue) {
      throw UsageError(name + " needs a value: " + spelling(*flag));
    }
    const std::string value = has_value ? arg.substr(eq + 1) : "";
    try {
      flag->set(value);
    } catch (const BadValue&) {
      throw UsageError("bad value for " + name + ": '" + value + "'");
    }
  }
  return args;
}

int run(const Tool& tool, int argc, char** argv,
        const std::function<int(std::vector<std::string>&)>& body) {
  try {
    std::vector<std::string> args = tool.parse(argc, argv);
    return body(args);
  } catch (const UsageError& e) {
    if (*e.what() != '\0') {
      std::fprintf(stderr, "%s: %s\n", tool.name.c_str(), e.what());
    }
    std::fputs(tool.usage().c_str(), stderr);
    return 2;
  } catch (const Exit& e) {
    return e.code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", tool.name.c_str(), e.what());
    return 2;
  }
}

std::string take_mode(std::vector<std::string>& args,
                      std::initializer_list<Mode> modes) {
  for (auto it = args.begin(); it != args.end(); ++it) {
    for (const Mode& m : modes) {
      if (*it != m.name) continue;
      args.erase(it);
      if (args.size() < m.min_args || args.size() > m.max_args) {
        throw UsageError();
      }
      return m.name;
    }
  }
  throw UsageError();
}

Flag quiet(bool* target) {
  Flag f = sw("--quiet", target, "suppress the per-run report");
  f.alias = "-q";
  return f;
}

Flag threads(unsigned* target, const char* help) {
  return value("--threads", target, "<n>", help);
}

void JsonSink::emit(const std::string& text) const {
  if (path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    write_text(path, text);
  }
}

Flag selfcheck(bool* target) {
  return sw("--selfcheck", target,
            "re-run serially; the records must match byte-for-byte");
}

Flag json_sink(JsonSink* sink, const char* help) {
  Flag f = action("--json", "<path>", help, [sink](const std::string& v) {
    sink->on = true;
    sink->path = v;  // bare --json and --json= both mean stdout
  });
  f.arity = Flag::Arity::kOptionalValue;
  return f;
}

bool records_match(const std::string& threaded, const std::string& serial,
                   unsigned threads) {
  if (threaded == serial) return true;
  std::istringstream a(threaded), b(serial);
  std::string la, lb;
  for (size_t line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_b = static_cast<bool>(std::getline(b, lb));
    if (more_a && more_b && la == lb) continue;
    std::fprintf(stderr,
                 "selfcheck FAILED: line %zu differs\n  %u threads: %s\n"
                 "  serial:    %s\n",
                 line, threads, more_a ? la.c_str() : "<end>",
                 more_b ? lb.c_str() : "<end>");
    return false;
  }
}

void add_shadow_stack(Tool& tool, ShadowStack* ss) {
  using passes::ShadowStackKind;
  tool.add(choice<ShadowStackKind>(
      "--ss", &ss->kind,
      {{"none", ShadowStackKind::kNone},
       {"inline", ShadowStackKind::kInline},
       {"func", ShadowStackKind::kFunc},
       {"sealpk-wr", ShadowStackKind::kSealPkWr},
       {"sealpk-rdwr", ShadowStackKind::kSealPkRdWr},
       {"mprotect", ShadowStackKind::kMprotect}},
      "shadow-stack instrumentation variant"));
  tool.add(sw("--seal", &ss->seal, "perm-seal the shadow-stack key"));
}

isa::Program ShadowStack::build(const wl::Workload& w) const {
  isa::Program prog = w.build(w.test_scale);
  passes::apply_shadow_stack(prog, {.kind = kind, .perm_seal = seal});
  return prog;
}

double parse_rate(const std::string& text) {
  const double rate = parse<double>(text);
  if (!fault::valid_rate(rate)) throw BadValue{};
  return rate;
}

u32 parse_kinds(const std::string& text) {
  u32 mask = 0;
  for (const std::string& item : parse<std::vector<std::string>>(text)) {
    bool known = false;
    for (const Named<u32>& k : kKinds) {
      if (item == k.name) {
        mask |= k.value;
        known = true;
      }
    }
    if (!known) throw BadValue{};
  }
  return mask;
}

std::string kind_names(const char* sep) {
  std::string out;
  for (const Named<u32>& k : kKinds) {
    out += (out.empty() ? "" : sep) + std::string(k.name);
  }
  return out;
}

FaultTargets plan_targets(fault::FaultPlan* plan) {
  return {&plan->seed, &plan->rate, &plan->cam_rate, &plan->max_faults,
          &plan->kinds};
}

void add_fault_plan(Tool& tool, const FaultTargets& t) {
  const auto arming = [t](auto* target, auto parse_value) {
    return [t, target, parse_value](const std::string& v) {
      *target = parse_value(v);
      if (t.enable != nullptr) *t.enable = true;
    };
  };
  tool.add(action("--chaos-seed", "<n>", "fault-plan RNG seed",
                  arming(t.seed, parse<u64>)));
  tool.add(action("--chaos-rate", "<p>",
                  "per-instruction fault probability, in [0, 1]",
                  arming(t.rate, parse_rate)));
  if (t.cam_rate != nullptr) {
    tool.add(action("--cam-rate", "<p>",
                    "per-refill CAM drop/duplicate probability",
                    arming(t.cam_rate, parse_rate)));
  }
  tool.add(value("--max-faults", t.max_faults, "<n>",
                 "fault budget (0 = unlimited)"));
  if (t.kinds != nullptr) {
    tool.add(action("--kinds", "<kind,...>",
                    ("fault kinds: " + kind_names(", ")).c_str(),
                    [t](const std::string& v) { *t.kinds = parse_kinds(v); }));
  }
}

void Rollback::apply(sim::MachineConfig* config) const {
  if (no_pkr_save) config->kernel.save_pkr_on_switch = false;
  if (on || interval != 0) {
    config->checkpoint_interval = interval != 0 ? interval : 25'000;
    config->max_rollbacks = max_rollbacks;
  }
}

void add_rollback(Tool& tool, Rollback* rb) {
  tool.add(sw("--rollback", &rb->on,
              "checkpoint, and roll back unrecoverable machine checks"));
  tool.add(value("--ckpt-interval", &rb->interval, "<n>",
                 "instructions between checkpoints (default 25000)"));
  tool.add(value("--max-rollbacks", &rb->max_rollbacks, "<n>",
                 "rollbacks before the process is killed"));
  tool.add(sw("--no-pkr-save", &rb->no_pkr_save,
              "no trusted PKR shadow across context switches"));
}

void add_workload_pick(Tool& tool, WorkloadPick* pick) {
  tool.add(sw("--all", &pick->all, "every workload"));
  tool.add(sw("--list", &pick->list, "list the workload names and exit"));
}

std::vector<const wl::Workload*> WorkloadPick::pick(
    const std::vector<std::string>& names) const {
  if (list) {
    for (const wl::Workload& w : wl::all_workloads()) {
      std::printf("%-10s (%s)\n", w.name, wl::suite_name(w.suite));
    }
    throw Exit{0};
  }
  if (!all && names.empty()) throw UsageError();
  for (const std::string& name : names) find_workload(name);  // or throws
  std::vector<const wl::Workload*> picked;
  for (const wl::Workload& w : wl::all_workloads()) {
    bool wanted = all;
    for (const std::string& name : names) wanted |= name == w.name;
    if (wanted) picked.push_back(&w);
  }
  return picked;
}

const wl::Workload& find_workload(const std::string& name) {
  for (const wl::Workload& w : wl::all_workloads()) {
    if (name == w.name) return w;
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  if (!out.flush()) throw std::runtime_error("cannot write '" + path + "'");
}

std::vector<u8> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  return std::vector<u8>(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<u8>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out.flush()) throw std::runtime_error("cannot write '" + path + "'");
}

}  // namespace sealpk::cli
