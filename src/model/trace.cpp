#include "model/trace.h"

#include <cmath>
#include <ostream>
#include <sstream>

#include "common/json.h"
#include "common/json_parse.h"

namespace sealpk::model {

ModelConfig Trace::config() const {
  ModelConfig cfg;
  cfg.num_pkeys = num_pkeys;
  cfg.num_pages = num_pages;
  cfg.cam_entries = cam_entries;
  cfg.mutation = mutation;
  return cfg;
}

Trace make_trace(const ModelConfig& cfg, const Counterexample& ce) {
  Trace t;
  t.num_pkeys = cfg.num_pkeys;
  t.num_pages = cfg.num_pages;
  t.cam_entries = cfg.cam_entries;
  t.mutation = cfg.mutation;
  t.ops = ce.ops;
  t.kind = ce.kind;
  t.invariant = ce.invariant;
  t.message = ce.message;
  t.op_index = ce.ops.empty() ? 0 : ce.ops.size() - 1;
  return t;
}

namespace {

void append_op_json(std::ostringstream& os, const Op& op) {
  os << "    {\"op\": \"" << op_kind_name(op.kind) << "\"";
  switch (op.kind) {
    case OpKind::kAlloc:
      os << ", \"perm\": " << unsigned{op.perm};
      break;
    case OpKind::kFree:
      os << ", \"pkey\": " << unsigned{op.pkey};
      break;
    case OpKind::kMprotect:
      os << ", \"pkey\": " << unsigned{op.pkey}
         << ", \"page\": " << unsigned{op.page}
         << ", \"prot\": " << unsigned{op.prot};
      break;
    case OpKind::kSeal:
      os << ", \"pkey\": " << unsigned{op.pkey}
         << ", \"domain\": " << (op.seal_domain ? "true" : "false")
         << ", \"page\": " << (op.seal_page ? "true" : "false");
      break;
    case OpKind::kPermSeal:
      os << ", \"pkey\": " << unsigned{op.pkey}
         << ", \"range\": " << unsigned{op.range};
      break;
    case OpKind::kWrpkr:
      os << ", \"pkey\": " << unsigned{op.pkey}
         << ", \"perm\": " << unsigned{op.perm}
         << ", \"pc\": " << unsigned{op.pc};
      break;
  }
  os << "}";
}

}  // namespace

std::string trace_to_json(const Trace& trace) {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"sealpk-model-trace-v1\",\n"
     << "  \"pkeys\": " << trace.num_pkeys << ",\n"
     << "  \"pages\": " << trace.num_pages << ",\n"
     << "  \"cam\": " << trace.cam_entries << ",\n"
     << "  \"mutation\": \"" << mutation_name(trace.mutation) << "\",\n"
     << "  \"expect\": {\n"
     << "    \"kind\": \"" << json_escape(trace.kind) << "\",\n"
     << "    \"invariant\": \"" << json_escape(trace.invariant) << "\",\n"
     << "    \"op_index\": " << trace.op_index << ",\n"
     << "    \"message\": \"" << json_escape(trace.message) << "\"\n"
     << "  },\n"
     << "  \"ops\": [";
  for (size_t i = 0; i < trace.ops.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    append_op_json(os, trace.ops[i]);
  }
  if (!trace.ops.empty()) os << "\n  ";
  os << "]\n}\n";
  return os.str();
}

void write_trace(std::ostream& os, const Trace& trace) {
  os << trace_to_json(trace);
}

// ---------------------------------------------------------------------------
// Trace schema over the shared JSON reader (common/json_parse.h).
// ---------------------------------------------------------------------------

namespace {

bool get_uint(const JsonValue& obj, const char* key, u64 max, u64* out,
              std::string* error) {
  const JsonValue* v = obj.find(key);
  // The reader holds numbers as doubles: accept only integral values in
  // [0, max] before casting (the negated range test also rejects NaN and
  // infinities, whose conversion to u64 is undefined).
  if (v == nullptr || !v->is_number() ||
      !(v->number >= 0.0 && v->number <= static_cast<double>(max)) ||
      v->number != std::trunc(v->number)) {
    *error = std::string("missing or invalid field \"") + key + "\"";
    return false;
  }
  *out = static_cast<u64>(v->number);
  return true;
}

bool get_string(const JsonValue& obj, const char* key, std::string* out,
                std::string* error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_string()) {
    *error = std::string("missing or invalid field \"") + key + "\"";
    return false;
  }
  *out = v->str;
  return true;
}

bool parse_op(const JsonValue& node, Op* op, std::string* error) {
  if (!node.is_object()) {
    *error = "op is not an object";
    return false;
  }
  std::string kind;
  if (!get_string(node, "op", &kind, error)) return false;
  u64 v = 0;
  if (kind == "alloc") {
    op->kind = OpKind::kAlloc;
    if (!get_uint(node, "perm", 3, &v, error)) return false;
    op->perm = static_cast<u8>(v);
  } else if (kind == "free") {
    op->kind = OpKind::kFree;
    if (!get_uint(node, "pkey", 31, &v, error)) return false;
    op->pkey = static_cast<u8>(v);
  } else if (kind == "mprotect") {
    op->kind = OpKind::kMprotect;
    if (!get_uint(node, "pkey", 31, &v, error)) return false;
    op->pkey = static_cast<u8>(v);
    if (!get_uint(node, "page", 7, &v, error)) return false;
    op->page = static_cast<u8>(v);
    if (!get_uint(node, "prot", 3, &v, error)) return false;
    op->prot = static_cast<u8>(v);
  } else if (kind == "seal") {
    op->kind = OpKind::kSeal;
    if (!get_uint(node, "pkey", 31, &v, error)) return false;
    op->pkey = static_cast<u8>(v);
    const JsonValue* domain = node.find("domain");
    const JsonValue* page = node.find("page");
    if (domain == nullptr || domain->type != JsonValue::Type::kBool ||
        page == nullptr || page->type != JsonValue::Type::kBool) {
      *error = "seal op needs boolean \"domain\" and \"page\"";
      return false;
    }
    op->seal_domain = domain->boolean;
    op->seal_page = page->boolean;
  } else if (kind == "perm_seal") {
    op->kind = OpKind::kPermSeal;
    if (!get_uint(node, "pkey", 31, &v, error)) return false;
    op->pkey = static_cast<u8>(v);
    if (!get_uint(node, "range", kModelNumRanges - 1, &v, error)) {
      return false;
    }
    op->range = static_cast<u8>(v);
  } else if (kind == "wrpkr") {
    op->kind = OpKind::kWrpkr;
    if (!get_uint(node, "pkey", 31, &v, error)) return false;
    op->pkey = static_cast<u8>(v);
    if (!get_uint(node, "perm", 3, &v, error)) return false;
    op->perm = static_cast<u8>(v);
    if (!get_uint(node, "pc", kModelNumWrpkrPcs - 1, &v, error)) return false;
    op->pc = static_cast<u8>(v);
  } else {
    *error = "unknown op kind \"" + kind + "\"";
    return false;
  }
  return true;
}

}  // namespace

std::optional<Trace> parse_trace(const std::string& text,
                                 std::string* error) {
  std::string local;
  if (error == nullptr) error = &local;
  JsonValue root;
  try {
    root = json_parse(text);
  } catch (const std::runtime_error& e) {
    *error = e.what();
    return std::nullopt;
  }
  if (!root.is_object()) {
    *error = "trace is not a JSON object";
    return std::nullopt;
  }
  std::string schema;
  if (!get_string(root, "schema", &schema, error)) return std::nullopt;
  if (schema != "sealpk-model-trace-v1") {
    *error = "unknown schema \"" + schema + "\"";
    return std::nullopt;
  }

  Trace t;
  u64 v = 0;
  if (!get_uint(root, "pkeys", 32, &v, error)) return std::nullopt;
  t.num_pkeys = static_cast<unsigned>(v);
  if (!get_uint(root, "pages", 8, &v, error)) return std::nullopt;
  t.num_pages = static_cast<unsigned>(v);
  if (!get_uint(root, "cam", 16, &v, error)) return std::nullopt;
  t.cam_entries = static_cast<unsigned>(v);

  std::string mutation;
  if (!get_string(root, "mutation", &mutation, error)) return std::nullopt;
  const auto parsed = parse_mutation(mutation);
  if (!parsed.has_value()) {
    *error = "unknown mutation \"" + mutation + "\"";
    return std::nullopt;
  }
  t.mutation = *parsed;

  const JsonValue* expect = root.find("expect");
  if (expect == nullptr || !expect->is_object()) {
    *error = "missing \"expect\" object";
    return std::nullopt;
  }
  if (!get_string(*expect, "kind", &t.kind, error)) return std::nullopt;
  if (!get_string(*expect, "invariant", &t.invariant, error)) {
    return std::nullopt;
  }
  if (!get_string(*expect, "message", &t.message, error)) return std::nullopt;
  if (!get_uint(*expect, "op_index", 1u << 20, &t.op_index, error)) {
    return std::nullopt;
  }

  const JsonValue* ops = root.find("ops");
  if (ops == nullptr || !ops->is_array()) {
    *error = "missing \"ops\" array";
    return std::nullopt;
  }
  for (const auto& node : ops->items) {
    Op op;
    if (!parse_op(node, &op, error)) return std::nullopt;
    t.ops.push_back(op);
  }
  return t;
}

std::string verify_trace(const Trace& trace) {
  const ModelConfig cfg = trace.config();
  const ReplayResult r = replay(cfg, trace.ops);
  std::ostringstream os;
  if (trace.kind == "clean") {
    if (r.failed) {
      const auto& f = r.findings.front();
      os << "expected a clean replay but op " << r.op_index << " produced "
         << f.kind << (f.invariant.empty() ? "" : " (" + f.invariant + ")")
         << ": " << f.message;
      return os.str();
    }
    return "";
  }
  if (!r.failed) {
    os << "expected " << trace.kind << " at op " << trace.op_index
       << " but the script replayed clean";
    return os.str();
  }
  // One transition can produce several findings (the explorer reports each
  // as its own counterexample), so the expectation matches any of them.
  for (const auto& f : r.findings) {
    if (r.op_index == trace.op_index && f.kind == trace.kind &&
        f.invariant == trace.invariant && f.message == trace.message) {
      return "";
    }
  }
  const auto& f = r.findings.front();
  os << "replay mismatch: expected " << trace.kind << "/" << trace.invariant
     << " at op " << trace.op_index << " (\"" << trace.message
     << "\"), got " << f.kind << "/" << f.invariant << " at op "
     << r.op_index << " (\"" << f.message << "\")";
  return os.str();
}

}  // namespace sealpk::model
