#include "obs/slo.h"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/json.h"

namespace sealpk::obs {

namespace {

[[noreturn]] void spec_error(const std::string& what) {
  throw std::runtime_error("slo spec: " + what);
}

double number_field(const JsonValue& obj, const std::string& key, bool& has) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    has = false;
    return 0.0;
  }
  if (!v->is_number()) spec_error("'" + key + "' must be a number");
  has = true;
  return v->number;
}

std::string string_field(const JsonValue& obj, const std::string& key,
                         bool required) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    if (required) spec_error("missing '" + key + "'");
    return "";
  }
  if (!v->is_string()) spec_error("'" + key + "' must be a string");
  return v->str;
}

// Deterministic short rendering for verdict details: integers print bare,
// non-integers with %.6g (never in committed artifacts, only verdicts).
std::string render(double v) {
  char buf[64];
  // The cast is defined only for values in [-2^63, 2^63); NaN and +-inf
  // fail the range test too.
  if (v >= -0x1p63 && v < 0x1p63 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

// Scalar view of a JSON value for rule comparison; false when the value
// is not scalar-comparable.
bool scalar(const JsonValue& v, double& out) {
  if (v.is_number()) {
    out = v.number;
    return true;
  }
  if (v.type == JsonValue::Type::kBool) {
    out = v.boolean ? 1.0 : 0.0;
    return true;
  }
  return false;
}

bool where_matches(const JsonValue& item, const SloRule& rule) {
  for (const auto& [key, want] : rule.where) {
    const JsonValue* v = item.find(key);
    if (v == nullptr) return false;
    if (v->is_string()) {
      if (v->str != want) return false;
    } else {
      double d = 0;
      if (!scalar(*v, d)) return false;
      char* end = nullptr;
      const double w = std::strtod(want.c_str(), &end);
      if (end == nullptr || *end != '\0' || d != w) return false;
    }
  }
  return true;
}

// Applies the rule's bounds to one value; returns "" on pass, else the
// failure description.
std::string check_bounds(const SloRule& rule, double v) {
  const double tol = rule.tolerance_pct / 100.0;
  if (rule.has_min && v < rule.min * (1.0 - tol)) {
    return "value " + render(v) + " < floor " + render(rule.min) +
           (rule.tolerance_pct > 0
                ? " (-" + render(rule.tolerance_pct) + "%)"
                : "");
  }
  if (rule.has_max && v > rule.max * (1.0 + tol)) {
    return "value " + render(v) + " > ceiling " + render(rule.max) +
           (rule.tolerance_pct > 0
                ? " (+" + render(rule.tolerance_pct) + "%)"
                : "");
  }
  if (rule.has_equals) {
    const double band = (rule.equals < 0 ? -rule.equals : rule.equals) * tol;
    const double delta = v - rule.equals;
    if (delta > band || delta < -band) {
      return "value " + render(v) + " != " + render(rule.equals);
    }
  }
  return "";
}

}  // namespace

const JsonValue* resolve_path(const JsonValue& root, const std::string& path) {
  const JsonValue* cur = &root;
  size_t i = 0;
  while (i < path.size()) {
    if (path[i] == '.') {
      ++i;
      continue;
    }
    if (path[i] == '[') {
      const size_t close = path.find(']', i);
      if (close == std::string::npos) return nullptr;
      const std::string idx = path.substr(i + 1, close - i - 1);
      char* end = nullptr;
      const unsigned long n = std::strtoul(idx.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || !cur->is_array() ||
          n >= cur->items.size()) {
        return nullptr;
      }
      cur = &cur->items[n];
      i = close + 1;
      continue;
    }
    size_t j = i;
    while (j < path.size() && path[j] != '.' && path[j] != '[') ++j;
    cur = cur->find(path.substr(i, j - i));
    if (cur == nullptr) return nullptr;
    i = j;
  }
  return cur;
}

SloSpec parse_slo_spec(const JsonValue& doc) {
  if (!doc.is_object()) spec_error("document must be an object");
  SloSpec spec;
  spec.schema = string_field(doc, "schema", /*required=*/true);
  if (spec.schema != kSloSchema) {
    spec_error("unsupported schema '" + spec.schema + "' (want " +
               kSloSchema + ")");
  }
  const JsonValue* rules = doc.find("rules");
  if (rules == nullptr || !rules->is_array()) {
    spec_error("missing 'rules' array");
  }
  for (const JsonValue& r : rules->items) {
    if (!r.is_object()) spec_error("rule must be an object");
    SloRule rule;
    rule.name = string_field(r, "name", /*required=*/true);
    rule.report = string_field(r, "report", /*required=*/true);
    rule.path = string_field(r, "path", /*required=*/true);
    rule.each = string_field(r, "each", /*required=*/false);
    rule.min = number_field(r, "min", rule.has_min);
    rule.max = number_field(r, "max", rule.has_max);
    rule.equals = number_field(r, "equals", rule.has_equals);
    bool has_tol = false;
    rule.tolerance_pct = number_field(r, "tolerance_pct", has_tol);
    bool has_req = false;
    const double req = number_field(r, "require_matches", has_req);
    if (has_req) rule.require_matches = static_cast<u64>(req);
    if (const JsonValue* where = r.find("where"); where != nullptr) {
      if (!where->is_object()) spec_error("'where' must be an object");
      for (const auto& [k, v] : where->members) {
        if (v.is_string()) {
          rule.where.emplace_back(k, v.str);
        } else if (v.is_number()) {
          rule.where.emplace_back(k, render(v.number));
        } else if (v.type == JsonValue::Type::kBool) {
          rule.where.emplace_back(k, v.boolean ? "1" : "0");
        } else {
          spec_error("'where' values must be scalars");
        }
      }
    }
    if (!rule.has_min && !rule.has_max && !rule.has_equals) {
      spec_error("rule '" + rule.name + "' has no min/max/equals bound");
    }
    spec.rules.push_back(std::move(rule));
  }
  if (spec.rules.empty()) spec_error("'rules' is empty");
  return spec;
}

SloVerdict evaluate_slo(const SloSpec& spec,
                        const std::map<std::string, JsonValue>& reports) {
  SloVerdict verdict;
  for (const SloRule& rule : spec.rules) {
    RuleVerdict rv;
    rv.name = rule.name;
    const auto rep = reports.find(rule.report);
    if (rep == reports.end()) {
      rv.pass = false;
      rv.detail = "report '" + rule.report + "' not provided";
    } else if (rule.each.empty()) {
      const JsonValue* v = resolve_path(rep->second, rule.path);
      double d = 0;
      if (v == nullptr || !scalar(*v, d)) {
        rv.pass = false;
        rv.detail = "path '" + rule.path + "' missing or not scalar";
      } else {
        rv.matched = 1;
        rv.detail = check_bounds(rule, d);
        rv.pass = rv.detail.empty();
      }
    } else {
      const JsonValue* arr = resolve_path(rep->second, rule.each);
      if (arr == nullptr || !arr->is_array()) {
        rv.pass = false;
        rv.detail = "'" + rule.each + "' missing or not an array";
      } else {
        rv.pass = true;
        for (size_t i = 0; i < arr->items.size(); ++i) {
          const JsonValue& item = arr->items[i];
          if (!where_matches(item, rule)) continue;
          ++rv.matched;
          const JsonValue* v = resolve_path(item, rule.path);
          double d = 0;
          if (v == nullptr || !scalar(*v, d)) {
            rv.pass = false;
            rv.detail = rule.each + "[" + std::to_string(i) + "]." +
                        rule.path + " missing or not scalar";
            break;
          }
          const std::string fail = check_bounds(rule, d);
          if (!fail.empty()) {
            rv.pass = false;
            rv.detail =
                rule.each + "[" + std::to_string(i) + "]: " + fail;
            break;
          }
        }
        if (rv.pass && rv.matched < rule.require_matches) {
          rv.pass = false;
          rv.detail = "matched " + std::to_string(rv.matched) +
                      " item(s), require_matches=" +
                      std::to_string(rule.require_matches);
        }
      }
    }
    verdict.pass = verdict.pass && rv.pass;
    verdict.rules.push_back(std::move(rv));
  }
  return verdict;
}

void write_slo_text(const SloVerdict& v, std::ostream& os) {
  for (const RuleVerdict& r : v.rules) {
    os << (r.pass ? "PASS" : "FAIL") << " " << r.name << " (matched "
       << r.matched << ")";
    if (!r.detail.empty()) os << ": " << r.detail;
    os << "\n";
  }
  os << "slo: " << (v.pass ? "ok" : "BREACH") << " (" << v.rules.size()
     << " rule(s))\n";
}

void write_slo_json(const SloVerdict& v, std::ostream& os) {
  os << "{\n  \"schema\": \"" << kSloSchema << "\",\n"
     << "  \"pass\": " << (v.pass ? "true" : "false") << ",\n"
     << "  \"rules\": [\n";
  for (size_t i = 0; i < v.rules.size(); ++i) {
    const RuleVerdict& r = v.rules[i];
    os << "    {\"name\": \"" << json_escape(r.name) << "\", \"pass\": "
       << (r.pass ? "true" : "false") << ", \"matched\": " << r.matched
       << ", \"detail\": \"" << json_escape(r.detail) << "\"}"
       << (i + 1 < v.rules.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace sealpk::obs
