// Metric descriptor tables: one table per metrics surface. A row holds the
// JSON key, the Prometheus family (or none, for JSON-only keys) and a
// getter over the surface's snapshot struct; the renderers below walk a
// table to emit the JSON object, the Prometheus families and the key
// schema. Rows whose value is not one number (histogram buckets, per-shard
// counts, nested objects) render themselves.

#ifndef GEOPRIV_BASE_METRIC_TABLE_H_
#define GEOPRIV_BASE_METRIC_TABLE_H_

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace geopriv::metric {

// printf formats for real values.
inline constexpr const char* kFixed6 = "%.6f";
inline constexpr const char* kFixed9 = "%.9f";
inline constexpr const char* kGeneral9 = "%.9g";
// Round-trip precision: equal doubles print equal, unequal ones differ.
inline constexpr const char* kRoundTrip = "%.17g";

// One exported number: a signed or unsigned integer printed in decimal,
// or a real printed with `format`.
struct Value {
  enum class Kind : uint8_t { kSigned, kUnsigned, kReal };
  Kind kind = Kind::kUnsigned;
  int64_t s = 0;
  uint64_t u = 0;
  double real = 0.0;
  const char* format = nullptr;
};

template <std::integral T>
constexpr Value Int(T v) {
  if constexpr (std::is_signed_v<T>) {
    return {Value::Kind::kSigned, v};
  } else {
    return {Value::Kind::kUnsigned, 0, v};
  }
}
constexpr Value Real(double v, const char* format) {
  return {Value::Kind::kReal, 0, 0, v, format};
}
constexpr Value Fixed6(double v) { return Real(v, kFixed6); }
constexpr Value General9(double v) { return Real(v, kGeneral9); }
constexpr Value RoundTrip(double v) { return Real(v, kRoundTrip); }

// A row's Prometheus family: name (without the exposition's prefix) and
// type. A null name keeps the row out of the Prometheus text.
struct Family {
  const char* name = nullptr;
  const char* type = nullptr;
};
constexpr Family Counter(const char* name) { return {name, "counter"}; }
constexpr Family Gauge(const char* name) { return {name, "gauge"}; }
inline constexpr Family kJsonOnly{};

template <class S>
struct Row {
  const char* json_key = nullptr;
  Family family = kJsonOnly;
  Value (*get)(const S&) = nullptr;
  // Custom rows (get == nullptr): `emit_json` appends the value after the
  // key; `emit_prom`, if set, appends whole families at the row's place.
  void (*emit_json)(const S&, std::string& out) = nullptr;
  void (*emit_prom)(const S&, std::string_view prefix,
                    std::string& out) = nullptr;
};

// How a table's Prometheus samples print their values. By default exactly
// as in JSON; `real` replaces the format of real values, and with
// `all_real` integers print through it too, as doubles.
struct PromFormat {
  const char* real = nullptr;
  bool all_real = false;
};

// The table's JSON keys in emission order: the key schema.
template <class S, size_t N>
consteval std::array<const char*, N> JsonKeys(const Row<S> (&rows)[N]) {
  std::array<const char*, N> keys{};
  for (size_t i = 0; i < N; ++i) keys[i] = rows[i].json_key;
  return keys;
}

void AppendValue(std::string& out, const Value& value);
// "# TYPE <prefix><name> <type>\n".
void AppendTypeLine(std::string& out, std::string_view prefix,
                    const Family& family);
// "<prefix><name><labels> <value>\n", the value printed per `format`.
void AppendSample(std::string& out, std::string_view prefix, const char* name,
                  std::string_view labels, const Value& value,
                  const PromFormat& format);

// `{"key":value,...}` for every row, in table order.
template <class S, size_t N>
void AppendJson(const Row<S> (&rows)[N], const S& snapshot,
                std::string& out) {
  out += '{';
  for (size_t i = 0; i < N; ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += rows[i].json_key;
    out += "\":";
    if (rows[i].get != nullptr) {
      AppendValue(out, rows[i].get(snapshot));
    } else {
      rows[i].emit_json(snapshot, out);
    }
  }
  out += '}';
}

// One unlabelled family per Prometheus row, in table order.
template <class S, size_t N>
void AppendPrometheus(const Row<S> (&rows)[N], const S& snapshot,
                      std::string_view prefix, std::string& out,
                      const PromFormat& format = {}) {
  for (const Row<S>& row : rows) {
    if (row.family.name == nullptr) {
      if (row.emit_prom != nullptr) row.emit_prom(snapshot, prefix, out);
      continue;
    }
    AppendTypeLine(out, prefix, row.family);
    AppendSample(out, prefix, row.family.name, "", row.get(snapshot), format);
  }
}

// Family-major over many snapshots: per Prometheus row one `# TYPE` line,
// then one sample per item, labelled {label="labels[i]"}. `labels` must
// already be escaped.
template <class S, size_t N>
void AppendLabelledPrometheus(const Row<S> (&rows)[N],
                              std::type_identity_t<std::span<const S>> items,
                              std::string_view label,
                              std::span<const std::string> labels,
                              std::string_view prefix, std::string& out,
                              const PromFormat& format = {}) {
  std::vector<std::string> labelled(items.size(), "{");
  for (size_t i = 0; i < items.size(); ++i) {
    labelled[i].append(label).append("=\"").append(labels[i]).append("\"}");
  }
  for (const Row<S>& row : rows) {
    if (row.family.name == nullptr) continue;
    AppendTypeLine(out, prefix, row.family);
    for (size_t i = 0; i < items.size(); ++i) {
      AppendSample(out, prefix, row.family.name, labelled[i],
                   row.get(items[i]), format);
    }
  }
}

// Escapes `s` for embedding inside a JSON string literal: quote,
// backslash, and control characters become their \-sequences.
std::string JsonEscape(const std::string& s);

// Escapes a Prometheus label value: backslash, double quote, and newline
// get backslash-escaped (the only three characters the text format
// requires escaping).
std::string PromLabelEscape(const std::string& s);

}  // namespace geopriv::metric

#endif  // GEOPRIV_BASE_METRIC_TABLE_H_
