#include "base/metric_table.h"

#include <algorithm>
#include <cstdio>

namespace geopriv::metric {

namespace {

template <class T>
void AppendFormatted(std::string& out, const char* format, T value) {
  // %.9f of the largest double needs 320 characters.
  char buf[400];
  const int n = std::snprintf(buf, sizeof(buf), format, value);
  if (n > 0) out.append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
}

}  // namespace

void AppendValue(std::string& out, const Value& value) {
  switch (value.kind) {
    case Value::Kind::kSigned:
      AppendFormatted(out, "%lld", static_cast<long long>(value.s));
      return;
    case Value::Kind::kUnsigned:
      AppendFormatted(out, "%llu", static_cast<unsigned long long>(value.u));
      return;
    case Value::Kind::kReal:
      AppendFormatted(out, value.format, value.real);
      return;
  }
}

void AppendTypeLine(std::string& out, std::string_view prefix,
                    const Family& family) {
  out += "# TYPE ";
  out += prefix;
  out += family.name;
  out += ' ';
  out += family.type;
  out += '\n';
}

void AppendSample(std::string& out, std::string_view prefix, const char* name,
                  std::string_view labels, const Value& value,
                  const PromFormat& format) {
  out += prefix;
  out += name;
  out += labels;
  out += ' ';
  if (format.real == nullptr ||
      (!format.all_real && value.kind != Value::Kind::kReal)) {
    AppendValue(out, value);
  } else if (value.kind == Value::Kind::kSigned) {
    AppendFormatted(out, format.real, static_cast<double>(value.s));
  } else if (value.kind == Value::Kind::kUnsigned) {
    AppendFormatted(out, format.real, static_cast<double>(value.u));
  } else {
    AppendFormatted(out, format.real, value.real);
  }
  out += '\n';
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string PromLabelEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace geopriv::metric
