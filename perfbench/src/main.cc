// perfbench_harness: runs one benchmark workload against the geopriv
// public API and prints the result as one JSON line on stdout.
//
//   perfbench_harness --workload serve_warm --seed 1 --seconds 10
//       --trace 0 --work-dir .bench_build/work --param key=value ...
//
// perfbench/run.py builds this binary, passes every parameter of
// perfbench/config.json as --param, and turns the line into the
// benchmark's result. Exit codes: 0 = ran and every correctness check
// passed, 1 = ran but a check failed, 2 = could not run.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "harness.h"
#include "obs/trace.h"
#include "service/metrics.h"

namespace perfbench {

double Params::Num(const std::string& key) const {
  const std::string& text = Str(key);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value)) {
    throw std::runtime_error("parameter " + key + " is not a number: " +
                             text);
  }
  return value;
}

std::vector<double> Params::List(const std::string& key) const {
  const std::string& text = Str(key);
  std::vector<double> out;
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    Params one;
    one.Set(key, text.substr(begin, end - begin));
    out.push_back(one.Num(key));
    begin = end + 1;
  }
  return out;
}

const std::string& Params::Str(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::runtime_error("missing parameter " + key);
  }
  return it->second;
}

int SpanLog::Begin(const std::string& name) {
  if (!enabled_) return -1;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(
      {name, geopriv::obs::NowTicks(), 0, open_.empty() ? -1 : open_.back()});
  open_.push_back(index);
  return index;
}

void SpanLog::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = geopriv::obs::NowTicks();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::Add(const std::string& name, uint64_t start_ns,
                  uint64_t end_ns) {
  AddUnder(open_.empty() ? -1 : open_.back(), name, start_ns, end_ns);
}

void SpanLog::AddUnder(int parent, const std::string& name,
                       uint64_t start_ns, uint64_t end_ns) {
  if (!enabled_) return;
  spans_.push_back({name, start_ns, end_ns, parent});
}

namespace {

std::string Number(double value) {
  // The JSON has no infinity: a percentile that only misses reach is
  // reported as 1e9 (one thousand seconds in us), far past every limit.
  if (!std::isfinite(value)) value = 1e9;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  out += geopriv::service::JsonEscape(s);
  out += '"';
  return out;
}

std::string ResultJson(const RunResult& r) {
  std::string out = "{\"correct\":";
  out += r.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += Quote(r.metrics[i].first) + ":{\"value\":" +
           Number(r.metrics[i].second.value) +
           ",\"unit\":" + Quote(r.metrics[i].second.unit) + "}";
  }
  auto list = [&out](const std::vector<std::string>& items) {
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ',';
      out += Quote(items[i]);
    }
  };
  out += "},\"errors\":[";
  list(r.errors);
  out += "],\"invalid\":[";
  list(r.invalid_reasons);
  out += "],\"facts\":{";
  for (size_t i = 0; i < r.facts.size(); ++i) {
    if (i > 0) out += ',';
    out += Quote(r.facts[i].first);
    out += ':';
    out += Quote(r.facts[i].second);
  }
  out += "}}";
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  perfbench::Params params;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) throw std::runtime_error("missing value of " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else if (flag == "--param") {
        const size_t eq = value.find('=');
        if (eq == std::string::npos) {
          throw std::runtime_error("--param wants key=value: " + value);
        }
        params.Set(value.substr(0, eq), value.substr(eq + 1));
      } else {
        throw std::runtime_error("unknown flag " + flag);
      }
    }
    if (options.work_dir.empty()) throw std::runtime_error("--work-dir unset");
    if (options.seconds <= 0.0) throw std::runtime_error("--seconds <= 0");
    const perfbench::RunResult result = perfbench::RunWorkload(options, params);
    std::printf("%s\n", perfbench::ResultJson(result).c_str());
    std::fflush(stdout);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
}
