// Shared types of the benchmark harness: the flat parameter set run.py
// passes in from perfbench/config.json, the benchmark's own span log, and
// the result every workload fills in.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// key=value pairs from the command line: the rates, region configs,
// deadlines and latency limits of perfbench/config.json, none of them
// derived at run time. A missing or malformed key throws.
class Params {
 public:
  void Set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  double Num(const std::string& key) const;
  int Int(const std::string& key) const {
    return static_cast<int>(Num(key));
  }
  std::vector<double> List(const std::string& key) const;
  const std::string& Str(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

// Spans recorded by the harness around each call into a public layer
// function. Recorded from the main thread only; kept in memory and written
// out (merged with the service's obs span ring) when the run ends.
struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;  // index into SpanLog::spans, -1 = root
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  // Opens a span under the innermost open one; returns its index (-1 when
  // disabled).
  int Begin(const std::string& name);
  void End(int index);
  // A closed span with explicit times under the innermost open span.
  void Add(const std::string& name, uint64_t start_ns, uint64_t end_ns);
  // The same under an explicit (possibly already closed) parent.
  void AddUnder(int parent, const std::string& name, uint64_t start_ns,
                uint64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII wrapper for SpanLog::Begin/End.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name)
      : log_(log), index_(log.Begin(name)) {}
  ~ScopedSpan() { log_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    // bundles and the trace dump go here
  std::string trace_out;   // Chrome trace JSON (traced runs only)
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;  // failed correctness checks
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // In order: the end-to-end metrics (untraced run) or the per-layer
  // metrics (traced run).
  std::vector<std::pair<std::string, Metric>> metrics;
  // Honesty labels: reasons this run may not count as a pass or a gain.
  std::vector<std::string> invalid_reasons;
  // Host facts, sample counts and other figures printed beside the
  // metrics.
  std::vector<std::pair<std::string, std::string>> facts;

  void Put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, Metric{value, unit}});
  }
  void Fact(const std::string& name, const std::string& value) {
    facts.push_back({name, value});
  }
  void Fail(const std::string& error) {
    correct = false;
    errors.push_back(error);
  }
};

// Runs one workload end to end; throws std::runtime_error on a setup
// failure (which is not a correctness verdict: nothing was measured).
RunResult RunWorkload(const RunOptions& options, const Params& params);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
