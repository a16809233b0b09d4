// Shared pieces of the end-to-end benchmark: run configuration, timing and
// order statistics, the metric record printed as the final JSON line, and
// the in-memory span recorder used by the traced (layer-replay) runs.
//
// The benchmark only calls the library's public functions; nothing here
// is compiled into the library itself.
#ifndef VR_PERFBENCH_BENCH_H_
#define VR_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/query_server.h"
#include "storage/table.h"

namespace perfbench {

using viewrewrite::Database;
using viewrewrite::ServedAnswer;
using viewrewrite::SynopsisStore;

/// Command line of one run.
struct Config {
  std::string workload;  // serve_miss | serve_hot
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small inputs for the self-test; never used for reported figures.
  bool tiny = false;
  /// Self-test hook: flips one reference answer so the gate must trip.
  bool perturb_reference = false;
  std::string out_dir = ".bench_out";
};

/// Thread budget: serve workers plus the single request generator never
/// exceed the hardware threads (one core is left to the OS and the VM).
struct ThreadBudget {
  size_t nproc = 1;
  size_t workers = 1;
  static constexpr size_t kGenerators = 1;
};
ThreadBudget MakeThreadBudget();

/// Restricts every thread of the process to the `k` CPUs that run a fixed
/// integer loop fastest right now, and returns the loop's mean time on
/// them in microseconds. On a shared VM the CPUs differ by up to 1.5x at
/// any moment and the slow ones move every few seconds, so the workloads
/// call this before each set-up and round.
double PinToFastestCpus(size_t k);

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

double PeakRssMb();

/// Metrics of one run, in insertion order, plus side records (sample
/// counts, environment) printed on the lines before the result.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A timing sample summarised as <name>.p50, <name>.p99 and <name>.n.
  void Timing(const std::string& name, const std::vector<double>& samples,
              const std::string& unit);
  void Samples(const std::string& metric, size_t n) { samples_[metric] = n; }
  void Env(const std::string& key, const std::string& json_value) {
    env_.emplace_back(key, json_value);
  }
  void Env(const std::string& key, double value);
  void Env(const std::string& key, const std::vector<double>& values);

  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }

  /// Prints the environment/sample line, then the result line (last).
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::map<std::string, size_t> samples_;
  std::vector<std::pair<std::string, std::string>> env_;
};

/// One recorded span: a layer call in the traced replay. Spans of one
/// request share `request`; `parent` indexes the enclosing span (-1 for a
/// root).
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  uint32_t request;
};

/// In-memory span recorder. Disabled, Begin/End cost one branch, which is
/// how the replay measures its own tracing overhead. Spans are written to
/// a file only when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  int32_t Begin(const char* name, uint32_t request, int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowNanos(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNanos();
  }
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Microsecond durations of every span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Microsecond self time (duration minus the time covered by direct
  /// children) of every span named `name`.
  std::vector<double> SelfTimesUs(const std::string& name) const;
  /// Writes the spans as TSV (name, request, parent, start_ns, end_ns).
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name, uint32_t request, int32_t parent = -1)
      : t_(t), id_(t.Begin(name, request, parent)) {}
  ~Scope() { t_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer& t_;
  int32_t id_;
};

/// Bit-exact comparison of two served answers (scalar value and, for
/// grouped answers, every row, key, aggregate and flag).
bool SameAnswer(const ServedAnswer& a, const ServedAnswer& b);

}  // namespace perfbench

#endif  // VR_PERFBENCH_BENCH_H_
