// End-to-end benchmark driver.
//
//   vr_perfbench --workload serve_miss|serve_hot --seed N
//                --seconds S --trace 0|1 [--tiny] [--perturb-reference]
//
// Prints an environment record, then (last line) one JSON object with
// `correct`, `attempted`, `failed` and `metrics`. --trace 0 prints the
// end-to-end metrics, --trace 1 the per-layer metrics of the layer replay.
// Refuses to run (exit 3) under a sanitizer, in an unoptimised build, or
// when the thread budget does not fit the machine.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VR_PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define VR_PERFBENCH_SANITIZED 1
#endif
#endif

namespace perfbench {

ThreadBudget MakeThreadBudget() {
  ThreadBudget b;
  b.nproc = std::max<size_t>(1, std::thread::hardware_concurrency());
  b.workers = std::clamp<size_t>(b.nproc - 1, 1, 2);
  return b;
}

namespace {

/// Microseconds for a fixed amount of dependent integer work.
double CalibrationUs() {
  const int64_t t0 = NowNanos();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 1000000; ++i) {
    x = (x * 6364136223846793005ull + 1442695040888963407ull) ^ (x >> 29);
  }
  static volatile uint64_t sink;
  sink = x;
  (void)sink;
  return static_cast<double>(NowNanos() - t0) / 1e3;
}

}  // namespace

double PinToFastestCpus(size_t k) {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof set, &set);
    return set;
  }();
  std::vector<std::pair<double, int>> speed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    double best = CalibrationUs();
    for (int r = 0; r < 2; ++r) best = std::min(best, CalibrationUs());
    speed.emplace_back(best, cpu);
  }
  std::sort(speed.begin(), speed.end());
  cpu_set_t mask = allowed;
  double total_us = 0;
  size_t used = 0;
  if (speed.size() > k) CPU_ZERO(&mask);
  for (size_t i = 0; i < speed.size() && (i < k || speed.size() <= k); ++i) {
    if (speed.size() > k) CPU_SET(speed[i].second, &mask);
    total_us += speed[i].first;
    ++used;
  }
  // Threads started earlier (the server's workers) keep their own masks
  // unless set one by one.
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      sched_setaffinity(static_cast<pid_t>(std::atoi(entry->d_name)),
                        sizeof mask, &mask);
    }
    closedir(dir);
  }
  sched_setaffinity(0, sizeof mask, &mask);
  return used > 0 ? total_us / static_cast<double>(used) : 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double s = 0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof usage);
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool SameValue(const viewrewrite::Value& a, const viewrewrite::Value& b) {
  if (a.is_double() && b.is_double()) {
    const double x = a.AsDoubleExact(), y = b.AsDoubleExact();
    return std::memcmp(&x, &y, sizeof x) == 0;
  }
  if (a.is_double() || b.is_double()) return false;
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  return a == b && a.type() == b.type();
}

}  // namespace

bool SameAnswer(const ServedAnswer& a, const ServedAnswer& b) {
  if (std::memcmp(&a.value, &b.value, sizeof a.value) != 0) return false;
  if ((a.rows == nullptr) != (b.rows == nullptr)) return false;
  if (a.rows == nullptr || a.rows == b.rows) return true;
  const auto& x = *a.rows;
  const auto& y = *b.rows;
  if (x.columns != y.columns || x.is_aggregate != y.is_aggregate ||
      x.rows.size() != y.rows.size()) {
    return false;
  }
  for (size_t i = 0; i < x.rows.size(); ++i) {
    const auto& r = x.rows[i];
    const auto& s = y.rows[i];
    if (r.suppressed != s.suppressed || r.values.size() != s.values.size() ||
        std::memcmp(&r.noisy_count, &s.noisy_count, sizeof r.noisy_count)) {
      return false;
    }
    for (size_t j = 0; j < r.values.size(); ++j) {
      if (!SameValue(r.values[j], s.values[j])) return false;
    }
  }
  return true;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Timing(const std::string& name, const std::vector<double>& samples,
                    const std::string& unit) {
  Metric(name + ".p50", Quantile(samples, 0.5), unit);
  Metric(name + ".p99", Quantile(samples, 0.99), unit);
  Metric(name + ".n", static_cast<double>(samples.size()), "count");
}

void Report::Env(const std::string& key, double value) {
  Env(key, JsonNumber(value));
}

void Report::Env(const std::string& key, const std::vector<double>& values) {
  std::string list = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) list += ", ";
    list += JsonNumber(values[i]);
  }
  Env(key, list + "]");
}

void Report::Print() const {
  std::string side = "{\"env\": {";
  for (size_t i = 0; i < env_.size(); ++i) {
    if (i > 0) side += ", ";
    side += JsonString(env_[i].first) + ": " + env_[i].second;
  }
  side += "}, \"samples\": {";
  size_t k = 0;
  for (const auto& [name, n] : samples_) {
    if (k++ > 0) side += ", ";
    side += JsonString(name) + ": " + std::to_string(n);
  }
  side += "}, \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) side += ", ";
    side += JsonString(errors[i]);
  }
  side += "]}";
  std::printf("%s\n", side.c_str());

  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<size_t>(1, attempted));
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics_[i].name) + ": {\"value\": " +
           JsonNumber(metrics_[i].value) +
           ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: vr_perfbench --workload serve_miss|serve_hot "
               "--seed N --seconds S --trace 0|1 [--tiny] "
               "[--perturb-reference]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--tiny") {
      cfg.tiny = true;
    } else if (arg == "--perturb-reference") {
      cfg.perturb_reference = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
               arg == "--trace") {
      const char* v = value();
      if (v == nullptr) return Usage(("missing value for " + arg).c_str());
      char* end = nullptr;
      if (arg == "--workload") {
        cfg.workload = v;
        have_workload = true;
        continue;
      }
      if (arg == "--seed") {
        cfg.seed = std::strtoull(v, &end, 10);
        if (end == v || *end != '\0' || v[0] == '-') {
          return Usage("bad value for --seed");
        }
        have_seed = true;
        continue;
      }
      const double num = std::strtod(v, &end);
      if (end == v || *end != '\0' || !std::isfinite(num) || num < 0) {
        return Usage(("bad value for " + arg).c_str());
      }
      if (arg == "--seconds") {
        cfg.seconds = num;
        have_seconds = num > 0;
      } else {
        cfg.trace = num != 0;
        have_trace = num == 0 || num == 1;
      }
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds (> 0) and --trace (0|1) are "
                 "required");
  }
  if (cfg.workload != "serve_miss" && cfg.workload != "serve_hot") {
    return Usage("unknown workload");
  }

#ifdef VR_PERFBENCH_SANITIZED
  std::fprintf(stderr, "refusing to report: built with a sanitizer\n");
  return 3;
#endif
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "refusing to report: unoptimised build\n");
  return 3;
#endif
  const ThreadBudget budget = MakeThreadBudget();
  if (budget.workers + ThreadBudget::kGenerators > budget.nproc) {
    std::fprintf(stderr,
                 "refusing to run: %zu workers + %zu generator exceed %zu "
                 "hardware threads\n",
                 budget.workers, ThreadBudget::kGenerators, budget.nproc);
    return 3;
  }

  Report report;
  report.Env("workload", "\"" + cfg.workload + "\"");
  report.Env("seed", static_cast<double>(cfg.seed));
  report.Env("seconds", cfg.seconds);
  report.Env("trace", cfg.trace ? 1 : 0);
  report.Env("tiny", cfg.tiny ? 1 : 0);
  report.Env("nproc", static_cast<double>(budget.nproc));
  report.Env("workers", static_cast<double>(budget.workers));
  report.Env("generators", static_cast<double>(ThreadBudget::kGenerators));
  report.Env("build_type", "\"" VR_PERFBENCH_BUILD_TYPE "\"");
  report.Env("compiler", "\"" VR_PERFBENCH_COMPILER "\"");

  if (cfg.trace) {
    RunTrace(cfg, budget, report);
  } else {
    RunServe(cfg, budget, report);
  }
  report.Print();
  return 0;
}
