// Serving-layer throughput: queries/sec answered by a QueryServer over a
// save/load round-tripped synopsis bundle, swept across worker-thread
// counts (1/2/4/8) with the answer cache on and off. Emits BENCH_serve.json
// alongside the human-readable table.
//
// Each row's `speedup` is its qps relative to the single-thread run in the
// same cache mode, so the thread axis is read per mode: cache-off rows
// exercise the full parse -> rewrite -> match -> cell-scan pipeline and
// scale with physical cores (`hardware_threads` is recorded so a flat
// curve on a small machine is self-explanatory), while cache-on rows
// measure the sharded LRU plus submission/answer overlap. The top-level
// `cache_speedup` (single-thread cache-on vs cache-off) is the headline
// serving-layer gain and is core-count independent.
//
// The sweep runs with coalescing OFF so the thread axis stays a pure
// pipeline measurement. A second, duplicate-heavy section then measures
// what single-flight coalescing and batched submission buy when traffic
// repeats itself: the same flood of requests over a hot set of as many
// distinct queries as there are workers, cache off (so coalescing is the
// only dedup in play), in three modes —
// per-request submits with coalescing off, the same with coalescing on,
// and SubmitBatch chunks. `duplicate_heavy.coalesce_speedup` (on vs off)
// is the headline coalescing gain; CI asserts it stays >= 2x.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "serve/query_server.h"
#include "view/synopsis_store.h"

int main() {
  using namespace viewrewrite;
  using namespace viewrewrite::bench;

  constexpr uint64_t kSeed = 20250805;
  TpchConfig config;
  auto db = GenerateTpch(config);

  const size_t n_queries = FullMode() ? 600 : 150;
  auto sql = WorkloadSql(/*w=*/1, config.scale, kSeed, n_queries);

  EngineOptions opts;
  opts.strict = true;
  opts.epsilon = 8.0;
  opts.seed = kSeed;
  ViewRewriteEngine engine(*db, PrivacyPolicy{"orders"}, opts);
  {
    Status st = engine.Prepare(sql);
    if (!st.ok()) {
      std::fprintf(stderr, "Prepare failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // Serve from a bundle that went through disk, as a real server would.
  const std::string path = "BENCH_serve_bundle.vrsy";
  std::shared_ptr<const SynopsisStore> store;
  {
    auto snapshot = SynopsisStore::FromManager(engine.views(), db->schema());
    if (!snapshot.ok()) {
      std::fprintf(stderr, "snapshot failed: %s\n",
                   snapshot.status().ToString().c_str());
      return 1;
    }
    if (Status st = snapshot->Save(path); !st.ok()) {
      std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
      return 1;
    }
    auto loaded = SynopsisStore::Load(path, db->schema());
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    store = std::make_shared<SynopsisStore>(std::move(*loaded));
  }

  const size_t submissions = FullMode() ? 20000 : 4000;
  std::printf("=== serve throughput: %zu submissions over %zu distinct "
              "queries, bundle of %zu views ===\n",
              submissions, sql.size(), store->NumViews());
  std::printf("%-8s %-8s | %-12s %-10s\n", "threads", "cache", "qps",
              "speedup");

  struct Row {
    size_t threads;
    bool cache;
    double qps;
    double speedup;
    uint64_t cache_hits;
    uint64_t cache_misses;
  };
  std::vector<Row> rows;
  double baseline_qps[2] = {0, 0};  // [cache_on] -> single-thread qps

  for (bool cache_on : {false, true}) {
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      ServeOptions options;
      options.num_threads = threads;
      options.queue_capacity = submissions;
      options.enable_cache = cache_on;
      // The sweep measures the raw pipeline and the cache; coalescing has
      // its own duplicate-heavy section below.
      options.enable_coalescing = false;
      QueryServer server(store, db->schema(), options);

      std::vector<std::future<Result<ServedAnswer>>> futures;
      futures.reserve(submissions);
      const auto t0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < submissions; ++i) {
        futures.push_back(server.Submit(sql[i % sql.size()]));
      }
      size_t failed = 0;
      for (auto& f : futures) {
        if (!f.get().ok()) ++failed;
      }
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      server.Shutdown();
      if (failed > 0) {
        std::fprintf(stderr, "%zu submissions failed\n", failed);
        return 1;
      }

      Row row;
      row.threads = threads;
      row.cache = cache_on;
      row.qps = static_cast<double>(submissions) / elapsed;
      if (threads == 1) baseline_qps[cache_on] = row.qps;
      row.speedup = row.qps / baseline_qps[cache_on];
      ServeStats stats = server.stats();
      row.cache_hits = stats.cache_hits;
      row.cache_misses = stats.cache_misses;
      rows.push_back(row);

      std::printf("%-8zu %-8s | %-12.0f %-10.2f\n", threads,
                  cache_on ? "on" : "off", row.qps, row.speedup);
    }
  }

  // ---- Duplicate-heavy section: what coalescing and batching buy. ----------
  // Real serving traffic repeats itself; this models the hot tail with a
  // flood of submissions over just 8 distinct queries, cache disabled so
  // every saved computation is the coalescer's (not the LRU's) doing.
  // Distinct count matches the worker count: with a flight live per hot
  // query, nearly every duplicate joins instead of recomputing — the
  // regime coalescing exists for. (More distinct queries than workers
  // leaves gaps with no live flight to join, which just re-measures the
  // pipeline.)
  const size_t dup_submissions = FullMode() ? 20000 : 4000;
  const size_t dup_threads = 4;
  const size_t dup_distinct = std::min<size_t>(dup_threads, sql.size());
  // Per-request modes submit from several frontend threads so a backlog
  // actually forms (one submitter can't outrun four workers); the batch
  // mode keeps a single submitter — chunked SubmitBatch is itself the
  // amortization being measured.
  const size_t dup_submitters = 4;
  const size_t batch_chunk = 64;
  struct DupRun {
    const char* mode;
    double qps = 0;
    uint64_t flights = 0;
    uint64_t coalesced_waiters = 0;
    uint64_t max_flight_group = 0;
  };
  std::vector<DupRun> dup_runs;
  std::printf("=== duplicate-heavy: %zu submissions over %zu distinct "
              "queries, %zu threads, cache off ===\n",
              dup_submissions, dup_distinct, dup_threads);
  std::printf("%-14s | %-12s %-9s %-10s %-8s\n", "mode", "qps", "flights",
              "coalesced", "maxgrp");
  for (const char* mode : {"coalesce_off", "coalesce_on", "batch"}) {
    const bool batched = std::string(mode) == "batch";
    ServeOptions options;
    options.num_threads = dup_threads;
    options.queue_capacity = dup_submissions;
    options.enable_cache = false;
    options.enable_coalescing = std::string(mode) != "coalesce_off";
    QueryServer server(store, db->schema(), options);

    std::vector<std::future<Result<ServedAnswer>>> futures;
    futures.reserve(dup_submissions);
    const auto t0 = std::chrono::steady_clock::now();
    if (batched) {
      std::vector<std::string> chunk;
      chunk.reserve(batch_chunk);
      for (size_t i = 0; i < dup_submissions; ++i) {
        chunk.push_back(sql[i % dup_distinct]);
        if (chunk.size() == batch_chunk || i + 1 == dup_submissions) {
          auto batch = server.SubmitBatch(std::move(chunk));
          for (auto& f : batch) futures.push_back(std::move(f));
          chunk.clear();
        }
      }
    } else {
      std::vector<std::vector<std::future<Result<ServedAnswer>>>> per(
          dup_submitters);
      std::vector<std::thread> submitters;
      for (size_t t = 0; t < dup_submitters; ++t) {
        submitters.emplace_back([&, t] {
          for (size_t i = t; i < dup_submissions; i += dup_submitters) {
            per[t].push_back(server.Submit(sql[i % dup_distinct]));
          }
        });
      }
      for (std::thread& t : submitters) t.join();
      for (auto& p : per) {
        for (auto& f : p) futures.push_back(std::move(f));
      }
    }
    size_t failed = 0;
    for (auto& f : futures) {
      if (!f.get().ok()) ++failed;
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    server.Shutdown();
    if (failed > 0) {
      std::fprintf(stderr, "%zu duplicate-heavy submissions failed (%s)\n",
                   failed, mode);
      return 1;
    }
    ServeStats stats = server.stats();
    DupRun run;
    run.mode = mode;
    run.qps = static_cast<double>(dup_submissions) / elapsed;
    run.flights = stats.flights;
    run.coalesced_waiters = stats.coalesced_waiters;
    run.max_flight_group = stats.max_flight_group;
    dup_runs.push_back(run);
    std::printf("%-14s | %-12.0f %-9llu %-10llu %-8llu\n", mode, run.qps,
                static_cast<unsigned long long>(run.flights),
                static_cast<unsigned long long>(run.coalesced_waiters),
                static_cast<unsigned long long>(run.max_flight_group));
  }
  const double coalesce_speedup =
      dup_runs[0].qps > 0 ? dup_runs[1].qps / dup_runs[0].qps : 0.0;
  const double batch_speedup =
      dup_runs[0].qps > 0 ? dup_runs[2].qps / dup_runs[0].qps : 0.0;
  std::printf("coalescing speedup (on vs off): %.2fx, batch: %.2fx\n",
              coalesce_speedup, batch_speedup);

  // ---- Overload section: goodput under open-loop load beyond capacity. -----
  // Closed-loop capacity first (one request at a time through the full
  // pipeline), then open-loop phases at 1x/2x/4x/10x of it, paced by a
  // 1ms submission tick so arrivals keep coming whether or not the server
  // keeps up. Cache and coalescing off (they would absorb the repeats),
  // adaptive limiter on. The no-collapse headline: goodput at 4x and 10x
  // holds near the peak instead of diving as queues fill — shed requests
  // resolve synchronously in microseconds instead of timing out after
  // occupying a slot. CI gates goodput_4x_ratio / goodput_10x_ratio and
  // shed_p99_ms from the JSON below.
  struct OverloadPhase {
    double factor;
    double offered_qps = 0;
    double goodput_qps = 0;
    uint64_t issued = 0;
    uint64_t fresh = 0;
    uint64_t shed = 0;
    uint64_t expired = 0;
    double shed_p99_ms = 0;
  };
  std::vector<OverloadPhase> overload_phases;
  double overload_capacity = 0;
  {
    ServeOptions options;
    options.num_threads = 4;
    options.queue_capacity = 256;
    options.enable_cache = false;
    options.enable_coalescing = false;
    options.overload.limiter.enabled = true;
    options.overload.limiter.initial_limit = 32;
    options.overload.limiter.min_limit = 2;
    options.overload.limiter.max_limit = 256;
    QueryServer server(store, db->schema(), options);

    using Clock = std::chrono::steady_clock;
    const auto calibration =
        FullMode() ? std::chrono::milliseconds(2000)
                   : std::chrono::milliseconds(500);
    const auto phase_len = FullMode() ? std::chrono::milliseconds(2000)
                                      : std::chrono::milliseconds(1000);
    const auto deadline = std::chrono::milliseconds(500);

    uint64_t calib_done = 0;
    {
      const Clock::time_point until = Clock::now() + calibration;
      const Clock::time_point t0 = Clock::now();
      while (Clock::now() < until) {
        if (!server.Submit(sql[calib_done % sql.size()]).get().ok()) {
          std::fprintf(stderr, "overload calibration request failed\n");
          return 1;
        }
        ++calib_done;
      }
      overload_capacity =
          static_cast<double>(calib_done) /
          std::chrono::duration<double>(Clock::now() - t0).count();
    }
    std::printf("=== overload: capacity %.0f qps, open-loop phases of %lld ms,"
                " deadline %lld ms ===\n",
                overload_capacity,
                static_cast<long long>(phase_len.count()),
                static_cast<long long>(deadline.count()));
    std::printf("%-8s | %-12s %-12s %-8s %-8s %-9s %s\n", "factor", "offered",
                "goodput", "fresh", "shed", "expired", "shed_p99_ms");

    for (const double factor : {1.0, 2.0, 4.0, 10.0}) {
      OverloadPhase phase;
      phase.factor = factor;
      const std::chrono::nanoseconds tick = std::chrono::milliseconds(1);
      const double per_tick = overload_capacity * factor *
                              std::chrono::duration<double>(tick).count();
      std::vector<std::future<Result<ServedAnswer>>> futures;
      std::vector<std::chrono::nanoseconds> submit_wall;
      std::vector<bool> ready_at_submit;
      const Clock::time_point phase_start = Clock::now();
      const Clock::time_point phase_end = phase_start + phase_len;
      Clock::time_point next_tick = phase_start;
      double carry = 0;
      size_t qi = 0;
      while (Clock::now() < phase_end) {
        next_tick += tick;
        std::this_thread::sleep_until(next_tick);
        carry += per_tick;
        auto n = static_cast<size_t>(carry);
        carry -= static_cast<double>(n);
        for (size_t i = 0; i < n; ++i) {
          const Clock::time_point t0 = Clock::now();
          auto f = server.Submit(sql[qi++ % sql.size()], {}, deadline);
          submit_wall.push_back(Clock::now() - t0);
          ready_at_submit.push_back(f.wait_for(std::chrono::seconds(0)) ==
                                    std::future_status::ready);
          futures.push_back(std::move(f));
        }
      }
      const Clock::time_point submit_stop = Clock::now();
      phase.issued = futures.size();
      phase.offered_qps =
          static_cast<double>(phase.issued) /
          std::chrono::duration<double>(submit_stop - phase_start).count();
      std::vector<std::chrono::nanoseconds> shed_latencies;
      for (size_t i = 0; i < futures.size(); ++i) {
        Result<ServedAnswer> got = futures[i].get();
        if (got.ok()) {
          ++phase.fresh;
        } else if (got.status().code() == StatusCode::kDeadlineExceeded) {
          ++phase.expired;
        } else if (got.status().code() == StatusCode::kResourceExhausted ||
                   got.status().code() == StatusCode::kUnavailable) {
          ++phase.shed;
          if (ready_at_submit[i]) shed_latencies.push_back(submit_wall[i]);
        } else {
          std::fprintf(stderr, "unexpected overload-phase error: %s\n",
                       got.status().ToString().c_str());
          return 1;
        }
      }
      phase.goodput_qps =
          static_cast<double>(phase.fresh) /
          std::chrono::duration<double>(submit_stop - phase_start).count();
      if (!shed_latencies.empty()) {
        std::sort(shed_latencies.begin(), shed_latencies.end());
        const size_t idx = (shed_latencies.size() * 99) / 100;
        phase.shed_p99_ms =
            std::chrono::duration<double, std::milli>(
                shed_latencies[std::min(idx, shed_latencies.size() - 1)])
                .count();
      }
      overload_phases.push_back(phase);
      std::printf("%-8.0f | %-12.0f %-12.0f %-8llu %-8llu %-9llu %.4f\n",
                  factor, phase.offered_qps, phase.goodput_qps,
                  static_cast<unsigned long long>(phase.fresh),
                  static_cast<unsigned long long>(phase.shed),
                  static_cast<unsigned long long>(phase.expired),
                  phase.shed_p99_ms);
    }
    server.Shutdown();
  }
  double peak_goodput = 0, goodput_4x = 0, goodput_10x = 0;
  double overload_shed_p99 = 0;
  for (const OverloadPhase& p : overload_phases) {
    peak_goodput = std::max(peak_goodput, p.goodput_qps);
    if (p.factor == 4.0) goodput_4x = p.goodput_qps;
    if (p.factor == 10.0) goodput_10x = p.goodput_qps;
    overload_shed_p99 = std::max(overload_shed_p99, p.shed_p99_ms);
  }
  const double goodput_4x_ratio =
      peak_goodput > 0 ? goodput_4x / peak_goodput : 0;
  const double goodput_10x_ratio =
      peak_goodput > 0 ? goodput_10x / peak_goodput : 0;
  std::printf("overload goodput ratios vs peak: 4x %.2f, 10x %.2f; "
              "shed p99 %.4f ms\n",
              goodput_4x_ratio, goodput_10x_ratio, overload_shed_p99);

  FILE* json = std::fopen("BENCH_serve.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_serve.json\n");
    return 1;
  }
  const double cache_speedup =
      baseline_qps[0] > 0 ? baseline_qps[1] / baseline_qps[0] : 0.0;
  std::fprintf(json,
               "{\n  \"submissions\": %zu,\n  \"distinct_queries\": %zu,"
               "\n  \"views\": %zu,\n  \"hardware_threads\": %u,"
               "\n  \"cache_speedup\": %.3f,\n  \"runs\": [\n",
               submissions, sql.size(), store->NumViews(),
               std::thread::hardware_concurrency(), cache_speedup);
  std::printf("cache speedup (1-thread on vs off): %.2fx\n", cache_speedup);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(json,
                 "    {\"threads\": %zu, \"cache\": %s, \"qps\": %.1f, "
                 "\"speedup\": %.3f, \"cache_hits\": %llu, "
                 "\"cache_misses\": %llu}%s\n",
                 r.threads, r.cache ? "true" : "false", r.qps, r.speedup,
                 static_cast<unsigned long long>(r.cache_hits),
                 static_cast<unsigned long long>(r.cache_misses),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json,
               "  \"duplicate_heavy\": {\n"
               "    \"submissions\": %zu,\n    \"distinct_queries\": %zu,\n"
               "    \"threads\": %zu,\n    \"batch_chunk\": %zu,\n"
               "    \"coalesce_speedup\": %.3f,\n"
               "    \"batch_speedup\": %.3f,\n    \"modes\": [\n",
               dup_submissions, dup_distinct, dup_threads, batch_chunk,
               coalesce_speedup, batch_speedup);
  for (size_t i = 0; i < dup_runs.size(); ++i) {
    const DupRun& r = dup_runs[i];
    std::fprintf(json,
                 "      {\"mode\": \"%s\", \"qps\": %.1f, \"flights\": %llu, "
                 "\"coalesced_waiters\": %llu, \"max_flight_group\": %llu}%s\n",
                 r.mode, r.qps, static_cast<unsigned long long>(r.flights),
                 static_cast<unsigned long long>(r.coalesced_waiters),
                 static_cast<unsigned long long>(r.max_flight_group),
                 i + 1 < dup_runs.size() ? "," : "");
  }
  std::fprintf(json, "    ]\n  },\n");
  std::fprintf(json,
               "  \"overload\": {\n"
               "    \"capacity_qps\": %.1f,\n"
               "    \"peak_goodput_qps\": %.1f,\n"
               "    \"goodput_4x_ratio\": %.3f,\n"
               "    \"goodput_10x_ratio\": %.3f,\n"
               "    \"shed_p99_ms\": %.4f,\n    \"phases\": [\n",
               overload_capacity, peak_goodput, goodput_4x_ratio,
               goodput_10x_ratio, overload_shed_p99);
  for (size_t i = 0; i < overload_phases.size(); ++i) {
    const OverloadPhase& p = overload_phases[i];
    std::fprintf(json,
                 "      {\"factor\": %.0f, \"offered_qps\": %.1f, "
                 "\"goodput_qps\": %.1f, \"fresh\": %llu, \"shed\": %llu, "
                 "\"expired\": %llu, \"shed_p99_ms\": %.4f}%s\n",
                 p.factor, p.offered_qps, p.goodput_qps,
                 static_cast<unsigned long long>(p.fresh),
                 static_cast<unsigned long long>(p.shed),
                 static_cast<unsigned long long>(p.expired), p.shed_p99_ms,
                 i + 1 < overload_phases.size() ? "," : "");
  }
  std::fprintf(json, "    ]\n  }\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_serve.json\n");
  return 0;
}
