// The serve workloads: a QueryServer over a published pool, driven by one
// generator thread. Throughput comes from timed segments of the request
// cycle with a fixed window of requests in flight; latency comes from a
// separate closed loop with one client, so it is unloaded latency. Each
// segment keeps its fast-decile duration and each text its best round (see
// FastCycleRate and KeepBestRound in workloads.h).
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>

#include "workloads.h"

namespace perfbench {

using namespace viewrewrite;

void Verifier::Record(size_t idx, const Result<ServedAnswer>& r) {
  ++report_.attempted;
  if (!r.ok()) {
    ++report_.failed;
    if (report_.failed <= 3) {
      std::fprintf(stderr, "request failed: %s\n",
                   r.status().ToString().c_str());
    }
    return;
  }
  if (!first_[idx]) {
    first_[idx] = *r;
  } else if (!SameAnswer(*first_[idx], *r)) {
    report_.Fail("text " + std::to_string(idx) +
                 " was served two different answers");
  }
}

void Verifier::CheckAgainstStore(const SynopsisStore& store,
                                 const Rewriter& rewriter, bool perturb) {
  size_t compared = 0;
  for (size_t i = 0; i < first_.size(); ++i) {
    if (!first_[i]) continue;
    Result<ServedAnswer> direct = DirectAnswer(store, rewriter, pool_.sql[i]);
    if (!direct.ok()) {
      report_.Fail("direct answer failed: " + direct.status().ToString());
      continue;
    }
    if (perturb && compared == 0) {
      direct->value = std::nextafter(direct->value, 1e300);
    }
    ++compared;
    if (!SameAnswer(*first_[i], *direct)) {
      report_.Fail("served answer for text " + std::to_string(i) +
                   " differs from the direct store answer");
    }
  }
  if (compared == 0) report_.Fail("no served answer was checked");
}

void CheckConservation(const ServeStats& s, Report& report) {
  const uint64_t resolved = s.flights + s.coalesced_waiters +
                            s.cache_short_circuits + s.expired_in_queue +
                            s.shed_hopeless + s.shed_displaced;
  if (resolved != s.submitted) {
    report.Fail("serve conservation law broken: " + std::to_string(resolved) +
                " resolved vs " + std::to_string(s.submitted) + " submitted");
  }
}

std::unique_ptr<ServeSetup> SetUpServe(const Config& cfg,
                                       const ThreadBudget& budget,
                                       Report& report) {
  auto setup = std::make_unique<ServeSetup>();
  setup->pool = MakeServePool(cfg);
  setup->stream = MakeStream(cfg, setup->pool);
  setup->verifier = std::make_unique<Verifier>(setup->pool, report);
  const bool hot = cfg.workload == "serve_hot";
  setup->window = 16 * budget.workers;
  const size_t len = setup->stream.size();
  // serve_miss: 16 segments per cycle (300 requests, ~20 ms); serve_hot:
  // whole cycles of 64 hits, 16 384 requests (~50 ms) per segment.
  constexpr size_t kSegmentsPerCycle = 16;
  const size_t hot_segment = cfg.tiny ? 1024 : 16384;
  setup->segment = hot ? len * std::max<size_t>(1, hot_segment / len)
                   : len % kSegmentsPerCycle == 0 ? len / kSegmentsPerCycle
                                                  : len;
  setup->latency_round = len * std::max<size_t>(1, 4096 / len);
  setup->db = MakeDatabase(setup->pool.scale);
  setup->pub = Publish(cfg, *setup->db, setup->pool, report);

  // Serve from a bundle that went through disk, as a deployed server does.
  const Schema& schema = setup->db->schema();
  double t0 = NowSeconds();
  auto snapshot = SynopsisStore::FromManager(setup->pub->engine->views(), schema);
  setup->snapshot_s = NowSeconds() - t0;
  if (!snapshot.ok()) {
    report.Fail("snapshot failed: " + snapshot.status().ToString());
    return nullptr;
  }
  const std::string bundle = ScratchPath(cfg, "bundle") + ".vrsy";
  t0 = NowSeconds();
  Status saved = snapshot->Save(bundle);
  setup->save_s = NowSeconds() - t0;
  t0 = NowSeconds();
  auto loaded = SynopsisStore::Load(bundle, schema);
  setup->load_s = NowSeconds() - t0;
  std::error_code ec;
  std::filesystem::remove(bundle, ec);
  if (!saved.ok() || !loaded.ok()) {
    report.Fail("bundle round trip failed: " + saved.ToString() + " / " +
                loaded.status().ToString());
    return nullptr;
  }
  setup->store = std::make_shared<const SynopsisStore>(std::move(*loaded));

  ServeOptions options;
  options.num_threads = budget.workers;
  setup->server =
      std::make_unique<QueryServer>(setup->store, schema, options);

  // Warm-up: serve_hot fills the cache with its 64 texts; serve_miss runs
  // enough of the cycle to fill the cache so every timed Put evicts.
  const size_t warm = hot ? 4 * setup->stream.size()
                          : std::min<size_t>(setup->stream.size(), 4096);
  RunWindowed(*setup, 0, warm, nullptr);
  return setup;
}

void RunWindowed(ServeSetup& setup, double seconds, size_t max_requests,
                 Recurring* segments) {
  QueryServer& server = *setup.server;
  const size_t len = setup.stream.size();
  // Stream positions in flight, in submission order; the generator waits
  // on the oldest, so completions are consumed in stream order.
  std::deque<std::pair<size_t, std::future<Result<ServedAnswer>>>> inflight;
  size_t submitted = 0;
  bool open = true;
  auto submit = [&] {
    const size_t pos = setup.pos;
    inflight.emplace_back(pos, server.Submit(setup.pool.sql[setup.Next()]));
    ++submitted;
    if (max_requests > 0 && submitted >= max_requests) open = false;
  };
  while (open && submitted < setup.window) submit();
  const double start = NowSeconds();
  // The last segment boundary seen: the stream position it starts at and
  // when the request before it completed.
  size_t boundary = SIZE_MAX;
  double boundary_s = 0;
  while (!inflight.empty()) {
    auto [pos, future] = std::move(inflight.front());
    inflight.pop_front();
    setup.verifier->Record(setup.stream[pos % len], future.get());
    if (open && (pos + 1) % setup.segment == 0) {
      const double now = NowSeconds();
      if (segments != nullptr && boundary == pos + 1 - setup.segment) {
        (*segments)[boundary % len].push_back(now - boundary_s);
      }
      boundary = pos + 1;
      boundary_s = now;
      if (max_requests == 0 && now - start >= seconds) open = false;
    }
    if (open) submit();
  }
}

std::vector<double> RunClosedLoop(ServeSetup& setup, double seconds,
                                  size_t min_requests, size_t max_requests,
                                  std::vector<size_t>* positions) {
  QueryServer& server = *setup.server;
  std::vector<double> latency_us;
  const double start = NowSeconds();
  // The clock is read every 64 requests, outside the timed requests.
  while ((max_requests == 0 || latency_us.size() < max_requests) &&
         (latency_us.size() < min_requests || latency_us.size() % 64 != 0 ||
          NowSeconds() - start < seconds)) {
    const size_t idx = setup.Next();
    const int64_t t0 = NowNanos();
    std::future<Result<ServedAnswer>> f = server.Submit(setup.pool.sql[idx]);
    Result<ServedAnswer> r = f.get();
    latency_us.push_back(static_cast<double>(NowNanos() - t0) / 1e3);
    setup.verifier->Record(idx, r);
    if (positions != nullptr) positions->push_back(idx);
  }
  return latency_us;
}

void RunServe(const Config& cfg, const ThreadBudget& budget, Report& report) {
  // Set-up repeated so setup_s is a median; the last one is measured. A
  // failed set-up has already recorded why in the report.
  const int kSetups = cfg.tiny ? 1 : 5;
  std::vector<double> setup_s, prepare_s;
  std::unique_ptr<ServeSetup> setup;
  const size_t threads = budget.workers + ThreadBudget::kGenerators;
  for (int k = 0; k < kSetups; ++k) {
    setup.reset();
    PinToFastestCpus(threads);
    const double t0 = NowSeconds();
    setup = SetUpServe(cfg, budget, report);
    setup_s.push_back(NowSeconds() - t0);
    if (setup == nullptr) return;
    prepare_s.push_back(setup->pub->prepare_s);
  }
  QueryServer& server = *setup->server;
  const ServeStats before = server.stats();

  // Timed rounds spread each phase over the whole run: saturation
  // throughput, then unloaded latency, and every other round (with the
  // server idle) a fresh Prepare of the pool under the next noise seed.
  const int rounds = cfg.tiny ? 2 : 20;
  Recurring segments;
  std::map<size_t, double> best_latency_us;
  std::vector<double> errors;
  AppendRelativeErrors(*setup->pub, setup->pool, &errors);
  size_t latencies = 0;
  std::vector<double> calibration_us;
  int republished = 0;
  for (int r = 0; r < rounds; ++r) {
    calibration_us.push_back(PinToFastestCpus(threads));
    RunWindowed(*setup, 0.4 * cfg.seconds / rounds, 0, &segments);

    std::vector<size_t> texts;
    const std::vector<double> latency_us =
        RunClosedLoop(*setup, 0.6 * cfg.seconds / rounds,
                      setup->latency_round, 0, &texts);
    Recurring by_text;
    for (size_t i = 0; i < latency_us.size(); ++i) {
      by_text[texts[i]].push_back(latency_us[i]);
    }
    KeepBestRound(by_text, &best_latency_us);
    latencies += latency_us.size();

    if (r % 2 == 0 && !cfg.tiny) continue;
    const int noise = ++republished % kNoiseSeeds;
    std::unique_ptr<Published> fresh =
        Publish(cfg, *setup->db, setup->pool, report, noise);
    ++report.attempted;
    if (!fresh->engine->report().AllHealthy()) ++report.failed;
    prepare_s.push_back(fresh->prepare_s);
    if (republished < kNoiseSeeds) {
      AppendRelativeErrors(*fresh, setup->pool, &errors);
    }
  }
  const ServeStats after = server.stats();

  // Correctness, outside the timed phases.
  CheckConservation(after, report);
  Rewriter rewriter(setup->db->schema());
  setup->verifier->CheckAgainstStore(*setup->store, rewriter,
                                     cfg.perturb_reference);

  const double submitted =
      static_cast<double>(after.submitted - before.submitted);
  const double short_circuits =
      static_cast<double>(after.cache_short_circuits -
                          before.cache_short_circuits);

  report.Metric("setup_s", Median(setup_s), "s");
  report.Samples("setup_s", setup_s.size());
  report.Metric("publish_s", FastLow(prepare_s), "s");
  report.Samples("publish_s", prepare_s.size());
  report.Metric("median_rel_error", Median(errors), "ratio");
  report.Samples("median_rel_error", errors.size());
  size_t timed_segments = 0;
  for (const auto& entry : segments) timed_segments += entry.second.size();
  report.Metric("qps", FastCycleRate(segments, setup->segment), "1/s");
  report.Samples("qps", timed_segments);
  report.Metric("p50_us", BestQuantile(best_latency_us, 0.5), "us");
  report.Metric("p99_us", BestQuantile(best_latency_us, 0.99), "us");
  report.Samples("p50_us", latencies);
  report.Samples("p99_us", latencies);
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");

  report.Env("prepare_s", prepare_s);
  report.Env("calibration_us", calibration_us);
  report.Env("scale", setup->pool.scale);
  report.Env("pool_size", static_cast<double>(setup->pool.sql.size()));
  report.Env("pool_grouped", static_cast<double>(setup->pool.num_grouped));
  report.Env("stream_distinct", static_cast<double>(setup->stream.size()));
  report.Env("window", static_cast<double>(setup->window));
  report.Env("segment", static_cast<double>(setup->segment));
  report.Env("segment_keys", static_cast<double>(segments.size()));
  report.Env("latency_round", static_cast<double>(setup->latency_round));
  report.Env("views", static_cast<double>(setup->store->NumViews()));
  report.Env("hit_share", submitted > 0 ? short_circuits / submitted : 0);
  report.Env("cache_capacity", static_cast<double>(ServeOptions{}.cache_capacity));
}

}  // namespace perfbench
