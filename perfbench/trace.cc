// The traced run: the same seeded inputs, replayed layer by layer through
// the library's public calls with a span around each call.
//
//   publish layers  Rewriter::Rewrite over the workload,
//                   ViewManager::RegisterRewritten, then per view
//                   BudgetWal::AppendSpend (fdatasync included) and
//                   Synopsis::Build -- the calls Prepare makes.
//   serve layers    AnswerCache::Get (raw key), ParseSelect,
//                   Rewriter::Rewrite, CanonicalCacheKey, AnswerCache::Get
//                   (canonical key), SynopsisStore::Bind, Answer or
//                   AnswerGrouped, AnswerCache::Put (both keys) -- the
//                   calls one cache-missing request makes in the server.
//
// End-to-end latency is measured with tracing off (a closed loop against
// the real server); serve.machinery_us is that mean minus the mean of the
// summed layer spans of the same requests, i.e. admission, queueing, the
// promise/future hand-off, flight bookkeeping and stats.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "aggregate/suppression.h"
#include "dp/budget_wal.h"
#include "rewrite/canonical.h"
#include "serve/answer_cache.h"
#include "sql/parser.h"
#include "workloads.h"

namespace perfbench {

using namespace viewrewrite;

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back((s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

std::vector<double> Tracer::SelfTimesUs(const std::string& name) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      out.push_back((spans_[i].end_ns - spans_[i].start_ns - child_ns[i]) /
                    1e3);
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    out << s.name << '\t' << s.request << '\t' << s.parent << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

namespace {

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// Replays Prepare layer by layer on a fresh ViewManager and WAL, with the
/// engine's options and noise seed, and checks that the replay built what
/// `pub`'s Prepare built.
void ReplayPublish(const Config& cfg, const Database& db, const QuerySet& set,
                   const Published& pub, Report& report) {
  Tracer tracer(true);
  const EngineOptions options = MakeEngineOptions("");
  const PrivacyPolicy policy{"orders"};
  Rewriter rewriter(db.schema(), options.rewrite);
  ViewManager views(db.schema(), policy, options.synopsis);

  std::vector<RewrittenQuery> rewritten;
  rewritten.reserve(set.sql.size());
  {
    Scope stage(tracer, "rewrite.workload", 0);
    for (const std::string& sql : set.sql) {
      auto stmt = ParseSelect(sql, options.limits);
      if (!stmt.ok()) {
        report.Fail("replay parse: " + stmt.status().ToString());
        return;
      }
      auto rq = rewriter.Rewrite(**stmt);
      if (!rq.ok()) {
        report.Fail("replay rewrite: " + rq.status().ToString());
        return;
      }
      rewritten.push_back(std::move(*rq));
    }
  }
  {
    Scope stage(tracer, "view.register", 0);
    for (const RewrittenQuery& rq : rewritten) {
      auto bound = views.RegisterRewritten(rq, nullptr);
      if (!bound.ok()) {
        report.Fail("replay register: " + bound.status().ToString());
        return;
      }
    }
  }
  const std::string wal_path = ScratchPath(cfg, "replay") + ".wal";
  size_t cells = 0, materialized = 0, truncated = 0;
  uint64_t wal_bytes = 0;
  {
    auto wal = BudgetWal::Open(wal_path, options.epsilon);
    if (!wal.ok()) {
      report.Fail("replay WAL: " + wal.status().ToString());
      return;
    }
    Random rng(options.seed);
    const double eps_view =
        options.epsilon / static_cast<double>(views.NumViews());
    Scope stage(tracer, "view.publish", 0);
    for (const auto& view : views.views()) {
      {
        Scope s(tracer, "dp.wal_append", 0, stage.id());
        Status st = (*wal)->AppendSpend(eps_view, "synopsis:" + view->signature());
        if (!st.ok()) report.Fail("replay WAL append: " + st.ToString());
      }
      Scope s(tracer, "view.build", 0, stage.id());
      auto syn = Synopsis::Build(*view, db, policy, eps_view, options.synopsis,
                                 &rng);
      if (!syn.ok()) {
        report.Fail("replay build: " + syn.status().ToString());
        continue;
      }
      cells += syn->stats().cells;
      materialized += syn->stats().materialized_rows;
      truncated += syn->stats().truncated_rows;
    }
    wal_bytes = (*wal)->SizeBytes();
  }
  std::remove(wal_path.c_str());

  size_t engine_cells = 0;
  for (const auto& s : pub.engine->views().BuildStatsList()) {
    engine_cells += s.cells;
  }
  if (views.NumViews() != pub.engine->NumViews() || cells != engine_cells) {
    report.Fail("publish replay built a different view set than Prepare");
  }

  report.Metric("rewrite.workload_s",
                Sum(tracer.DurationsUs("rewrite.workload")) / 1e6, "s");
  report.Metric("view.register_s",
                Sum(tracer.DurationsUs("view.register")) / 1e6, "s");
  std::vector<double> build_us = tracer.DurationsUs("view.build");
  report.Metric("view.build_s", Sum(build_us) / 1e6, "s");
  std::vector<double> build_ms;
  for (double us : build_us) build_ms.push_back(us / 1e3);
  report.Timing("view.build_ms", build_ms, "ms");
  report.Timing("dp.wal_append_us", tracer.DurationsUs("dp.wal_append"), "us");
  report.Metric("view.views", static_cast<double>(views.NumViews()), "count");
  report.Metric("view.cells", static_cast<double>(cells), "count");
  report.Metric("view.materialized_rows", static_cast<double>(materialized),
                "count");
  report.Metric("view.truncated_rows", static_cast<double>(truncated), "count");
  report.Metric("dp.wal_bytes", static_cast<double>(wal_bytes), "B");
  tracer.Write(cfg.out_dir + "/trace-" + cfg.workload + "-publish.tsv");
}

struct ServeReplay {
  double wall_s = 0;
  std::vector<double> layers_us;  // per measured request: summed layer spans
  std::vector<double> terms;      // per rewritten request
};

/// Replays requests through the serve layers against a fresh AnswerCache
/// sized like the server's. `warm` requests run first (filling the cache
/// as the server's was) and are traced but not part of `layers_us`.
ServeReplay ReplayServe(const ServeSetup& setup, const std::vector<size_t>& warm,
                        const std::vector<size_t>& measured, Tracer& tracer,
                        Report& report) {
  const ServeOptions defaults;
  AnswerCache cache(defaults.cache_capacity, defaults.cache_shards,
                    defaults.cache_max_bytes);
  const SynopsisStore& store = *setup.store;
  Rewriter rewriter(setup.db->schema(), defaults.rewrite);
  ServeReplay out;
  out.layers_us.reserve(measured.size());
  const size_t first_span = tracer.spans().size();
  const double t0 = NowSeconds();
  uint32_t request = 0;
  auto one = [&](size_t idx) {
    const std::string& sql = setup.pool.sql[idx];
    Scope root(tracer, "request", request);
    const int32_t parent = root.id();
    const uint32_t r = request++;
    // The server's raw key: "r|" + verbatim SQL (no parameters here).
    const std::string raw_key = "r|" + sql;
    std::optional<AnswerCache::Entry> hit;
    {
      Scope s(tracer, "serve.cache_get", r, parent);
      hit = cache.Get(raw_key);
    }
    if (hit) return;
    Result<SelectStmtPtr> stmt = Status::OK();
    {
      Scope s(tracer, "sql.parse", r, parent);
      stmt = ParseSelect(sql, defaults.limits);
    }
    if (!stmt.ok()) return report.Fail("replay parse failed");
    Result<RewrittenQuery> rq = Status::OK();
    {
      Scope s(tracer, "rewrite.rewrite", r, parent);
      rq = rewriter.Rewrite(**stmt);
    }
    if (!rq.ok()) return report.Fail("replay rewrite failed");
    out.terms.push_back(
        static_cast<double>(rq->combination.terms.size() + rq->chain.size()));
    std::string canonical_key;
    {
      Scope s(tracer, "rewrite.canonical", r, parent);
      canonical_key = "c|" + CanonicalCacheKey(*rq, {});
    }
    {
      Scope s(tracer, "serve.cache_get", r, parent);
      hit = cache.Get(canonical_key);
    }
    if (hit) return;
    Result<BoundRewrittenQuery> bound = Status::OK();
    {
      Scope s(tracer, "serve.bind", r, parent);
      bound = store.Bind(*rq, nullptr);
    }
    if (!bound.ok()) return report.Fail("replay bind failed");
    ServedAnswer answer;
    if (setup.pool.grouped[idx]) {
      Scope s(tracer, "view.answer_grouped", r, parent);
      auto data = store.AnswerGrouped(bound->terms[0].query, {});
      if (!data.ok()) return report.Fail("replay grouped answer failed");
      aggregate::ApplySuppression(aggregate::SuppressionPolicy{}, &*data);
      answer.value = static_cast<double>(data->rows.size());
      answer.rows =
          std::make_shared<const aggregate::GroupedData>(std::move(*data));
    } else {
      Scope s(tracer, "view.answer_scalar", r, parent);
      auto v = store.Answer(*bound, {});
      if (!v.ok()) return report.Fail("replay answer failed");
      answer.value = *v;
    }
    const ServedAnswer* served = setup.verifier->First(idx);
    if (served != nullptr && !SameAnswer(*served, answer)) {
      report.Fail("replayed answer differs from the served one");
    }
    {
      Scope s(tracer, "serve.cache_put", r, parent);
      cache.Put(canonical_key, answer.value, 0, false, answer.rows);
    }
    Scope s(tracer, "serve.cache_put", r, parent);
    cache.Put(raw_key, answer.value, 0, false, answer.rows);
  };
  for (size_t idx : warm) one(idx);
  const uint32_t first_measured = request;
  for (size_t idx : measured) one(idx);
  out.wall_s = NowSeconds() - t0;

  if (tracer.enabled()) {
    const auto& spans = tracer.spans();
    std::vector<double> sum(request, 0.0);
    for (size_t i = first_span; i < spans.size(); ++i) {
      if (spans[i].parent >= 0) {
        sum[spans[i].request] += (spans[i].end_ns - spans[i].start_ns) / 1e3;
      }
    }
    out.layers_us.assign(sum.begin() + first_measured, sum.end());
  }
  return out;
}

}  // namespace

void RunTrace(const Config& cfg, const ThreadBudget& budget, Report& report) {
  PinToFastestCpus(budget.workers + ThreadBudget::kGenerators);
  std::unique_ptr<ServeSetup> setup = SetUpServe(cfg, budget, report);
  if (setup == nullptr) return;
  ReplayPublish(cfg, *setup->db, setup->pool, *setup->pub, report);

  // Server phases with tracing off: shape counters and the end-to-end
  // latency the layer spans are subtracted from.
  QueryServer& server = *setup->server;
  const ServeStats before = server.stats();
  RunWindowed(*setup, 0.2 * cfg.seconds, 0, nullptr);
  const size_t max_replay = cfg.tiny ? 2000 : 8000;
  std::vector<size_t> measured;
  const std::vector<double> e2e_us =
      RunClosedLoop(*setup, 0.2 * cfg.seconds, 0, max_replay, &measured);
  const ServeStats after = server.stats();
  CheckConservation(after, report);
  Rewriter rewriter(setup->db->schema());
  setup->verifier->CheckAgainstStore(*setup->store, rewriter,
                                     cfg.perturb_reference);

  // Warm the replay cache the way the server's was: the hot set once, or
  // the stream positions just before the measured ones.
  const size_t len = setup->stream.size();
  const size_t n_warm =
      cfg.workload == "serve_hot" ? len : std::min<size_t>(len, 2100);
  const size_t first = (setup->pos - measured.size()) % len;
  std::vector<size_t> warm;
  for (size_t k = 0; k < n_warm; ++k) {
    warm.push_back(setup->stream[(first + len - n_warm + k) % len]);
  }

  // Replays without and with spans recorded, in three alternating pairs;
  // the median relative difference is the tracing overhead. The first
  // traced replay supplies the per-layer spans.
  Tracer traced(true);
  Tracer untraced(false);
  ServeReplay on;
  std::vector<double> overhead, overhead_us;
  const double requests = static_cast<double>(warm.size() + measured.size());
  for (int k = 0; k < 3; ++k) {
    const double off_s = ReplayServe(*setup, warm, measured, untraced, report).wall_s;
    double on_s;
    if (k == 0) {
      on = ReplayServe(*setup, warm, measured, traced, report);
      on_s = on.wall_s;
    } else {
      Tracer again(true);
      on_s = ReplayServe(*setup, warm, measured, again, report).wall_s;
    }
    overhead.push_back((on_s - off_s) / off_s);
    overhead_us.push_back(1e6 * (on_s - off_s) / requests);
  }

  for (const char* layer :
       {"sql.parse", "rewrite.rewrite", "rewrite.canonical", "serve.bind",
        "view.answer_scalar", "view.answer_grouped", "serve.cache_get",
        "serve.cache_put"}) {
    report.Timing(std::string(layer) + "_us", traced.DurationsUs(layer), "us");
  }
  report.Metric("rewrite.terms_per_query", Mean(on.terms), "count");
  report.Metric("rewrite.terms_per_query.max",
                on.terms.empty() ? 0 : *std::max_element(on.terms.begin(),
                                                          on.terms.end()),
                "count");
  const double e2e_mean = Mean(e2e_us);
  const double layers_mean = Mean(on.layers_us);
  report.Metric("serve.e2e_mean_us", e2e_mean, "us");
  report.Samples("serve.e2e_mean_us", e2e_us.size());
  report.Metric("serve.layers_mean_us", layers_mean, "us");
  report.Metric("serve.machinery_us", e2e_mean - layers_mean, "us");
  report.Metric("replay.request_self_us", Mean(traced.SelfTimesUs("request")),
                "us");
  report.Metric("trace.overhead_pct", 100.0 * Median(overhead), "%");
  report.Metric("trace.overhead_us", Median(overhead_us), "us");

  const double submitted =
      static_cast<double>(after.submitted - before.submitted);
  auto per_request = [&](uint64_t a, uint64_t b) {
    return submitted > 0 ? static_cast<double>(a - b) / submitted : 0.0;
  };
  const uint64_t lookups = (after.cache_hits - before.cache_hits) +
                           (after.cache_misses - before.cache_misses);
  report.Metric("serve.cache_hit_ratio",
                lookups > 0 ? static_cast<double>(after.cache_hits -
                                                  before.cache_hits) /
                                  static_cast<double>(lookups)
                            : 0.0,
                "ratio");
  report.Metric("serve.hit_share",
                per_request(after.cache_short_circuits,
                            before.cache_short_circuits),
                "ratio");
  report.Metric("serve.flights", per_request(after.flights, before.flights),
                "count/req");
  report.Metric("serve.coalesced_waiters",
                per_request(after.coalesced_waiters, before.coalesced_waiters),
                "count/req");
  report.Metric("serve.cache_evictions",
                per_request(after.cache_evictions, before.cache_evictions),
                "count/req");
  report.Metric("serve.snapshot_s", setup->snapshot_s, "s");
  report.Metric("serve.save_s", setup->save_s, "s");
  report.Metric("serve.load_s", setup->load_s, "s");

  report.Env("replayed_requests", static_cast<double>(measured.size()));
  report.Env("warm_requests", static_cast<double>(warm.size()));
  report.Env("pool_size", static_cast<double>(setup->pool.sql.size()));
  report.Env("hit_share", per_request(after.cache_short_circuits,
                                      before.cache_short_circuits));
  traced.Write(cfg.out_dir + "/trace-" + cfg.workload + "-serve.tsv");
}

}  // namespace perfbench
