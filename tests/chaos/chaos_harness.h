#ifndef VIEWREWRITE_TESTS_CHAOS_CHAOS_HARNESS_H_
#define VIEWREWRITE_TESTS_CHAOS_CHAOS_HARNESS_H_

// Deterministic chaos harness: one seed drives one full
// publish -> save -> load -> serve run with every registered fault point
// armed at seed-derived probabilities, and checks the system-wide
// invariants the resilience layer promises:
//
//   1. No crash, no uncaught exception (the run returns).
//   2. No deadlock: every submitted future resolves within a bounded
//      wait; the whole run finishes in bounded wall time.
//   3. The privacy ledger is never over-spent, no matter which publish
//      stages failed (spent <= total, both in the engine accountant and
//      in the persisted bundle header).
//   4. Every served response is one of: bit-identical to the fault-free
//      answer, the same value flagged stale, or a typed error from the
//      small set the resilience layer emits. Nothing else — no silent
//      wrong answers.
//   5. Coalescing conservation: every accepted request resolves through
//      exactly one of the serve channels, so after shutdown
//        flights + coalesced_waiters + cache_short_circuits
//          + expired_in_queue + shed_hopeless + shed_displaced == submitted
//      holds exactly — coalescing under faults, reloads, deadlines and
//      overload shedding never loses or double-resolves a request.
//   6. Synopsis lifecycle: a Republisher races hot Reloads races query
//      traffic for the whole serve phase, with the republish fault points
//      armed. A torn bundle is impossible (any mid-run or final Load that
//      returns Corruption is a violation); every successful answer is
//      bit-identical to the baseline of the generation it claims
//      (wrong-epoch answers can never travel unflagged); the cross-epoch
//      budget ledger never exceeds the lifetime total no matter which
//      generations failed where (refunds only for generations that never
//      became observable); and no flight waiter is stranded by a swap.
//
// "Deterministic" means the fault schedule is fully reproducible from the
// seed (probabilistic triggers use dedicated seeded PRNGs); the checked
// invariants are valid under any thread interleaving.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "aggregate/grouped_result.h"
#include "aggregate/suppression.h"
#include "common/fault_injection.h"
#include "engine/viewrewrite_engine.h"
#include "serve/overload.h"
#include "serve/query_server.h"
#include "serve/republisher.h"
#include "view/synopsis_store.h"
#include "testing/test_db.h"

namespace viewrewrite {
namespace chaos {

struct ChaosConfig {
  /// Requests submitted in the serve phase.
  size_t num_requests = 400;
  size_t num_threads = 4;
  /// Upper bound on injected-failure probability per fault point; the
  /// seed picks the actual value per phase in [0, max).
  double max_publish_fault_p = 0.25;
  double max_serve_fault_p = 0.35;
  /// Per-future resolution bound; exceeding it is the deadlock signal.
  std::chrono::seconds future_wait{60};
  /// Where the bundle goes; empty picks a per-seed name under /tmp.
  std::string bundle_path;
  /// Republish generations attempted by the lifecycle thread while the
  /// serve phase runs (each may retry internally under fresh generation
  /// numbers). 0 disables the lifecycle racing entirely.
  size_t num_republishes = 3;
};

struct ChaosRunResult {
  uint64_t published_views = 0;
  uint64_t fresh = 0;       // responses bit-identical to the baseline
  uint64_t stale = 0;       // degraded responses (value still baseline)
  uint64_t errors = 0;      // typed errors
  // Coalescing observability (from the server's post-shutdown stats):
  // how the accepted requests split across the four resolution channels,
  // and the largest single-flight group the seed produced.
  uint64_t submitted = 0;
  uint64_t flights = 0;
  uint64_t coalesced_waiters = 0;
  uint64_t cache_short_circuits = 0;
  uint64_t expired_in_queue = 0;
  uint64_t max_flight_group = 0;
  bool coalescing_enabled = false;
  bool prepare_ok = false;
  bool reload_attempted = false;
  // Synopsis-lifecycle observability (from the Republisher's stats and
  // the server's, after every thread joined).
  bool republish_attempted = false;
  uint64_t generations_attempted = 0;
  uint64_t generations_published = 0;
  uint64_t views_rebuilt = 0;
  uint64_t rebuild_failures = 0;
  uint64_t outdated_served = 0;
  // Grouped-serving observability: requests answered row-wise, rows the
  // minimum-frequency rule suppressed across all fresh grouped answers,
  // and the suppression threshold this seed served under.
  uint64_t grouped_fresh = 0;
  uint64_t suppressed_rows = 0;
  double min_group_count = 0;
  // Overload-control observability: admission sheds (injected fault or
  // saturated limiter), queue-discipline drops, displacement evictions,
  // and sheds the brownout converted into stale cache answers.
  bool limiter_enabled = false;
  bool brownout_enabled = false;
  uint64_t shed_admission = 0;
  uint64_t shed_hopeless = 0;
  uint64_t shed_displaced = 0;
  uint64_t brownout_served = 0;
  /// Invariant violations; empty means the seed passed.
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
};

namespace internal {

inline double UniformP(std::mt19937_64& rng, double max_p) {
  return std::uniform_real_distribution<double>(0.0, max_p)(rng);
}

/// Typed errors the serve path may legitimately emit under injected
/// faults. Anything outside this set is an invariant violation.
inline bool IsAllowedServeError(StatusCode code) {
  switch (code) {
    case StatusCode::kInternal:           // the injected fault itself
    case StatusCode::kUnavailable:        // breaker open / queue / shutdown
    case StatusCode::kDeadlineExceeded:   // per-request deadline
    case StatusCode::kNotFound:           // no stored view covers the query
    case StatusCode::kResourceExhausted:  // overload shed (limiter/displaced)
      return true;
    default:
      return false;
  }
}

/// Typed errors a republish generation may legitimately end with under
/// injected faults. PrivacyError is the hard-fail-before-over-spend path
/// (the lifetime budget genuinely ran out — the invariant working, not
/// breaking). Corruption is conspicuously absent: a republish that reads
/// back a torn bundle would be a durability violation.
inline bool IsAllowedRepublishError(StatusCode code) {
  switch (code) {
    case StatusCode::kInternal:      // injected republish/build/save fault
    case StatusCode::kUnavailable:   // republish breaker open
    case StatusCode::kPrivacyError:  // lifetime budget exhausted
      return true;
    default:
      return false;
  }
}

/// A mid-run Reload(path) may fail only through the injected fault or the
/// store breaker. Corruption here means rename atomicity broke — a reader
/// saw a torn bundle.
inline bool IsAllowedReloadError(StatusCode code) {
  return code == StatusCode::kInternal || code == StatusCode::kUnavailable;
}

inline bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_numeric() != b.is_numeric()) return false;
  if (a.is_numeric()) return a.ToDouble() == b.ToDouble();
  return a.AsString() == b.AsString();
}

/// Bit-identity for grouped answers, the row-wise analogue of the scalar
/// `got->value == baseline` check: same columns, same rows in the same
/// order, every cell identical, and the suppression flags matching —
/// so a served row is either baseline-exact or suppressed exactly where
/// the policy suppressed the baseline.
inline bool SameGroupedData(const aggregate::GroupedData& a,
                            const aggregate::GroupedData& b) {
  if (a.columns != b.columns || a.rows.size() != b.rows.size()) return false;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    if (a.rows[i].suppressed != b.rows[i].suppressed) return false;
    if (a.rows[i].values.size() != b.rows[i].values.size()) return false;
    for (size_t j = 0; j < a.rows[i].values.size(); ++j) {
      if (!SameValue(a.rows[i].values[j], b.rows[i].values[j])) return false;
    }
  }
  return true;
}

}  // namespace internal

/// Runs one seeded chaos scenario end to end. Never throws; all failures
/// are reported through ChaosRunResult::violations.
inline ChaosRunResult RunChaosSeed(uint64_t seed, ChaosConfig config = {}) {
  ChaosRunResult result;
  // The republisher and reload threads report violations concurrently
  // with the main thread.
  std::mutex violations_mu;
  auto violate = [&result, &violations_mu](const std::string& what) {
    std::lock_guard<std::mutex> lock(violations_mu);
    result.violations.push_back(what);
  };
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  FaultInjection& faults_registry = FaultInjection::Instance();
  faults_registry.DisableAll();

  // ---- Fixed workload over the mini TPC-H test database. -------------------
  std::unique_ptr<Database> db = testing_support::MakeTestDatabase(13, 40);
  const std::vector<std::string> workload = {
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64",
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 128",
      "SELECT COUNT(*) FROM orders o WHERE o.o_status = 'f'",
      "SELECT SUM(o_totalprice) FROM orders o WHERE o.o_status = 'o'",
      "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_custkey = "
      "o.o_custkey AND c.c_nation = 1",
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64 OR "
      "o.o_status = 'p'",
      // Grouped aggregates: served row-wise through the same pipeline,
      // with the minimum-frequency rule suppressing small noisy groups
      // and HAVING evaluated post-noise. The AVG query registers only
      // (sum, count) measures — the serve path derives the ratio.
      "SELECT o_status, COUNT(*) FROM orders o GROUP BY o_status",
      "SELECT o_status, AVG(o_totalprice) FROM orders o GROUP BY o_status "
      "HAVING COUNT(*) >= 2",
  };

  // ---- Publish phase under injected faults (degraded mode). ----------------
  const double publish_p =
      internal::UniformP(rng, config.max_publish_fault_p);
  for (const char* point :
       {faults::kParse, faults::kRewrite, faults::kViewRegister,
        faults::kViewPublish, faults::kDpMechanism}) {
    faults_registry.FailWithProbability(point, publish_p, rng());
  }

  EngineOptions engine_options;
  engine_options.seed = seed;  // noise differs per seed; baseline tracks it
  // Lifetime reserve beyond the initial publication's epsilon: the serve
  // phase's republish generations draw from it under cross-epoch
  // sequential composition, and enough seeds exhaust it that the
  // hard-fail-before-over-spend path is exercised too.
  engine_options.lifetime_epsilon = 12.0;
  ViewRewriteEngine engine(*db, PrivacyPolicy{"customer"}, engine_options);
  const Status prepared = engine.Prepare(workload);
  faults_registry.DisableAll();
  result.prepare_ok = prepared.ok();
  result.published_views = engine.views().NumPublished();

  // Invariant 3, engine side: whatever failed, the ledger never
  // over-spends (refunds from failed view publications are netted out).
  const EngineStats& estats = engine.stats();
  if (estats.budget_spent_epsilon > estats.budget_total_epsilon + 1e-9) {
    violate("budget over-spent after faulted publish: spent " +
            std::to_string(estats.budget_spent_epsilon) + " of " +
            std::to_string(estats.budget_total_epsilon));
  }
  if (!prepared.ok() || result.published_views == 0) {
    // A fully-quarantined workload is a legitimate chaos outcome: the run
    // ends at publish with the budget invariant intact.
    return result;
  }

  // ---- Fault-free baseline: what each query must answer. -------------------
  // Computed from the chaos-published engine with all faults disarmed, so
  // the baseline reflects exactly the views that survived this seed's
  // publish-phase faults. Quarantined queries have no baseline value and
  // are excluded from value checks (any typed outcome is acceptable).
  // Suppression policy for this seed: sometimes off, sometimes biting
  // (per-group counts in the test DB hover around a dozen, so 12.0
  // suppresses whichever groups the noise lands low). The serve phase and
  // every baseline apply the identical policy — suppression is
  // deterministic post-processing of the noisy counts, so it can never
  // introduce divergence between them.
  const aggregate::SuppressionPolicy suppression{
      (rng() % 2 == 0) ? 12.0 : 0.0};
  result.min_group_count = suppression.min_group_count;

  std::vector<size_t> servable;
  std::vector<bool> is_grouped(workload.size(), false);
  std::vector<double> baseline(workload.size(), 0);
  std::map<size_t, aggregate::GroupedData> grouped_baseline;
  for (size_t i = 0; i < workload.size(); ++i) {
    if (engine.bound(i).IsGrouped()) {
      is_grouped[i] = true;
      Result<aggregate::GroupedData> rows = engine.GroupedAnswer(i);
      if (rows.ok()) {
        aggregate::ApplySuppression(suppression, &*rows);
        grouped_baseline[i] = std::move(*rows);
        servable.push_back(i);
      }
      continue;
    }
    Result<double> ans = engine.NoisyAnswer(i);
    if (ans.ok()) {
      baseline[i] = *ans;
      servable.push_back(i);
    }
  }
  if (servable.empty()) return result;

  // ---- Save/load through disk, with storage faults armed. ------------------
  const std::string path =
      config.bundle_path.empty()
          ? "/tmp/vr_chaos_" + std::to_string(seed) + ".vrsy"
          : config.bundle_path;
  Result<SynopsisStore> snapshot =
      SynopsisStore::FromManager(engine.views(), db->schema());
  if (!snapshot.ok()) {
    violate("FromManager failed on published views: " +
            snapshot.status().ToString());
    return result;
  }
  {
    ScopedFault save_fault = ScopedFault::WithProbability(
        faults::kServeSave, internal::UniformP(rng, config.max_serve_fault_p),
        rng());
    ScopedFault load_fault = ScopedFault::WithProbability(
        faults::kServeLoad, internal::UniformP(rng, config.max_serve_fault_p),
        rng());
    // A failed save or load is retried; the final attempt below runs
    // clean, so the serve phase always starts from a good bundle.
    for (int attempt = 0; attempt < 3; ++attempt) {
      if (snapshot->Save(path).ok() &&
          SynopsisStore::Load(path, db->schema()).ok()) {
        break;
      }
    }
  }
  if (!snapshot->Save(path).ok()) {
    violate("fault-free Save failed after chaos saves");
    return result;
  }
  Result<SynopsisStore> loaded = SynopsisStore::Load(path, db->schema());
  if (!loaded.ok()) {
    violate("fault-free Load failed after chaos saves: " +
            loaded.status().ToString());
    return result;
  }
  // Invariant 3, bundle side: the persisted ledger is consistent.
  if (loaded->ledger().spent_epsilon > loaded->ledger().total_epsilon + 1e-9) {
    violate("persisted ledger over-spent");
  }

  // ---- Serve phase under answer/reload faults. -----------------------------
  ServeOptions serve_options;
  serve_options.num_threads = config.num_threads;
  // Batched submissions fan one loop iteration into several futures, so
  // the queue must absorb more than num_requests tasks.
  serve_options.queue_capacity = config.num_requests * 3 + 16;
  serve_options.enable_cache = (rng() % 4) != 0;  // mostly on, sometimes off
  serve_options.enable_coalescing = (rng() % 5) != 0;  // mostly on
  result.coalescing_enabled = serve_options.enable_coalescing;
  serve_options.retry.max_attempts = 3;
  serve_options.retry.initial_backoff = std::chrono::microseconds(50);
  serve_options.retry.max_backoff = std::chrono::microseconds(400);
  serve_options.answer_breaker.failure_threshold = 6;
  serve_options.answer_breaker.open_duration = std::chrono::milliseconds(2);
  serve_options.serve_stale = true;
  serve_options.min_group_count = suppression.min_group_count;
  // Overload control, seed-varied. This harness is closed-loop (submit
  // everything, then wait), so deep queues are its normal operating
  // point; the limiter is sized to the queue so its slot accounting,
  // AIMD events and release-on-every-path lifecycle race with faults,
  // displacement and shutdown without genuine-saturation sheds drowning
  // the run (the open-loop overload harness owns that regime). Admission
  // sheds here come from the serve.overload fault armed below; some
  // seeds enable brownout so a slice of those sheds comes back as stale
  // cache answers instead of typed errors.
  serve_options.overload.limiter.enabled = (rng() % 2 == 0);
  serve_options.overload.limiter.initial_limit =
      static_cast<double>(serve_options.queue_capacity);
  serve_options.overload.limiter.min_limit =
      static_cast<double>(serve_options.queue_capacity);
  serve_options.overload.limiter.max_limit =
      static_cast<double>(serve_options.queue_capacity) * 2;
  serve_options.overload.enable_brownout = (rng() % 2 == 0);
  serve_options.overload.brownout_shed_threshold = 4;
  result.limiter_enabled = serve_options.overload.limiter.enabled;
  result.brownout_enabled = serve_options.overload.enable_brownout;

  uint64_t deadline_hits = 0;
  {
    QueryServer server(
        std::make_shared<const SynopsisStore>(std::move(*loaded)),
        db->schema(), serve_options);

    ScopedFault answer_fault = ScopedFault::WithProbability(
        faults::kServeAnswer,
        internal::UniformP(rng, config.max_serve_fault_p), rng());
    ScopedFault reload_fault = ScopedFault::WithProbability(
        faults::kServeReload,
        internal::UniformP(rng, config.max_serve_fault_p), rng());
    ScopedFault reload_load_fault = ScopedFault::WithProbability(
        faults::kServeLoad,
        internal::UniformP(rng, config.max_serve_fault_p), rng());
    // Synopsis-lifecycle fault points: entering a generation, the
    // per-view delta rebuild, the durable save, and the bundle swap.
    ScopedFault republish_fault = ScopedFault::WithProbability(
        faults::kServeRepublish,
        internal::UniformP(rng, config.max_serve_fault_p), rng());
    ScopedFault rebuild_fault = ScopedFault::WithProbability(
        faults::kRepublishBuild,
        internal::UniformP(rng, config.max_serve_fault_p), rng());
    ScopedFault swap_fault = ScopedFault::WithProbability(
        faults::kRepublishSwap,
        internal::UniformP(rng, config.max_serve_fault_p), rng());
    ScopedFault repub_save_fault = ScopedFault::WithProbability(
        faults::kServeSave,
        internal::UniformP(rng, config.max_serve_fault_p), rng());
    // Admission-shed fault: forces the overload shed path (typed
    // ResourceExhausted, or a stale brownout answer when enabled) on a
    // slice of submissions regardless of genuine load.
    ScopedFault overload_fault = ScopedFault::WithProbability(
        faults::kServeOverload,
        internal::UniformP(rng, config.max_serve_fault_p / 2), rng());

    // Per-generation baselines: generation -> (query index -> the exact
    // value that generation's cells answer). Generation 0 is the initial
    // publication; later entries are recorded by the on_saved hook at the
    // only unambiguous moment — after the bundle is durable, before the
    // swap, while the republish lock still excludes the next generation.
    // A generation that saved but failed to swap still gets a baseline,
    // because a mid-run Reload(path) can legitimately serve it.
    std::mutex baselines_mu;
    std::map<uint64_t, std::map<size_t, double>> gen_baselines;
    std::map<uint64_t, std::map<size_t, aggregate::GroupedData>> gen_grouped;
    {
      std::map<size_t, double>& g0 = gen_baselines[0];
      for (size_t qi : servable) {
        if (!is_grouped[qi]) g0[qi] = baseline[qi];
      }
      gen_grouped[0] = grouped_baseline;
    }

    // Pre-draw the lifecycle plan so thread scheduling never perturbs the
    // seed's deterministic fault schedule.
    std::vector<std::vector<std::string>> republish_plan;
    for (size_t i = 0; i < config.num_republishes; ++i) {
      republish_plan.push_back(
          (rng() % 2 == 0)
              ? std::vector<std::string>{"orders"}
              : std::vector<std::string>{"customer", "orders"});
    }

    RepublisherOptions repub_options;
    repub_options.bundle_path = path;
    repub_options.generation_epsilon = 0.8;
    repub_options.max_attempts = 2;
    repub_options.retry.max_attempts = 2;
    repub_options.retry.initial_backoff = std::chrono::microseconds(50);
    repub_options.retry.max_backoff = std::chrono::microseconds(400);
    repub_options.breaker.failure_threshold = 4;
    repub_options.breaker.open_duration = std::chrono::milliseconds(1);
    repub_options.cache_eviction_lag = 2;
    repub_options.on_saved = [&](uint64_t generation) {
      std::lock_guard<std::mutex> lock(baselines_mu);
      std::map<size_t, double>& g = gen_baselines[generation];
      std::map<size_t, aggregate::GroupedData>& gg = gen_grouped[generation];
      for (size_t qi : servable) {
        if (is_grouped[qi]) {
          Result<aggregate::GroupedData> rows = engine.GroupedAnswer(qi);
          if (rows.ok()) {
            aggregate::ApplySuppression(suppression, &*rows);
            gg[qi] = std::move(*rows);
          }
        } else {
          Result<double> ans = engine.NoisyAnswer(qi);
          if (ans.ok()) g[qi] = *ans;
        }
      }
    };
    Republisher republisher(&engine, db->schema(), &server, repub_options);
    result.republish_attempted = !republish_plan.empty();

    // The lifecycle race: republish generations, hot reloads from disk,
    // and query traffic all run concurrently for the whole serve phase.
    std::thread republish_thread([&] {
      for (const std::vector<std::string>& changed : republish_plan) {
        Result<RepublishReport> rep = republisher.RepublishNow(changed);
        if (!rep.ok() &&
            !internal::IsAllowedRepublishError(rep.status().code())) {
          violate("unexpected republish error: " + rep.status().ToString());
        }
      }
    });
    std::thread reload_thread([&] {
      for (int i = 0; i < 2; ++i) {
        std::this_thread::sleep_for(std::chrono::microseconds(700));
        Status st = server.Reload(path);
        if (!st.ok() && !internal::IsAllowedReloadError(st.code())) {
          violate("mid-run reload returned disallowed error "
                  "(torn bundle?): " + st.ToString());
        }
      }
    });

    std::vector<size_t> request_query;
    std::vector<std::future<Result<ServedAnswer>>> futures;
    request_query.reserve(config.num_requests);
    futures.reserve(config.num_requests);
    for (size_t r = 0; r < config.num_requests; ++r) {
      const size_t qi = servable[r % servable.size()];
      // Seed-drawn priority class: strict-priority dequeue and
      // lowest-class-first shedding run against a mixed population, and
      // every class must satisfy the same answer invariants.
      const Priority prio = static_cast<Priority>(rng() % kNumPriorities);
      request_query.push_back(qi);
      if (r % 13 == 7) {
        // Batched duplicate submission: three copies of the same text in
        // one SubmitBatch. The duplicates dedup within the batch and must
        // resolve to exactly what their primary resolves to.
        std::vector<std::future<Result<ServedAnswer>>> batch =
            server.SubmitBatch({workload[qi], workload[qi], workload[qi]},
                               {}, std::chrono::nanoseconds(0), prio);
        for (auto& f : batch) futures.push_back(std::move(f));
        // Three futures came back for one loop iteration: record the
        // query index for the two extra ones too.
        request_query.push_back(qi);
        request_query.push_back(qi);
      } else if (r % 7 == 3) {
        // A sprinkle of tight deadlines; expiry is an allowed outcome.
        futures.push_back(server.Submit(workload[qi], {},
                                        std::chrono::microseconds(200), prio));
      } else {
        futures.push_back(server.Submit(workload[qi], {},
                                        std::chrono::nanoseconds(0), prio));
      }
      if (r == config.num_requests / 2) {
        // Mid-traffic hot reload of the same bundle: epoch advances,
        // in-flight queries finish against the old epoch, and the
        // baseline stays valid because the cells are identical. Failure
        // is fine — the old bundle keeps serving — but only through the
        // allowed error set: Corruption would mean a torn bundle.
        result.reload_attempted = true;
        Status st = server.Reload(path);
        if (!st.ok() && !internal::IsAllowedReloadError(st.code())) {
          violate("mid-loop reload returned disallowed error "
                  "(torn bundle?): " + st.ToString());
        }
      }
    }

    // Quiesce the lifecycle before judging answers: once both threads
    // join, gen_baselines is complete and immutable, so the value checks
    // below read it without locking.
    republish_thread.join();
    reload_thread.join();

    // Invariants 2 and 4/6: every future resolves in bounded time, to a
    // value bit-identical to the baseline of the generation it claims, a
    // stale copy from some published generation, or an allowed typed
    // error.
    for (size_t r = 0; r < futures.size(); ++r) {
      if (futures[r].wait_for(config.future_wait) !=
          std::future_status::ready) {
        violate("deadlock suspected: request " + std::to_string(r) +
                " unresolved after bounded wait");
        return result;  // .get() below would hang; stop here
      }
      Result<ServedAnswer> got = futures[r].get();
      const size_t qi = request_query[r];
      if (got.ok() && is_grouped[qi]) {
        // Grouped answers are judged row-wise: every served row must be
        // bit-identical to the claimed generation's baseline row —
        // baseline-exact where the baseline is exact, suppressed exactly
        // where the policy suppressed the baseline. Stale grouped
        // answers must match SOME generation's baseline row set.
        if (got->stale) {
          ++result.stale;
        } else {
          ++result.fresh;
          ++result.grouped_fresh;
        }
        if (got->rows == nullptr) {
          violate("grouped response for query " + std::to_string(qi) +
                  " carries no rows");
          continue;
        }
        for (const aggregate::GroupedRow& row : got->rows->rows) {
          if (row.suppressed) ++result.suppressed_rows;
        }
        if (got->stale) {
          bool known = false;
          for (const auto& gen : gen_grouped) {
            auto it = gen.second.find(qi);
            if (it != gen.second.end() &&
                internal::SameGroupedData(*got->rows, it->second)) {
              known = true;
              break;
            }
          }
          if (!known) {
            violate("stale grouped response for query " + std::to_string(qi) +
                    " matches no generation's baseline row set");
          }
        } else {
          auto gen_it = gen_grouped.find(got->generation);
          if (gen_it == gen_grouped.end() ||
              gen_it->second.find(qi) == gen_it->second.end()) {
            violate("grouped query " + std::to_string(qi) +
                    " has no baseline in generation " +
                    std::to_string(got->generation));
          } else if (!internal::SameGroupedData(*got->rows,
                                                gen_it->second.at(qi))) {
            violate("grouped response for query " + std::to_string(qi) +
                    " diverged from generation " +
                    std::to_string(got->generation) +
                    " baseline: a row is neither baseline-exact nor "
                    "suppressed-by-policy");
          }
        }
        continue;
      }
      if (got.ok()) {
        if (got->stale) {
          // A stale answer is a cached value from some earlier epoch; the
          // entry does not carry its generation, so the check is
          // membership: the value must be bit-identical to SOME
          // generation's baseline for this query. Anything else is a
          // silent wrong answer.
          bool known = false;
          for (const auto& gen : gen_baselines) {
            auto it = gen.second.find(qi);
            if (it != gen.second.end() && it->second == got->value) {
              known = true;
              break;
            }
          }
          if (!known) {
            violate("stale response for query " + std::to_string(qi) +
                    " matches no generation's baseline: got " +
                    std::to_string(got->value));
          }
          ++result.stale;
        } else {
          // Fresh answers claim a generation; they must be bit-identical
          // to that generation's baseline — a wrong-epoch answer can
          // never travel unflagged.
          auto gen_it = gen_baselines.find(got->generation);
          if (gen_it == gen_baselines.end()) {
            violate("fresh response for query " + std::to_string(qi) +
                    " claims unknown generation " +
                    std::to_string(got->generation));
          } else {
            auto val_it = gen_it->second.find(qi);
            if (val_it == gen_it->second.end()) {
              violate("query " + std::to_string(qi) +
                      " has no baseline in generation " +
                      std::to_string(got->generation));
            } else if (got->value != val_it->second) {
              violate("response for query " + std::to_string(qi) +
                      " diverged from generation " +
                      std::to_string(got->generation) + " baseline: got " +
                      std::to_string(got->value) + " want " +
                      std::to_string(val_it->second));
            }
          }
          ++result.fresh;
        }
      } else {
        ++result.errors;
        if (!internal::IsAllowedServeError(got.status().code())) {
          violate("unexpected error type for query " + std::to_string(qi) +
                  ": " + got.status().ToString());
        }
        if (got.status().code() == StatusCode::kDeadlineExceeded) {
          ++deadline_hits;
        }
      }
    }

    server.Shutdown();
    const ServeStats sstats = server.stats();
    if (sstats.completed != result.fresh + result.stale) {
      violate("stats.completed disagrees with resolved futures");
    }
    if (sstats.deadline_exceeded != deadline_hits) {
      violate("stats.deadline_exceeded disagrees with observed responses");
    }
    // Invariant 5: conservation. Every accepted request went through
    // exactly one resolution channel — it led a flight, joined one,
    // short-circuited on a fresh cache hit, expired while queued, or was
    // shed by the queue discipline (hopeless drop / displacement).
    result.submitted = sstats.submitted;
    result.flights = sstats.flights;
    result.coalesced_waiters = sstats.coalesced_waiters;
    result.cache_short_circuits = sstats.cache_short_circuits;
    result.expired_in_queue = sstats.expired_in_queue;
    result.max_flight_group = sstats.max_flight_group;
    result.shed_admission = sstats.shed_admission;
    result.shed_hopeless = sstats.shed_hopeless;
    result.shed_displaced = sstats.shed_displaced;
    result.brownout_served = sstats.brownout_served;
    if (sstats.flights + sstats.coalesced_waiters +
            sstats.cache_short_circuits + sstats.expired_in_queue +
            sstats.shed_queue !=
        sstats.submitted) {
      violate("conservation violated: flights " +
              std::to_string(sstats.flights) + " + coalesced_waiters " +
              std::to_string(sstats.coalesced_waiters) +
              " + cache_short_circuits " +
              std::to_string(sstats.cache_short_circuits) +
              " + expired_in_queue " +
              std::to_string(sstats.expired_in_queue) + " + shed_queue " +
              std::to_string(sstats.shed_queue) + " != submitted " +
              std::to_string(sstats.submitted));
    }
    // Admission-side accounting: sheds and brownout conversions happen
    // before a request is accepted, so they never double-count against
    // the submitted channels above.
    if (sstats.brownout_served > sstats.completed) {
      violate("brownout_served exceeds completed");
    }
    if (!serve_options.enable_coalescing && sstats.coalesced_waiters >
            sstats.batch_deduped) {
      violate("coalesced waiters observed with coalescing disabled "
              "(beyond batch dedup)");
    }
    if (sstats.max_flight_group > 0 && sstats.flights == 0) {
      violate("flight group recorded without any flight");
    }

    // Invariant 6: lifecycle observability + cross-epoch budget. Every
    // generation, published or refunded, charged the ONE lifetime ledger
    // under sequential composition; whatever mix of faults this seed
    // produced, the engine accountant never exceeds the lifetime total.
    result.outdated_served = sstats.outdated_served;
    const RepublisherStats rstats = republisher.stats();
    result.generations_attempted = rstats.generations_attempted;
    result.generations_published = rstats.generations_published;
    result.views_rebuilt = rstats.views_rebuilt;
    result.rebuild_failures = rstats.rebuild_failures;
    const EngineStats& post = engine.stats();
    if (post.budget_spent_epsilon > post.budget_total_epsilon + 1e-9) {
      violate("cross-epoch budget over-spent after republishes: spent " +
              std::to_string(post.budget_spent_epsilon) + " of " +
              std::to_string(post.budget_total_epsilon));
    }
  }

  faults_registry.DisableAll();
  // Durability epilogue: whatever interleaving of saves, republishes and
  // crashes-by-fault this seed produced, the bundle on disk must be a
  // complete, loadable generation with a consistent ledger — rename
  // atomicity means a torn file is impossible.
  Result<SynopsisStore> final_load = SynopsisStore::Load(path, db->schema());
  if (!final_load.ok()) {
    violate("final fault-free Load failed (torn or missing bundle): " +
            final_load.status().ToString());
  } else if (final_load->ledger().spent_epsilon >
             final_load->ledger().total_epsilon + 1e-9) {
    violate("final persisted ledger over-spent");
  }
  std::remove(path.c_str());
  return result;
}

}  // namespace chaos
}  // namespace viewrewrite

#endif  // VIEWREWRITE_TESTS_CHAOS_CHAOS_HARNESS_H_
