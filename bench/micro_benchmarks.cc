// Google-benchmark microbenchmarks for the per-component costs behind the
// end-to-end numbers: parsing, rewriting, execution, synopsis publication,
// cell answering, the answer path (scalar, grouped, derived measures,
// suppression), and the DP primitives.
//
// The custom main() below also emits BENCH_answer.json — the committed
// answer-path baseline checked by ci/check.sh. Regenerate with:
//   ./build/bench/micro_benchmarks --benchmark_filter=NoSuchBench

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "aggregate/grouped_result.h"
#include "aggregate/suppression.h"
#include "datagen/tpch.h"
#include "dp/matrix_mechanism.h"
#include "dp/truncation.h"
#include "engine/viewrewrite_engine.h"
#include "exec/executor.h"
#include "rewrite/rewriter.h"
#include "sql/parser.h"
#include "view/view_manager.h"
#include "workload/workload.h"

namespace viewrewrite {
namespace {

const char* kNestedQuery =
    "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_custkey = "
    "o.o_custkey AND o.o_orderyear = 1995 AND o.o_totalprice > (SELECT "
    "AVG(o2.o_totalprice) FROM orders o2 WHERE o2.o_custkey = c.c_custkey)";

const Database& SharedDb() {
  static const Database* db = [] {
    TpchConfig config;
    config.customers = 300;
    config.parts = 200;
    return GenerateTpch(config).release();
  }();
  return *db;
}

void BM_ParseNestedQuery(benchmark::State& state) {
  for (auto _ : state) {
    auto stmt = ParseSelect(kNestedQuery);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_ParseNestedQuery);

void BM_RewriteNestedQuery(benchmark::State& state) {
  Schema schema = MakeTpchSchema();
  Rewriter rewriter(schema);
  auto stmt = ParseSelect(kNestedQuery);
  for (auto _ : state) {
    auto rq = rewriter.Rewrite(**stmt);
    benchmark::DoNotOptimize(rq);
  }
}
BENCHMARK(BM_RewriteNestedQuery);

void BM_ExecuteJoinQuery(benchmark::State& state) {
  const Database& db = SharedDb();
  Executor executor(db);
  auto stmt = ParseSelect(
      "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_custkey = "
      "o.o_custkey AND o.o_totalprice > 32768");
  for (auto _ : state) {
    auto r = executor.ExecuteScalar(**stmt);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ExecuteJoinQuery);

void BM_ExecuteRewrittenNested(benchmark::State& state) {
  const Database& db = SharedDb();
  Executor executor(db);
  Rewriter rewriter(db.schema());
  auto stmt = ParseSelect(kNestedQuery);
  auto rq = rewriter.Rewrite(**stmt);
  for (auto _ : state) {
    auto r = executor.ExecuteRewritten(*rq);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ExecuteRewrittenNested);

void BM_SynopsisPublish(benchmark::State& state) {
  const Database& db = SharedDb();
  Rewriter rewriter(db.schema());
  auto stmt = ParseSelect(kNestedQuery);
  auto rq = rewriter.Rewrite(**stmt);
  for (auto _ : state) {
    ViewManager manager(db.schema(), PrivacyPolicy{"orders"});
    auto bound = manager.RegisterRewritten(*rq, nullptr);
    Random rng(static_cast<uint64_t>(state.iterations()));
    Status st = manager.Publish(db, 8.0, &rng);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_SynopsisPublish)->Unit(benchmark::kMillisecond);

void BM_CellAnswer(benchmark::State& state) {
  const Database& db = SharedDb();
  Rewriter rewriter(db.schema());
  auto stmt = ParseSelect(kNestedQuery);
  auto rq = rewriter.Rewrite(**stmt);
  ViewManager manager(db.schema(), PrivacyPolicy{"orders"});
  auto bound = manager.RegisterRewritten(*rq, nullptr);
  Random rng(9);
  (void)manager.Publish(db, 8.0, &rng);
  for (auto _ : state) {
    auto r = manager.published()->Answer(*bound);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_CellAnswer);

void BM_LaplaceSample(benchmark::State& state) {
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Laplace(2.0));
  }
}
BENCHMARK(BM_LaplaceSample);

void BM_TruncationSelect(benchmark::State& state) {
  Random data(2);
  std::vector<double> contribs;
  for (int i = 0; i < 10000; ++i) {
    contribs.push_back(static_cast<double>(data.Zipf(64, 1.2)));
  }
  Random rng(3);
  for (auto _ : state) {
    auto tau = SelectTruncationThreshold(contribs, 0.4, 0.4, &rng);
    benchmark::DoNotOptimize(tau);
  }
}
BENCHMARK(BM_TruncationSelect);

void BM_IdentityPublish(benchmark::State& state) {
  std::vector<double> cells(static_cast<size_t>(state.range(0)), 5.0);
  Random rng(4);
  for (auto _ : state) {
    auto noisy = PublishIdentity(cells, 4.0, 1.0, &rng);
    benchmark::DoNotOptimize(noisy);
  }
}
BENCHMARK(BM_IdentityPublish)->Arg(1024)->Arg(16384);

void BM_HierarchicalPublish(benchmark::State& state) {
  std::vector<double> cells(static_cast<size_t>(state.range(0)), 5.0);
  Random rng(5);
  for (auto _ : state) {
    auto h = HierarchicalHistogram::Publish(cells, 4.0, 1.0, &rng);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_HierarchicalPublish)->Arg(1024)->Arg(16384);

void BM_WorkloadGeneration(benchmark::State& state) {
  WorkloadGenerator gen(1, 77);
  for (auto _ : state) {
    auto q = gen.Generate(16);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_WorkloadGeneration)->Unit(benchmark::kMillisecond);

// ---- Answer path: serving from the published synopsis is pure
// post-processing, so these measure the per-request cost of scalar cell
// answers (a one-dimension range and a multi-dimension NOT EXISTS),
// grouped materialization, derived-measure evaluation (AVG and VARIANCE
// resolve from (sum, sum^2, count) companions), and the minimum-frequency
// suppression pass.

const char* kAnswerScalar =
    "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 32768";
const char* kAnswerGroupedCount =
    "SELECT o_orderstatus, COUNT(*) FROM orders o GROUP BY o_orderstatus";
const char* kAnswerDerivedAvgHaving =
    "SELECT o_orderstatus, AVG(o_totalprice) FROM orders o GROUP BY "
    "o_orderstatus HAVING COUNT(*) >= 2";
const char* kAnswerDerivedVariance =
    "SELECT o_orderstatus, VARIANCE(o_totalprice) FROM orders o GROUP BY "
    "o_orderstatus";
// The NOT EXISTS rewrite leaves a predicate over two view dimensions,
// NOT ((c.c_custkey < k) AND (COALESCE(cnt, 0) >= 1)): the cache-miss
// shape that dominates the end-to-end serve benchmark.
const char* kAnswerNotExists =
    "SELECT COUNT(*) FROM customer c WHERE c.c_acctbal >= 2048 AND NOT "
    "EXISTS (SELECT * FROM orders o WHERE o.o_custkey = c.c_custkey AND "
    "o.o_custkey < 150)";

struct AnswerEnv {
  std::vector<std::string> workload;
  std::unique_ptr<ViewRewriteEngine> engine;
};

AnswerEnv& SharedAnswerEnv() {
  static AnswerEnv* env = [] {
    auto* e = new AnswerEnv;
    e->workload = {kAnswerScalar, kAnswerGroupedCount,
                   kAnswerDerivedAvgHaving, kAnswerDerivedVariance,
                   kAnswerNotExists};
    EngineOptions options;
    options.seed = 42;
    e->engine = std::make_unique<ViewRewriteEngine>(
        SharedDb(), PrivacyPolicy{"orders"}, options);
    Status st = e->engine->Prepare(e->workload);
    if (!st.ok()) {
      std::fprintf(stderr, "answer bench Prepare failed: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
    return e;
  }();
  return *env;
}

void BM_ScalarNoisyAnswer(benchmark::State& state) {
  AnswerEnv& env = SharedAnswerEnv();
  for (auto _ : state) {
    auto r = env.engine->NoisyAnswer(0);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ScalarNoisyAnswer);

void BM_GroupedCountAnswer(benchmark::State& state) {
  AnswerEnv& env = SharedAnswerEnv();
  for (auto _ : state) {
    auto r = env.engine->GroupedAnswer(1);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GroupedCountAnswer);

void BM_DerivedAvgHavingAnswer(benchmark::State& state) {
  AnswerEnv& env = SharedAnswerEnv();
  for (auto _ : state) {
    auto r = env.engine->GroupedAnswer(2);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DerivedAvgHavingAnswer);

void BM_DerivedVarianceAnswer(benchmark::State& state) {
  AnswerEnv& env = SharedAnswerEnv();
  for (auto _ : state) {
    auto r = env.engine->GroupedAnswer(3);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DerivedVarianceAnswer);

void BM_NotExistsMultidimAnswer(benchmark::State& state) {
  AnswerEnv& env = SharedAnswerEnv();
  for (auto _ : state) {
    auto r = env.engine->NoisyAnswer(4);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_NotExistsMultidimAnswer);

void BM_SuppressionPass(benchmark::State& state) {
  AnswerEnv& env = SharedAnswerEnv();
  auto baseline = env.engine->GroupedAnswer(1);
  if (!baseline.ok()) std::abort();
  aggregate::SuppressionPolicy policy{12.0};
  for (auto _ : state) {
    aggregate::GroupedData copy = *baseline;
    size_t n = aggregate::ApplySuppression(policy, &copy);
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_SuppressionPass);

// ---- Budget-WAL overhead on the publish path: the same Prepare (parse,
// rewrite, noisy publish) with and without a write-ahead budget ledger
// attached. Every epsilon spend then pays an fsync'd append before its
// noisy value is computed; the acceptance bar for the committed baseline
// is < 5% (checked by ci/check.sh).

void BM_PublishWithBudgetWal(benchmark::State& state) {
  const bool with_wal = state.range(0) != 0;
  const std::vector<std::string> workload = {kAnswerScalar,
                                             kAnswerGroupedCount};
  // Steady state: the ledger is created once per process lifetime; each
  // publish pays only the fsync'd spend appends. A huge lifetime total
  // keeps repeated iterations from exhausting the shared ledger. The
  // ledger gets its own directory, as a deployment's data dir would —
  // opening a WAL sweeps its directory for orphaned temps, and scanning a
  // crowded shared /tmp would bill unrelated files to the WAL.
  std::error_code ec;
  std::filesystem::create_directories("/tmp/vr_bench_wal_dir", ec);
  const std::string wal_path = "/tmp/vr_bench_wal_dir/publish.wal";
  if (with_wal) std::remove(wal_path.c_str());
  for (auto _ : state) {
    EngineOptions options;
    options.seed = 42;
    if (with_wal) {
      options.budget_wal_path = wal_path;
      options.lifetime_epsilon = 1e6;
    }
    ViewRewriteEngine engine(SharedDb(), PrivacyPolicy{"orders"}, options);
    Status st = engine.Prepare(workload);
    benchmark::DoNotOptimize(st);
  }
  if (with_wal) std::remove(wal_path.c_str());
}
BENCHMARK(BM_PublishWithBudgetWal)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---- BENCH_answer.json: a small always-on emitter (independent of the
// google-benchmark CLI flags) so ci/check.sh can regenerate the committed
// answer-path baseline with --benchmark_filter=NoSuchBench.

template <typename Fn>
double MeanNs(int iters, Fn&& fn) {
  fn();  // warm caches and lazy state outside the timed region
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(end - start).count() /
         static_cast<double>(iters);
}

/// Mean wall-clock of the full publish path (Prepare) in milliseconds,
/// with or without the budget WAL attached. Fresh engine and fresh WAL
/// file per run — reusing one ledger would accumulate spent epsilon until
/// Prepare hard-fails with PrivacyError.
/// Database for the WAL-overhead measurement: large enough that one
/// publish does representative work (the ledger append is a fixed
/// ~0.1 ms journal commit, so its percentage is only meaningful against
/// a publish that is not toy-sized).
const Database& WalBenchDb() {
  static const Database* db = [] {
    TpchConfig config;
    config.customers = 1500;
    config.parts = 400;
    return GenerateTpch(config).release();
  }();
  return *db;
}

double OnePublishMs(bool with_wal, const std::string& wal_path) {
  const std::vector<std::string> workload = {
      kAnswerScalar, kAnswerGroupedCount, kAnswerDerivedAvgHaving,
      kAnswerDerivedVariance};
  EngineOptions options;
  options.seed = 42;
  if (with_wal) {
    // Steady state: the ledger already exists (creation is paid once per
    // process lifetime, not per publish), so the publish pays replay +
    // reopen + the fsync'd spend appends. The huge lifetime total keeps
    // repeated iterations from exhausting the shared ledger.
    options.budget_wal_path = wal_path;
    options.lifetime_epsilon = 1e6;
  }
  ViewRewriteEngine engine(WalBenchDb(), PrivacyPolicy{"orders"}, options);
  auto start = std::chrono::steady_clock::now();
  Status st = engine.Prepare(workload);
  auto end = std::chrono::steady_clock::now();
  if (!st.ok()) {
    std::fprintf(stderr, "WAL-overhead Prepare failed: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
  return std::chrono::duration<double, std::milli>(end - start).count();
}

int WriteAnswerBaseline() {
  AnswerEnv& env = SharedAnswerEnv();
  struct Entry {
    const char* name;
    const char* kind;
    size_t rows;
    double mean_ns;
  };
  std::vector<Entry> entries;

  const struct {
    size_t index;
    const char* name;
  } scalars[] = {{0, "scalar_count"}, {4, "not_exists_multidim"}};
  for (const auto& q : scalars) {
    auto first = env.engine->NoisyAnswer(q.index);
    if (!first.ok()) {
      std::fprintf(stderr, "answer baseline %s failed: %s\n", q.name,
                   first.status().ToString().c_str());
      return 1;
    }
    entries.push_back({q.name, "scalar", 0, MeanNs(1000, [&] {
                         auto r = env.engine->NoisyAnswer(q.index);
                         benchmark::DoNotOptimize(r);
                       })});
  }
  const struct {
    size_t index;
    const char* name;
    const char* kind;
  } grouped[] = {
      {1, "grouped_count", "grouped"},
      {2, "derived_avg_having", "derived"},
      {3, "derived_variance", "derived"},
  };
  for (const auto& g : grouped) {
    auto rows = env.engine->GroupedAnswer(g.index);
    if (!rows.ok()) {
      std::fprintf(stderr, "answer baseline %s failed: %s\n", g.name,
                   rows.status().ToString().c_str());
      return 1;
    }
    entries.push_back({g.name, g.kind, rows->rows.size(),
                       MeanNs(300, [&] {
                         auto r = env.engine->GroupedAnswer(g.index);
                         benchmark::DoNotOptimize(r);
                       })});
  }
  auto baseline = env.engine->GroupedAnswer(1);
  if (!baseline.ok()) return 1;
  aggregate::SuppressionPolicy policy{12.0};
  entries.push_back({"suppression_pass", "suppression", baseline->rows.size(),
                     MeanNs(1000, [&] {
                       aggregate::GroupedData copy = *baseline;
                       size_t n = aggregate::ApplySuppression(policy, &copy);
                       benchmark::DoNotOptimize(n);
                     })});

  // Interleave off/on publish batches so drift hits both sides equally.
  // Private directory for the ledger: see BM_PublishWithBudgetWal.
  std::error_code ec;
  std::filesystem::create_directories("/tmp/vr_bench_wal_dir", ec);
  const std::string wal_path = "/tmp/vr_bench_wal_dir/answer_publish.wal";
  std::remove(wal_path.c_str());
  // Min-of-N over strictly alternating single publishes: scheduler
  // jitter on a ~12 ms publish is an order of magnitude larger than the
  // ledger delta being measured, and it is strictly additive — the
  // minimum is the undisturbed publish, and alternating at publish
  // granularity keeps slow drift from billing to one side.
  (void)OnePublishMs(/*with_wal=*/false, wal_path);  // warm caches
  (void)OnePublishMs(/*with_wal=*/true, wal_path);   // create the ledger
  double wal_off_ms = 0;
  double wal_on_ms = 0;
  for (int i = 0; i < 40; ++i) {
    const double off = OnePublishMs(/*with_wal=*/false, wal_path);
    const double on = OnePublishMs(/*with_wal=*/true, wal_path);
    if (wal_off_ms == 0 || off < wal_off_ms) wal_off_ms = off;
    if (wal_on_ms == 0 || on < wal_on_ms) wal_on_ms = on;
  }
  std::remove(wal_path.c_str());
  const double wal_overhead_pct =
      wal_off_ms > 0 ? (wal_on_ms - wal_off_ms) / wal_off_ms * 100.0 : 0.0;

  FILE* json = std::fopen("BENCH_answer.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_answer.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"workload\": %zu,\n  \"views\": %zu,\n"
               "  \"wal_overhead\": {\"publish_wal_off_ms\": %.3f, "
               "\"publish_wal_on_ms\": %.3f, \"wal_overhead_pct\": %.2f},\n"
               "  \"answers\": [\n",
               env.workload.size(), env.engine->views().views().size(),
               wal_off_ms, wal_on_ms, wal_overhead_pct);
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"kind\": \"%s\", \"rows\": %zu, "
                 "\"mean_ns\": %.1f}%s\n",
                 e.name, e.kind, e.rows, e.mean_ns,
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_answer.json\n");
  return 0;
}

}  // namespace
}  // namespace viewrewrite

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return viewrewrite::WriteAnswerBaseline();
}
