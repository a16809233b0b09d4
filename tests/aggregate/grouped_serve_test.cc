#include <gtest/gtest.h>
#include <unistd.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "aggregate/grouped_result.h"
#include "aggregate/suppression.h"
#include "engine/viewrewrite_engine.h"
#include "serve/query_server.h"
#include "view/synopsis_store.h"
#include "testing/test_db.h"

namespace viewrewrite {
namespace {

// The acceptance path for the aggregate serving subsystem: a grouped AVG
// with a HAVING clause, registered only through its (sum, count)
// companion measures, published once, round-tripped through a .vrsy
// bundle, and served through QueryServer::Submit — cached, coalescible,
// and suppression-filtered.
constexpr char kGroupedCount[] =
    "SELECT o_status, COUNT(*) FROM orders o GROUP BY o_status";
constexpr char kGroupedAvgHaving[] =
    "SELECT o_status, AVG(o_totalprice) FROM orders o GROUP BY o_status "
    "HAVING COUNT(*) >= 2";
constexpr char kScalar[] =
    "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64";
constexpr char kEmptySum[] =
    "SELECT SUM(o_totalprice) FROM orders o WHERE o.o_totalprice >= 100000";

class GroupedServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing_support::MakeTestDatabase(13, 40);
    workload_ = {kGroupedCount, kGroupedAvgHaving, kScalar, kEmptySum};
    EngineOptions options;
    options.seed = 42;
    engine_ = std::make_unique<ViewRewriteEngine>(
        *db_, PrivacyPolicy{"customer"}, options);
    ASSERT_TRUE(engine_->Prepare(workload_).ok());
    for (size_t i = 0; i < engine_->report().query_status.size(); ++i) {
      ASSERT_TRUE(engine_->report().query_status[i].ok())
          << workload_[i] << ": " << engine_->report().query_status[i];
    }

    bundle_path_ = ::testing::TempDir() + "grouped_serve." +
                   std::to_string(::getpid()) + ".vrsy";
    auto snapshot =
        SynopsisStore::FromManager(engine_->views(), db_->schema());
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    ASSERT_TRUE(snapshot->Save(bundle_path_).ok());
    auto loaded = SynopsisStore::Load(bundle_path_, db_->schema());
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    store_ = std::make_shared<const SynopsisStore>(std::move(*loaded));
  }

  /// Engine-side expectation with the serve-side policy applied.
  aggregate::GroupedData Expected(size_t i, double min_group_count) {
    Result<aggregate::GroupedData> rows = engine_->GroupedAnswer(i);
    EXPECT_TRUE(rows.ok()) << rows.status();
    aggregate::GroupedData data =
        rows.ok() ? std::move(*rows) : aggregate::GroupedData{};
    aggregate::ApplySuppression(
        aggregate::SuppressionPolicy{min_group_count}, &data);
    return data;
  }

  static void ExpectSameRows(const aggregate::GroupedData& got,
                             const aggregate::GroupedData& want) {
    ASSERT_EQ(got.columns, want.columns);
    ASSERT_EQ(got.rows.size(), want.rows.size());
    for (size_t r = 0; r < got.rows.size(); ++r) {
      EXPECT_EQ(got.rows[r].suppressed, want.rows[r].suppressed);
      ASSERT_EQ(got.rows[r].values.size(), want.rows[r].values.size());
      for (size_t c = 0; c < got.rows[r].values.size(); ++c) {
        const Value& a = got.rows[r].values[c];
        const Value& b = want.rows[r].values[c];
        ASSERT_EQ(a.is_null(), b.is_null());
        if (a.is_null()) continue;
        if (a.is_numeric()) {
          EXPECT_DOUBLE_EQ(a.ToDouble(), b.ToDouble());
        } else {
          EXPECT_EQ(a.AsString(), b.AsString());
        }
      }
    }
  }

  std::unique_ptr<Database> db_;
  std::vector<std::string> workload_;
  std::unique_ptr<ViewRewriteEngine> engine_;
  std::string bundle_path_;
  std::shared_ptr<const SynopsisStore> store_;
};

TEST_F(GroupedServeTest, AvgRegistersOnlySumAndCountCompanions) {
  // AVG itself is never materialized: the planner resolves it to the
  // (sum, count) companions at register time, so serving AVG later is
  // pure post-processing.
  bool saw_sum = false;
  for (const auto& view : engine_->views().views()) {
    for (const ViewMeasure& m : view->measures()) {
      EXPECT_NE(m.kind, ViewMeasure::Kind::kAvg) << m.key;
      if (m.kind == ViewMeasure::Kind::kSum) saw_sum = true;
    }
  }
  EXPECT_TRUE(saw_sum);
}

TEST_F(GroupedServeTest, SubmitServesGroupedRowsMatchingTheEngine) {
  ServeOptions options;
  options.num_threads = 4;
  QueryServer server(store_, db_->schema(), options);

  for (size_t i = 0; i < 2; ++i) {
    Result<ServedAnswer> got = server.Submit(workload_[i]).get();
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_NE(got->rows, nullptr) << workload_[i];
    EXPECT_FALSE(got->stale);
    // The scalar field carries the row count for grouped answers.
    EXPECT_DOUBLE_EQ(got->value,
                     static_cast<double>(got->rows->rows.size()));
    ExpectSameRows(*got->rows, Expected(i, /*min_group_count=*/0));
  }
  // Scalar queries keep a null row set through the same pipeline.
  Result<ServedAnswer> scalar = server.Submit(kScalar).get();
  ASSERT_TRUE(scalar.ok()) << scalar.status();
  EXPECT_EQ(scalar->rows, nullptr);

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.grouped_queries, 2u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST_F(GroupedServeTest, HavingFiltersGroupsPostNoise) {
  // The HAVING COUNT(*) >= 2 variant can only drop rows relative to the
  // unfiltered grouped count — and both must agree on surviving keys.
  ServeOptions options;
  QueryServer server(store_, db_->schema(), options);
  Result<ServedAnswer> all = server.Submit(kGroupedCount).get();
  Result<ServedAnswer> having = server.Submit(kGroupedAvgHaving).get();
  ASSERT_TRUE(all.ok() && having.ok());
  ASSERT_NE(all->rows, nullptr);
  ASSERT_NE(having->rows, nullptr);
  EXPECT_LE(having->rows->rows.size(), all->rows->rows.size());
  ExpectSameRows(*having->rows, Expected(1, /*min_group_count=*/0));
}

TEST_F(GroupedServeTest, CacheHandsOutTheSameRowSetObject) {
  ServeOptions options;
  options.num_threads = 2;
  QueryServer server(store_, db_->schema(), options);
  Result<ServedAnswer> first = server.Submit(kGroupedAvgHaving).get();
  ASSERT_TRUE(first.ok()) << first.status();
  Result<ServedAnswer> second = server.Submit(kGroupedAvgHaving).get();
  ASSERT_TRUE(second.ok()) << second.status();
  // The second submission is a cache hit and shares the identical
  // immutable row set — not a recomputation, not a copy.
  ASSERT_NE(first->rows, nullptr);
  EXPECT_EQ(first->rows.get(), second->rows.get());
  ServeStats stats = server.stats();
  EXPECT_GE(stats.cache_hits, 1u);
  EXPECT_EQ(stats.grouped_queries, 1u);  // computed once
  EXPECT_GT(stats.cache_bytes, 0u);      // row sets are byte-accounted
}

TEST_F(GroupedServeTest, SuppressionFiltersSmallNoisyGroups) {
  // An impossible threshold suppresses every group: rows survive with
  // keys, aggregates are withheld, and the stats record the toll.
  ServeOptions options;
  options.min_group_count = 1e9;
  QueryServer server(store_, db_->schema(), options);
  Result<ServedAnswer> got = server.Submit(kGroupedCount).get();
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_NE(got->rows, nullptr);
  ASSERT_FALSE(got->rows->rows.empty());
  for (const aggregate::GroupedRow& row : got->rows->rows) {
    EXPECT_TRUE(row.suppressed);
    EXPECT_FALSE(row.values[0].is_null());  // group key kept
    EXPECT_TRUE(row.values[1].is_null());   // aggregate withheld
  }
  ExpectSameRows(*got->rows, Expected(0, options.min_group_count));
  EXPECT_EQ(server.stats().suppressed_groups, got->rows->rows.size());
}

TEST_F(GroupedServeTest, ModerateThresholdMatchesBaselinePolicy) {
  // Group sizes hover around 13 rows here, so a threshold of 12 lands
  // inside the noise band: whatever the serve side suppresses, the
  // baseline with the same policy must suppress identically.
  ServeOptions options;
  options.min_group_count = 12.0;
  QueryServer server(store_, db_->schema(), options);
  Result<ServedAnswer> got = server.Submit(kGroupedCount).get();
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_NE(got->rows, nullptr);
  ExpectSameRows(*got->rows, Expected(0, options.min_group_count));
}

TEST_F(GroupedServeTest, EmptySumAnswersZeroOnExactAndNoisyPaths) {
  // SUM over an empty selection: SQL says NULL, the scalar contract says
  // 0, and the noisy path must agree with the exact path instead of
  // erroring. Regression for the executor.h-vs-executor.cc empty-input
  // mismatch.
  Result<double> exact = engine_->TrueAnswer(3);
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_DOUBLE_EQ(*exact, 0.0);
  Result<double> noisy = engine_->NoisyAnswer(3);
  ASSERT_TRUE(noisy.ok()) << noisy.status();
  // Served through the full pipeline too: no crash, no NotFound.
  ServeOptions options;
  QueryServer server(store_, db_->schema(), options);
  Result<ServedAnswer> got = server.Submit(kEmptySum).get();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->rows, nullptr);
  EXPECT_DOUBLE_EQ(got->value, *noisy);
}

TEST_F(GroupedServeTest, BatchSubmitCarriesRowSets) {
  ServeOptions options;
  QueryServer server(store_, db_->schema(), options);
  std::vector<std::string> batch = {kGroupedCount, kGroupedCount, kScalar};
  auto futures = server.SubmitBatch(batch);
  ASSERT_EQ(futures.size(), batch.size());
  Result<ServedAnswer> a = futures[0].get();
  Result<ServedAnswer> b = futures[1].get();
  Result<ServedAnswer> c = futures[2].get();
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_NE(a->rows, nullptr);
  // Batch dedup: the duplicate element shares the identical row set.
  EXPECT_EQ(a->rows.get(), b->rows.get());
  EXPECT_EQ(c->rows, nullptr);
}

}  // namespace
}  // namespace viewrewrite
