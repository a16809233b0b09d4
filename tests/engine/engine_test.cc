#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "datagen/tpch.h"
#include "dp/budget_wal.h"
#include "engine/private_sql_engine.h"
#include "engine/viewrewrite_engine.h"
#include "workload/workload.h"

namespace viewrewrite {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TpchConfig config;
    config.scale = 1;
    config.customers = 150;  // small instance keeps the suite fast
    config.parts = 100;
    db_ = GenerateTpch(config).release();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  std::vector<std::string> SmallWorkload(int w, size_t n) {
    WorkloadGenerator gen(1, 11);
    auto queries = gen.Generate(w);
    EXPECT_TRUE(queries.ok());
    std::vector<std::string> sql;
    for (size_t i = 0; i < std::min(n, queries->size()); ++i) {
      sql.push_back((*queries)[i].sql);
    }
    return sql;
  }

  static Database* db_;
};

Database* EngineTest::db_ = nullptr;

TEST_F(EngineTest, RelativeErrorMetricMatchesPaper) {
  EXPECT_DOUBLE_EQ(RelativeErrorMetric(100, 110), 0.1);
  // Denominator floors at 50.
  EXPECT_DOUBLE_EQ(RelativeErrorMetric(10, 20), 10.0 / 50.0);
  EXPECT_DOUBLE_EQ(RelativeErrorMetric(0, 5), 0.1);
}

TEST_F(EngineTest, PrepareAndAnswerMixedWorkload) {
  EngineOptions opts;
  opts.epsilon = 8.0;
  ViewRewriteEngine engine(*db_, PrivacyPolicy{"orders"}, opts);
  auto workload = SmallWorkload(1, 42);
  {
    Status st = engine.Prepare(workload);
    ASSERT_TRUE(st.ok()) << st;
  }
  EXPECT_EQ(engine.NumQueries(), 42u);
  EXPECT_GT(engine.NumViews(), 0u);
  EXPECT_LT(engine.NumViews(), 20u);
  for (size_t i = 0; i < engine.NumQueries(); ++i) {
    auto err = engine.RelativeError(i);
    ASSERT_TRUE(err.ok()) << "query " << i << ": " << workload[i] << "\n"
                          << err.status();
    EXPECT_GE(*err, 0.0);
  }
}

TEST_F(EngineTest, ViewCountFlatAcrossWorkloadSizes) {
  EngineOptions opts;
  size_t views_small, views_large;
  {
    ViewRewriteEngine engine(*db_, PrivacyPolicy{"orders"}, opts);
    ASSERT_TRUE(engine.Prepare(SmallWorkload(16, 30)).ok());
    views_small = engine.NumViews();
  }
  {
    ViewRewriteEngine engine(*db_, PrivacyPolicy{"orders"}, opts);
    ASSERT_TRUE(engine.Prepare(SmallWorkload(16, 120)).ok());
    views_large = engine.NumViews();
  }
  EXPECT_EQ(views_small, views_large);
}

TEST_F(EngineTest, PrivateSqlViewCountGrowsWithWorkload) {
  EngineOptions opts;
  size_t views_small, views_large;
  {
    PrivateSqlEngine engine(*db_, PrivacyPolicy{"orders"}, opts);
    ASSERT_TRUE(engine.Prepare(SmallWorkload(16, 30)).ok());
    views_small = engine.NumViews();
  }
  {
    PrivateSqlEngine engine(*db_, PrivacyPolicy{"orders"}, opts);
    ASSERT_TRUE(engine.Prepare(SmallWorkload(16, 120)).ok());
    views_large = engine.NumViews();
  }
  EXPECT_GT(views_large, views_small);
}

TEST_F(EngineTest, ViewRewriteGeneratesFewerViewsThanPrivateSql) {
  EngineOptions opts;
  auto workload = SmallWorkload(11, 60);
  ViewRewriteEngine vr(*db_, PrivacyPolicy{"orders"}, opts);
  PrivateSqlEngine ps(*db_, PrivacyPolicy{"orders"}, opts);
  {
    Status st = vr.Prepare(workload);
    ASSERT_TRUE(st.ok()) << st;
  }
  {
    Status st = ps.Prepare(workload);
    ASSERT_TRUE(st.ok()) << st;
  }
  EXPECT_LT(vr.NumViews(), ps.NumViews());
}

TEST_F(EngineTest, BothEnginesAgreeOnTrueAnswers) {
  // The engines rewrite differently but must compute identical exact
  // answers — a cross-check of rewrite-rule equivalence.
  EngineOptions opts;
  auto workload = SmallWorkload(11, 40);
  ViewRewriteEngine vr(*db_, PrivacyPolicy{"orders"}, opts);
  PrivateSqlEngine ps(*db_, PrivacyPolicy{"orders"}, opts);
  {
    Status st = vr.Prepare(workload);
    ASSERT_TRUE(st.ok()) << st;
  }
  {
    Status st = ps.Prepare(workload);
    ASSERT_TRUE(st.ok()) << st;
  }
  for (size_t i = 0; i < workload.size(); ++i) {
    auto a = vr.TrueAnswer(i);
    auto b = ps.TrueAnswer(i);
    ASSERT_TRUE(a.ok()) << workload[i] << ": " << a.status();
    ASSERT_TRUE(b.ok()) << workload[i] << ": " << b.status();
    EXPECT_DOUBLE_EQ(*a, *b) << workload[i];
  }
}

TEST_F(EngineTest, HigherEpsilonLowersError) {
  auto workload = SmallWorkload(1, 30);
  double err_low = 0;
  double err_high = 0;
  {
    EngineOptions opts;
    opts.epsilon = 0.25;
    ViewRewriteEngine engine(*db_, PrivacyPolicy{"orders"}, opts);
    {
    Status st = engine.Prepare(workload);
    ASSERT_TRUE(st.ok()) << st;
  }
    for (size_t i = 0; i < workload.size(); ++i) {
      err_low += *engine.RelativeError(i);
    }
  }
  {
    EngineOptions opts;
    opts.epsilon = 64.0;
    ViewRewriteEngine engine(*db_, PrivacyPolicy{"orders"}, opts);
    {
    Status st = engine.Prepare(workload);
    ASSERT_TRUE(st.ok()) << st;
  }
    for (size_t i = 0; i < workload.size(); ++i) {
      err_high += *engine.RelativeError(i);
    }
  }
  EXPECT_GT(err_low, err_high);
}

TEST_F(EngineTest, StatsPopulated) {
  EngineOptions opts;
  ViewRewriteEngine engine(*db_, PrivacyPolicy{"orders"}, opts);
  ASSERT_TRUE(engine.Prepare(SmallWorkload(1, 20)).ok());
  (void)engine.NoisyAnswer(0);
  const EngineStats& s = engine.stats();
  EXPECT_EQ(s.num_queries, 20u);
  EXPECT_GT(s.num_views, 0u);
  EXPECT_GT(s.SynopsisSeconds(), 0.0);
  EXPECT_GT(s.answer_seconds, 0.0);
}

TEST_F(EngineTest, DeterministicAcrossRuns) {
  EngineOptions opts;
  opts.seed = 1234;
  auto workload = SmallWorkload(1, 15);
  std::vector<double> run1, run2;
  for (int run = 0; run < 2; ++run) {
    ViewRewriteEngine engine(*db_, PrivacyPolicy{"orders"}, opts);
    {
    Status st = engine.Prepare(workload);
    ASSERT_TRUE(st.ok()) << st;
  }
    auto& out = run == 0 ? run1 : run2;
    for (size_t i = 0; i < workload.size(); ++i) {
      out.push_back(*engine.NoisyAnswer(i));
    }
  }
  EXPECT_EQ(run1, run2);
}

TEST_F(EngineTest, SecondPrepareFailsWithoutSpending) {
  // A second Prepare on the same engine must not re-spend the budget
  // through a fresh accountant: the publication is one-shot, and later
  // generations go through RepublishChanged.
  const std::string wal_path = ::testing::TempDir() + "second_prepare.wal";
  std::remove(wal_path.c_str());
  EngineOptions opts;
  opts.epsilon = 1.0;
  opts.budget_wal_path = wal_path;
  auto workload = SmallWorkload(5, 20);
  {
    ViewRewriteEngine engine(*db_, PrivacyPolicy{"orders"}, opts);
    ASSERT_TRUE(engine.Prepare(workload).ok());
    std::vector<Result<double>> before;
    for (size_t i = 0; i < workload.size(); ++i) {
      before.push_back(engine.NoisyAnswer(i));
    }

    Status again = engine.Prepare(workload);
    EXPECT_EQ(again.code(), StatusCode::kAlreadyExists) << again;
    EXPECT_NEAR(engine.views().accountant()->spent(), 1.0, 1e-9);
    EXPECT_NEAR(engine.stats().budget_spent_epsilon, 1.0, 1e-9);
    for (size_t i = 0; i < workload.size(); ++i) {
      Result<double> after = engine.NoisyAnswer(i);
      ASSERT_EQ(after.ok(), before[i].ok()) << i;
      if (after.ok()) {
        EXPECT_EQ(*after, *before[i]) << i;
      }
    }
  }
  auto replayed = BudgetWal::Replay(wal_path);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed->total, 1.0);
  EXPECT_NEAR(replayed->spent, replayed->total, 1e-9);
  std::remove(wal_path.c_str());
}

/// Both engines honour the same EngineOptions: a poisoned budget shows
/// in the stats and the SQL limits apply at parse time.
template <typename Engine>
void ExpectEngineHonoursOptions(const Database& db,
                                const std::vector<std::string>& workload) {
  {
    EngineOptions opts;
    opts.epsilon = std::nan("");
    Engine engine(db, PrivacyPolicy{"orders"}, opts);
    (void)engine.Prepare(workload);
    ASSERT_NE(engine.views().accountant(), nullptr);
    EXPECT_TRUE(engine.views().accountant()->poisoned());
    EXPECT_TRUE(engine.stats().budget_poisoned);
  }
  {
    EngineOptions opts;
    opts.limits.max_sql_bytes = 16;
    Engine engine(db, PrivacyPolicy{"orders"}, opts);
    EXPECT_FALSE(engine.Prepare(workload).ok());
    ASSERT_EQ(engine.report().query_status.size(), workload.size());
    for (const Status& st : engine.report().query_status) {
      EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
    }
  }
}

TEST_F(EngineTest, ViewRewriteHonoursBudgetAndLimitOptions) {
  ExpectEngineHonoursOptions<ViewRewriteEngine>(*db_, SmallWorkload(1, 8));
}

TEST_F(EngineTest, PrivateSqlHonoursBudgetAndLimitOptions) {
  ExpectEngineHonoursOptions<PrivateSqlEngine>(*db_, SmallWorkload(1, 8));
}

}  // namespace
}  // namespace viewrewrite
