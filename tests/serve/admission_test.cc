// Admission control at QueryServer::Submit: SQL over the configured
// max_sql_bytes must be rejected with kResourceExhausted *before* it
// occupies a queue slot or a worker parses a byte of it, and the
// rejection must be observable in ServeStats::rejected_oversized.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/viewrewrite_engine.h"
#include "serve/query_server.h"
#include "view/synopsis_store.h"
#include "testing/test_db.h"

namespace viewrewrite {
namespace {

class AdmissionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing_support::MakeTestDatabase(29, 40);
    engine_ = std::make_unique<ViewRewriteEngine>(
        *db_, PrivacyPolicy{"customer"}, EngineOptions{});
    workload_ = {
        "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64",
        "SELECT COUNT(*) FROM orders o WHERE o.o_status = 'f'",
    };
    ASSERT_TRUE(engine_->Prepare(workload_).ok());
    auto snapshot =
        SynopsisStore::FromManager(engine_->views(), db_->schema());
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    store_ = std::make_shared<SynopsisStore>(std::move(*snapshot));
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ViewRewriteEngine> engine_;
  std::vector<std::string> workload_;
  std::shared_ptr<const SynopsisStore> store_;
};

TEST_F(AdmissionTest, OversizedSqlRejectedBeforeQueueing) {
  ServeOptions options;
  options.num_threads = 2;
  options.limits.max_sql_bytes = 256;
  QueryServer server(store_, db_->schema(), options);

  std::string big = workload_[0] + " -- " + std::string(4096, 'x');
  auto future = server.Submit(big, {});
  Result<ServedAnswer> answer = future.get();
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted)
      << answer.status();

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.rejected_oversized, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  // Never entered the pipeline: not submitted, not failed.
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.failed, 0u);

  // A normal-size query on the same server still answers.
  auto ok_future = server.Submit(workload_[0], {});
  Result<ServedAnswer> ok_answer = ok_future.get();
  EXPECT_TRUE(ok_answer.ok()) << ok_answer.status();
  server.Shutdown();
}

TEST_F(AdmissionTest, DefaultLimitAdmitsWorkloadQueries) {
  ServeOptions options;
  options.num_threads = 2;
  QueryServer server(store_, db_->schema(), options);
  for (const std::string& sql : workload_) {
    auto answer = server.Submit(sql, {}).get();
    EXPECT_TRUE(answer.ok()) << answer.status();
  }
  EXPECT_EQ(server.stats().rejected_oversized, 0u);
  server.Shutdown();
}

TEST_F(AdmissionTest, WorkerParsesUnderServeLimits) {
  // A query inside the byte cap but over a tiny AST-depth budget must
  // come back as kResourceExhausted from the worker's limit-aware parse.
  ServeOptions options;
  options.num_threads = 2;
  options.limits.max_ast_depth = 8;
  QueryServer server(store_, db_->schema(), options);

  std::string nested = "SELECT COUNT(*) FROM orders o WHERE ";
  for (int i = 0; i < 30; ++i) nested += "(";
  nested += "o.o_totalprice >= 64";
  for (int i = 0; i < 30; ++i) nested += ")";
  auto answer = server.Submit(nested, {}).get();
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted)
      << answer.status();
  server.Shutdown();
}

}  // namespace
}  // namespace viewrewrite
