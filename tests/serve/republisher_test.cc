#include "serve/republisher.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "common/fault_injection.h"
#include "serve/query_server.h"
#include "serve/serve_test_util.h"
#include "view/synopsis_store.h"

namespace viewrewrite {
namespace {

/// Synopsis lifecycle driver: delta republish generations, cross-epoch
/// budget composition, generation metadata in the bundle, the staleness
/// policy, and the refund boundary (before vs after the durable save).
class RepublisherTest : public ::testing::Test {
 protected:
  void SetUp() override { SetUpWithLifetime(18.0); }

  void SetUpWithLifetime(double lifetime_epsilon,
                         ServeOptions serve_options = ServeOptions{}) {
    // The answer cache pins the outdated bit at Put time (by design; the
    // eviction lag retires old entries). These tests watch the staleness
    // policy react generation by generation, so they bypass the cache.
    serve_options.enable_cache = false;
    ctx_ = serve_testing::MakeServeContext(42, "republisher",
                                           lifetime_epsilon);
    ASSERT_NE(ctx_.store, nullptr);
    server_ = std::make_unique<QueryServer>(ctx_.store, ctx_.db->schema(),
                                            serve_options);
    options_.bundle_path = ctx_.bundle_path;
    options_.generation_epsilon = 0.5;
    options_.max_attempts = 1;
    republisher_ = std::make_unique<Republisher>(
        ctx_.engine.get(), ctx_.db->schema(), server_.get(), options_);
  }

  void TearDown() override {
    republisher_.reset();
    server_.reset();
    FaultInjection::Instance().DisableAll();
    if (!ctx_.bundle_path.empty()) std::remove(ctx_.bundle_path.c_str());
  }

  double Spent() { return ctx_.engine->stats().budget_spent_epsilon; }

  serve_testing::ServeContext ctx_;
  std::unique_ptr<QueryServer> server_;
  RepublisherOptions options_;
  std::unique_ptr<Republisher> republisher_;
};

TEST_F(RepublisherTest, PublishesGenerationMetadataAndSwapsTheServer) {
  const uint64_t epoch_before = server_->epoch();
  const double spent_before = Spent();

  Result<RepublishReport> report = republisher_->RepublishNow({"orders"});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->generation, 1u);
  EXPECT_FALSE(report->rebuilt.empty());
  EXPECT_TRUE(report->failed.empty());
  EXPECT_NEAR(report->epsilon_spent, options_.generation_epsilon, 1e-9);
  EXPECT_GT(report->epoch_after, epoch_before);
  EXPECT_EQ(republisher_->generation(), 1u);

  // Cross-epoch composition: the generation's spend lands on the one
  // lifetime ledger.
  EXPECT_NEAR(Spent(), spent_before + options_.generation_epsilon, 1e-9);

  // The server swapped to the new generation and answers from it,
  // bit-identical to the engine's post-rebuild cells.
  EXPECT_EQ(server_->stats().generation, 1u);
  for (size_t i = 0; i < ctx_.workload.size(); ++i) {
    Result<ServedAnswer> got = server_->Submit(ctx_.workload[i]).get();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->value, ctx_.Expected(i)) << "query " << i;
    EXPECT_EQ(got->generation, 1u);
    EXPECT_FALSE(got->outdated);
  }

  // The durable bundle carries the generation metadata and per-view
  // lifecycle, so a restarted process resumes at the right epoch.
  Result<SynopsisStore> loaded =
      SynopsisStore::Load(ctx_.bundle_path, ctx_.db->schema());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->generation(), 1u);
  EXPECT_EQ(loaded->generation_info().parent_epoch, epoch_before);
  EXPECT_NEAR(loaded->generation_info().generation_epsilon,
              options_.generation_epsilon, 1e-9);
  ASSERT_EQ(loaded->generation_info().changed_relations.size(), 1u);
  EXPECT_EQ(loaded->generation_info().changed_relations[0], "orders");
  for (const std::string& sig : report->rebuilt) {
    auto it = loaded->lifecycle().find(sig);
    ASSERT_NE(it, loaded->lifecycle().end()) << sig;
    EXPECT_EQ(it->second.data_generation, 1u);
    EXPECT_EQ(loaded->OutdatedGenerations(sig), 0u);
  }
}

TEST_F(RepublisherTest, FailedRebuildRefundsFlagsOutdatedAndHealsLater) {
  const double spent_before = Spent();
  {
    // Every affected view's rebuild fails this generation.
    ScopedFault fault = ScopedFault::EveryN(faults::kRepublishBuild, 1);
    Result<RepublishReport> report = republisher_->RepublishNow({"orders"});
    // Per-view failures degrade the generation, they do not abort it.
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->rebuilt.empty());
    EXPECT_FALSE(report->failed.empty());
    // Refunded per view: no net spend from a generation that rebuilt
    // nothing.
    EXPECT_NEAR(report->epsilon_spent, 0.0, 1e-9);
    EXPECT_NEAR(Spent(), spent_before, 1e-9);
  }

  // The bundle flags the views outdated-since generation 1; with the
  // default TTL of 0 every served answer through them carries the flag.
  Result<SynopsisStore> loaded =
      SynopsisStore::Load(ctx_.bundle_path, ctx_.db->schema());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->generation(), 1u);
  Result<ServedAnswer> flagged = server_->Submit(ctx_.workload[0]).get();
  ASSERT_TRUE(flagged.ok()) << flagged.status();
  EXPECT_TRUE(flagged->outdated);
  // Outdated is provenance, not degradation: the value still serves and
  // the answer is not stale.
  EXPECT_FALSE(flagged->stale);
  EXPECT_EQ(flagged->value, ctx_.Expected(0));
  EXPECT_GT(server_->stats().outdated_served, 0u);

  // A later clean generation heals: rebuild succeeds, the outdated flag
  // clears, answers are unflagged again.
  Result<RepublishReport> healed = republisher_->RepublishNow({"orders"});
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_FALSE(healed->rebuilt.empty());
  Result<SynopsisStore> after =
      SynopsisStore::Load(ctx_.bundle_path, ctx_.db->schema());
  ASSERT_TRUE(after.ok()) << after.status();
  for (const std::string& sig : healed->rebuilt) {
    EXPECT_EQ(after->OutdatedGenerations(sig), 0u) << sig;
  }
  Result<ServedAnswer> fresh = server_->Submit(ctx_.workload[0]).get();
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_FALSE(fresh->outdated);
  EXPECT_EQ(fresh->value, ctx_.Expected(0));
}

TEST_F(RepublisherTest, OutdatedTtlToleratesRecentStaleness) {
  // A TTL of 2 generations means "answerable and recent enough": views
  // outdated by 1-2 generations serve unflagged; the third pushes them
  // over the policy line.
  ServeOptions serve_options;
  serve_options.outdated_ttl_generations = 2;
  SetUpWithLifetime(18.0, serve_options);

  ScopedFault fault = ScopedFault::EveryN(faults::kRepublishBuild, 1);
  for (int generation = 1; generation <= 3; ++generation) {
    Result<RepublishReport> report = republisher_->RepublishNow({"orders"});
    ASSERT_TRUE(report.ok()) << report.status();
    Result<ServedAnswer> got = server_->Submit(ctx_.workload[0]).get();
    ASSERT_TRUE(got.ok()) << got.status();
    // outdated_since stays pinned at generation 1, so the view is
    // `generation` generations out of date.
    EXPECT_EQ(got->outdated, generation > 2) << "generation " << generation;
  }
}

TEST_F(RepublisherTest, LifetimeBudgetHardFailsBeforeOverspending) {
  // Reserve of 0.8 beyond the initial publication funds exactly one 0.5
  // generation; the second must hard-fail with PrivacyError before
  // touching the ledger, with no retry and no breaker trip (the rebuild
  // machinery is healthy — the refusal is semantic).
  SetUpWithLifetime(8.8);
  options_.max_attempts = 3;
  republisher_ = std::make_unique<Republisher>(
      ctx_.engine.get(), ctx_.db->schema(), server_.get(), options_);

  ASSERT_TRUE(republisher_->RepublishNow({"orders"}).ok());
  const double spent_after_first = Spent();

  Result<RepublishReport> refused = republisher_->RepublishNow({"orders"});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kPrivacyError);
  EXPECT_NEAR(Spent(), spent_after_first, 1e-9);
  EXPECT_LE(Spent(), ctx_.engine->stats().budget_total_epsilon + 1e-9);

  RepublisherStats stats = republisher_->stats();
  EXPECT_EQ(stats.generations_published, 1u);
  // No retry on a semantic refusal: exactly one failed attempt.
  EXPECT_EQ(stats.generations_attempted, 2u);
  EXPECT_EQ(stats.breaker_trips, 0u);
  // The old generation keeps serving.
  EXPECT_TRUE(server_->Submit(ctx_.workload[0]).get().ok());
}

TEST_F(RepublisherTest, SaveFailureRefundsButSwapFailureDoesNot) {
  // The refund boundary is the rename inside Save. A generation killed
  // before it never becomes observable -> full refund. A generation
  // killed after it (swap fault) is durably on disk -> the spend stands,
  // and the bundle is legitimately ahead of the serving process.
  const double spent_before = Spent();
  {
    ScopedFault fault = ScopedFault::OnNth(faults::kServeSave, 1);
    ASSERT_FALSE(republisher_->RepublishNow({"orders"}).ok());
  }
  EXPECT_NEAR(Spent(), spent_before, 1e-9);

  {
    ScopedFault fault = ScopedFault::OnNth(faults::kRepublishSwap, 1);
    ASSERT_FALSE(republisher_->RepublishNow({"orders"}).ok());
  }
  EXPECT_NEAR(Spent(), spent_before + options_.generation_epsilon, 1e-9);
  EXPECT_EQ(server_->stats().generation, 0u);  // swap never happened

  // The file is ahead of the serving process: the next Reload catches up
  // to the saved-but-unswapped generation.
  Result<SynopsisStore> on_disk =
      SynopsisStore::Load(ctx_.bundle_path, ctx_.db->schema());
  ASSERT_TRUE(on_disk.ok()) << on_disk.status();
  const uint64_t saved_generation = on_disk->generation();
  EXPECT_GT(saved_generation, 0u);
  ASSERT_TRUE(server_->Reload(ctx_.bundle_path).ok());
  EXPECT_EQ(server_->stats().generation, saved_generation);
}

TEST_F(RepublisherTest, BreakerTripsOnRepeatedFaultsAndFailsFast) {
  options_.max_attempts = 3;
  options_.retry.max_attempts = 3;
  options_.retry.initial_backoff = std::chrono::microseconds(10);
  options_.breaker.failure_threshold = 2;
  options_.breaker.open_duration = std::chrono::seconds(30);
  republisher_ = std::make_unique<Republisher>(
      ctx_.engine.get(), ctx_.db->schema(), server_.get(), options_);

  ScopedFault fault = ScopedFault::EveryN(faults::kServeRepublish, 1);
  // Two failed attempts trip the breaker; the third is rejected fast.
  Result<RepublishReport> first = republisher_->RepublishNow({"orders"});
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);

  // While open, calls fail fast without burning an attempt.
  Result<RepublishReport> rejected = republisher_->RepublishNow({"orders"});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  RepublisherStats stats = republisher_->stats();
  EXPECT_EQ(stats.generations_attempted, 2u);
  EXPECT_GE(stats.breaker_trips, 1u);
  EXPECT_GE(stats.breaker_rejected, 2u);
  EXPECT_EQ(stats.generations_published, 0u);
}

TEST_F(RepublisherTest, BackgroundThreadPublishesOnNotify) {
  republisher_->Start();
  republisher_->NotifyChanged({"orders"});
  // Bounded poll: the background thread picks the notification up and
  // publishes a generation.
  for (int i = 0; i < 2000 && republisher_->generation() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  republisher_->Stop();
  EXPECT_GE(republisher_->generation(), 1u);
  EXPECT_GE(republisher_->stats().notifications, 1u);
  EXPECT_GE(server_->stats().generation, 1u);
}

}  // namespace
}  // namespace viewrewrite
