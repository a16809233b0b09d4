#include <gtest/gtest.h>

#include <dirent.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "serve/republisher.h"
#include "serve/serve_test_util.h"
#include "view/synopsis_store.h"

namespace viewrewrite {
namespace {

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

/// Full paths of `dir` entries whose name starts with `prefix`. Save uses
/// unique temp names (`<bundle>.tmp.<pid>.<seq>`), so tests locate crash
/// leftovers by prefix instead of a fixed name.
std::vector<std::string> TempSiblings(const std::string& dir,
                                      const std::string& prefix) {
  std::vector<std::string> out;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name.rfind(prefix, 0) == 0) out.push_back(dir + name);
  }
  closedir(d);
  return out;
}

/// Atomic durable save: write + fsync temp, rename, fsync directory. The
/// serve.save fault point sits between the durable temp write and the
/// rename — firing it is the "process killed at the worst moment"
/// simulation.
class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The lifetime reserve (10 beyond the initial 8) funds the
    // crash-mid-republish generations.
    ctx_ = serve_testing::MakeServeContext(42, "durability",
                                           /*lifetime_epsilon=*/18.0);
    ASSERT_NE(ctx_.store, nullptr);
  }
  void TearDown() override { FaultInjection::Instance().DisableAll(); }

  serve_testing::ServeContext ctx_;
};

TEST_F(DurabilityTest, KillAfterTempWriteLeavesOldBundleIntact) {
  const std::string path = ::testing::TempDir() + "durable_overwrite.vrsy";
  Result<SynopsisStore> snapshot =
      SynopsisStore::FromManager(ctx_.engine->views(), ctx_.db->schema());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_TRUE(snapshot->Save(path).ok());

  // Simulated kill between the durable temp write and the rename.
  {
    ScopedFault fault = ScopedFault::OnNth(faults::kServeSave, 1);
    Status killed = snapshot->Save(path);
    ASSERT_FALSE(killed.ok());
  }

  // The published bundle is untouched and still loads cleanly...
  Result<SynopsisStore> survivor =
      SynopsisStore::Load(path, ctx_.db->schema());
  ASSERT_TRUE(survivor.ok()) << survivor.status();
  EXPECT_EQ(survivor->NumViews(), ctx_.store->NumViews());

  // ...and the temp file the "crash" left behind is itself a complete,
  // loadable bundle (the write + fsync finished before the kill) — crash
  // recovery can adopt it instead of re-publishing.
  std::vector<std::string> orphans =
      TempSiblings(::testing::TempDir(), "durable_overwrite.vrsy.tmp");
  ASSERT_EQ(orphans.size(), 1u);
  Result<SynopsisStore> adopted =
      SynopsisStore::Load(orphans.front(), ctx_.db->schema());
  EXPECT_TRUE(adopted.ok()) << adopted.status();

  // A later clean save replaces the bundle normally AND sweeps the
  // orphaned temp: crash litter never accumulates across republishes.
  ASSERT_TRUE(snapshot->Save(path).ok());
  EXPECT_TRUE(SynopsisStore::Load(path, ctx_.db->schema()).ok());
  EXPECT_TRUE(
      TempSiblings(::testing::TempDir(), "durable_overwrite.vrsy.tmp")
          .empty());
  std::remove(path.c_str());
}

TEST_F(DurabilityTest, KillOnFreshSaveNeverExposesAPartialTarget) {
  const std::string path = ::testing::TempDir() + "durable_fresh.vrsy";
  std::remove(path.c_str());
  Result<SynopsisStore> snapshot =
      SynopsisStore::FromManager(ctx_.engine->views(), ctx_.db->schema());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();

  {
    ScopedFault fault = ScopedFault::OnNth(faults::kServeSave, 1);
    ASSERT_FALSE(snapshot->Save(path).ok());
  }
  // The target never appeared: readers polling for the bundle can never
  // observe a torn file, only absence.
  EXPECT_FALSE(FileExists(path));

  ASSERT_TRUE(snapshot->Save(path).ok());
  EXPECT_TRUE(SynopsisStore::Load(path, ctx_.db->schema()).ok());
  EXPECT_TRUE(
      TempSiblings(::testing::TempDir(), "durable_fresh.vrsy.tmp").empty());
  std::remove(path.c_str());
}

TEST_F(DurabilityTest, CrashMidRepublishLeavesOldGenerationServableAndSweeps) {
  // Crash-mid-republish durability: a republish generation whose save is
  // killed between the temp fsync and the rename must (a) leave the
  // previously published generation loadable and byte-consistent, (b)
  // refund the generation's budget (it never became observable), and (c)
  // have its orphaned unique-named temp swept by the next generation's
  // successful save.
  const std::string path = ::testing::TempDir() + "durable_republish.vrsy";
  std::remove(path.c_str());
  Result<SynopsisStore> snapshot =
      SynopsisStore::FromManager(ctx_.engine->views(), ctx_.db->schema());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_TRUE(snapshot->Save(path).ok());

  QueryServer server(
      std::make_shared<const SynopsisStore>(std::move(*snapshot)),
      ctx_.db->schema(), ServeOptions{});
  RepublisherOptions options;
  options.bundle_path = path;
  options.generation_epsilon = 0.25;
  options.max_attempts = 1;  // one attempt == one simulated crash
  Republisher republisher(ctx_.engine.get(), ctx_.db->schema(), &server,
                          options);

  const double spent_before = ctx_.engine->stats().budget_spent_epsilon;
  {
    ScopedFault fault = ScopedFault::OnNth(faults::kServeSave, 1);
    Result<RepublishReport> report = republisher.RepublishNow({"orders"});
    ASSERT_FALSE(report.ok());
  }
  // (b) The generation never published, so the cross-epoch ledger shows
  // no net spend from it.
  EXPECT_NEAR(ctx_.engine->stats().budget_spent_epsilon, spent_before, 1e-9);
  // (a) The old generation still serves: the bundle on disk is the
  // pre-crash one and loads cleanly.
  Result<SynopsisStore> survivor =
      SynopsisStore::Load(path, ctx_.db->schema());
  ASSERT_TRUE(survivor.ok()) << survivor.status();
  EXPECT_EQ(survivor->generation(), 0u);
  ASSERT_EQ(
      TempSiblings(::testing::TempDir(), "durable_republish.vrsy.tmp").size(),
      1u);

  // (c) The next generation publishes cleanly and sweeps the orphan.
  Result<RepublishReport> next = republisher.RepublishNow({"orders"});
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_GT(next->generation, 0u);
  EXPECT_TRUE(
      TempSiblings(::testing::TempDir(), "durable_republish.vrsy.tmp")
          .empty());
  Result<SynopsisStore> republished =
      SynopsisStore::Load(path, ctx_.db->schema());
  ASSERT_TRUE(republished.ok()) << republished.status();
  EXPECT_EQ(republished->generation(), next->generation);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace viewrewrite
