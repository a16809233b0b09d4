#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "datagen/census.h"
#include "datagen/tpch.h"
#include "engine/viewrewrite_engine.h"
#include "rewrite/rewriter.h"
#include "sql/parser.h"
#include "view/synopsis_store.h"
#include "workload/workload.h"

namespace viewrewrite {
namespace {

std::vector<std::string> SmallWorkload(int w, size_t n, uint64_t seed = 11) {
  WorkloadGenerator gen(1, seed);
  auto queries = gen.Generate(w);
  EXPECT_TRUE(queries.ok());
  std::vector<std::string> sql;
  for (size_t i = 0; i < std::min(n, queries->size()); ++i) {
    sql.push_back((*queries)[i].sql);
  }
  return sql;
}

/// Save -> Load -> Answer must reproduce the in-memory noisy answers
/// *bit-identically*: once published, the noisy cells are plain data, and
/// the bundle stores doubles by bit pattern.
void ExpectBitIdenticalRoundTrip(ViewRewriteEngine& engine,
                                 const Schema& schema,
                                 const std::vector<std::string>& workload,
                                 const std::string& path) {
  auto in_memory = SynopsisStore::FromManager(engine.views(), schema);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status();
  ASSERT_TRUE(in_memory->Save(path).ok());
  auto loaded = SynopsisStore::Load(path, schema);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->NumViews(), in_memory->NumViews());
  EXPECT_EQ(loaded->schema_fingerprint(), in_memory->schema_fingerprint());
  EXPECT_EQ(loaded->ledger().total_epsilon, in_memory->ledger().total_epsilon);
  EXPECT_EQ(loaded->ledger().spent_epsilon, in_memory->ledger().spent_epsilon);
  EXPECT_EQ(loaded->ledger().entries, in_memory->ledger().entries);

  Rewriter rewriter(schema);
  size_t answered = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    if (!engine.report().query_status[i].ok()) continue;
    Result<double> engine_answer = engine.NoisyAnswer(i);
    ASSERT_TRUE(engine_answer.ok()) << workload[i] << "\n"
                                    << engine_answer.status();

    // The serve path re-parses and re-rewrites from SQL, exactly as a
    // QueryServer would.
    auto stmt = ParseSelect(workload[i]);
    ASSERT_TRUE(stmt.ok());
    auto rq = rewriter.Rewrite(**stmt);
    ASSERT_TRUE(rq.ok());

    auto mem_bound = in_memory->Bind(*rq, nullptr);
    ASSERT_TRUE(mem_bound.ok()) << workload[i] << "\n" << mem_bound.status();
    auto mem_answer = in_memory->Answer(*mem_bound);
    ASSERT_TRUE(mem_answer.ok()) << mem_answer.status();

    auto load_bound = loaded->Bind(*rq, nullptr);
    ASSERT_TRUE(load_bound.ok()) << workload[i] << "\n" << load_bound.status();
    auto load_answer = loaded->Answer(*load_bound);
    ASSERT_TRUE(load_answer.ok()) << load_answer.status();

    // Bit-identical across the save/load boundary, and equal to what the
    // engine answers in-process from the same synopses.
    EXPECT_EQ(*mem_answer, *load_answer) << workload[i];
    EXPECT_EQ(*engine_answer, *load_answer) << workload[i];

    // The exact (pre-noise) cells travel too, and the engine's bindings
    // answer against the loaded store: one answer path.
    Result<double> engine_exact = engine.ExactViewAnswer(i);
    ASSERT_TRUE(engine_exact.ok()) << engine_exact.status();
    auto load_exact = loaded->Answer(*load_bound, {}, /*exact=*/true);
    ASSERT_TRUE(load_exact.ok()) << load_exact.status();
    EXPECT_EQ(*engine_exact, *load_exact) << workload[i];
    auto engine_bound = loaded->Answer(engine.bound(i));
    ASSERT_TRUE(engine_bound.ok()) << engine_bound.status();
    EXPECT_EQ(*engine_answer, *engine_bound) << workload[i];
    ++answered;
  }
  EXPECT_GT(answered, 0u);
}

TEST(StoreRoundTripTest, TpchWorkloadSurvivesSaveLoadBitIdentically) {
  TpchConfig config;
  config.scale = 1;
  config.customers = 120;
  config.parts = 80;
  auto db = GenerateTpch(config);

  ViewRewriteEngine engine(*db, PrivacyPolicy{"orders"}, EngineOptions{});
  auto workload = SmallWorkload(1, 30);
  auto nested = SmallWorkload(16, 10);
  workload.insert(workload.end(), nested.begin(), nested.end());
  ASSERT_TRUE(engine.Prepare(workload).ok());

  ExpectBitIdenticalRoundTrip(engine, db->schema(), workload,
                              ::testing::TempDir() + "tpch_bundle.vrsy");
}

TEST(StoreRoundTripTest, CensusWorkloadSurvivesSaveLoadBitIdentically) {
  CensusConfig config;
  config.households = 250;
  auto db = GenerateCensus(config);

  ViewRewriteEngine engine(*db, PrivacyPolicy{"household"}, EngineOptions{});
  auto workload = SmallWorkload(31, 30, 77);
  ASSERT_TRUE(engine.Prepare(workload).ok());

  ExpectBitIdenticalRoundTrip(engine, db->schema(), workload,
                              ::testing::TempDir() + "census_bundle.vrsy");
}

TEST(StoreRoundTripTest, LoadUnderDriftedSchemaIsRejected) {
  TpchConfig config;
  config.scale = 1;
  config.customers = 60;
  config.parts = 40;
  auto db = GenerateTpch(config);

  ViewRewriteEngine engine(*db, PrivacyPolicy{"orders"}, EngineOptions{});
  ASSERT_TRUE(engine.Prepare(SmallWorkload(1, 8)).ok());

  const std::string path = ::testing::TempDir() + "drift_bundle.vrsy";
  auto store = SynopsisStore::FromManager(engine.views(), db->schema());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Save(path).ok());

  // The Census schema fingerprints differently from TPC-H: the bundle
  // must refuse to serve under it instead of mis-answering.
  auto drifted = SynopsisStore::Load(path, MakeCensusSchema());
  ASSERT_FALSE(drifted.ok());
  EXPECT_EQ(drifted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(drifted.status().message().find("schema drift"),
            std::string::npos);
}

TEST(StoreRoundTripTest, SnapshotSharesThePublishedSynopses) {
  TpchConfig config;
  config.customers = 60;
  config.parts = 40;
  auto db = GenerateTpch(config);
  ViewRewriteEngine engine(*db, PrivacyPolicy{"orders"}, EngineOptions{});
  ASSERT_TRUE(engine.Prepare(SmallWorkload(1, 12)).ok());

  std::shared_ptr<const SynopsisStore> published = engine.views().published();
  ASSERT_NE(published, nullptr);
  auto snapshot = SynopsisStore::FromManager(engine.views(), db->schema());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_EQ(snapshot->NumViews(), published->NumViews());
  for (const SynopsisStore::Entry& entry : published->entries()) {
    const std::string& sig = entry.view->signature();
    EXPECT_EQ(snapshot->Find(sig), published->Find(sig)) << sig;
    EXPECT_EQ(&snapshot->Find(sig)->view(), entry.view.get()) << sig;
  }
}

TEST(StoreRoundTripTest, RepublishSharesUnchangedViewsAndOldSnapshotsHold) {
  TpchConfig config;
  config.customers = 60;
  config.parts = 40;
  auto db = GenerateTpch(config);
  EngineOptions options;
  options.lifetime_epsilon = 16.0;
  ViewRewriteEngine engine(*db, PrivacyPolicy{"orders"}, options);
  auto workload = SmallWorkload(1, 30);
  ASSERT_TRUE(engine.Prepare(workload).ok());

  std::shared_ptr<const SynopsisStore> before = engine.views().published();
  auto snapshot = SynopsisStore::FromManager(engine.views(), db->schema());
  ASSERT_TRUE(snapshot.ok());
  std::vector<Result<double>> old_answers;
  for (size_t i = 0; i < workload.size(); ++i) {
    old_answers.push_back(snapshot->Answer(engine.bound(i)));
  }

  auto outcome = engine.RepublishChanged({"customer"}, 1.0, 1);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_FALSE(outcome->rebuilt.empty());
  std::shared_ptr<const SynopsisStore> after = engine.views().published();
  ASSERT_NE(after, before);
  ASSERT_EQ(after->NumViews(), before->NumViews());
  size_t shared = 0;
  for (const SynopsisStore::Entry& entry : after->entries()) {
    const std::string& sig = entry.view->signature();
    const bool rebuilt =
        std::find(outcome->rebuilt.begin(), outcome->rebuilt.end(), sig) !=
        outcome->rebuilt.end();
    if (rebuilt) {
      EXPECT_NE(after->Find(sig), before->Find(sig)) << sig;
      EXPECT_EQ(after->lifecycle().at(sig).data_generation, 1u) << sig;
    } else {
      EXPECT_EQ(after->Find(sig), before->Find(sig)) << sig;
      EXPECT_EQ(after->lifecycle().at(sig).data_generation, 0u) << sig;
      ++shared;
    }
  }
  EXPECT_GT(shared, 0u);

  // The snapshot taken before the republish still holds the old cells.
  for (size_t i = 0; i < workload.size(); ++i) {
    Result<double> again = snapshot->Answer(engine.bound(i));
    ASSERT_EQ(again.ok(), old_answers[i].ok()) << i;
    if (again.ok()) {
      EXPECT_EQ(*again, *old_answers[i]) << workload[i];
    }
  }
}

TEST(StoreRoundTripTest, FromManagerWithoutPublishFails) {
  TpchConfig config;
  config.customers = 20;
  config.parts = 20;
  auto db = GenerateTpch(config);
  ViewManager manager(db->schema(), PrivacyPolicy{"orders"});
  auto store = SynopsisStore::FromManager(manager, db->schema());
  EXPECT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace viewrewrite
