#include "rewrite/plan_cache.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aggregate/suppression.h"
#include "common/random.h"
#include "datagen/census.h"
#include "datagen/tpch.h"
#include "engine/viewrewrite_engine.h"
#include "rewrite/canonical.h"
#include "rewrite/rewriter.h"
#include "serve/query_server.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "sql/token.h"
#include "testing/test_db.h"
#include "view/synopsis_store.h"
#include "workload/workload.h"

namespace viewrewrite {
namespace {

using Outcome = PlanCache::Outcome;

/// One text through the plan cache, driven the way the server drives it:
/// a hit is the answer; otherwise parse + rewrite, then Insert.
struct Served {
  Outcome outcome = Outcome::kUncacheable;
  Result<RewrittenQuery> rq = Status::Internal("unset");
};

Served ServeText(PlanCache& cache, const Rewriter& rewriter,
                 const std::string& sql) {
  const ResourceLimits& limits = ResourceLimits::Defaults();
  PlanCache::Probe probe = cache.Lookup(sql, limits);
  Served out;
  out.outcome = probe.outcome;
  if (probe.outcome == Outcome::kHit) {
    out.rq = std::move(probe.plan);
    return out;
  }
  std::vector<SlotConversion> slots;
  Result<SelectStmtPtr> stmt = ParseSelect(sql, limits, &slots);
  if (!stmt.ok()) {
    out.rq = stmt.status();
    return out;
  }
  bool ranks_slots = false;
  out.rq = rewriter.Rewrite(**stmt, &ranks_slots);
  if (out.rq.ok()) cache.Insert(sql, probe, slots, *out.rq, ranks_slots);
  return out;
}

Result<RewrittenQuery> Direct(const Rewriter& rewriter,
                              const std::string& sql) {
  VR_ASSIGN_OR_RETURN(SelectStmtPtr stmt, ParseSelect(sql));
  return rewriter.Rewrite(*stmt);
}

/// Empty if `served` is what the direct path produces for `sql` (same
/// error, or the same printed rewrite and canonical key), else the
/// difference.
std::string DiffFromDirect(const Rewriter& rewriter, const std::string& sql,
                           const Served& served) {
  Result<RewrittenQuery> direct = Direct(rewriter, sql);
  if (direct.ok() != served.rq.ok()) {
    return "status differs: direct " + direct.status().ToString() +
           ", served " + served.rq.status().ToString();
  }
  if (!direct.ok()) {
    if (direct.status().ToString() == served.rq.status().ToString()) {
      return "";
    }
    return "errors differ: " + direct.status().ToString() + " vs " +
           served.rq.status().ToString();
  }
  const std::string want = ToSql(*direct);
  const std::string got = ToSql(*served.rq);
  if (want != got) {
    return "rewrite differs:\n  direct " + want + "\n  served " + got;
  }
  if (CanonicalCacheKey(*direct, {}) != CanonicalCacheKey(*served.rq, {})) {
    return "canonical key differs";
  }
  return "";
}

class PlanCacheTest : public ::testing::Test {
 protected:
  PlanCacheTest() : schema_(testing_support::MakeTestSchema()),
                    rewriter_(schema_) {}

  /// Serves `sql` and checks it against the direct path.
  Outcome Serve(const std::string& sql) {
    Served served = ServeText(cache_, rewriter_, sql);
    EXPECT_EQ(DiffFromDirect(rewriter_, sql, served), "") << sql;
    return served.outcome;
  }

  Schema schema_;
  Rewriter rewriter_;
  PlanCache cache_;
};

std::string Fill(std::string tmpl, const std::vector<std::string>& values) {
  for (const std::string& v : values) {
    const size_t at = tmpl.find('#');
    tmpl.replace(at, 1, v);
  }
  return tmpl;
}

TEST(LiteralSkeletonTest, KeyIgnoresLayoutCaseAndLiteralValues) {
  auto a = LiteralSkeleton("SELECT COUNT(*) FROM Orders o WHERE x = 5");
  auto b = LiteralSkeleton("select count( * )\nfrom orders O -- 7\n"
                           "where X=123");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->key, b->key);
  ASSERT_EQ(b->literals.size(), 1u);
  EXPECT_EQ(b->literals[0].type, TokenType::kInteger);
  EXPECT_EQ(b->literals[0].size, 3u);
  // Literal types are part of the key.
  auto c = LiteralSkeleton("SELECT COUNT(*) FROM orders o WHERE x = 5.0");
  auto d = LiteralSkeleton("SELECT COUNT(*) FROM orders o WHERE x = '5'");
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(d.ok());
  EXPECT_NE(a->key, c->key);
  EXPECT_NE(a->key, d->key);
  EXPECT_NE(c->key, d->key);
}

TEST(LiteralSkeletonTest, StringSpansKeepEscapes) {
  const std::string sql = "SELECT 'it''s', ''";
  auto s = LiteralSkeleton(sql);
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s->literals.size(), 2u);
  EXPECT_EQ(sql.substr(s->literals[0].begin, s->literals[0].size), "it''s");
  EXPECT_EQ(UnescapeSqlString("it''s"), "it's");
  EXPECT_EQ(s->literals[1].size, 0u);
}

TEST(LiteralSkeletonTest, FailsExactlyWhereTokenizeFails) {
  ResourceLimits limits;
  limits.max_tokens = 4;
  const std::vector<std::string> texts = {
      "SELECT a FROM t", "SELECT a FROM t ", "SELECT a, b FROM t", "'abc",
      "SELECT #", std::string("SELECT \0 x", 10)};
  for (const std::string& sql : texts) {
    auto tokens = Tokenize(sql, limits);
    auto skeleton = LiteralSkeleton(sql, limits);
    ASSERT_EQ(tokens.ok(), skeleton.ok()) << sql;
    if (!tokens.ok()) {
      EXPECT_EQ(tokens.status().ToString(), skeleton.status().ToString());
    }
  }
}

TEST_F(PlanCacheTest, RepeatedShapeHitsAndMatchesDirect) {
  const std::string tmpl =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= #";
  EXPECT_EQ(Serve(Fill(tmpl, {"16"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(tmpl, {"32"})), Outcome::kHit);
  EXPECT_EQ(Serve(Fill(tmpl, {"240"})), Outcome::kHit);
  EXPECT_EQ(cache_.size(), 2u);  // one shape, one equality pattern
}

TEST_F(PlanCacheTest, DedupeEqualityIsPartOfTheKey) {
  const std::string tmpl =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice = # OR "
      "o.o_totalprice = #";
  EXPECT_EQ(Serve(Fill(tmpl, {"5", "5"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(tmpl, {"5", "6"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(tmpl, {"7", "7"})), Outcome::kHit);
  EXPECT_EQ(Serve(Fill(tmpl, {"8", "9"})), Outcome::kHit);
  // The two patterns really rewrite differently: equal atoms dedupe in
  // the inclusion-exclusion intersection term.
  EXPECT_EQ(ToSql(*Direct(rewriter_, Fill(tmpl, {"7", "7"}))).find(" AND "),
            std::string::npos);
  EXPECT_NE(ToSql(*Direct(rewriter_, Fill(tmpl, {"7", "8"}))).find(" AND "),
            std::string::npos);
}

TEST_F(PlanCacheTest, IntFloatAndTrueThatPrintAlikeAreEqual) {
  const std::string with_true =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice = # OR "
      "o.o_totalprice = TRUE";
  EXPECT_EQ(Serve(Fill(with_true, {"1"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(with_true, {"2"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(with_true, {"3"})), Outcome::kHit);
  EXPECT_EQ(Serve(Fill(with_true, {"1.0"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(with_true, {"1.5"})), Outcome::kMiss);
  const std::string mixed =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice = # OR "
      "o.o_totalprice = #";
  EXPECT_EQ(Serve(Fill(mixed, {"5", "5.0"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(mixed, {"5", "6.0"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(mixed, {"7", "7.0"})), Outcome::kHit);
  EXPECT_EQ(Serve(Fill(mixed, {"7", "7.5"})), Outcome::kHit);
  // Doubles print with six significant digits, so these are equal too.
  EXPECT_EQ(Serve(Fill(mixed, {"8", "8.0000001"})), Outcome::kHit);
}

TEST_F(PlanCacheTest, DerivedTablesMergeOnlyOnEqualConstants) {
  const std::string tmpl =
      "SELECT COUNT(*) FROM customer c, "
      "(SELECT o_custkey, COUNT(*) AS n FROM orders WHERE o_totalprice > # "
      "GROUP BY o_custkey) x, "
      "(SELECT o_custkey, COUNT(*) AS m FROM orders WHERE o_totalprice > # "
      "GROUP BY o_custkey) y "
      "WHERE x.o_custkey = c.c_custkey AND y.o_custkey = c.c_custkey";
  EXPECT_EQ(Serve(Fill(tmpl, {"16", "16"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(tmpl, {"32", "32"})), Outcome::kHit);
  EXPECT_EQ(Serve(Fill(tmpl, {"16", "48"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(tmpl, {"64", "32"})), Outcome::kHit);
  EXPECT_EQ(Serve(Fill(tmpl, {"32", "64"})), Outcome::kHit);
}

TEST_F(PlanCacheTest, DerivedLeavesRankedOnConstantsAreUncacheable) {
  // Same-shaped leaves that differ only in a constant: the canonical
  // leaf order depends on the constants, so no template is sound.
  const std::string tmpl =
      "SELECT COUNT(*) FROM customer c, "
      "(SELECT o_custkey, COUNT(*) AS n FROM orders WHERE o_totalprice > # "
      "GROUP BY o_custkey) x, "
      "(SELECT o_custkey, COUNT(*) AS n FROM orders WHERE o_totalprice > # "
      "GROUP BY o_custkey) y "
      "WHERE x.o_custkey = c.c_custkey AND y.o_custkey = c.c_custkey";
  EXPECT_EQ(Serve(Fill(tmpl, {"16", "96"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(tmpl, {"96", "16"})), Outcome::kUncacheable);
  EXPECT_EQ(Serve(Fill(tmpl, {"32", "32"})), Outcome::kUncacheable);
}

TEST_F(PlanCacheTest, NotExistsAttachmentsMergeOrRank) {
  const std::string tmpl =
      "SELECT COUNT(*) FROM customer c WHERE NOT EXISTS (SELECT * FROM "
      "orders o WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > #) AND "
      "NOT EXISTS (SELECT * FROM orders o WHERE o.o_custkey = c.c_custkey "
      "AND o.o_totalprice > #)";
  EXPECT_EQ(Serve(Fill(tmpl, {"16", "16"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(tmpl, {"48", "48"})), Outcome::kHit);
  // Unequal constants keep two attachments whose order the constants
  // decide: the shape becomes uncacheable.
  EXPECT_EQ(Serve(Fill(tmpl, {"64", "16"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(tmpl, {"16", "64"})), Outcome::kUncacheable);
  EXPECT_EQ(Serve(Fill(tmpl, {"48", "48"})), Outcome::kUncacheable);
}

TEST_F(PlanCacheTest, LimitMakesTheShapeUncacheable) {
  const std::string tmpl =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice > # LIMIT #";
  EXPECT_EQ(Serve(Fill(tmpl, {"16", "3"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(tmpl, {"16", "4"})), Outcome::kUncacheable);
  EXPECT_NE(ToSql(*Direct(rewriter_, Fill(tmpl, {"16", "4"}))).find("LIMIT 4"),
            std::string::npos);
}

TEST_F(PlanCacheTest, Int64BoundariesConvertAsTheParserDoes) {
  const std::string negated =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice > -#";
  EXPECT_EQ(Serve(Fill(negated, {"5"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(negated, {"9223372036854775808"})), Outcome::kHit);
  // One past INT64_MIN: the conversion fails, and the full path reports
  // the parser's error.
  EXPECT_EQ(Serve(Fill(negated, {"9223372036854775809"})),
            Outcome::kUncacheable);
  const std::string plain =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice > #";
  EXPECT_EQ(Serve(Fill(plain, {"5"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(plain, {"9223372036854775807"})), Outcome::kHit);
  EXPECT_EQ(Serve(Fill(plain, {"9223372036854775808"})),
            Outcome::kUncacheable);
  // A negated parenthesised integer and a double negation are folds no
  // slot conversion names.
  const std::string paren =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice > -(#)";
  EXPECT_EQ(Serve(Fill(paren, {"5"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(paren, {"9223372036854775808"})),
            Outcome::kUncacheable);
  const std::string twice =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice > - -#";
  EXPECT_EQ(Serve(Fill(twice, {"5"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(twice, {"9223372036854775808"})),
            Outcome::kUncacheable);
  const std::string negated_float =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice > -(#)";
  EXPECT_EQ(Serve(Fill(negated_float, {"1.5"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(negated_float, {"2.5"})), Outcome::kHit);
}

TEST_F(PlanCacheTest, LexicalVariantsShareAShape) {
  const std::string floats =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice > #";
  EXPECT_EQ(Serve(Fill(floats, {"1e5"})), Outcome::kMiss);
  EXPECT_EQ(Serve(Fill(floats, {".5"})), Outcome::kHit);
  EXPECT_EQ(Serve(Fill(floats, {"2.5E-3"})), Outcome::kHit);
  // A non-finite double prints as "inf", which a column could spell.
  EXPECT_EQ(Serve(Fill(floats, {"1e999"})), Outcome::kUncacheable);

  EXPECT_EQ(Serve("SELECT COUNT(*) FROM orders o WHERE o.o_status = 'it''s'"),
            Outcome::kMiss);
  EXPECT_EQ(Serve("SELECT COUNT(*) FROM orders o WHERE o.o_status = ''''"),
            Outcome::kHit);
  EXPECT_EQ(Serve("SELECT COUNT(*) FROM orders o WHERE o.o_status = ''"),
            Outcome::kHit);
  EXPECT_EQ(Serve("SELECT COUNT(*) FROM orders o WHERE o.o_status != 'f'"),
            Outcome::kMiss);
  EXPECT_EQ(Serve("SELECT COUNT(*) FROM orders o WHERE o.o_status <> 'o'"),
            Outcome::kHit);
  EXPECT_EQ(Serve("SELECT COUNT(*) FROM orders o -- 42 and 7\n"
                  "WHERE o.o_totalprice >= 5"),
            Outcome::kMiss);
  EXPECT_EQ(Serve("SELECT COUNT(*) FROM orders o -- 1\n"
                  "  WHERE o.o_totalprice >= 6 -- 2"),
            Outcome::kHit);
}

TEST_F(PlanCacheTest, ErrorsAreNeverCached) {
  const std::string parse_error =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice > 5 AND";
  const std::string rewrite_error =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice = ALL (SELECT "
      "o2.o_totalprice FROM orders o2 WHERE o2.o_totalprice > 5)";
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(Serve(parse_error), Outcome::kMiss);
    EXPECT_EQ(Serve(rewrite_error), Outcome::kMiss);
  }
  EXPECT_EQ(cache_.size(), 0u);
}

TEST(PlanCacheCapacityTest, EntriesStayBounded) {
  Schema schema = testing_support::MakeTestSchema();
  Rewriter rewriter(schema);
  PlanCache cache;
  for (int i = 0; i < 1600; ++i) {
    // A distinct shape per i: its own mix of conjuncts on three columns.
    std::string sql = "SELECT COUNT(*) FROM orders o WHERE o.o_status = 'f'";
    for (int k = 0; k < i % 16; ++k) sql += " AND o.o_totalprice > 16";
    for (int k = 0; k < i / 16 % 10; ++k) sql += " AND o.o_custkey > 3";
    for (int k = 0; k < i / 160; ++k) sql += " AND o.o_orderkey > 1";
    ServeText(cache, rewriter, sql);
  }
  EXPECT_LE(cache.size(), PlanCache::kCapacity);
  EXPECT_GT(cache.size(), PlanCache::kCapacity / 2);
}

/// The rewrite of every cacheable text of paper workloads W1-W31 (two
/// seeds, a prefix of each) through one shared cache equals the direct
/// rewrite; the shapes found uncacheable are listed.
TEST(PlanCachePropertyTest, PaperWorkloadsMatchDirectRewrite) {
  const Schema tpch = MakeTpchSchema();
  const Schema census = MakeCensusSchema();
  size_t hits = 0;
  size_t texts = 0;
  std::map<std::string, std::string> uncacheable;  // skeleton -> example
  for (uint64_t seed : {1u, 2u}) {
    for (int w = 1; w <= 31; ++w) {
      const Schema& schema = WorkloadGenerator::IsCensus(w) ? census : tpch;
      Rewriter rewriter(schema);
      PlanCache cache;
      auto queries = WorkloadGenerator(1, seed * 1000 + w).Generate(w);
      ASSERT_TRUE(queries.ok()) << queries.status();
      const size_t n = std::min<size_t>(400, queries->size());
      for (size_t i = 0; i < n; ++i) {
        const std::string& sql = (*queries)[i].sql;
        Served served = ServeText(cache, rewriter, sql);
        ASSERT_EQ(DiffFromDirect(rewriter, sql, served), "")
            << "W" << w << " seed " << seed << ": " << sql;
        ++texts;
        if (served.outcome == Outcome::kHit) ++hits;
        if (served.outcome == Outcome::kUncacheable) {
          auto skeleton = LiteralSkeleton(sql);
          ASSERT_TRUE(skeleton.ok());
          uncacheable.emplace(skeleton->key, sql);
        }
      }
    }
  }
  std::cout << "plan cache: " << hits << " hits of " << texts << " texts; "
            << uncacheable.size() << " uncacheable shapes\n";
  for (const auto& [key, example] : uncacheable) {
    std::cout << "  uncacheable: " << example << "\n";
  }
  EXPECT_GT(hits, texts / 2);
}

/// Random predicate shapes over orders, each instantiated several times
/// from a tiny constant pool so equal constants (dedupe, merge) happen
/// often.
TEST(PlanCachePropertyTest, RandomPredicatesMatchDirectRewrite) {
  Schema schema = testing_support::MakeTestSchema();
  Rewriter rewriter(schema);
  PlanCache cache;
  Random rng(20261020);
  std::function<std::string(int)> shape = [&](int depth) -> std::string {
    if (depth == 0 || rng.Bernoulli(0.3)) {
      switch (rng.UniformInt(0, 3)) {
        case 0:
          return "o_totalprice >= #";
        case 1:
          return "o_totalprice < #";
        case 2:
          return "o_status = $";
        default:
          return "o_custkey <= #";
      }
    }
    const std::string l = shape(depth - 1);
    const std::string r = shape(depth - 1);
    switch (rng.UniformInt(0, 2)) {
      case 0:
        return "(" + l + " AND " + r + ")";
      case 1:
        return "(" + l + " OR " + r + ")";
      default:
        return "(NOT " + l + ")";
    }
  };
  size_t hits = 0;
  for (int s = 0; s < 60; ++s) {
    const std::string where = shape(3);
    for (int k = 0; k < 6; ++k) {
      std::string sql = "SELECT COUNT(*) FROM orders WHERE " + where;
      for (size_t at; (at = sql.find_first_of("#$")) != std::string::npos;) {
        const char* statuses[] = {"'f'", "'o'"};
        sql.replace(at, 1,
                    sql[at] == '#'
                        ? std::to_string(rng.UniformInt(0, 2) * 16)
                        : std::string(statuses[rng.UniformInt(0, 1)]));
      }
      Served served = ServeText(cache, rewriter, sql);
      ASSERT_EQ(DiffFromDirect(rewriter, sql, served), "") << sql;
      if (served.outcome == Outcome::kHit) ++hits;
    }
  }
  EXPECT_GT(hits, 0u);
}

// ---------------------------------------------------------------------------
// Through QueryServer
// ---------------------------------------------------------------------------

class PlanCacheServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing_support::MakeTestDatabase(13, 40);
    const std::vector<std::string> workload = {
        "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64",
        "SELECT SUM(o_totalprice) FROM orders o WHERE o.o_status = 'o'",
        "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 16 OR "
        "o.o_status = 'f'",
        "SELECT o_status, COUNT(*) FROM orders o WHERE o.o_totalprice >= 64 "
        "GROUP BY o_status",
    };
    EngineOptions options;
    options.seed = 7;
    engine_ = std::make_unique<ViewRewriteEngine>(
        *db_, PrivacyPolicy{"customer"}, options);
    ASSERT_TRUE(engine_->Prepare(workload).ok());
    auto snapshot =
        SynopsisStore::FromManager(engine_->views(), db_->schema());
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    store_ = std::make_shared<const SynopsisStore>(std::move(*snapshot));

    for (int k = 0; k < 16; ++k) {
      const std::string c = std::to_string(k * 16);
      pool_.push_back(
          "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= " + c);
      pool_.push_back("SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= " +
                      c + " OR o.o_status = '" + "fop"[k % 3] + "'");
      pool_.push_back(
          "SELECT o_status, COUNT(*) FROM orders o WHERE o.o_totalprice >= " +
          c + " GROUP BY o_status");
    }
    for (const char* status : {"'f'", "'o'", "'p'"}) {
      pool_.push_back(
          std::string("SELECT SUM(o_totalprice) FROM orders o WHERE "
                      "o.o_status = ") + status);
    }
  }

  /// Direct parse -> rewrite -> Bind -> Answer against the same store.
  struct Reference {
    Status status;
    double value = 0;
    std::shared_ptr<const aggregate::GroupedData> rows;
  };
  Reference DirectAnswer(const std::string& sql, double min_group_count) {
    Reference ref;
    Rewriter rewriter(db_->schema());
    Result<RewrittenQuery> rq = Direct(rewriter, sql);
    if (!rq.ok()) {
      ref.status = rq.status();
      return ref;
    }
    Result<BoundRewrittenQuery> bound = store_->Bind(*rq, nullptr);
    if (!bound.ok()) {
      ref.status = bound.status();
      return ref;
    }
    if (bound->IsGrouped()) {
      Result<aggregate::GroupedData> data =
          store_->AnswerGrouped(bound->terms[0].query, {});
      if (!data.ok()) {
        ref.status = data.status();
        return ref;
      }
      aggregate::ApplySuppression(
          aggregate::SuppressionPolicy{min_group_count}, &*data);
      ref.value = static_cast<double>(data->rows.size());
      ref.rows =
          std::make_shared<const aggregate::GroupedData>(std::move(*data));
      return ref;
    }
    Result<double> v = store_->Answer(*bound, {});
    if (!v.ok()) {
      ref.status = v.status();
      return ref;
    }
    ref.value = *v;
    return ref;
  }

  static bool SameBits(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ViewRewriteEngine> engine_;
  std::shared_ptr<const SynopsisStore> store_;
  std::vector<std::string> pool_;
};

TEST_F(PlanCacheServeTest, CycledPoolAnswersBitIdenticalToDirectPath) {
  ServeOptions options;
  options.num_threads = 2;
  options.cache_capacity = 8;  // far below the pool: the LRU misses
  options.cache_shards = 1;
  QueryServer server(store_, db_->schema(), options);
  size_t grouped = 0;
  for (int round = 0; round < 3; ++round) {
    for (const std::string& sql : pool_) {
      Result<ServedAnswer> got = server.Answer(sql);
      Reference want = DirectAnswer(sql, options.min_group_count);
      ASSERT_EQ(got.ok(), want.status.ok()) << sql;
      if (!got.ok()) {
        EXPECT_EQ(got.status().ToString(), want.status.ToString()) << sql;
        continue;
      }
      EXPECT_TRUE(SameBits(got->value, want.value))
          << sql << ": " << got->value << " vs " << want.value;
      ASSERT_EQ(got->rows != nullptr, want.rows != nullptr) << sql;
      if (got->rows == nullptr) continue;
      ++grouped;
      ASSERT_EQ(got->rows->rows.size(), want.rows->rows.size()) << sql;
      for (size_t r = 0; r < want.rows->rows.size(); ++r) {
        const auto& a = got->rows->rows[r];
        const auto& b = want.rows->rows[r];
        EXPECT_EQ(a.suppressed, b.suppressed);
        ASSERT_EQ(a.values.size(), b.values.size());
        for (size_t c = 0; c < a.values.size(); ++c) {
          if (a.values[c].is_double() && b.values[c].is_double()) {
            EXPECT_TRUE(SameBits(a.values[c].AsDoubleExact(),
                                 b.values[c].AsDoubleExact()))
                << sql;
          } else {
            EXPECT_EQ(a.values[c], b.values[c]) << sql;
          }
        }
      }
    }
  }
  EXPECT_GT(grouped, 0u);
  const ServeStats stats = server.stats();
  EXPECT_GT(stats.plan_cache_hits, stats.plan_cache_misses);
  EXPECT_GT(stats.cache_evictions, 0u);
}

TEST_F(PlanCacheServeTest, ConcurrentWorkersShareOneCache) {
  ServeOptions options;
  options.num_threads = 4;
  options.enable_cache = false;  // every request reaches the plan cache
  options.enable_coalescing = false;
  QueryServer server(store_, db_->schema(), options);
  std::vector<std::pair<size_t, std::future<Result<ServedAnswer>>>> futures;
  for (int round = 0; round < 4; ++round) {
    for (size_t i = 0; i < pool_.size(); ++i) {
      futures.emplace_back(i, server.Submit(pool_[i]));
    }
  }
  std::vector<Reference> want;
  for (const std::string& sql : pool_) {
    want.push_back(DirectAnswer(sql, options.min_group_count));
  }
  for (auto& [i, future] : futures) {
    Result<ServedAnswer> got = future.get();
    ASSERT_EQ(got.ok(), want[i].status.ok()) << pool_[i];
    if (got.ok()) {
      EXPECT_TRUE(SameBits(got->value, want[i].value)) << pool_[i];
    }
  }
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.plan_cache_hits + stats.plan_cache_misses +
                stats.plan_cache_uncacheable,
            futures.size());
  EXPECT_GT(stats.plan_cache_hits, stats.plan_cache_misses);
}

TEST_F(PlanCacheServeTest, EveryComputationReachingParseConsultsOnce) {
  ServeOptions options;
  options.num_threads = 2;
  options.enable_cache = false;
  QueryServer server(store_, db_->schema(), options);
  std::vector<std::string> texts = pool_;
  texts.push_back("SELECT COUNT(*) FROM orders o WHERE o.o_totalprice > 1 "
                  "LIMIT 2");  // uncacheable shape
  texts.push_back("SELECT COUNT(*) FROM orders o WHERE o.o_totalprice > 2 "
                  "LIMIT 3");
  texts.push_back("SELECT COUNT(*) FROM");  // parse error
  for (int round = 0; round < 2; ++round) {
    for (const std::string& sql : texts) (void)server.Answer(sql);
  }
  const ServeStats stats = server.stats();
  EXPECT_GT(stats.plan_cache_hits, 0u);
  EXPECT_GT(stats.plan_cache_uncacheable, 0u);
  // No deadlines: every leader computation reached parse.
  EXPECT_EQ(stats.plan_cache_hits + stats.plan_cache_misses +
                stats.plan_cache_uncacheable,
            stats.flights);
  EXPECT_EQ(stats.flights, 2 * texts.size());
}

}  // namespace
}  // namespace viewrewrite
