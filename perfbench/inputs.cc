// Seeded inputs, publication and the answer/ledger gates shared by every
// workload. The program under test receives only the generated SQL.
#include <algorithm>
#include <filesystem>
#include <random>
#include <set>
#include <unistd.h>

#include "aggregate/suppression.h"
#include "datagen/tpch.h"
#include "dp/budget_wal.h"
#include "sql/parser.h"
#include "workload/workload.h"
#include "workloads.h"

namespace perfbench {

using namespace viewrewrite;

namespace {

// Seed streams derived from the run seed, one per consumer, so adding a
// consumer never shifts another's draws.
uint64_t SubSeed(const Config& cfg, uint64_t stream) {
  return cfg.seed * 1000003ull + stream;
}

std::vector<std::string> Generate(int w, int scale, uint64_t seed) {
  auto queries = WorkloadGenerator(scale, seed).Generate(w);
  std::vector<std::string> out;
  if (!queries.ok()) return out;
  for (auto& q : *queries) out.push_back(std::move(q.sql));
  return out;
}

template <typename T>
void SeededShuffle(std::vector<T>* v, uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng() % i]);
  }
}

// Grouped / derived-measure templates: per-group COUNT, AVG and VARIANCE
// derived from published (sum, sum², count) companions, and post-noise
// HAVING. Constants come from the same bucket-aligned ladders the paper
// generator uses, so every text binds to exact synopsis cells.
std::vector<std::string> GroupedTexts() {
  std::vector<std::string> out;
  auto ladder = [](int64_t width, int64_t n) {
    std::vector<int64_t> v;
    for (int64_t k = 1; k < n; ++k) v.push_back(k * width);
    return v;
  };
  const auto totalprice = ladder(4096, 16);
  const auto acctbal = ladder(512, 16);
  const auto quantity = ladder(4, 16);
  for (int64_t y = 1992; y <= 1998; ++y) {
    for (int64_t tp : totalprice) {
      out.push_back("SELECT o_orderstatus, COUNT(*) FROM orders o WHERE "
                    "o.o_totalprice >= " + std::to_string(tp) +
                    " AND o.o_orderyear = " + std::to_string(y) +
                    " GROUP BY o_orderstatus");
    }
    for (int64_t k = 2; k <= 256; k *= 2) {
      out.push_back("SELECT o_orderstatus, AVG(o_totalprice) FROM orders o "
                    "WHERE o.o_orderyear = " + std::to_string(y) +
                    " GROUP BY o_orderstatus HAVING COUNT(*) >= " +
                    std::to_string(k));
    }
    for (int64_t p = 0; p <= 4; ++p) {
      out.push_back("SELECT o_orderstatus, VARIANCE(o_totalprice) FROM "
                    "orders o WHERE o.o_orderpriority = " + std::to_string(p) +
                    " AND o.o_orderyear = " + std::to_string(y) +
                    " GROUP BY o_orderstatus");
    }
  }
  for (int64_t ab : acctbal) {
    for (int64_t th : acctbal) {
      out.push_back("SELECT c_mktsegment, AVG(c_acctbal) FROM customer c "
                    "WHERE c.c_acctbal < " + std::to_string(ab) +
                    " GROUP BY c_mktsegment HAVING AVG(c_acctbal) >= " +
                    std::to_string(th / 2));
    }
  }
  for (int64_t q : quantity) {
    for (int64_t y = 1992; y <= 1998; ++y) {
      out.push_back("SELECT l_returnflag, SUM(l_extendedprice) FROM lineitem "
                    "l WHERE l.l_quantity >= " + std::to_string(q) +
                    " AND l.l_shipyear = " + std::to_string(y) +
                    " GROUP BY l_returnflag");
    }
  }
  std::set<std::string> seen;
  std::vector<std::string> distinct;
  for (auto& t : out) {
    if (seen.insert(t).second) distinct.push_back(std::move(t));
  }
  return distinct;
}

}  // namespace

QuerySet MakeServePool(const Config& cfg) {
  // Fixed shares: count (W5) and sum (W10) queries have very different
  // errors, so a pool whose count/sum split moved with the seed would move
  // median_rel_error with it.
  const size_t want_count = cfg.tiny ? 200 : 3000;
  const size_t want_sum = cfg.tiny ? 100 : 1500;
  const size_t want_grouped = cfg.tiny ? 15 : 300;
  QuerySet set;
  set.scale = 1;
  std::set<std::string> seen;
  auto distinct = [&](int w, size_t want, uint64_t stream) {
    std::vector<std::string> out;
    // Three generator seeds: one W5 repeats its ~2 400 distinct texts.
    for (uint64_t k = 0; k < 3; ++k) {
      for (auto& q : Generate(w, set.scale, SubSeed(cfg, stream + k))) {
        if (seen.insert(q).second) out.push_back(std::move(q));
      }
    }
    SeededShuffle(&out, SubSeed(cfg, stream + 10));
    out.resize(std::min(out.size(), want));
    return out;
  };
  std::vector<std::string> scalar = distinct(5, want_count, 100);
  for (auto& q : distinct(10, want_sum, 200)) scalar.push_back(std::move(q));
  std::vector<std::string> grouped = GroupedTexts();
  SeededShuffle(&grouped, SubSeed(cfg, 201));
  grouped.resize(std::min(grouped.size(), want_grouped));
  for (auto& q : scalar) {
    set.sql.push_back(std::move(q));
    set.grouped.push_back(false);
  }
  for (auto& q : grouped) {
    set.sql.push_back(std::move(q));
    set.grouped.push_back(true);
  }
  set.num_grouped = grouped.size();
  return set;
}

std::vector<size_t> MakeStream(const Config& cfg, const QuerySet& pool) {
  std::vector<size_t> scalar, grouped;
  for (size_t i = 0; i < pool.sql.size(); ++i) {
    (pool.grouped[i] ? grouped : scalar).push_back(i);
  }
  if (cfg.workload != "serve_hot") {
    std::vector<size_t> all(pool.sql.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    SeededShuffle(&all, SubSeed(cfg, 300));
    return all;
  }
  constexpr size_t kHot = 64;
  const double share =
      static_cast<double>(grouped.size()) / static_cast<double>(pool.sql.size());
  const size_t n_grouped = std::min(
      grouped.size(), std::max<size_t>(1, static_cast<size_t>(
                                              std::lround(share * kHot))));
  SeededShuffle(&scalar, SubSeed(cfg, 301));
  SeededShuffle(&grouped, SubSeed(cfg, 302));
  std::vector<size_t> hot(grouped.begin(), grouped.begin() + n_grouped);
  for (size_t i = 0; hot.size() < kHot && i < scalar.size(); ++i) {
    hot.push_back(scalar[i]);
  }
  SeededShuffle(&hot, SubSeed(cfg, 303));
  return hot;
}

Published::~Published() {
  engine.reset();
  if (!wal_path.empty()) {
    std::error_code ec;
    std::filesystem::remove(wal_path, ec);
  }
}

std::string ScratchPath(const Config& cfg, const std::string& stem) {
  static int counter = 0;
  std::filesystem::create_directories(cfg.out_dir);
  return cfg.out_dir + "/" + stem + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++);
}

std::unique_ptr<Database> MakeDatabase(int scale) {
  // The database is a fixed fixture (the generator's default seed), as in
  // the paper; the run seed varies the queries. With the data seeded too,
  // the serve pool's median error moved by 20% between seeds.
  TpchConfig tpch;
  tpch.scale = scale;
  return GenerateTpch(tpch);
}

EngineOptions MakeEngineOptions(const std::string& wal_path, int noise) {
  EngineOptions options;
  // Noise seeds are engine configuration, fixed across runs; the run seed
  // varies the data and the queries. One noise draw alone moves the median
  // error of W5 by up to 50%, which would swamp any real change.
  options.seed = 1000 + static_cast<uint64_t>(noise);
  options.budget_wal_path = wal_path;
  return options;
}

std::unique_ptr<Published> Publish(const Config& cfg, const Database& db,
                                   const QuerySet& set, Report& report,
                                   int noise) {
  auto pub = std::make_unique<Published>();
  pub->wal_path = ScratchPath(cfg, "budget") + ".wal";
  pub->engine = std::make_unique<ViewRewriteEngine>(
      db, PrivacyPolicy{"orders"},
      MakeEngineOptions(pub->wal_path, noise));
  const double t0 = NowSeconds();
  Status st = pub->engine->Prepare(set.sql);
  pub->prepare_s = NowSeconds() - t0;
  if (!st.ok()) report.Fail("Prepare failed: " + st.ToString());
  CheckLedger(*pub, report);
  return pub;
}

void CheckLedger(const Published& pub, Report& report) {
  const ViewRewriteEngine& engine = *pub.engine;
  const PrepareReport& prep = engine.report();
  if (prep.num_quarantined != 0 || prep.num_views_failed != 0) {
    std::string first;
    for (const Status& s : prep.query_status) {
      if (!s.ok()) {
        first = s.ToString();
        break;
      }
    }
    report.Fail("Prepare quarantined " + std::to_string(prep.num_quarantined) +
                " queries and failed " +
                std::to_string(prep.num_views_failed) + " views: " + first);
  }
  const BudgetAccountant* acct = engine.views().accountant();
  if (acct == nullptr) {
    report.Fail("no budget accountant after Prepare");
    return;
  }
  const double total = acct->total();
  const double spent = acct->spent();
  if (!(spent <= total)) {
    report.Fail("budget over-spent: " + std::to_string(spent) + " > " +
                std::to_string(total));
  }
  auto replayed = BudgetWal::Replay(pub.wal_path);
  if (!replayed.ok()) {
    report.Fail("WAL replay failed: " + replayed.status().ToString());
    return;
  }
  const std::vector<BudgetAccountant::Entry> ledger = acct->ledger();
  bool same = replayed->has_total && replayed->total == total &&
              replayed->spent == spent && !replayed->torn_tail &&
              replayed->entries.size() == ledger.size();
  for (size_t i = 0; same && i < ledger.size(); ++i) {
    same = replayed->entries[i].epsilon == ledger[i].epsilon &&
           replayed->entries[i].label == ledger[i].label &&
           replayed->entries[i].refund == ledger[i].refund;
  }
  if (!same) report.Fail("WAL replay differs from the in-memory ledger");
}

void KeepBestRound(const Recurring& round, std::map<size_t, double>* best) {
  for (const auto& [key, values] : round) {
    const double median = Median(values);
    auto [it, fresh] = best->emplace(key, median);
    if (!fresh) it->second = std::min(it->second, median);
  }
}

double FastCycleRate(const Recurring& segments, size_t segment) {
  double seconds = 0;
  for (const auto& entry : segments) seconds += FastLow(entry.second);
  return seconds > 0 ? static_cast<double>(segment * segments.size()) / seconds
                     : 0;
}

double BestQuantile(const std::map<size_t, double>& best, double q) {
  std::vector<double> values;
  for (const auto& entry : best) values.push_back(entry.second);
  return Quantile(std::move(values), q);
}

void AppendRelativeErrors(const Published& pub, const QuerySet& set,
                          std::vector<double>* errors) {
  for (size_t i = 0; i < set.sql.size(); ++i) {
    if (set.grouped[i]) continue;
    Result<double> e = pub.engine->RelativeError(i);
    if (e.ok()) errors->push_back(*e);
  }
}

Result<ServedAnswer> DirectAnswer(const SynopsisStore& store,
                                  const Rewriter& rewriter,
                                  const std::string& sql) {
  VR_ASSIGN_OR_RETURN(SelectStmtPtr stmt,
                      ParseSelect(sql, ResourceLimits::Defaults()));
  VR_ASSIGN_OR_RETURN(RewrittenQuery rq, rewriter.Rewrite(*stmt));
  VR_ASSIGN_OR_RETURN(BoundRewrittenQuery bound, store.Bind(rq, nullptr));
  ServedAnswer out;
  const bool grouped = bound.chain.empty() && bound.terms.size() == 1 &&
                       bound.terms[0].query.cell_query != nullptr &&
                       !bound.terms[0].query.cell_query->group_by.empty();
  if (grouped) {
    VR_ASSIGN_OR_RETURN(aggregate::GroupedData data,
                        store.AnswerGrouped(bound.terms[0].query, {}));
    aggregate::ApplySuppression(aggregate::SuppressionPolicy{}, &data);
    out.value = static_cast<double>(data.rows.size());
    out.rows = std::make_shared<const aggregate::GroupedData>(std::move(data));
    return out;
  }
  VR_ASSIGN_OR_RETURN(out.value, store.Answer(bound, {}));
  return out;
}

}  // namespace perfbench
