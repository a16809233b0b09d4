// Generates the fuzz seed corpus: representative TPC-H / Census workload
// SQL (one file per query) and one valid published .vrsy bundle, so the
// mutators start from inputs that exercise deep parser/rewriter/loader
// paths rather than from empty strings.
//
//   make_seed_corpus OUTDIR   writes OUTDIR/sql/*.sql, OUTDIR/vrsy/*.vrsy
//                             and OUTDIR/wal/*.wal (budget-ledger seeds,
//                             including a torn-tail truncation)

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "datagen/tpch.h"
#include "dp/budget_wal.h"
#include "engine/viewrewrite_engine.h"
#include "view/synopsis_store.h"
#include "workload/workload.h"

namespace {

using viewrewrite::EngineOptions;
using viewrewrite::GenerateTpch;
using viewrewrite::PrivacyPolicy;
using viewrewrite::SynopsisStore;
using viewrewrite::TpchConfig;
using viewrewrite::ViewRewriteEngine;
using viewrewrite::WorkloadGenerator;
using viewrewrite::WorkloadQuery;

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  return out.good();
}

int WriteSqlSeeds(const std::string& dir) {
  WorkloadGenerator gen(/*tpch_scale=*/1, /*seed=*/7);
  int written = 0;
  // One slice per workload family: mixed scalar (W1), correlated nested
  // (W16), non-correlated nested (W21), derived tables (W26), Census (W31).
  for (int w : {1, 16, 21, 26, 31}) {
    auto queries = gen.Generate(w);
    if (!queries.ok()) {
      std::fprintf(stderr, "workload %d: %s\n", w,
                   queries.status().ToString().c_str());
      return -1;
    }
    size_t n = 0;
    for (const WorkloadQuery& q : *queries) {
      if (n >= 12) break;
      std::string name = dir + "/w" + std::to_string(w) + "_" +
                         std::to_string(n) + ".sql";
      if (!WriteFile(name, q.sql)) return -1;
      ++written;
      ++n;
    }
  }
  // Grouped / derived-measure statements: the workload generator emits
  // scalar aggregates only, so seed the GROUP BY / HAVING / AVG / VARIANCE
  // grammar explicitly — these reach the aggregate planner and the
  // RegisterGrouped proxy path in the rewriter.
  const char* grouped[] = {
      "SELECT o_orderstatus, COUNT(*) FROM orders o GROUP BY o_orderstatus",
      "SELECT o_orderstatus, AVG(o_totalprice) FROM orders o "
      "GROUP BY o_orderstatus HAVING COUNT(*) >= 2",
      "SELECT o_orderstatus, SUM(o_totalprice), VARIANCE(o_totalprice) "
      "FROM orders o GROUP BY o_orderstatus",
      "SELECT o_orderstatus, STDDEV(o_totalprice) FROM orders o "
      "WHERE o.o_totalprice >= 64 GROUP BY o_orderstatus "
      "HAVING AVG(o_totalprice) > 100",
      "SELECT c_mktsegment, o_orderstatus, COUNT(*) FROM customer c, "
      "orders o WHERE c.c_custkey = o.o_custkey "
      "GROUP BY c_mktsegment, o_orderstatus HAVING SUM(o_totalprice) >= 0",
  };
  for (size_t i = 0; i < sizeof(grouped) / sizeof(grouped[0]); ++i) {
    std::string name = dir + "/grouped_" + std::to_string(i) + ".sql";
    if (!WriteFile(name, grouped[i])) return -1;
    ++written;
  }
  return written;
}

int WriteVrsySeed(const std::string& dir) {
  TpchConfig config;
  config.scale = 1;
  config.customers = 60;
  config.parts = 40;
  auto db = GenerateTpch(config);

  ViewRewriteEngine engine(*db, PrivacyPolicy{"orders"}, EngineOptions{});
  WorkloadGenerator gen(1, 7);
  auto queries = gen.Generate(1);
  if (!queries.ok()) return -1;
  std::vector<std::string> workload;
  for (size_t i = 0; i < 12 && i < queries->size(); ++i) {
    workload.push_back((*queries)[i].sql);
  }
  if (!engine.Prepare(workload).ok()) return -1;

  auto store = SynopsisStore::FromManager(engine.views(), db->schema());
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return -1;
  }
  if (!store->Save(dir + "/tpch_seed.vrsy").ok()) return -1;
  return 1;
}

int WriteWalSeeds(const std::string& dir) {
  using viewrewrite::BudgetWal;
  // A real log with the full record vocabulary: total, spends, a refund,
  // and a checkpoint — the mutators start from every frame type.
  const std::string full = dir + "/budget_seed.wal";
  std::remove(full.c_str());
  {
    BudgetWal::Options options;
    options.compact_threshold_bytes = 0;  // keep every record in the seed
    auto wal = BudgetWal::Open(full, 12.0, options);
    if (!wal.ok()) {
      std::fprintf(stderr, "%s\n", wal.status().ToString().c_str());
      return -1;
    }
    if (!(*wal)->AppendSpend(6.0, "synopsis:initial").ok() ||
        !(*wal)->AppendSpend(0.8, "gen1:orders").ok() ||
        !(*wal)->AppendRefund(0.8, "refund:gen1:orders").ok() ||
        !(*wal)->AppendSpend(0.8, "gen2:customer,orders").ok() ||
        !(*wal)->AppendCheckpoint(2).ok()) {
      return -1;
    }
  }
  // The same log torn mid-record: the canonical crash shape the replay
  // path must shrug off (tests/dp/budget_wal_test.cc proves every offset;
  // the corpus keeps one representative in the mutation pool).
  std::ifstream in(full, std::ios::binary);
  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (blob.size() < 16) return -1;
  if (!WriteFile(dir + "/budget_torn.wal",
                 blob.substr(0, blob.size() - blob.size() / 3))) {
    return -1;
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUTDIR\n", argv[0]);
    return 2;
  }
  std::string out = argv[1];
  std::error_code ec;
  std::filesystem::create_directories(out + "/sql", ec);
  std::filesystem::create_directories(out + "/vrsy", ec);
  std::filesystem::create_directories(out + "/wal", ec);

  int sql = WriteSqlSeeds(out + "/sql");
  if (sql < 0) return 1;
  int vrsy = WriteVrsySeed(out + "/vrsy");
  if (vrsy < 0) return 1;
  int wal = WriteWalSeeds(out + "/wal");
  if (wal < 0) return 1;
  std::printf("seed corpus: %d SQL seeds, %d bundle(s), %d WAL(s) under %s\n",
              sql, vrsy, wal, out.c_str());
  return 0;
}
