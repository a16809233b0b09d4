// Serving demo: the full publish-once / serve-forever lifecycle.
//
//   1. Offline: prepare a workload under DP (spends the privacy budget),
//      snapshot the published synopses into a SynopsisStore, save it.
//   2. Online: reload the bundle from disk — no database access, no
//      budget — start a concurrent QueryServer over it, and answer
//      queries (including ones not in the original workload, as long as
//      a published view covers their structure).
//   3. Live republish (first run only, while the server keeps serving):
//      base data changed, so a Republisher rebuilds just the affected
//      views, spending from the lifetime reserve under cross-epoch
//      sequential composition, durably saves the new generation, and
//      atomically swaps it in — the epoch and generation advance with no
//      serving gap.
//
//   $ ./build/examples/serve_demo [bundle_path] [num_threads]
//
// Default bundle path: $TMPDIR/serve_demo_bundle.vrsy (left on disk so a
// second run demonstrates pure reload-and-serve without re-publishing —
// but never dropped into the working directory / repo checkout).

#include <cstdio>
#include <cstdlib>
#include <future>
#include <iostream>
#include <memory>
#include <vector>

#include "datagen/tpch.h"
#include "engine/viewrewrite_engine.h"
#include "serve/query_server.h"
#include "serve/republisher.h"
#include "view/synopsis_store.h"

int main(int argc, char** argv) {
  using namespace viewrewrite;

  // Default into the temp dir, not the working directory: demos must not
  // litter a source checkout with bundles.
  std::string default_path;
  const char* tmpdir = std::getenv("TMPDIR");
  default_path = std::string(tmpdir != nullptr && *tmpdir != '\0' ? tmpdir
                                                                  : "/tmp");
  if (default_path.back() != '/') default_path += '/';
  default_path += "serve_demo_bundle.vrsy";
  const std::string bundle_path = argc > 1 ? argv[1] : default_path;
  const size_t num_threads =
      argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 4;

  TpchConfig config;
  config.scale = 1;
  config.seed = 7;
  std::unique_ptr<Database> db = GenerateTpch(config);
  PrivacyPolicy policy{"orders"};

  // ---- Offline phase: publish and persist (skipped when a bundle already
  // exists — the second run of this demo serves without touching data).
  // The engine outlives the offline phase on the first run so the live
  // republish below can rebuild views from it.
  std::unique_ptr<ViewRewriteEngine> engine;
  if (!SynopsisStore::Load(bundle_path, db->schema()).ok()) {
    std::vector<std::string> workload = {
        "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 32768",
        "SELECT COUNT(*) FROM orders o WHERE o.o_orderstatus = 'f'",
        "SELECT SUM(o_totalprice) FROM orders o WHERE o.o_totalprice < 32768",
        "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_custkey = "
        "o.o_custkey AND c.c_mktsegment = 2",
        // Grouped + derived: AVG never materializes — it registers its
        // (sum, count) companions and is derived at serve time; the
        // HAVING filter is applied post-noise (docs/AGGREGATES.md).
        "SELECT o_orderstatus, AVG(o_totalprice) FROM orders o "
        "GROUP BY o_orderstatus HAVING COUNT(*) >= 2",
    };
    EngineOptions options;
    options.epsilon = 8.0;
    // Reserve beyond the initial publication: each later republish
    // generation draws from the surplus (here 12 - 8 = 4) on the same
    // lifetime ledger.
    options.lifetime_epsilon = 12.0;
    options.seed = 42;
    engine = std::make_unique<ViewRewriteEngine>(*db, policy, options);
    Status st = engine->Prepare(workload);
    if (!st.ok()) {
      std::fprintf(stderr, "Prepare failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::cout << "prepare: " << engine->report() << "\n";
    std::cout << "stats:   " << engine->stats() << "\n";

    auto store = SynopsisStore::FromManager(engine->views(), db->schema());
    if (!store.ok()) {
      std::fprintf(stderr, "snapshot failed: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }
    if (Status save = store->Save(bundle_path); !save.ok()) {
      std::fprintf(stderr, "save failed: %s\n", save.ToString().c_str());
      return 1;
    }
    std::printf("saved %zu views (eps spent %.3f of %.3f) to %s\n\n",
                store->NumViews(), store->ledger().spent_epsilon,
                store->ledger().total_epsilon, bundle_path.c_str());
  }

  // ---- Online phase: reload and serve concurrently.
  auto loaded = SynopsisStore::Load(bundle_path, db->schema());
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  auto store = std::make_shared<SynopsisStore>(std::move(*loaded));
  std::printf("loaded %zu views from %s\n", store->NumViews(),
              bundle_path.c_str());

  ServeOptions serve_options;
  serve_options.num_threads = num_threads;
  QueryServer server(store, db->schema(), serve_options);

  // A mix of workload queries and fresh variants the views still cover;
  // the last one has a structure no view matches and is refused cleanly.
  std::vector<std::string> queries = {
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 32768",
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 16384",
      "SELECT SUM(o_totalprice) FROM orders o WHERE o.o_totalprice < 16384",
      "SELECT COUNT(*) FROM orders o WHERE o.o_orderstatus = 'f' AND "
      "o.o_totalprice >= 32768",
      "SELECT o_orderstatus, AVG(o_totalprice) FROM orders o "
      "GROUP BY o_orderstatus HAVING COUNT(*) >= 2",
      "SELECT COUNT(*) FROM lineitem l WHERE l.l_quantity >= 25",
  };
  std::vector<std::future<Result<ServedAnswer>>> futures;
  for (const std::string& sql : queries) {
    futures.push_back(server.Submit(sql));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<ServedAnswer> answer = futures[i].get();
    if (answer.ok() && answer->rows != nullptr) {
      std::printf("  %-100.100s -> %zu groups\n", queries[i].c_str(),
                  answer->rows->rows.size());
      for (const auto& row : answer->rows->rows) {
        std::printf("      ");
        for (size_t c = 0; c < row.values.size(); ++c) {
          const Value& v = row.values[c];
          if (v.is_null()) {
            std::printf(" %s=NULL", answer->rows->columns[c].c_str());
          } else if (v.is_numeric()) {
            std::printf(" %s=%.2f", answer->rows->columns[c].c_str(),
                        v.ToDouble());
          } else {
            std::printf(" %s=%s", answer->rows->columns[c].c_str(),
                        v.AsString().c_str());
          }
        }
        std::printf("%s\n", row.suppressed ? "  [suppressed]" : "");
      }
    } else if (answer.ok()) {
      std::printf("  %-100.100s -> %.2f%s\n", queries[i].c_str(),
                  answer->value, answer->stale ? " (stale)" : "");
    } else {
      std::printf("  %-100.100s -> refused: %s\n", queries[i].c_str(),
                  answer.status().ToString().c_str());
    }
  }
  // ---- Live republish: only on the run that published (the engine holds
  // the views and the lifetime ledger). The server keeps serving while
  // the new generation is rebuilt, saved, and swapped in.
  if (engine) {
    std::printf("\nlive republish: orders changed (epoch %llu, "
                "generation %llu before)\n",
                static_cast<unsigned long long>(server.epoch()),
                static_cast<unsigned long long>(server.stats().generation));
    RepublisherOptions repub_options;
    repub_options.bundle_path = bundle_path;
    repub_options.generation_epsilon = 1.0;
    Republisher republisher(engine.get(), db->schema(), &server,
                            repub_options);
    Result<RepublishReport> report = republisher.RepublishNow({"orders"});
    if (!report.ok()) {
      std::fprintf(stderr, "republish failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "  generation %llu published: %zu views rebuilt, eps %.3f spent, "
        "epoch %llu -> %llu\n",
        static_cast<unsigned long long>(report->generation),
        report->rebuilt.size(), report->epsilon_spent,
        static_cast<unsigned long long>(report->parent_epoch),
        static_cast<unsigned long long>(report->epoch_after));
    Result<ServedAnswer> refreshed = server.Submit(queries[0]).get();
    if (refreshed.ok()) {
      std::printf("  %-100.100s -> %.2f (generation %llu)\n",
                  queries[0].c_str(), refreshed->value,
                  static_cast<unsigned long long>(refreshed->generation));
    }
  }

  server.Shutdown();
  std::cout << "\n" << server.stats() << "\n";
  return 0;
}
