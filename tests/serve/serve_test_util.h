#ifndef VIEWREWRITE_TESTS_SERVE_SERVE_TEST_UTIL_H_
#define VIEWREWRITE_TESTS_SERVE_SERVE_TEST_UTIL_H_

// Shared setup for the serve-layer resilience tests: publish a small
// workload over the mini TPC-H test database, save the bundle, and load
// it back through disk the way a serving process would.

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/viewrewrite_engine.h"
#include "view/synopsis_store.h"
#include "testing/test_db.h"

namespace viewrewrite {
namespace serve_testing {

struct ServeContext {
  std::unique_ptr<Database> db;
  std::unique_ptr<ViewRewriteEngine> engine;
  std::vector<std::string> workload;
  std::string bundle_path;
  std::shared_ptr<const SynopsisStore> store;

  /// Fault-free engine answer for workload query `i` (exact serve target).
  double Expected(size_t i) {
    Result<double> ans = engine->NoisyAnswer(i);
    EXPECT_TRUE(ans.ok()) << ans.status();
    return ans.ok() ? *ans : 0;
  }
};

/// Publishes the standard workload with noise seed `engine_seed` and
/// round-trips the bundle through `name`.vrsy in the test temp dir.
/// Different seeds produce different noisy cells — the reload test uses
/// that to tell two bundles apart. `lifetime_epsilon` > 0 leaves a
/// cross-epoch reserve for republish-generation tests (see
/// EngineOptions::lifetime_epsilon).
inline ServeContext MakeServeContext(uint64_t engine_seed = 42,
                                     const std::string& name = "bundle",
                                     double lifetime_epsilon = 0) {
  ServeContext ctx;
  ctx.db = testing_support::MakeTestDatabase(13, 40);
  ctx.workload = {
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64",
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 128",
      "SELECT COUNT(*) FROM orders o WHERE o.o_status = 'f'",
      "SELECT SUM(o_totalprice) FROM orders o WHERE o.o_status = 'o'",
  };
  EngineOptions options;
  options.seed = engine_seed;
  options.lifetime_epsilon = lifetime_epsilon;
  ctx.engine = std::make_unique<ViewRewriteEngine>(
      *ctx.db, PrivacyPolicy{"customer"}, options);
  Status prepared = ctx.engine->Prepare(ctx.workload);
  EXPECT_TRUE(prepared.ok()) << prepared;
  if (!prepared.ok()) return ctx;

  // The pid keeps concurrently running test processes of the same binary
  // from publishing over each other's bundle: concurrent Saves to one
  // path are unsupported (a successful publish sweeps `<path>.tmp*`
  // siblings, including a neighbour's in-flight temp file).
  ctx.bundle_path = ::testing::TempDir() + name + "_" +
                    std::to_string(engine_seed) + "." +
                    std::to_string(::getpid()) + ".vrsy";
  Result<SynopsisStore> snapshot =
      SynopsisStore::FromManager(ctx.engine->views(), ctx.db->schema());
  EXPECT_TRUE(snapshot.ok()) << snapshot.status();
  if (!snapshot.ok()) return ctx;
  Status saved = snapshot->Save(ctx.bundle_path);
  EXPECT_TRUE(saved.ok()) << saved;
  Result<SynopsisStore> loaded =
      SynopsisStore::Load(ctx.bundle_path, ctx.db->schema());
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  if (loaded.ok()) {
    ctx.store = std::make_shared<const SynopsisStore>(std::move(*loaded));
  }
  return ctx;
}

}  // namespace serve_testing
}  // namespace viewrewrite

#endif  // VIEWREWRITE_TESTS_SERVE_SERVE_TEST_UTIL_H_
