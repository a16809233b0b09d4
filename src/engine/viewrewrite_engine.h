#ifndef VIEWREWRITE_ENGINE_VIEWREWRITE_ENGINE_H_
#define VIEWREWRITE_ENGINE_VIEWREWRITE_ENGINE_H_

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/random.h"
#include "common/result.h"
#include "dp/budget_wal.h"
#include "exec/executor.h"
#include "rewrite/rewriter.h"
#include "view/view_manager.h"

namespace viewrewrite {

struct EngineOptions {
  double epsilon = 8.0;
  /// Lifetime privacy budget for the synopsis lifecycle. When greater
  /// than `epsilon`, the initial publication still splits only `epsilon`
  /// across views and the surplus is the reserve later RepublishChanged
  /// generations draw from (sequential composition across epochs on one
  /// ledger). Zero (default) means no reserve: the lifetime budget is
  /// `epsilon` and every republish hard-fails before over-spending.
  double lifetime_epsilon = 0;
  uint64_t seed = 42;
  /// Resource governance for untrusted workload input (see
  /// docs/ROBUSTNESS.md for the limit table). The engine parses every
  /// workload query under these limits, copies them into
  /// `rewrite.limits` at construction (set them here, not there), and
  /// clamps `synopsis.max_cells` to `limits.max_view_cells` — so one knob
  /// governs the whole parse -> rewrite -> publish pipeline.
  ResourceLimits limits;
  RewriteOptions rewrite;
  SynopsisOptions synopsis;
  /// Budget split across views (kByUsage is the paper's future-work
  /// extension: weight views by the number of queries they answer).
  BudgetAllocation budget_allocation = BudgetAllocation::kUniform;
  /// Crash-durable privacy accounting: when non-empty, Prepare opens (or
  /// replays) a write-ahead budget ledger at this path (dp/budget_wal.h).
  /// Every spend is fsync'd there before any noisy value is computed, and
  /// a restarted process pointed at the same path composes its spends on
  /// top of everything previous lives durably recorded — so a crash
  /// mid-publish can never silently re-spend the lifetime epsilon. Empty
  /// (default) keeps the accountant purely in-memory.
  std::string budget_wal_path;
  /// WAL size past which appending a generation checkpoint compacts the
  /// log down to header + total + checkpoint. 0 disables compaction.
  uint64_t budget_wal_compact_bytes = 256 * 1024;
  /// Fail-fast preparation: any per-query or per-view failure aborts
  /// Prepare immediately (the pre-robustness contract, kept for the
  /// benchmarks). The default is degraded mode: failing queries are
  /// quarantined, failing views are recovered per-view, and the healthy
  /// remainder of the workload is still served.
  bool strict = false;
};

/// Per-query outcome of Prepare in degraded mode. `query_status` is
/// index-aligned with the workload: OK means the query is answerable from
/// the published synopses; a non-OK entry is the quarantined query's
/// recorded failure, returned verbatim by NoisyAnswer / TrueAnswer /
/// RelativeError for that index.
struct PrepareReport {
  std::vector<Status> query_status;
  size_t num_prepared = 0;      // answerable queries
  size_t num_quarantined = 0;   // queries held out of the batch
  size_t num_views_failed = 0;  // views whose publication failed
  bool AllHealthy() const {
    return num_quarantined == 0 && num_views_failed == 0;
  }
};

/// One-line health summary, plus the first few quarantine reasons when
/// anything failed (examples and benches print this after Prepare).
std::ostream& operator<<(std::ostream& os, const PrepareReport& report);

struct EngineStats {
  size_t num_queries = 0;
  size_t num_views = 0;
  double rewrite_seconds = 0;
  double view_generation_seconds = 0;
  double publish_seconds = 0;
  double answer_seconds = 0;

  /// Budget ledger summary after Publish: the privacy budget the workload
  /// was prepared under, what publication actually consumed (refunds from
  /// failed degraded-mode views already netted out), and how many refunds
  /// the ledger recorded. spent <= total is the core DP invariant the
  /// chaos harness asserts under injected publish failures.
  double budget_total_epsilon = 0;
  double budget_spent_epsilon = 0;
  size_t budget_refunds = 0;
  /// True when the accountant was poisoned (constructed with a non-finite
  /// or negative epsilon, or seeded with garbage recovery state): every
  /// spend is refused, and the totals above report 0 rather than echoing
  /// the garbage value.
  bool budget_poisoned = false;

  /// Synopsis generation time in the paper's sense: rewriting + view
  /// generation + view publication.
  double SynopsisSeconds() const {
    return rewrite_seconds + view_generation_seconds + publish_seconds;
  }
};

std::ostream& operator<<(std::ostream& os, const EngineStats& stats);

/// The paper's system: rewrite every workload query (Rules 1-20), derive
/// and merge views, publish one DP synopsis per view, then answer all
/// queries from the synopses with no further privacy cost.
class ViewRewriteEngine {
 public:
  ViewRewriteEngine(const Database& db, PrivacyPolicy policy,
                    EngineOptions options = {});

  /// Rewrites + registers + publishes. Call once: a second call after a
  /// publication fails with AlreadyExists and changes nothing (later
  /// generations go through RepublishChanged).
  ///
  /// Degraded mode (default): per-query failures quarantine the query,
  /// per-view publication failures refund that view's budget slice and
  /// quarantine only the queries bound to it; returns OK as long as at
  /// least one query survives (inspect report() for details). Strict
  /// mode (options.strict): the first failure aborts, as before.
  Status Prepare(const std::vector<std::string>& workload_sql);

  /// Per-query outcomes of the last Prepare.
  const PrepareReport& report() const { return report_; }

  /// The underlying view manager (budget accountant, failed views, ...).
  const ViewManager& views() const { return views_; }

  /// Delta publication for the synopsis lifecycle: rebuilds only the
  /// views whose definitions read one of `changed_relations`, spending
  /// `generation_epsilon` from the lifetime reserve (see
  /// EngineOptions::lifetime_epsilon) under per-generation ledger labels.
  /// Returns the per-view outcome; per-view rebuild failures refund and
  /// flag the view outdated instead of aborting. Call after a successful
  /// Prepare. Not thread-safe against NoisyAnswer or itself — the
  /// serve-layer Republisher serializes lifecycle mutations.
  Result<ViewManager::RepublishOutcome> RepublishChanged(
      const std::vector<std::string>& changed_relations,
      double generation_epsilon, uint64_t generation);

  /// Discards a generation that was never published anywhere observable
  /// (save failed before the bundle landed): refunds its rebuilt views'
  /// slices so the failed generation composes as if it never ran.
  Status RefundGeneration(const ViewManager::RepublishOutcome& outcome);

  /// Appends a generation checkpoint to the budget WAL (and compacts the
  /// log past EngineOptions::budget_wal_compact_bytes). The Republisher
  /// calls this after a generation's bundle is durably published and
  /// swapped; a no-op without a WAL.
  Status CheckpointBudgetWal(uint64_t generation);

  /// The write-ahead budget ledger Prepare opened, or nullptr when
  /// EngineOptions::budget_wal_path is empty.
  const BudgetWal* budget_wal() const { return budget_wal_.get(); }

  size_t NumQueries() const { return bound_.size(); }
  size_t NumViews() const { return views_.NumViews(); }

  /// Workload query `i` bound to its views (empty when quarantined).
  /// A grouped one (bound(i).IsGrouped()) is answered row-wise via
  /// GroupedAnswer; the scalar answer paths return Unsupported for it.
  const BoundRewrittenQuery& bound(size_t i) const { return bound_[i]; }

  /// Row-carrying answer for a grouped workload query: one row per group
  /// cell, derived aggregates computed from published measures, HAVING
  /// evaluated post-noise. With `exact`, uses pre-noise cell totals (the
  /// chaos/benchmark baseline). Pure post-processing: no privacy cost.
  Result<aggregate::GroupedData> GroupedAnswer(size_t i, bool exact = false);

  /// Differentially private answer for workload query `i`.
  Result<double> NoisyAnswer(size_t i);

  /// Exact answer (via the executor, on the rewritten form).
  Result<double> TrueAnswer(size_t i) const;

  /// Exact answer computed from the noiseless view cells — the paper's
  /// systems answer workload queries exactly from view tuples, so this is
  /// the benchmark ground truth (the executor path cross-checks it in the
  /// tests but is too slow for 12000-query sweeps).
  Result<double> ExactViewAnswer(size_t i) const;

  /// Relative error per the paper's metric: |y - ŷ| / max(50, y), with
  /// the exact view answer as y.
  Result<double> RelativeError(size_t i);

  const EngineStats& stats() const { return stats_; }
  const RewrittenQuery& rewritten(size_t i) const { return rewritten_[i]; }

 private:
  /// Answers prepared scalar query `i` from the current publication.
  Result<double> AnswerScalar(size_t i, bool exact) const;

  const Database& db_;
  PrivacyPolicy policy_;
  EngineOptions options_;
  Rewriter rewriter_;
  ViewManager views_;
  Executor executor_;
  Random rng_;
  std::vector<RewrittenQuery> rewritten_;
  std::vector<BoundRewrittenQuery> bound_;
  std::unique_ptr<BudgetWal> budget_wal_;
  EngineStats stats_;
  PrepareReport report_;
};

/// The paper's relative-error metric.
double RelativeErrorMetric(double true_answer, double noisy_answer);

}  // namespace viewrewrite

#endif  // VIEWREWRITE_ENGINE_VIEWREWRITE_ENGINE_H_
