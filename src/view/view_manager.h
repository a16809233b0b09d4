#ifndef VIEWREWRITE_VIEW_VIEW_MANAGER_H_
#define VIEWREWRITE_VIEW_VIEW_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/random.h"
#include "common/result.h"
#include "dp/budget.h"
#include "exec/executor.h"
#include "view/synopsis.h"
#include "view/synopsis_store.h"
#include "view/view_def.h"
#include "view/view_matcher.h"

namespace viewrewrite {

/// How the total budget is split across views at publication time.
/// kUniform is the paper's scheme; kByUsage is the extension the paper
/// sketches as future work ("optimizing privacy budget allocation
/// strategies"): views answering more workload queries receive
/// proportionally more budget.
enum class BudgetAllocation {
  kUniform,
  kByUsage,
};

/// View generation + publication (§9's first two modules behind one
/// interface). Both ViewRewrite and the PrivateSQL baseline drive this
/// class; they differ in how queries are rewritten and in which
/// predicates are baked into the view (the baseline bakes subquery-derived
/// predicates, constants included, which is what makes its view count
/// grow). Each publication is an immutable SynopsisStore (published()),
/// and every answer — engine, Republisher, QueryServer — reads one.
class ViewManager {
 public:
  /// `bake` decides, per WHERE conjunct, whether the predicate becomes part
  /// of the view definition (baked, evaluated at materialization) instead
  /// of a cell-level filter. Pass nullptr to bake nothing. (The type lives
  /// in view_matcher.h so serve-time matching shares it.)
  using BakePredicate = viewrewrite::BakePredicate;

  ViewManager(const Schema& schema, PrivacyPolicy policy,
              SynopsisOptions options = {})
      : schema_(schema), policy_(std::move(policy)), options_(options) {}

  /// Registers one scalar aggregate query (a combination term or a chain
  /// link): locates/creates its view, contributes attributes and measures.
  Result<BoundQuery> RegisterScalar(const SelectStmt& query,
                                    const BakePredicate& bake);

  /// Registers a full rewritten query (chain + combination).
  Result<BoundRewrittenQuery> RegisterRewritten(const RewrittenQuery& rq,
                                                const BakePredicate& bake);

  size_t NumViews() const { return views_.size(); }
  const std::vector<std::unique_ptr<ViewDef>>& views() const { return views_; }

  /// Publishes one synopsis per view (sequential composition across
  /// views), each view running the §9 pipeline, into published(). Must be
  /// called after all registrations, and only once: a manager that
  /// already holds a ledger fails with AlreadyExists before any spend
  /// (later generations go through RepublishViews). `allocation` picks
  /// the budget split.
  ///
  /// With `degraded` set, a view whose publication fails (injected fault,
  /// SVT abort, non-finite noise, ...) does not abort the batch: its
  /// budget slice is refunded (all of its outputs are discarded before
  /// anything is published, so the spend composes as if it never
  /// happened), the failure is recorded in failed_views(), and the
  /// remaining views still publish. Without `degraded` the first failure
  /// is returned immediately (the pre-robustness contract).
  ///
  /// `lifetime_epsilon`, when positive, is the accountant's total across
  /// the whole synopsis lifetime: the initial publication still splits
  /// only `total_epsilon` across views, and the difference is the reserve
  /// later RepublishViews generations draw from under sequential
  /// composition (cross-epoch composition: initial + every generation sum
  /// against one ledger). Zero (the default) keeps the single-epoch
  /// contract: the lifetime budget equals `total_epsilon` and any
  /// republish hard-fails immediately.
  Status Publish(const Database& db, double total_epsilon, Random* rng,
                 BudgetAllocation allocation = BudgetAllocation::kUniform,
                 bool degraded = false, double lifetime_epsilon = 0);

  /// Outcome of one delta-republish generation (RepublishViews).
  struct RepublishOutcome {
    uint64_t generation = 0;
    /// Views whose BaseRelations() intersect the changed set.
    std::vector<std::string> affected;
    /// Affected views rebuilt successfully this generation.
    std::vector<std::string> rebuilt;
    /// Affected views whose rebuild failed: budget refunded, old synopsis
    /// (if any) kept serving, view flagged outdated.
    std::vector<std::string> failed;
    /// Net epsilon consumed by this generation (spends minus refunds).
    double epsilon_spent = 0;
    /// Per-rebuilt-view slice, for a caller-side discard refund (see
    /// RefundGeneration).
    double epsilon_per_view = 0;
  };

  /// Delta republish (synopsis lifecycle, generation `generation` >= 1):
  /// rebuilds only the views whose base relations intersect
  /// `changed_relations`, spending `generation_epsilon` split uniformly
  /// across them under sequential composition against the lifetime ledger
  /// (labels "gen<N>:synopsis:<sig>"). Hard-fails with PrivacyError
  /// before touching any view when the remaining lifetime budget cannot
  /// cover the generation. A per-view rebuild failure refunds that slice
  /// ("refund:gen<N>:synopsis:<sig>"), keeps the old synopsis serving and
  /// records the view outdated-since this generation; a successful
  /// rebuild replaces the synopsis, stamps its data generation and clears
  /// any outdated flag (a view that failed its initial publication heals
  /// if its rebuild succeeds). Requires a prior Publish.
  ///
  /// The generation is a new store: a copy of published() sharing every
  /// unchanged entry, with the rebuilt ones replaced, swapped in at the
  /// end. Readers holding the previous store keep answering from it. Not
  /// thread-safe against itself; the serve-layer Republisher serializes
  /// all lifecycle mutations.
  Result<RepublishOutcome> RepublishViews(
      const Database& db, const std::vector<std::string>& changed_relations,
      double generation_epsilon, Random* rng, uint64_t generation);

  /// Caller-side discard: a generation that rebuilt successfully but was
  /// never published anywhere observable (e.g. the bundle save failed and
  /// the next generation will overwrite the cells) refunds its rebuilt
  /// views' slices. Must not be called once the generation's outputs were
  /// persisted or served.
  Status RefundGeneration(const RepublishOutcome& outcome);

  /// Views whose synopsis publication failed in a degraded Publish:
  /// signature -> recorded failure. Answering a query bound to one of
  /// these views returns that status.
  const std::map<std::string, Status>& failed_views() const {
    return failed_views_;
  }

  /// Failure status of the first failed view `q` is bound to, or nullptr
  /// when every view it needs was published.
  const Status* BindingFailure(const BoundRewrittenQuery& q) const;

  /// The current publication (empty before Publish). Its snapshot
  /// metadata (schema fingerprint, ledger summary, generation info) is
  /// stamped by SynopsisStore::FromManager.
  const std::shared_ptr<const SynopsisStore>& published() const {
    return published_;
  }
  size_t NumPublished() const { return published_->NumViews(); }

  /// Number of registered scalar queries (terms + chain links) answered
  /// by view `signature`.
  size_t ViewUsage(const std::string& signature) const;

  /// Registration variant for grouped queries: group-by columns become
  /// view attributes alongside the filter columns.
  Result<BoundQuery> RegisterGrouped(const SelectStmt& query,
                                     const BakePredicate& bake);

  /// Per-view build stats of the current publication.
  std::vector<Synopsis::BuildStats> BuildStatsList() const;

  const BudgetAccountant* accountant() const { return accountant_.get(); }

  /// Attaches a crash-durable write-ahead budget ledger (see
  /// dp/budget_wal.h). Publish then (a) seeds the accountant with the
  /// spent epsilon the WAL replayed from previous process lives, so a
  /// restart composes against everything already durably recorded, and
  /// (b) routes every subsequent Spend/Refund through the WAL ahead of
  /// the in-memory mutation. Must be attached before Publish; the WAL is
  /// not owned and must outlive the manager.
  void AttachBudgetWal(BudgetWal* wal) { budget_wal_ = wal; }

 private:
  /// Clones `view` and builds its synopsis against the clone.
  Result<SynopsisStore::Entry> BuildEntry(const ViewDef& view,
                                          const Database& db, double epsilon,
                                          Random* rng) const;

  const Schema& schema_;
  PrivacyPolicy policy_;
  SynopsisOptions options_;
  std::vector<std::unique_ptr<ViewDef>> views_;
  std::map<std::string, size_t> view_index_;           // signature -> index
  std::map<std::string, size_t> view_usage_;           // signature -> #queries
  std::map<std::string, Status> failed_views_;         // signature -> failure
  std::shared_ptr<const SynopsisStore> published_{new SynopsisStore()};
  std::unique_ptr<BudgetAccountant> accountant_;
  BudgetWal* budget_wal_ = nullptr;
};

}  // namespace viewrewrite

#endif  // VIEWREWRITE_VIEW_VIEW_MANAGER_H_
