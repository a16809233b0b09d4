#include "engine/viewrewrite_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "engine/engine_internal.h"
#include "sql/parser.h"

namespace viewrewrite {

std::ostream& operator<<(std::ostream& os, const PrepareReport& report) {
  os << "prepared " << report.num_prepared << "/"
     << report.query_status.size() << " queries";
  if (report.AllHealthy()) return os << " (all healthy)";
  os << ", " << report.num_quarantined << " quarantined, "
     << report.num_views_failed << " views failed";
  size_t shown = 0;
  for (size_t i = 0; i < report.query_status.size() && shown < 3; ++i) {
    if (report.query_status[i].ok()) continue;
    os << "\n  query " << i << ": " << report.query_status[i].ToString();
    ++shown;
  }
  return os;
}

std::ostream& operator<<(std::ostream& os, const EngineStats& stats) {
  os << "queries=" << stats.num_queries << " views=" << stats.num_views
     << " | rewrite=" << stats.rewrite_seconds
     << "s viewgen=" << stats.view_generation_seconds
     << "s publish=" << stats.publish_seconds
     << "s (synopsis total " << stats.SynopsisSeconds()
     << "s) | answer=" << stats.answer_seconds
     << "s | budget: spent=" << stats.budget_spent_epsilon << " of "
     << stats.budget_total_epsilon
     << " eps, refunds=" << stats.budget_refunds;
  if (stats.budget_poisoned) os << " (POISONED)";
  return os;
}

double RelativeErrorMetric(double true_answer, double noisy_answer) {
  return std::fabs(true_answer - noisy_answer) /
         std::max(50.0, std::fabs(true_answer));
}

ViewRewriteEngine::ViewRewriteEngine(const Database& db, PrivacyPolicy policy,
                                     EngineOptions options)
    : db_(db),
      policy_(std::move(policy)),
      options_(options),
      rewriter_(db.schema(), RewriteWithLimits(options.rewrite,
                                               options.limits)),
      views_(db.schema(), policy_,
             SynopsisWithLimits(options.synopsis, options.limits)),
      executor_(db),
      rng_(options.seed) {
  options_.rewrite.limits = options_.limits;
  options_.synopsis = SynopsisWithLimits(options_.synopsis, options_.limits);
}

Status ViewRewriteEngine::Prepare(const std::vector<std::string>& workload) {
  if (views_.accountant() != nullptr) {
    // A second publication would re-spend the budget; the first keeps
    // serving.
    return Status::AlreadyExists("Prepare runs once per engine");
  }
  stats_ = EngineStats{};
  stats_.num_queries = workload.size();
  report_ = PrepareReport{};
  report_.query_status.assign(workload.size(), Status::OK());
  const bool strict = options_.strict;
  auto quarantine = [&](size_t i, Status st) {
    report_.query_status[i] = std::move(st);
    ++report_.num_quarantined;
  };

  // ---- Durable budget ledger (before anything can spend). ------------------
  if (!options_.budget_wal_path.empty() && budget_wal_ == nullptr) {
    BudgetWal::Options wal_options;
    wal_options.compact_threshold_bytes = options_.budget_wal_compact_bytes;
    // Same lifetime-total rule as ViewManager::Publish: the WAL's total is
    // the budget the whole synopsis lifetime composes against.
    const double lifetime_total =
        options_.lifetime_epsilon > options_.epsilon ? options_.lifetime_epsilon
                                                     : options_.epsilon;
    VR_ASSIGN_OR_RETURN(
        budget_wal_,
        BudgetWal::Open(options_.budget_wal_path, lifetime_total,
                        wal_options));
    views_.AttachBudgetWal(budget_wal_.get());
  }

  // ---- Query rewriting. ----------------------------------------------------
  auto t0 = std::chrono::steady_clock::now();
  rewritten_.clear();
  rewritten_.resize(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    auto rewrite_one = [&]() -> Result<RewrittenQuery> {
      VR_ASSIGN_OR_RETURN(SelectStmtPtr stmt,
                          ParseSelect(workload[i], options_.limits));
      return rewriter_.Rewrite(*stmt);
    };
    Result<RewrittenQuery> rq = rewrite_one();
    if (!rq.ok()) {
      if (strict) return rq.status();
      quarantine(i, rq.status());
      continue;
    }
    rewritten_[i] = std::move(rq).value();
  }
  stats_.rewrite_seconds = SecondsSince(t0);

  // ---- View generation (registration + merging by signature). --------------
  t0 = std::chrono::steady_clock::now();
  bound_.clear();
  bound_.resize(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    if (!report_.query_status[i].ok()) continue;
    Result<BoundRewrittenQuery> bq =
        views_.RegisterRewritten(rewritten_[i], nullptr);
    if (!bq.ok()) {
      if (strict) return bq.status();
      quarantine(i, bq.status());
      continue;
    }
    bound_[i] = std::move(bq).value();
  }
  stats_.view_generation_seconds = SecondsSince(t0);
  stats_.num_views = views_.NumViews();

  // ---- View publication (the only budget-consuming stage). -----------------
  t0 = std::chrono::steady_clock::now();
  if (strict || views_.NumViews() > 0) {
    VR_RETURN_NOT_OK(views_.Publish(db_, options_.epsilon, &rng_,
                                    options_.budget_allocation,
                                    /*degraded=*/!strict,
                                    options_.lifetime_epsilon));
    report_.num_views_failed = views_.failed_views().size();
    if (report_.num_views_failed > 0) {
      for (size_t i = 0; i < bound_.size(); ++i) {
        if (!report_.query_status[i].ok()) continue;
        if (const Status* failure = views_.BindingFailure(bound_[i])) {
          quarantine(i, *failure);
        }
      }
    }
  }
  stats_.publish_seconds = SecondsSince(t0);
  SnapshotBudget(views_, &stats_);

  report_.num_prepared = workload.size() - report_.num_quarantined;
  if (!workload.empty() && report_.num_prepared == 0) {
    return Status::ExecutionError(
        "all " + std::to_string(workload.size()) +
        " workload queries failed to prepare; first error: " +
        report_.query_status.front().ToString());
  }
  return Status::OK();
}

Result<ViewManager::RepublishOutcome> ViewRewriteEngine::RepublishChanged(
    const std::vector<std::string>& changed_relations,
    double generation_epsilon, uint64_t generation) {
  auto t0 = std::chrono::steady_clock::now();
  Result<ViewManager::RepublishOutcome> outcome = views_.RepublishViews(
      db_, changed_relations, generation_epsilon, &rng_, generation);
  stats_.publish_seconds += SecondsSince(t0);
  SnapshotBudget(views_, &stats_);
  return outcome;
}

Status ViewRewriteEngine::RefundGeneration(
    const ViewManager::RepublishOutcome& outcome) {
  Status st = views_.RefundGeneration(outcome);
  SnapshotBudget(views_, &stats_);
  return st;
}

Status ViewRewriteEngine::CheckpointBudgetWal(uint64_t generation) {
  if (budget_wal_ == nullptr) return Status::OK();
  return budget_wal_->AppendCheckpoint(generation);
}

Result<aggregate::GroupedData> ViewRewriteEngine::GroupedAnswer(size_t i,
                                                                bool exact) {
  if (i >= bound_.size()) {
    return Status::InvalidArgument("query index out of range");
  }
  if (!report_.query_status[i].ok()) return report_.query_status[i];
  if (!bound_[i].IsGrouped()) {
    return Status::Unsupported("query " + std::to_string(i) +
                               " is scalar; use NoisyAnswer/TrueAnswer");
  }
  auto t0 = std::chrono::steady_clock::now();
  Result<aggregate::GroupedData> out = views_.published()->AnswerGrouped(
      bound_[i].terms[0].query, /*params=*/{}, exact);
  stats_.answer_seconds += SecondsSince(t0);
  return out;
}

Result<double> ViewRewriteEngine::AnswerScalar(size_t i, bool exact) const {
  if (i >= bound_.size()) {
    return Status::InvalidArgument("query index out of range");
  }
  if (!report_.query_status[i].ok()) return report_.query_status[i];
  if (bound_[i].IsGrouped()) {
    return Status::Unsupported("query " + std::to_string(i) +
                               " is grouped; use GroupedAnswer");
  }
  return views_.published()->Answer(bound_[i], /*params=*/{}, exact);
}

Result<double> ViewRewriteEngine::NoisyAnswer(size_t i) {
  auto t0 = std::chrono::steady_clock::now();
  Result<double> out = AnswerScalar(i, /*exact=*/false);
  stats_.answer_seconds += SecondsSince(t0);
  return out;
}

Result<double> ViewRewriteEngine::TrueAnswer(size_t i) const {
  if (i >= rewritten_.size()) {
    return Status::InvalidArgument("query index out of range");
  }
  if (!report_.query_status[i].ok()) return report_.query_status[i];
  if (i < bound_.size() && bound_[i].IsGrouped()) {
    return Status::Unsupported("query " + std::to_string(i) +
                               " is grouped; use GroupedAnswer");
  }
  return executor_.ExecuteRewritten(rewritten_[i]);
}

Result<double> ViewRewriteEngine::ExactViewAnswer(size_t i) const {
  return AnswerScalar(i, /*exact=*/true);
}

Result<double> ViewRewriteEngine::RelativeError(size_t i) {
  VR_ASSIGN_OR_RETURN(double truth, ExactViewAnswer(i));
  VR_ASSIGN_OR_RETURN(double noisy, NoisyAnswer(i));
  return RelativeErrorMetric(truth, noisy);
}

}  // namespace viewrewrite
