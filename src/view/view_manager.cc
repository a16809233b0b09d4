#include "view/view_manager.h"

#include <algorithm>
#include <set>

#include "common/fault_injection.h"
#include "dp/budget_wal.h"
#include "rewrite/analysis.h"
#include "sql/printer.h"
#include "view/view_matcher.h"

namespace viewrewrite {

Result<BoundQuery> ViewManager::RegisterGrouped(const SelectStmt& query,
                                                const BakePredicate& bake) {
  if (query.group_by.empty()) {
    return Status::InvalidArgument("RegisterGrouped requires GROUP BY");
  }
  // Register via a scalar proxy whose WHERE additionally references the
  // group columns, so they become view attributes; then rebind the
  // original grouped statement.
  SelectStmtPtr proxy = query.Clone();
  proxy->group_by.clear();
  // HAVING aggregates are collected below and registered like select-list
  // ones; the scalar proxy itself must carry no HAVING (the scalar
  // analysis rejects it, and its filtering is post-noise anyway).
  proxy->having = nullptr;
  proxy->items.clear();
  SelectItem count_item;
  std::vector<ExprPtr> star_args;
  star_args.push_back(std::make_unique<StarExpr>());
  count_item.expr = MakeFuncCall("count", std::move(star_args));
  proxy->items.push_back(std::move(count_item));
  for (const ExprPtr& g : query.group_by) {
    if (g->kind != ExprKind::kColumnRef) {
      return Status::Unsupported("GROUP BY over non-column expressions");
    }
    // A tautological ISNOTNULL-or-not predicate would change semantics;
    // instead reference the column through a filter that every row
    // passes after the NULL cell check is irrelevant for registration.
    proxy->where =
        MakeAnd(std::move(proxy->where),
                MakeFuncCall("isnotnull", [&] {
                  std::vector<ExprPtr> args;
                  args.push_back(g->Clone());
                  return args;
                }()));
  }
  // Register once per aggregate call — select list and HAVING alike — so
  // every measure the grouped query needs lands on the (single, shared)
  // view. The scalar registration expands derived aggregates through the
  // planner, so AVG contributes (sum, count) and VARIANCE/STDDEV
  // contribute (sum, sum-of-squares, count) companion measures here, at
  // register time; answering them later is budget-free post-processing.
  BoundQuery bound;
  bool registered = false;
  std::vector<const FuncCallExpr*> aggs;
  for (const SelectItem& item : query.items) {
    CollectAggregateCalls(item.expr.get(), &aggs);
  }
  CollectAggregateCalls(query.having.get(), &aggs);
  for (const FuncCallExpr* agg : aggs) {
    SelectItem item;
    item.expr = agg->Clone();
    proxy->items[0] = std::move(item);
    VR_ASSIGN_OR_RETURN(bound, RegisterScalar(*proxy, bake));
    registered = true;
  }
  if (!registered) {
    VR_ASSIGN_OR_RETURN(bound, RegisterScalar(*proxy, bake));
  }
  bound.cell_query = query.Clone();
  return bound;
}

Result<BoundQuery> ViewManager::RegisterScalar(const SelectStmt& query,
                                               const BakePredicate& bake) {
  VR_FAULT_POINT(faults::kViewRegister);
  // One analysis shared with serve-time matching (view_matcher.h): the
  // shape says which view answers the query and what it must carry.
  VR_ASSIGN_OR_RETURN(ScalarQueryShape shape, AnalyzeScalarQuery(query, bake));

  ViewDef* view = nullptr;
  auto it = view_index_.find(shape.signature);
  if (it != view_index_.end()) {
    view = views_[it->second].get();
  } else {
    auto tmpl = std::make_unique<SelectStmt>();
    for (const auto& f : query.from) tmpl->from.push_back(f->Clone());
    tmpl->where = shape.baked_where ? shape.baked_where->Clone() : nullptr;
    views_.push_back(
        std::make_unique<ViewDef>(shape.signature, std::move(tmpl)));
    view_index_[shape.signature] = views_.size() - 1;
    view = views_.back().get();
  }

  // Contribute the attributes the cell predicates need.
  for (const auto& a : shape.attributes) {
    if (view->AttributeIndex(a.table, a.column) >= 0) continue;
    VR_ASSIGN_OR_RETURN(
        ColumnDomain domain,
        DeriveAttributeDomain(view->from_template().from, schema_, a.table,
                              a.column, options_.domain));
    view->AddAttribute(ViewAttribute{a.table, a.column, std::move(domain)});
  }

  // Contribute the measures the aggregate item needs.
  for (const auto& need : shape.measures) {
    switch (need.kind) {
      case ScalarQueryShape::MeasureNeed::Kind::kCount:
        break;  // count histogram always built
      case ScalarQueryShape::MeasureNeed::Kind::kSum: {
        ViewMeasure m;
        m.kind = ViewMeasure::Kind::kSum;
        m.expr = need.expr->Clone();
        m.key = need.key;
        VR_ASSIGN_OR_RETURN(
            m.value_bound,
            ExpressionBound(view->from_template().from, schema_, *need.expr,
                            options_.domain));
        view->AddMeasure(std::move(m));
        break;
      }
      case ScalarQueryShape::MeasureNeed::Kind::kExtremum: {
        if (view->AttributeIndex(need.table, need.column) >= 0) break;
        VR_ASSIGN_OR_RETURN(
            ColumnDomain domain,
            DeriveAttributeDomain(view->from_template().from, schema_,
                                  need.table, need.column, options_.domain));
        view->AddAttribute(
            ViewAttribute{need.table, need.column, std::move(domain)});
        break;
      }
    }
  }

  ++view_usage_[shape.signature];
  BoundQuery bound;
  bound.view_signature = shape.signature;
  bound.cell_query = MakeCellQuery(query, shape);
  return bound;
}

Result<BoundRewrittenQuery> ViewManager::RegisterRewritten(
    const RewrittenQuery& rq, const BakePredicate& bake) {
  BoundRewrittenQuery out;
  for (const ChainLink& link : rq.chain) {
    VR_ASSIGN_OR_RETURN(BoundQuery bq, RegisterScalar(*link.query, bake));
    BoundRewrittenQuery::Link l;
    l.var = link.var;
    l.query = std::move(bq);
    out.chain.push_back(std::move(l));
  }
  for (const auto& term : rq.combination.terms) {
    // Grouped terms (the rewriter passes grouped statements through as a
    // single coefficient-1 term) register through the grouped path: the
    // group columns become view attributes and the bound cell query
    // keeps its GROUP BY/HAVING for row-carrying answering.
    Result<BoundQuery> bq = term.query->group_by.empty()
                                ? RegisterScalar(*term.query, bake)
                                : RegisterGrouped(*term.query, bake);
    VR_RETURN_NOT_OK(bq.status());
    BoundRewrittenQuery::Term t;
    t.coeff = term.coeff;
    t.query = std::move(*bq);
    out.terms.push_back(std::move(t));
  }
  return out;
}

size_t ViewManager::ViewUsage(const std::string& signature) const {
  auto it = view_usage_.find(signature);
  return it == view_usage_.end() ? 0 : it->second;
}

Result<SynopsisStore::Entry> ViewManager::BuildEntry(const ViewDef& view,
                                                     const Database& db,
                                                     double epsilon,
                                                     Random* rng) const {
  // The synopsis is built against a frozen clone: it keeps a pointer to
  // its view, and the clone cannot change under it when later
  // registrations grow the manager's own definition.
  std::shared_ptr<const ViewDef> frozen = view.Clone();
  VR_ASSIGN_OR_RETURN(Synopsis syn, Synopsis::Build(*frozen, db, policy_,
                                                    epsilon, options_, rng));
  return SynopsisStore::Entry{
      std::move(frozen), std::make_shared<const Synopsis>(std::move(syn))};
}

Status ViewManager::Publish(const Database& db, double total_epsilon,
                            Random* rng, BudgetAllocation allocation,
                            bool degraded, double lifetime_epsilon) {
  if (views_.empty()) {
    return Status::InvalidArgument("no views registered");
  }
  if (accountant_ != nullptr) {
    // A second Publish would build a fresh accountant and re-spend the
    // whole budget on top of what the first one (and the WAL) recorded.
    return Status::AlreadyExists(
        "views already published; later generations go through "
        "RepublishViews");
  }
  // The accountant's total is the *lifetime* budget: the initial
  // publication splits total_epsilon, and any surplus is the reserve
  // later republish generations compose against (sequential composition
  // across epochs, one ledger).
  const double lifetime_total =
      lifetime_epsilon > total_epsilon ? lifetime_epsilon : total_epsilon;
  if (budget_wal_ != nullptr) {
    // Crash recovery: the WAL replayed every spend durably recorded by
    // previous process lives. Seeding the accountant with that state
    // makes this publication stack on top of it — so a restarted process
    // hard-fails before the combined lifetime spend could exceed the
    // total, instead of silently re-spending the whole budget.
    const BudgetWal::ReplayedLedger& recovered = budget_wal_->recovered();
    accountant_ = std::make_unique<BudgetAccountant>(
        lifetime_total, recovered.spent, recovered.entries);
    accountant_->AttachWal(budget_wal_);
  } else {
    accountant_ = std::make_unique<BudgetAccountant>(lifetime_total);
  }
  failed_views_.clear();
  auto store = std::shared_ptr<SynopsisStore>(new SynopsisStore());
  double total_weight = 0;
  auto weight_of = [&](const ViewDef& view) -> double {
    if (allocation == BudgetAllocation::kUniform) return 1.0;
    return static_cast<double>(std::max<size_t>(1, ViewUsage(view.signature())));
  };
  for (const auto& view : views_) total_weight += weight_of(*view);
  for (const auto& view : views_) {
    const double eps_view =
        total_epsilon * weight_of(*view) / total_weight;
    Status st = accountant_->Spend(eps_view, "synopsis:" + view->signature());
    const bool spent = st.ok();
    if (st.ok() && FaultInjection::Armed()) {
      st = FaultInjection::Instance().Check(faults::kViewPublish);
    }
    if (st.ok()) {
      Result<SynopsisStore::Entry> entry = BuildEntry(*view, db, eps_view, rng);
      if (entry.ok()) {
        store->Add(std::move(entry).value(), {});
        continue;
      }
      st = entry.status();
    }
    if (!degraded) return st;
    // Per-view recovery: every output of the failed publication is
    // discarded, so its slice composes as if never spent — refund it and
    // keep publishing the remaining views.
    if (spent) {
      VR_RETURN_NOT_OK(
          accountant_->Refund(eps_view, "refund:synopsis:" + view->signature()));
    }
    failed_views_.emplace(view->signature(), std::move(st));
  }
  published_ = std::move(store);
  return Status::OK();
}

Result<ViewManager::RepublishOutcome> ViewManager::RepublishViews(
    const Database& db, const std::vector<std::string>& changed_relations,
    double generation_epsilon, Random* rng, uint64_t generation) {
  if (accountant_ == nullptr) {
    return Status::InvalidArgument(
        "RepublishViews requires a prior Publish (no lifetime ledger)");
  }
  if (generation == 0) {
    return Status::InvalidArgument(
        "generation 0 is the initial publication; republish generations "
        "start at 1");
  }
  RepublishOutcome outcome;
  outcome.generation = generation;

  const std::set<std::string> changed(changed_relations.begin(),
                                      changed_relations.end());
  for (const auto& view : views_) {
    for (const std::string& rel : view->BaseRelations()) {
      if (changed.count(rel)) {
        outcome.affected.push_back(view->signature());
        break;
      }
    }
  }
  if (outcome.affected.empty()) return outcome;

  // Hard-fail before over-spend: the whole generation is refused before
  // any spend or rebuild when the lifetime reserve cannot cover it, so a
  // generation either has its full budget or never starts.
  if (generation_epsilon >
      accountant_->remaining() * (1.0 + 1e-9) + 1e-9) {
    return Status::PrivacyError(
        "republish generation " + std::to_string(generation) + " needs " +
        std::to_string(generation_epsilon) +
        " epsilon but only " + std::to_string(accountant_->remaining()) +
        " of the lifetime budget remains");
  }
  outcome.epsilon_per_view =
      generation_epsilon / static_cast<double>(outcome.affected.size());

  const std::string gen_tag = "gen" + std::to_string(generation);
  // This generation's rebuilt entries, and the views it failed to rebuild.
  std::map<std::string, SynopsisStore::Entry> rebuilt;
  std::set<std::string> missed;
  for (const std::string& sig : outcome.affected) {
    const ViewDef& view = *views_[view_index_.at(sig)];
    auto fail_view = [&](Status st, bool spent) -> Status {
      if (spent) {
        VR_RETURN_NOT_OK(accountant_->Refund(
            outcome.epsilon_per_view, "refund:" + gen_tag + ":synopsis:" + sig));
      }
      outcome.failed.push_back(sig);
      // The old synopsis (when one exists) keeps serving, flagged
      // outdated from the first generation whose change it missed.
      missed.insert(sig);
      if (published_->Find(sig) == nullptr) failed_views_[sig] = std::move(st);
      return Status::OK();
    };
    Status st = accountant_->Spend(outcome.epsilon_per_view,
                                   gen_tag + ":synopsis:" + sig);
    if (!st.ok()) {
      VR_RETURN_NOT_OK(fail_view(std::move(st), /*spent=*/false));
      continue;
    }
    if (FaultInjection::Armed()) {
      st = FaultInjection::Instance().Check(faults::kRepublishBuild);
    }
    if (st.ok()) {
      Result<SynopsisStore::Entry> entry =
          BuildEntry(view, db, outcome.epsilon_per_view, rng);
      if (entry.ok()) {
        rebuilt.emplace(sig, std::move(entry).value());
        outcome.rebuilt.push_back(sig);
        outcome.epsilon_spent += outcome.epsilon_per_view;
        // A view whose initial publication failed heals on a successful
        // rebuild: it now has a synopsis to serve.
        failed_views_.erase(sig);
        continue;
      }
      st = entry.status();
    }
    VR_RETURN_NOT_OK(fail_view(std::move(st), /*spent=*/true));
  }

  // The next generation, in registration order: rebuilt entries are
  // fresh and stamped with this generation, every other entry is shared
  // with the previous store together with its lifecycle stamps.
  auto next = std::shared_ptr<SynopsisStore>(new SynopsisStore());
  for (const auto& view : views_) {
    const std::string& sig = view->signature();
    SynopsisStore::ViewLifecycle cycle;
    if (auto it = rebuilt.find(sig); it != rebuilt.end()) {
      cycle.data_generation = generation;
      next->Add(std::move(it->second), cycle);
      continue;
    }
    auto old = published_->index_.find(sig);
    if (old == published_->index_.end()) continue;
    cycle = published_->lifecycle_.at(sig);
    if (cycle.outdated_since == 0 && missed.count(sig)) {
      cycle.outdated_since = generation;
    }
    next->Add(published_->entries_[old->second], cycle);
  }
  published_ = std::move(next);
  return outcome;
}

Status ViewManager::RefundGeneration(const RepublishOutcome& outcome) {
  if (accountant_ == nullptr) {
    return Status::InvalidArgument("no lifetime ledger to refund against");
  }
  const std::string gen_tag = "gen" + std::to_string(outcome.generation);
  for (const std::string& sig : outcome.rebuilt) {
    VR_RETURN_NOT_OK(accountant_->Refund(
        outcome.epsilon_per_view,
        "refund:discarded:" + gen_tag + ":synopsis:" + sig));
  }
  return Status::OK();
}

const Status* ViewManager::BindingFailure(const BoundRewrittenQuery& q) const {
  if (failed_views_.empty()) return nullptr;
  for (const auto& link : q.chain) {
    auto it = failed_views_.find(link.query.view_signature);
    if (it != failed_views_.end()) return &it->second;
  }
  for (const auto& term : q.terms) {
    auto it = failed_views_.find(term.query.view_signature);
    if (it != failed_views_.end()) return &it->second;
  }
  return nullptr;
}

std::vector<Synopsis::BuildStats> ViewManager::BuildStatsList() const {
  std::vector<Synopsis::BuildStats> out;
  for (const SynopsisStore::Entry& entry : published_->entries()) {
    out.push_back(entry.synopsis->stats());
  }
  return out;
}

}  // namespace viewrewrite
