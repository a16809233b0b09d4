#ifndef VIEWREWRITE_ENGINE_ENGINE_INTERNAL_H_
#define VIEWREWRITE_ENGINE_ENGINE_INTERNAL_H_

// Helpers shared by the ViewRewrite and PrivateSQL engine implementations,
// so both honour EngineOptions the same way. Not part of the public API.

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "engine/viewrewrite_engine.h"

namespace viewrewrite {

inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// EngineOptions::limits is the single governance knob: stamp it into the
/// sub-option structs the pipeline components actually consume.
inline RewriteOptions RewriteWithLimits(RewriteOptions rewrite,
                                        const ResourceLimits& limits) {
  rewrite.limits = limits;
  return rewrite;
}

inline SynopsisOptions SynopsisWithLimits(SynopsisOptions synopsis,
                                          const ResourceLimits& limits) {
  synopsis.max_cells = static_cast<size_t>(
      std::min<uint64_t>(synopsis.max_cells, limits.max_view_cells));
  return synopsis;
}

/// One snapshot of the accountant into the stats block, taken after every
/// ledger mutation. A poisoned accountant already reports 0 from
/// total()/remaining(); the flag makes the poisoning visible instead of
/// looking like an untouched budget.
inline void SnapshotBudget(const ViewManager& views, EngineStats* stats) {
  const BudgetAccountant* budget = views.accountant();
  if (budget == nullptr) return;
  stats->budget_total_epsilon = budget->total();
  stats->budget_spent_epsilon = budget->spent();
  stats->budget_poisoned = budget->poisoned();
  stats->budget_refunds = 0;
  for (const BudgetAccountant::Entry& entry : budget->ledger()) {
    if (entry.refund) ++stats->budget_refunds;
  }
}

}  // namespace viewrewrite

#endif  // VIEWREWRITE_ENGINE_ENGINE_INTERNAL_H_
