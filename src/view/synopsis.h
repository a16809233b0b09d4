#ifndef VIEWREWRITE_VIEW_SYNOPSIS_H_
#define VIEWREWRITE_VIEW_SYNOPSIS_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "aggregate/grouped_result.h"
#include "catalog/schema.h"
#include "common/random.h"
#include "common/result.h"
#include "dp/matrix_mechanism.h"
#include "exec/executor.h"
#include "storage/table.h"
#include "view/view_def.h"

namespace viewrewrite {

struct SynopsisOptions {
  /// Fractions of the per-view budget spent on the two truncation steps
  /// (noisy pivot Q̂ and SVT); the rest publishes the histograms.
  double trunc_pivot_frac = 0.05;
  double trunc_svt_frac = 0.05;
  MatrixStrategy strategy = MatrixStrategy::kIdentity;
  /// Hard cap on histogram cells per view.
  size_t max_cells = size_t{1} << 21;
  DomainOptions domain;
};

struct SynopsisParts;

/// A differentially private synopsis of one view: noisy contingency tables
/// (one per measure) over the view's attribute grid, published via the
/// §9 pipeline — materialize, pick truncation threshold τ (DLS + SVT),
/// truncate per protected key, add matrix-mechanism noise.
///
/// Thread safety: once built (or reconstructed), a Synopsis is immutable.
/// All const members — AnswerScalar, AnswerGroupedData, stats,
/// ExactCells — only read the published arrays and build local
/// state, so any number of threads may answer queries from one Synopsis
/// concurrently with no external locking. The serve layer's QueryServer
/// relies on this contract.
class Synopsis {
 public:
  struct BuildStats {
    int64_t tau = 1;
    double dls = 0;
    size_t materialized_rows = 0;
    size_t truncated_rows = 0;
    size_t cells = 0;
    double epsilon = 0;
  };

  /// Materializes and publishes the view under `epsilon` (the view's slice
  /// of the total budget). Deterministic given `rng`.
  static Result<Synopsis> Build(const ViewDef& view, const Database& db,
                                const PrivacyPolicy& policy, double epsilon,
                                const SynopsisOptions& options, Random* rng);

  /// Answers a scalar aggregate `query` whose FROM matches this view:
  /// compiles the WHERE over the cells' representative values (see
  /// CompileWhere) and totals the admitted noisy measure cells. Supports
  /// COUNT, SUM(expr) (for registered measure expressions), MIN/MAX/
  /// AVG(col) (estimated from the histograms over col's dimension), and
  /// arithmetic around aggregate calls.
  ///
  /// With `use_exact`, totals the exact (pre-noise, pre-truncation-noise)
  /// cells instead. Benchmarks use that as ground truth: the paper's
  /// systems answer workload queries exactly from view tuples, so the
  /// reported error isolates the DP noise.
  Result<double> AnswerScalar(const SelectStmt& query, const ParamMap& params,
                              bool use_exact = false) const;

  /// Answers a grouped aggregate (GROUP BY over view attributes): one
  /// output row per group cell, keyed by the cell representative, with
  /// the noisy aggregate per group. This is the private histogram release
  /// for workloads that want per-group results instead of one scalar.
  /// Derived aggregates (AVG, VARIANCE, STDDEV) combine published
  /// measures per the planner; a HAVING clause is evaluated over the
  /// noisy per-group aggregates (pure post-processing) and filters the
  /// rows. Every row carries the group's noisy count for the serve
  /// layer's suppression rule.
  Result<aggregate::GroupedData> AnswerGroupedData(const SelectStmt& query,
                                                   const ParamMap& params,
                                                   bool use_exact = false)
      const;

  const BuildStats& stats() const { return stats_; }
  const ViewDef& view() const { return *view_; }

  /// Exact (pre-noise) cell totals, for tests only.
  const std::vector<double>& ExactCells(const std::string& measure_key) const;

  /// Serialization-friendly snapshot of the published state (deep copy,
  /// no view pointer). SynopsisStore::Save persists these parts.
  SynopsisParts ToParts() const;

  /// Rebuilds a synopsis from persisted parts, bound to `view` (which the
  /// caller owns and must keep alive). Validates that the parts are
  /// consistent with the view's attribute grid — a corrupted or drifted
  /// bundle yields a Corruption status, never an out-of-bounds answer.
  static Result<Synopsis> FromParts(const ViewDef* view, SynopsisParts parts);

 private:
  Synopsis() = default;

  /// A WHERE compiled against this synopsis's grid (see CompileWhere).
  struct CellMask;

  /// Fills `reps_` from the view's domains.
  void BuildRepresentatives();

  int64_t CellOf(size_t dim, const Value& v) const;

  /// Compiles `where` once per answer: resolves every column ref to a
  /// dimension, evaluates constant conjuncts, each single-dimension
  /// conjunct over its dimension's values and each multi-dimension
  /// conjunct over the sub-grid of its own dimensions.
  Status CompileWhere(const Expr* where, const ParamMap& params,
                      CellMask* mask) const;

  /// Answers each aggregate call over the cells `mask` admits, with every
  /// dimension d where pins[d] >= 0 fixed to that cell index (the engine
  /// behind the scalar, grouped and extremum answers). The published
  /// measures the calls read are summed in one pass.
  Result<std::vector<double>> AnswerAggCalls(
      const std::vector<const FuncCallExpr*>& aggs, const CellMask& mask,
      const std::vector<int64_t>& pins, bool use_exact) const;

  /// Totals each array over the admitted cells, in lexicographic cell
  /// order with one accumulator per array.
  Result<std::vector<double>> SumCells(
      const CellMask& mask, const std::vector<int64_t>& pins,
      const std::vector<const std::vector<double>*>& arrays) const;

  Result<double> EstimateExtremum(size_t dim, bool is_max,
                                  const CellMask& mask,
                                  std::vector<int64_t> pins,
                                  bool use_exact) const;

  /// Attempts to answer a 1-D COUNT via the hierarchical tree: succeeds
  /// when the admitted cells are one contiguous value range (no NULL
  /// cell), the case range decomposition accelerates.
  Result<std::optional<double>> TryHierarchicalCount(
      const CellMask& mask, const std::vector<int64_t>& pins) const;

  const ViewDef* view_ = nullptr;  // shared with it in a SynopsisStore
  std::vector<int64_t> dim_sizes_;  // CellCount()+1 per attribute
  /// Representative value per dimension and cell index: categorical
  /// value, bucket midpoint, or NULL for the padding cell.
  std::vector<std::vector<Value>> reps_;
  /// Hierarchical release of the count histogram (1-D views under
  /// MatrixStrategy::kHierarchical only).
  std::optional<HierarchicalHistogram> hier_count_;
  size_t total_cells_ = 1;
  // measure key -> noisy / exact cell arrays (count first).
  std::map<std::string, std::vector<double>> noisy_;
  std::map<std::string, std::vector<double>> exact_;
  double count_noise_scale_ = 0;
  BuildStats stats_;
};

/// The decomposed state of one published synopsis: everything Save needs
/// to write and FromParts needs to rebuild answering, minus the ViewDef
/// binding (persisted separately, re-bound on load).
struct SynopsisParts {
  std::vector<int64_t> dim_sizes;
  size_t total_cells = 1;
  std::map<std::string, std::vector<double>> noisy;
  std::map<std::string, std::vector<double>> exact;
  double count_noise_scale = 0;
  Synopsis::BuildStats stats;
  std::optional<HierarchicalHistogram> hier_count;
};

/// Finds (or synthesizes by FK-path augmentation) an expression that
/// identifies the protected individual for every row of the view's join.
/// May append path tables and join predicates to `mat_stmt`. Returns
/// nullptr when no relation of the view holds or references protected
/// data — such a view is invariant across neighboring databases
/// (sensitivity 0) and can be published without noise.
Result<ExprPtr> ResolvePrivacyKey(SelectStmt* mat_stmt, const Schema& schema,
                                  const PrivacyPolicy& policy);

}  // namespace viewrewrite

#endif  // VIEWREWRITE_VIEW_SYNOPSIS_H_
