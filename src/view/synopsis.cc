#include "view/synopsis.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>
#include <unordered_map>

#include "aggregate/aggregate_planner.h"
#include "common/limits.h"
#include "dp/truncation.h"
#include "rewrite/analysis.h"
#include "sql/printer.h"
#include "view/cell_eval.h"
#include "view/view_matcher.h"

namespace viewrewrite {

namespace {

constexpr const char* kKeyAlias = "__pk";

void CollectBaseLeaves(const TableRef& ref,
                       std::vector<const BaseTableRef*>* out) {
  switch (ref.kind) {
    case TableRefKind::kBase:
      out->push_back(static_cast<const BaseTableRef*>(&ref));
      return;
    case TableRefKind::kDerived:
      return;
    case TableRefKind::kJoin: {
      const auto& j = static_cast<const JoinTableRef&>(ref);
      CollectBaseLeaves(*j.left, out);
      CollectBaseLeaves(*j.right, out);
      return;
    }
  }
}

void CollectDerivedLeaves(const TableRef& ref,
                          std::vector<const DerivedTableRef*>* out) {
  switch (ref.kind) {
    case TableRefKind::kBase:
      return;
    case TableRefKind::kDerived:
      out->push_back(static_cast<const DerivedTableRef*>(&ref));
      return;
    case TableRefKind::kJoin: {
      const auto& j = static_cast<const JoinTableRef&>(ref);
      CollectDerivedLeaves(*j.left, out);
      CollectDerivedLeaves(*j.right, out);
      return;
    }
  }
}

std::string ItemOutputName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr && item.expr->kind == ExprKind::kColumnRef) {
    return static_cast<const ColumnRefExpr&>(*item.expr).column;
  }
  if (item.expr && item.expr->kind == ExprKind::kFuncCall) {
    return static_cast<const FuncCallExpr&>(*item.expr).name;
  }
  return "expr";
}

/// True if the reference (recursively, through derived bodies) contains a
/// base table that is, or references, the primary privacy relation.
bool TouchesPrivacyRelation(const TableRef& ref, const Schema& schema,
                            const PrivacyPolicy& policy) {
  switch (ref.kind) {
    case TableRefKind::kBase: {
      const auto& b = static_cast<const BaseTableRef&>(ref);
      return b.name == policy.primary_relation ||
             schema.References(b.name, policy.primary_relation);
    }
    case TableRefKind::kDerived: {
      const auto& d = static_cast<const DerivedTableRef&>(ref);
      for (const auto& f : d.subquery->from) {
        if (TouchesPrivacyRelation(*f, schema, policy)) return true;
      }
      return false;
    }
    case TableRefKind::kJoin: {
      const auto& j = static_cast<const JoinTableRef&>(ref);
      return TouchesPrivacyRelation(*j.left, schema, policy) ||
             TouchesPrivacyRelation(*j.right, schema, policy);
    }
  }
  return false;
}

}  // namespace

Result<ExprPtr> ResolvePrivacyKey(SelectStmt* mat_stmt, const Schema& schema,
                                  const PrivacyPolicy& policy) {
  VR_ASSIGN_OR_RETURN(const TableSchema* primary,
                      schema.GetTable(policy.primary_relation));

  std::vector<const BaseTableRef*> leaves;
  for (const auto& f : mat_stmt->from) CollectBaseLeaves(*f, &leaves);

  // Case 1: the primary privacy relation participates directly.
  for (const BaseTableRef* leaf : leaves) {
    if (leaf->name == policy.primary_relation) {
      return MakeColumnRef(leaf->BindingName(), primary->primary_key());
    }
  }

  // Case 2: a participating relation references R_P through foreign keys;
  // augment the materialization with the N:1 path joins (row-preserving).
  for (const BaseTableRef* leaf : leaves) {
    // BFS over the FK graph from leaf->name to the primary relation.
    std::map<std::string, std::pair<std::string, const ForeignKey*>> pred;
    std::deque<std::string> queue = {leaf->name};
    pred[leaf->name] = {"", nullptr};
    bool found = false;
    while (!queue.empty() && !found) {
      std::string cur = queue.front();
      queue.pop_front();
      const TableSchema* t = schema.FindTable(cur);
      if (t == nullptr) continue;
      for (const ForeignKey& fk : t->foreign_keys()) {
        if (pred.count(fk.ref_table) > 0) continue;
        pred[fk.ref_table] = {cur, &fk};
        if (fk.ref_table == policy.primary_relation) {
          found = true;
          break;
        }
        queue.push_back(fk.ref_table);
      }
    }
    if (!found) continue;
    // Reconstruct the hop sequence leaf -> ... -> primary.
    std::vector<const ForeignKey*> hops;
    std::string cur = policy.primary_relation;
    while (cur != leaf->name) {
      auto& [prev, fk] = pred[cur];
      hops.push_back(fk);
      cur = prev;
    }
    std::reverse(hops.begin(), hops.end());
    std::string binding = leaf->BindingName();
    int idx = 0;
    for (const ForeignKey* fk : hops) {
      VR_ASSIGN_OR_RETURN(const TableSchema* ref_schema,
                          schema.GetTable(fk->ref_table));
      (void)ref_schema;
      std::string alias = "__pp" + std::to_string(idx++);
      mat_stmt->from.push_back(
          std::make_unique<BaseTableRef>(fk->ref_table, alias));
      mat_stmt->where = MakeAnd(
          std::move(mat_stmt->where),
          MakeBinary(BinaryOp::kEq, MakeColumnRef(binding, fk->column),
                     MakeColumnRef(alias, fk->ref_column)));
      binding = alias;
    }
    return MakeColumnRef(binding, primary->primary_key());
  }

  // Case 3: protected data reaches the view only through an aggregated
  // derived table. Use that table's grouping key (its first output) as a
  // surrogate individual id — a documented approximation of lineage
  // through aggregation.
  std::vector<const DerivedTableRef*> derived;
  for (const auto& f : mat_stmt->from) CollectDerivedLeaves(*f, &derived);
  for (const DerivedTableRef* d : derived) {
    if (!TouchesPrivacyRelation(*d, schema, policy)) continue;
    if (!d->subquery->items.empty() && !d->subquery->items[0].is_star) {
      return MakeColumnRef(d->alias, ItemOutputName(d->subquery->items[0]));
    }
  }
  // No participating relation holds or references R_P: neighboring
  // databases agree on every row of this view, so it is insensitive.
  return ExprPtr(nullptr);
}

Result<Synopsis> Synopsis::Build(const ViewDef& view, const Database& db,
                                 const PrivacyPolicy& policy, double epsilon,
                                 const SynopsisOptions& options, Random* rng) {
  if (epsilon <= 0) {
    return Status::PrivacyError("synopsis requires a positive budget");
  }
  Synopsis s;
  s.view_ = &view;

  // ---- Dimension grid. ----------------------------------------------------
  // Checked multiply: with hostile domains the running product can wrap
  // uint64 (e.g. two ~2^33-bucket dimensions) and sneak under max_cells,
  // so the overflow itself must trip the budget check.
  uint64_t total = 1;
  for (const ViewAttribute& a : view.attributes()) {
    int64_t size = a.domain.CellCount() + 1;  // + NULL/other cell
    s.dim_sizes_.push_back(size);
    if (!CheckedMulU64(total, static_cast<uint64_t>(size), &total) ||
        total > options.max_cells) {
      return Status::InvalidArgument("view '" + view.signature() +
                                     "' exceeds the synopsis cell budget");
    }
  }
  s.total_cells_ = static_cast<size_t>(total);
  s.BuildRepresentatives();

  // ---- Materialization statement. -----------------------------------------
  auto mat = std::make_unique<SelectStmt>();
  for (const auto& f : view.from_template().from) mat->from.push_back(f->Clone());
  mat->where = view.from_template().where
                   ? view.from_template().where->Clone()
                   : nullptr;
  for (size_t i = 0; i < view.attributes().size(); ++i) {
    const ViewAttribute& a = view.attributes()[i];
    SelectItem item;
    item.expr = MakeColumnRef(a.table, a.column);
    item.alias = "a" + std::to_string(i);
    mat->items.push_back(std::move(item));
  }
  std::vector<std::string> sum_keys;
  for (const ViewMeasure& m : view.measures()) {
    if (m.kind != ViewMeasure::Kind::kSum) continue;
    SelectItem item;
    item.expr = m.expr->Clone();
    item.alias = "m" + std::to_string(sum_keys.size());
    mat->items.push_back(std::move(item));
    sum_keys.push_back(m.key);
  }
  VR_ASSIGN_OR_RETURN(ExprPtr key_expr,
                      ResolvePrivacyKey(mat.get(), db.schema(), policy));
  const bool insensitive = (key_expr == nullptr);
  if (insensitive) {
    // The view never touches protected data; a constant key makes the
    // truncation machinery a no-op and sensitivity-0 noise exact.
    key_expr = MakeIntLiteral(0);
  }
  {
    SelectItem item;
    item.expr = std::move(key_expr);
    item.alias = kKeyAlias;
    mat->items.push_back(std::move(item));
  }

  Executor executor(db);
  VR_ASSIGN_OR_RETURN(ResultSet rs, executor.Execute(*mat));
  s.stats_.materialized_rows = rs.NumRows();

  const size_t n_attrs = view.attributes().size();
  const size_t n_sums = sum_keys.size();
  const size_t key_col = n_attrs + n_sums;

  // ---- Truncation threshold (DLS + SVT, §9). -------------------------------
  std::unordered_map<Value, int64_t, ValueHash> per_key;
  for (const Row& row : rs.rows) ++per_key[row[key_col]];
  std::vector<double> contributions;
  contributions.reserve(per_key.size());
  for (const auto& [k, c] : per_key) {
    (void)k;
    contributions.push_back(static_cast<double>(c));
  }
  const double eps_pivot = epsilon * options.trunc_pivot_frac;
  const double eps_svt = epsilon * options.trunc_svt_frac;
  int64_t tau = 1;
  if (insensitive) {
    // All rows share the constant key; keep every row.
    tau = static_cast<int64_t>(rs.NumRows()) + 1;
  } else {
    VR_ASSIGN_OR_RETURN(
        tau, SelectTruncationThreshold(contributions, eps_pivot, eps_svt,
                                       rng));
  }
  s.stats_.tau = tau;
  s.stats_.dls = DownwardLocalSensitivity(contributions);
  s.stats_.epsilon = epsilon;

  // ---- Truncate and histogram. ---------------------------------------------
  std::vector<double> count_cells(s.total_cells_, 0.0);
  std::vector<std::vector<double>> sum_cells(
      n_sums, std::vector<double>(s.total_cells_, 0.0));

  std::unordered_map<Value, int64_t, ValueHash> kept;
  size_t kept_rows = 0;
  for (const Row& row : rs.rows) {
    int64_t& used = kept[row[key_col]];
    if (used >= tau) continue;
    ++used;
    ++kept_rows;
    size_t flat = 0;  // mixed radix over the dimension sizes
    for (size_t i = 0; i < n_attrs; ++i) {
      flat = flat * static_cast<size_t>(s.dim_sizes_[i]) +
             static_cast<size_t>(s.CellOf(i, row[i]));
    }
    count_cells[flat] += 1.0;
    for (size_t m = 0; m < n_sums; ++m) {
      const Value& v = row[n_attrs + m];
      if (!v.is_null() && v.is_numeric()) {
        sum_cells[m][flat] += v.ToDouble();
      }
    }
  }
  s.stats_.truncated_rows = kept_rows;
  s.stats_.cells = s.total_cells_;

  // ---- Publish with the matrix mechanism (identity strategy). --------------
  const double eps_hist =
      epsilon * (1.0 - options.trunc_pivot_frac - options.trunc_svt_frac);
  const double eps_each = eps_hist / static_cast<double>(1 + n_sums);

  const double count_sensitivity = insensitive ? 0.0 : static_cast<double>(tau);
  if (options.strategy == MatrixStrategy::kHierarchical && n_attrs == 1 &&
      view.attributes()[0].domain.kind == ColumnDomain::Kind::kIntBuckets) {
    // One-dimensional ordered domain: a binary-tree release answers the
    // workload's range predicates with O(log n) noisy nodes.
    VR_ASSIGN_OR_RETURN(HierarchicalHistogram h,
                        HierarchicalHistogram::Publish(
                            count_cells, count_sensitivity, eps_each, rng));
    s.hier_count_ = std::move(h);
  }
  VR_ASSIGN_OR_RETURN(
      std::vector<double> noisy_count,
      PublishIdentity(count_cells, count_sensitivity, eps_each, rng));
  s.count_noise_scale_ = count_sensitivity / eps_each;
  s.exact_["count"] = std::move(count_cells);
  s.noisy_["count"] = std::move(noisy_count);

  for (size_t m = 0; m < n_sums; ++m) {
    double bound = 1.0;
    int mi = view.MeasureIndex(sum_keys[m]);
    if (mi >= 0) bound = view.measures()[mi].value_bound;
    VR_ASSIGN_OR_RETURN(
        std::vector<double> noisy,
        PublishIdentity(sum_cells[m], count_sensitivity * bound, eps_each,
                        rng));
    s.exact_[sum_keys[m]] = std::move(sum_cells[m]);
    s.noisy_[sum_keys[m]] = std::move(noisy);
  }
  return s;
}

void Synopsis::BuildRepresentatives() {
  reps_.assign(dim_sizes_.size(), {});
  for (size_t d = 0; d < dim_sizes_.size(); ++d) {
    const ColumnDomain& dom = view_->attributes()[d].domain;
    reps_[d].reserve(static_cast<size_t>(dim_sizes_[d]));
    for (int64_t idx = 0; idx < dim_sizes_[d]; ++idx) {
      if (idx >= dom.CellCount()) {
        reps_[d].push_back(Value::Null());
      } else if (dom.kind == ColumnDomain::Kind::kCategorical) {
        reps_[d].push_back(dom.categories[static_cast<size_t>(idx)]);
      } else {
        auto [lo, hi] = dom.BucketBounds(idx);
        // Continuous convention: the bucket covers [lo, hi + 1).
        reps_[d].push_back(Value::Double(
            (static_cast<double>(lo) + static_cast<double>(hi) + 1.0) / 2.0));
      }
    }
  }
}

int64_t Synopsis::CellOf(size_t dim, const Value& v) const {
  const ColumnDomain& d = view_->attributes()[dim].domain;
  if (v.is_null()) return d.CellCount();
  int64_t idx = d.CellIndex(v);
  if (idx < 0) return d.CellCount();  // unseen category -> "other" cell
  return idx;
}

const std::vector<double>& Synopsis::ExactCells(
    const std::string& measure_key) const {
  static const std::vector<double>* empty = new std::vector<double>();
  auto it = exact_.find(measure_key);
  return it == exact_.end() ? *empty : it->second;
}

SynopsisParts Synopsis::ToParts() const {
  SynopsisParts parts;
  parts.dim_sizes = dim_sizes_;
  parts.total_cells = total_cells_;
  parts.noisy = noisy_;
  parts.exact = exact_;
  parts.count_noise_scale = count_noise_scale_;
  parts.stats = stats_;
  parts.hier_count = hier_count_;
  return parts;
}

Result<Synopsis> Synopsis::FromParts(const ViewDef* view,
                                     SynopsisParts parts) {
  if (view == nullptr) {
    return Status::InvalidArgument("synopsis parts need a view to bind to");
  }
  // The persisted grid must agree with the view definition it is bound
  // to: one size per attribute, each the domain's cell count plus the
  // NULL/other cell, with the flat arrays sized to the grid product.
  if (parts.dim_sizes.size() != view->attributes().size()) {
    return Status::Corruption(
        "synopsis dimension count does not match view '" +
        view->signature() + "'");
  }
  uint64_t product = 1;
  for (size_t i = 0; i < parts.dim_sizes.size(); ++i) {
    const int64_t expect = view->attributes()[i].domain.CellCount() + 1;
    if (parts.dim_sizes[i] != expect) {
      return Status::Corruption("synopsis dimension " + std::to_string(i) +
                                " size mismatch for view '" +
                                view->signature() + "'");
    }
    if (!CheckedMulU64(product, static_cast<uint64_t>(parts.dim_sizes[i]),
                       &product)) {
      return Status::Corruption("synopsis cell grid overflows for view '" +
                                view->signature() + "'");
    }
  }
  if (parts.total_cells != product) {
    return Status::Corruption("synopsis cell total mismatch for view '" +
                              view->signature() + "'");
  }
  if (parts.noisy.count("count") == 0 || parts.exact.count("count") == 0) {
    return Status::Corruption("synopsis for view '" + view->signature() +
                              "' is missing its count histogram");
  }
  for (const auto* arrays : {&parts.noisy, &parts.exact}) {
    for (const auto& [key, cells] : *arrays) {
      if (cells.size() != parts.total_cells) {
        return Status::Corruption("synopsis array '" + key +
                                  "' has wrong length for view '" +
                                  view->signature() + "'");
      }
    }
  }
  Synopsis s;
  s.view_ = view;
  s.dim_sizes_ = std::move(parts.dim_sizes);
  s.total_cells_ = parts.total_cells;
  s.noisy_ = std::move(parts.noisy);
  s.exact_ = std::move(parts.exact);
  s.count_noise_scale_ = parts.count_noise_scale;
  s.stats_ = parts.stats;
  s.hier_count_ = std::move(parts.hier_count);
  s.BuildRepresentatives();
  return s;
}

/// A WHERE compiled against the grid: which cells it admits, without
/// evaluating it per cell.
struct Synopsis::CellMask {
  /// False when a constant conjunct is not TRUE: no cell qualifies.
  bool any = true;
  /// Per dimension, 1 at each cell index that every single-dimension
  /// conjunct on that dimension admits.
  std::vector<std::vector<char>> dims;
  /// A multi-dimension conjunct, evaluated over the sub-grid of its own
  /// dimensions (row-major, `strides` per dimension).
  struct Factor {
    std::vector<size_t> dims;  // ascending
    std::vector<size_t> strides;
    std::vector<char> verdict;
    std::unordered_map<size_t, Status> errors;  // per kError point
  };
  std::vector<Factor> factors;  // in conjunct order
};

namespace {

// One verdict per sub-grid point of a multi-dimension conjunct.
constexpr char kFail = 0;
constexpr char kPass = 1;
constexpr char kError = 2;

/// Cell indices a dimension mask admits; with `pin` >= 0 only that index
/// (none when the pin is past the mask).
std::vector<int64_t> Admitted(const std::vector<char>& mask, int64_t pin) {
  std::vector<int64_t> out;
  if (pin >= 0) {
    if (pin < static_cast<int64_t>(mask.size()) && mask[pin]) {
      out.push_back(pin);
    }
    return out;
  }
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) out.push_back(static_cast<int64_t>(i));
  }
  return out;
}

/// Calls visit(cell) for every combination of one index from each list,
/// in lexicographic order (first list outermost); stops at the first
/// error. Visits once for no lists, never when a list is empty.
template <typename Visit>
Status ForEachCell(const std::vector<std::vector<int64_t>>& lists,
                   Visit&& visit) {
  std::vector<int64_t> cell;
  for (const auto& list : lists) {
    if (list.empty()) return Status::OK();
    cell.push_back(list[0]);
  }
  std::vector<size_t> pos(lists.size(), 0);
  for (;;) {
    VR_RETURN_NOT_OK(visit(cell));
    size_t d = lists.size();
    while (d > 0 && ++pos[d - 1] == lists[d - 1].size()) {
      pos[d - 1] = 0;
      cell[d - 1] = lists[d - 1][0];
      --d;
    }
    if (d == 0) return Status::OK();
    cell[d - 1] = lists[d - 1][pos[d - 1]];
  }
}

}  // namespace

Status Synopsis::CompileWhere(const Expr* where, const ParamMap& params,
                              CellMask* mask) const {
  const size_t n = dim_sizes_.size();
  CellContext ctx;
  ctx.params = params;
  ctx.dim_values.assign(n, nullptr);

  // Resolve every column ref to its dimension once and classify each
  // conjunct by the dimensions it reads.
  std::vector<const Expr*> constant;
  std::vector<std::vector<const Expr*>> single(n);
  std::vector<std::pair<const Expr*, std::vector<size_t>>> multi;
  for (const Expr* c : CollectConjuncts(where)) {
    std::vector<const ColumnRefExpr*> refs;
    CollectColumnRefsShallow(c, &refs);
    std::vector<size_t> dims;
    for (const ColumnRefExpr* r : refs) {
      const int d = view_->AttributeIndex(r->table, r->column);
      if (d < 0) {
        return Status::ExecutionError(
            "query filter references a non-view attribute: " + ToSql(*c));
      }
      ctx.ref_dims[r] = static_cast<size_t>(d);
      dims.push_back(static_cast<size_t>(d));
    }
    std::sort(dims.begin(), dims.end());
    dims.erase(std::unique(dims.begin(), dims.end()), dims.end());
    if (dims.empty()) {
      constant.push_back(c);
    } else if (dims.size() == 1) {
      single[dims[0]].push_back(c);
    } else {
      multi.emplace_back(c, std::move(dims));
    }
  }

  // Constant predicates can zero the whole query (e.g. `$v >= 1`).
  for (const Expr* c : constant) {
    VR_ASSIGN_OR_RETURN(bool pass, EvalCellPredicate(*c, ctx));
    if (!pass) {
      mask->any = false;
      return Status::OK();
    }
  }

  // Single-dimension conjuncts: one mask per dimension over its values.
  mask->dims.resize(n);
  for (size_t d = 0; d < n; ++d) {
    mask->dims[d].assign(static_cast<size_t>(dim_sizes_[d]), 1);
    if (single[d].empty()) continue;
    for (size_t idx = 0; idx < mask->dims[d].size(); ++idx) {
      ctx.dim_values[d] = &reps_[d][idx];
      for (const Expr* c : single[d]) {
        VR_ASSIGN_OR_RETURN(bool pass, EvalCellPredicate(*c, ctx));
        if (!pass) {
          mask->dims[d][idx] = 0;
          break;
        }
      }
    }
  }

  // Multi-dimension conjuncts: each over the sub-grid of its own
  // dimensions, at the points the dimension masks admit. An evaluation
  // error is kept, not raised: SumCells raises it only on reaching the
  // point with every earlier conjunct passing, as a per-cell evaluation
  // of the conjuncts in order would.
  for (const auto& [c, dims] : multi) {
    CellMask::Factor f;
    f.dims = dims;
    f.strides.resize(dims.size());
    size_t points = 1;
    for (size_t k = dims.size(); k-- > 0;) {
      f.strides[k] = points;
      points *= static_cast<size_t>(dim_sizes_[dims[k]]);
    }
    f.verdict.assign(points, kFail);
    std::vector<std::vector<int64_t>> lists;
    for (size_t d : dims) lists.push_back(Admitted(mask->dims[d], -1));
    VR_RETURN_NOT_OK(ForEachCell(lists, [&](const std::vector<int64_t>& at) {
      size_t point = 0;
      for (size_t k = 0; k < dims.size(); ++k) {
        ctx.dim_values[dims[k]] = &reps_[dims[k]][static_cast<size_t>(at[k])];
        point += static_cast<size_t>(at[k]) * f.strides[k];
      }
      Result<bool> pass = EvalCellPredicate(*c, ctx);
      if (!pass.ok()) {
        f.verdict[point] = kError;
        f.errors.emplace(point, pass.status());
      } else if (*pass) {
        f.verdict[point] = kPass;
      }
      return Status::OK();
    }));
    mask->factors.push_back(std::move(f));
  }
  return Status::OK();
}

Result<std::vector<double>> Synopsis::SumCells(
    const CellMask& mask, const std::vector<int64_t>& pins,
    const std::vector<const std::vector<double>*>& arrays) const {
  std::vector<double> totals(arrays.size(), 0.0);
  if (!mask.any) return totals;
  const size_t n = dim_sizes_.size();
  if (n == 0) {
    for (size_t k = 0; k < arrays.size(); ++k) totals[k] = (*arrays[k])[0];
    return totals;
  }
  // Odometer over the outer dimensions; the last dimension, contiguous in
  // the flat arrays, is the inner loop.
  std::vector<std::vector<int64_t>> outer;
  for (size_t d = 0; d + 1 < n; ++d) {
    outer.push_back(Admitted(mask.dims[d], pins[d]));
  }
  const std::vector<int64_t> inner = Admitted(mask.dims[n - 1], pins[n - 1]);
  // Per factor: its verdicts at (outer cell, 0), and its stride along the
  // last dimension (0 when it does not read that dimension).
  std::vector<const char*> verdicts(mask.factors.size());
  std::vector<size_t> step(mask.factors.size());
  for (size_t i = 0; i < mask.factors.size(); ++i) {
    const CellMask::Factor& f = mask.factors[i];
    step[i] = f.dims.back() == n - 1 ? f.strides.back() : 0;
  }
  std::vector<const double*> data;
  for (const std::vector<double>* a : arrays) data.push_back(a->data());
  VR_RETURN_NOT_OK(ForEachCell(outer, [&](const std::vector<int64_t>& cell) {
    size_t row = 0;  // flat index of (cell, 0)
    for (size_t d = 0; d + 1 < n; ++d) {
      row = (row + static_cast<size_t>(cell[d])) *
            static_cast<size_t>(dim_sizes_[d + 1]);
    }
    for (size_t i = 0; i < mask.factors.size(); ++i) {
      const CellMask::Factor& f = mask.factors[i];
      verdicts[i] = f.verdict.data();
      for (size_t k = 0; k < f.dims.size(); ++k) {
        if (f.dims[k] + 1 < n) {
          verdicts[i] += static_cast<size_t>(cell[f.dims[k]]) * f.strides[k];
        }
      }
    }
    for (const int64_t idx : inner) {
      size_t i = 0;
      for (; i < verdicts.size(); ++i) {
        const size_t at = static_cast<size_t>(idx) * step[i];
        if (verdicts[i][at] == kPass) continue;
        if (verdicts[i][at] == kError) {
          const CellMask::Factor& f = mask.factors[i];
          return f.errors.at(static_cast<size_t>(verdicts[i] + at -
                                                 f.verdict.data()));
        }
        break;
      }
      if (i < verdicts.size()) continue;
      for (size_t k = 0; k < data.size(); ++k) {
        totals[k] += data[k][row + static_cast<size_t>(idx)];
      }
    }
    return Status::OK();
  }));
  return totals;
}

Result<std::optional<double>> Synopsis::TryHierarchicalCount(
    const CellMask& mask, const std::vector<int64_t>& pins) const {
  if (!hier_count_.has_value() || dim_sizes_.size() != 1 || !mask.any) {
    return std::optional<double>();
  }
  // The tree helps only when the admitted cells form one contiguous value
  // range that excludes the NULL padding cell.
  const std::vector<int64_t> cells = Admitted(mask.dims[0], pins[0]);
  if (cells.empty() || cells.back() == dim_sizes_[0] - 1 ||
      cells.back() - cells.front() + 1 != static_cast<int64_t>(cells.size())) {
    return std::optional<double>();
  }
  VR_ASSIGN_OR_RETURN(double sum,
                      hier_count_->RangeSum(cells.front(), cells.back()));
  return std::optional<double>(sum);
}

Result<double> Synopsis::EstimateExtremum(size_t dim, bool is_max,
                                          const CellMask& mask,
                                          std::vector<int64_t> pins,
                                          bool use_exact) const {
  const std::vector<double>& count = (use_exact ? exact_ : noisy_).at("count");
  const int64_t cells = view_->attributes()[dim].domain.CellCount();
  const std::vector<Value>& reps = reps_[dim];

  // Noisy count of qualifying rows in each slice of the target dimension
  // (WHERE applied); the noisy extremum is the outermost slice whose
  // count clears the noise floor. Slices outside a pinned group are empty.
  const int64_t pinned = pins[dim];
  std::vector<double> counts(static_cast<size_t>(cells), 0.0);
  for (int64_t idx = 0; idx < cells; ++idx) {
    if (pinned >= 0 && pinned != idx) continue;
    pins[dim] = idx;
    VR_ASSIGN_OR_RETURN(std::vector<double> slice,
                        SumCells(mask, pins, {&count}));
    counts[static_cast<size_t>(idx)] = slice[0];
  }
  const double threshold =
      use_exact ? 0.5 : std::max(1.0, 2.0 * count_noise_scale_);
  if (is_max) {
    for (int64_t idx = cells - 1; idx >= 0; --idx) {
      if (counts[static_cast<size_t>(idx)] > threshold) {
        return reps[static_cast<size_t>(idx)].ToDouble();
      }
    }
  } else {
    for (int64_t idx = 0; idx < cells; ++idx) {
      if (counts[static_cast<size_t>(idx)] > threshold) {
        return reps[static_cast<size_t>(idx)].ToDouble();
      }
    }
  }
  // Nothing cleared the noise floor (tiny budgets or an empty selection):
  // fall back to the most plausible slice so answering degrades gracefully
  // instead of failing.
  int64_t best = 0;
  for (int64_t idx = 1; idx < cells; ++idx) {
    if (counts[static_cast<size_t>(idx)] > counts[static_cast<size_t>(best)]) {
      best = idx;
    }
  }
  return reps[static_cast<size_t>(best)].ToDouble();
}

Result<aggregate::GroupedData> Synopsis::AnswerGroupedData(
    const SelectStmt& query, const ParamMap& params, bool use_exact) const {
  if (query.group_by.empty()) {
    return Status::InvalidArgument("AnswerGrouped requires GROUP BY");
  }
  // Resolve each group-by column to a view dimension.
  std::vector<size_t> group_dims;
  for (const ExprPtr& g : query.group_by) {
    if (g->kind != ExprKind::kColumnRef) {
      return Status::Unsupported("GROUP BY over non-column expressions");
    }
    const auto& ref = static_cast<const ColumnRefExpr&>(*g);
    int dim = view_->AttributeIndex(ref.table, ref.column);
    if (dim < 0) {
      return Status::NotFound("GROUP BY column '" + ref.FullName() +
                              "' is not a view attribute");
    }
    group_dims.push_back(static_cast<size_t>(dim));
  }

  // Output columns: group keys and aggregate items in select-list order.
  aggregate::GroupedData data;
  for (const SelectItem& item : query.items) {
    if (item.is_star || !item.expr) {
      return Status::Unsupported("SELECT * in a grouped synopsis query");
    }
    if (!item.alias.empty()) {
      data.columns.push_back(item.alias);
    } else if (item.expr->kind == ExprKind::kColumnRef) {
      data.columns.push_back(
          static_cast<const ColumnRefExpr&>(*item.expr).column);
    } else if (item.expr->kind == ExprKind::kFuncCall) {
      data.columns.push_back(
          static_cast<const FuncCallExpr&>(*item.expr).name);
    } else {
      data.columns.push_back("expr");
    }
    data.is_aggregate.push_back(item.expr->kind != ExprKind::kColumnRef);
  }

  // The synthetic COUNT(*) backing every row's noisy_count, then each
  // distinct aggregate call of the select list and HAVING.
  std::vector<ExprPtr> star_args;
  star_args.push_back(std::make_unique<StarExpr>());
  const FuncCallExpr count_star("count", std::move(star_args));
  std::vector<const FuncCallExpr*> calls;
  for (const SelectItem& item : query.items) {
    CollectAggregateCalls(item.expr.get(), &calls);
  }
  CollectAggregateCalls(query.having.get(), &calls);
  std::vector<const FuncCallExpr*> aggs = {&count_star};
  std::vector<std::string> keys = {ToSql(count_star)};
  for (const FuncCallExpr* call : calls) {
    std::string key = ToSql(*call);
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
    keys.push_back(std::move(key));
    aggs.push_back(call);
  }

  // Group cells are the value cells of the group dimensions (the
  // NULL/other padding cell is not a publishable group key). The WHERE is
  // compiled once; each group pins its dimensions.
  std::vector<std::vector<int64_t>> group_cells;
  for (size_t dim : group_dims) {
    group_cells.emplace_back(static_cast<size_t>(
        view_->attributes()[dim].domain.CellCount()));
    std::iota(group_cells.back().begin(), group_cells.back().end(), 0);
    if (group_cells.back().empty()) return data;
  }
  CellMask mask;
  VR_RETURN_NOT_OK(CompileWhere(query.where.get(), params, &mask));
  std::vector<int64_t> pins(dim_sizes_.size());
  VR_RETURN_NOT_OK(ForEachCell(group_cells, [&](
                                   const std::vector<int64_t>& combo)
                                   -> Status {
    // Group-key values, for select items and for HAVING column refs.
    std::fill(pins.begin(), pins.end(), -1);
    std::map<std::string, Value> group_values;
    for (size_t gi = 0; gi < group_dims.size(); ++gi) {
      const size_t dim = group_dims[gi];
      // A dimension grouped twice with different keys pins no cell.
      pins[dim] = pins[dim] < 0 || pins[dim] == combo[gi] ? combo[gi]
                                                          : dim_sizes_[dim];
      const ViewAttribute& attr = view_->attributes()[dim];
      const Value& rep = reps_[dim][static_cast<size_t>(combo[gi])];
      group_values[attr.column] = rep;
      group_values[attr.table + "." + attr.column] = rep;
    }
    VR_ASSIGN_OR_RETURN(std::vector<double> values,
                        AnswerAggCalls(aggs, mask, pins, use_exact));
    std::map<std::string, double> agg_values;
    for (size_t i = 0; i < aggs.size(); ++i) agg_values[keys[i]] = values[i];

    aggregate::EvalContext ctx;
    ctx.aggregates = &agg_values;
    ctx.columns = &group_values;

    // Post-noise HAVING: the aggregates above are already published
    // noisy values, so filtering on them is pure post-processing.
    if (query.having != nullptr) {
      VR_ASSIGN_OR_RETURN(bool keep,
                          aggregate::EvaluateHaving(*query.having, ctx));
      if (!keep) return Status::OK();
    }

    aggregate::GroupedRow row;
    row.noisy_count = values[0];
    for (const SelectItem& item : query.items) {
      if (item.expr->kind == ExprKind::kColumnRef) {
        // Group key output.
        const auto& ref = static_cast<const ColumnRefExpr&>(*item.expr);
        int dim = view_->AttributeIndex(ref.table, ref.column);
        bool emitted = false;
        for (size_t gi = 0; gi < group_dims.size(); ++gi) {
          if (static_cast<int>(group_dims[gi]) == dim) {
            row.values.push_back(
                reps_[group_dims[gi]][static_cast<size_t>(combo[gi])]);
            emitted = true;
            break;
          }
        }
        if (!emitted) {
          return Status::InvalidArgument(
              "non-grouped column '" + ref.FullName() +
              "' in grouped select list");
        }
        continue;
      }
      VR_ASSIGN_OR_RETURN(Value v, aggregate::EvalExpr(*item.expr, ctx));
      if (!v.is_numeric()) {
        return Status::TypeMismatch(
            "grouped aggregate item did not evaluate to a number");
      }
      row.values.push_back(Value::Double(v.ToDouble()));
    }
    data.rows.push_back(std::move(row));
    return Status::OK();
  }));
  return data;
}

Result<double> Synopsis::AnswerScalar(const SelectStmt& query,
                                      const ParamMap& params,
                                      bool use_exact) const {
  if (query.items.size() != 1 || query.items[0].is_star) {
    return Status::InvalidArgument(
        "synopsis answering expects a single aggregate item");
  }
  const Expr& item = *query.items[0].expr;
  std::vector<const FuncCallExpr*> aggs;
  CollectAggregateCalls(&item, &aggs);
  if (aggs.empty()) {
    return Status::InvalidArgument("query item has no aggregate");
  }

  CellMask mask;
  VR_RETURN_NOT_OK(CompileWhere(query.where.get(), params, &mask));
  VR_ASSIGN_OR_RETURN(
      std::vector<double> values,
      AnswerAggCalls(aggs, mask, std::vector<int64_t>(dim_sizes_.size(), -1),
                     use_exact));
  std::map<std::string, double> agg_values;
  for (size_t i = 0; i < aggs.size(); ++i) {
    agg_values[ToSql(*aggs[i])] = values[i];
  }
  aggregate::EvalContext ctx;
  ctx.aggregates = &agg_values;
  VR_ASSIGN_OR_RETURN(Value v, aggregate::EvalExpr(item, ctx));
  if (!v.is_numeric()) {
    return Status::TypeMismatch("aggregate item did not evaluate to a number");
  }
  return v.ToDouble();
}

Result<std::vector<double>> Synopsis::AnswerAggCalls(
    const std::vector<const FuncCallExpr*>& aggs, const CellMask& mask,
    const std::vector<int64_t>& pins, bool use_exact) const {
  const auto& arrays = use_exact ? exact_ : noisy_;
  std::vector<double> values(aggs.size(), 0.0);
  // Distinct measure arrays the calls read, summed in one pass below;
  // each call keeps the slots of the readings its derivation combines.
  std::vector<const std::vector<double>*> read;
  auto slot = [&](const std::string& key,
                  const std::string& why) -> Result<int> {
    auto it = arrays.find(key);
    if (it == arrays.end()) {
      return Status::NotFound("view has no measure '" + key + "'" + why);
    }
    auto at = std::find(read.begin(), read.end(), &it->second);
    if (at == read.end()) at = read.insert(at, &it->second);
    return static_cast<int>(at - read.begin());
  };
  struct Derived {
    size_t agg;
    aggregate::Derivation derivation;
    std::optional<double> tree_count{};  // from the hierarchical release
    int count = -1, sum = -1, sumsq = -1;
  };
  std::vector<Derived> derived;
  for (size_t i = 0; i < aggs.size(); ++i) {
    VR_ASSIGN_OR_RETURN(aggregate::AggregatePlan plan,
                        aggregate::PlanAggregate(*aggs[i]));
    if (plan.is_extremum) {
      const auto& col = static_cast<const ColumnRefExpr&>(*plan.arg);
      const int dim = view_->AttributeIndex(col.table, col.column);
      if (dim < 0) {
        return Status::NotFound("extremum column '" + col.FullName() +
                                "' is not a view dimension");
      }
      VR_ASSIGN_OR_RETURN(values[i], EstimateExtremum(
                                         static_cast<size_t>(dim),
                                         aggs[i]->name == "max", mask, pins,
                                         use_exact));
      continue;
    }
    Derived d{i, plan.derivation};
    if (plan.derivation == aggregate::Derivation::kCount && !use_exact) {
      VR_ASSIGN_OR_RETURN(d.tree_count, TryHierarchicalCount(mask, pins));
    }
    if ((plan.derivation == aggregate::Derivation::kCount ||
         plan.needs_count) &&
        !d.tree_count.has_value()) {
      VR_ASSIGN_OR_RETURN(d.count, slot("count", ""));
    }
    if (!plan.sum_key.empty()) {
      VR_ASSIGN_OR_RETURN(d.sum, slot(plan.sum_key, ""));
    }
    if (!plan.sumsq_key.empty()) {
      VR_ASSIGN_OR_RETURN(
          d.sumsq, slot(plan.sumsq_key, " (needed for " + aggs[i]->name + ")"));
    }
    derived.push_back(std::move(d));
  }
  std::vector<double> totals;
  if (!read.empty()) {
    VR_ASSIGN_OR_RETURN(totals, SumCells(mask, pins, read));
  }
  auto total = [&](int at) { return at < 0 ? 0.0 : totals[at]; };
  for (const Derived& d : derived) {
    values[d.agg] = aggregate::EvaluateDerived(
        d.derivation, d.tree_count.value_or(total(d.count)), total(d.sum),
        total(d.sumsq));
  }
  return values;
}

}  // namespace viewrewrite
