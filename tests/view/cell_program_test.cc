// Property test of the compiled cell answer: every scalar, grouped,
// extremum and hierarchical answer of a synopsis must be bit-identical to
// a brute-force oracle that evaluates the whole WHERE with
// EvalCellPredicate on every cell of the full grid (name-keyed
// CellContext, one per cell) and totals the admitted cells in flat order.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "aggregate/aggregate_planner.h"
#include "common/random.h"
#include "dp/matrix_mechanism.h"
#include "sql/parser.h"
#include "view/cell_eval.h"
#include "view/synopsis.h"

namespace viewrewrite {
namespace {

SelectStmtPtr Parse(const std::string& sql) {
  auto stmt = ParseSelect(sql);
  EXPECT_TRUE(stmt.ok()) << sql << "\n" << stmt.status();
  return stmt.ok() ? std::move(stmt).value() : nullptr;
}

const FuncCallExpr& FirstCall(const SelectStmt& stmt) {
  return static_cast<const FuncCallExpr&>(*stmt.items[0].expr);
}

/// The representative the synopsis answers a cell with: the category,
/// the bucket midpoint over [lo, hi + 1), or NULL for the padding cell.
Value Rep(const ColumnDomain& d, int64_t idx) {
  if (idx >= d.CellCount()) return Value::Null();
  if (d.kind == ColumnDomain::Kind::kCategorical) {
    return d.categories[static_cast<size_t>(idx)];
  }
  auto [lo, hi] = d.BucketBounds(idx);
  return Value::Double((static_cast<double>(lo) + static_cast<double>(hi) +
                        1.0) / 2.0);
}

/// A synthetic view published from random noisy arrays, plus the oracle.
struct Fixture {
  std::unique_ptr<ViewDef> view;
  std::vector<int64_t> sizes;  // CellCount()+1 per dimension
  SynopsisParts parts;
  std::optional<Synopsis> synopsis;

  Fixture(std::vector<ViewAttribute> attrs, Random* rng) {
    view = std::make_unique<ViewDef>("synthetic",
                                     std::make_unique<SelectStmt>());
    for (ViewAttribute& a : attrs) view->AddAttribute(std::move(a));
    parts.total_cells = 1;
    for (const ViewAttribute& a : view->attributes()) {
      sizes.push_back(a.domain.CellCount() + 1);
      parts.total_cells *= static_cast<size_t>(sizes.back());
    }
    parts.dim_sizes = sizes;
    parts.count_noise_scale = 0.75;
    AddMeasure("count", rng);
  }

  /// Noisy cells with a fractional part and mixed signs, so any change in
  /// summation order shows in the low bits.
  void AddMeasure(const std::string& key, Random* rng) {
    std::vector<double> cells(parts.total_cells);
    for (double& c : cells) {
      c = static_cast<double>(rng->UniformInt(0, 5)) + rng->Laplace(0.7);
    }
    parts.exact[key] = cells;
    parts.noisy[key] = std::move(cells);
  }

  void Publish() {
    auto s = Synopsis::FromParts(view.get(), parts);
    ASSERT_TRUE(s.ok()) << s.status();
    synopsis.emplace(std::move(s).value());
  }

  std::vector<int64_t> Cell(size_t flat) const {
    std::vector<int64_t> cell(sizes.size());
    for (size_t d = sizes.size(); d-- > 0;) {
      cell[d] = static_cast<int64_t>(flat % static_cast<size_t>(sizes[d]));
      flat /= static_cast<size_t>(sizes[d]);
    }
    return cell;
  }

  /// Whether the WHERE is TRUE at each flat cell. Bare column names are
  /// bound only when unambiguous, as CellContext documents.
  std::vector<bool> Admits(const Expr* where, const ParamMap& params) const {
    std::map<std::string, int> uses;
    for (const ViewAttribute& a : view->attributes()) ++uses[a.column];
    std::vector<bool> out(parts.total_cells, true);
    for (size_t flat = 0; flat < parts.total_cells && where; ++flat) {
      const std::vector<int64_t> cell = Cell(flat);
      CellContext ctx;
      ctx.params = params;
      for (size_t d = 0; d < sizes.size(); ++d) {
        const ViewAttribute& a = view->attributes()[d];
        ctx.attr_values[a.QualifiedName()] = Rep(a.domain, cell[d]);
        if (uses[a.column] == 1) {
          ctx.attr_values[a.column] = Rep(a.domain, cell[d]);
        }
      }
      auto pass = EvalCellPredicate(*where, ctx);
      EXPECT_TRUE(pass.ok()) << pass.status();
      out[flat] = pass.ok() && *pass;
    }
    return out;
  }

  /// Total of `key` over admitted cells whose dimensions match `pins`
  /// (-1: free), in flat order.
  double Sum(const std::string& key, const std::vector<bool>& admits,
             const std::vector<int64_t>& pins) const {
    const std::vector<double>& cells = parts.noisy.at(key);
    double total = 0;
    for (size_t flat = 0; flat < cells.size(); ++flat) {
      if (!admits[flat]) continue;
      const std::vector<int64_t> cell = Cell(flat);
      bool in = true;
      for (size_t d = 0; d < pins.size(); ++d) {
        in = in && (pins[d] < 0 || pins[d] == cell[d]);
      }
      if (in) total += cells[flat];
    }
    return total;
  }

  /// The extremum rule: outermost slice of `dim` whose count clears the
  /// noise floor, else the slice with the largest count.
  double Extremum(size_t dim, bool is_max, const std::vector<bool>& admits,
                  std::vector<int64_t> pins) const {
    const ColumnDomain& dom = view->attributes()[dim].domain;
    const double floor = std::max(1.0, 2.0 * parts.count_noise_scale);
    std::vector<double> counts;
    const int64_t pinned = pins[dim];
    for (int64_t idx = 0; idx < dom.CellCount(); ++idx) {
      pins[dim] = idx;
      counts.push_back(pinned >= 0 && pinned != idx
                           ? 0.0
                           : Sum("count", admits, pins));
    }
    const int64_t n = dom.CellCount();
    for (int64_t i = 0; i < n; ++i) {
      const int64_t idx = is_max ? n - 1 - i : i;
      if (counts[static_cast<size_t>(idx)] > floor) {
        return Rep(dom, idx).ToDouble();
      }
    }
    int64_t best = 0;
    for (int64_t idx = 1; idx < n; ++idx) {
      if (counts[static_cast<size_t>(idx)] > counts[static_cast<size_t>(best)]) {
        best = idx;
      }
    }
    return Rep(dom, best).ToDouble();
  }
};

ViewAttribute Attr(const std::string& table, const std::string& column,
                   ColumnDomain domain) {
  return ViewAttribute{table, column, std::move(domain)};
}

/// Four dimensions; o1 and o2 share the bare column name o_totalprice.
std::vector<ViewAttribute> FourDims() {
  return {Attr("o1", "o_totalprice", ColumnDomain::IntBuckets(0, 63, 4)),
          Attr("o2", "o_totalprice", ColumnDomain::IntBuckets(0, 63, 4)),
          Attr("c", "c_mktsegment",
               ColumnDomain::Categorical({Value::String("a"),
                                          Value::String("b"),
                                          Value::String("c")})),
          Attr("vrsq0", "cnt", ColumnDomain::IntBuckets(0, 17, 9))};
}

/// Random predicate atoms over FourDims: single-dimension filters (bare
/// names only where unambiguous), the 2-D NOT EXISTS shape, a 3-D
/// conjunct, parameter and constant (possibly false) conjuncts.
std::string RandomAtom(Random* rng) {
  const std::string k = std::to_string(rng->UniformInt(0, 8) * 8);
  switch (rng->UniformInt(0, 10)) {
    case 0: return "o1.o_totalprice >= " + k;
    case 1: return "o2.o_totalprice < " + k;
    case 2: {
      const char* segs[] = {"'a'", "'b'", "'c'", "'z'"};
      return std::string("c.c_mktsegment = ") + segs[rng->UniformInt(0, 3)];
    }
    case 3: return "c_mktsegment IN ('a', 'c')";
    case 4:
      return "COALESCE(vrsq0.cnt, 0) >= " +
             std::to_string(rng->UniformInt(0, 12));
    case 5: return rng->Bernoulli(0.5) ? "cnt IS NULL" : "cnt IS NOT NULL";
    case 6: return "o1.o_totalprice + vrsq0.cnt < o2.o_totalprice";
    case 7:
      return "NOT ((o1.o_totalprice < $p) AND (COALESCE(vrsq0.cnt, 0) >= 1))";
    case 8: return "$p >= " + k;
    case 9: return std::to_string(rng->UniformInt(0, 3)) + " < 2";
    default:
      return "(c.c_mktsegment = 'b' OR vrsq0.cnt > 7 OR "
             "o2.o_totalprice < 16)";
  }
}

std::string RandomPredicate(Random* rng, int depth) {
  if (depth == 0 || rng->Bernoulli(0.35)) return RandomAtom(rng);
  std::string left = RandomPredicate(rng, depth - 1);
  std::string right = RandomPredicate(rng, depth - 1);
  switch (rng->UniformInt(0, 2)) {
    case 0: return "(" + left + " AND " + right + ")";
    case 1: return "(" + left + " OR " + right + ")";
    default: return "(NOT " + left + ")";
  }
}

/// One to four top-level conjuncts, so the compile step sees constant,
/// single- and multi-dimension conjuncts side by side.
std::string RandomWhere(Random* rng) {
  std::string where = RandomPredicate(rng, 2);
  for (int64_t i = rng->UniformInt(0, 3); i > 0; --i) {
    where += " AND " + RandomPredicate(rng, 2);
  }
  return where;
}

class CellProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(CellProgramTest, MatchesBruteForceOnFourDimensions) {
  Random rng(static_cast<uint64_t>(GetParam()) * 7919 + 29);
  Fixture f(FourDims(), &rng);
  auto avg = Parse("SELECT AVG(o1.o_totalprice) FROM v");
  auto var = Parse("SELECT VARIANCE(o2.o_totalprice) FROM v");
  auto avg_plan = aggregate::PlanAggregate(FirstCall(*avg));
  auto var_plan = aggregate::PlanAggregate(FirstCall(*var));
  ASSERT_TRUE(avg_plan.ok() && var_plan.ok());
  f.AddMeasure(avg_plan->sum_key, &rng);
  f.AddMeasure(var_plan->sum_key, &rng);
  f.AddMeasure(var_plan->sumsq_key, &rng);
  f.Publish();
  const Synopsis& syn = *f.synopsis;
  const std::vector<int64_t> free(4, -1);

  for (int trial = 0; trial < 30; ++trial) {
    // $p arrives the way a chain link binds it: the answer of another
    // query over the same synopsis, as a double.
    auto link = Parse("SELECT MAX(o1.o_totalprice) FROM v WHERE "
                      "c.c_mktsegment = 'a'");
    auto p = syn.AnswerScalar(*link, {});
    ASSERT_TRUE(p.ok()) << p.status();
    const ParamMap params = {{"p", Value::Double(*p)}};

    const std::string where = RandomWhere(&rng);
    SCOPED_TRACE(where);
    auto probe = Parse("SELECT COUNT(*) FROM v WHERE " + where);
    const std::vector<bool> admits = f.Admits(probe->where.get(), params);
    const double count = f.Sum("count", admits, free);

    // Scalar: COUNT, SUM, AVG and VARIANCE (one pass over three arrays).
    auto got = syn.AnswerScalar(*probe, params);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, count);
    auto sum = Parse("SELECT SUM(o1.o_totalprice) FROM v WHERE " + where);
    got = syn.AnswerScalar(*sum, params);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, f.Sum(avg_plan->sum_key, admits, free));
    auto variance =
        Parse("SELECT VARIANCE(o2.o_totalprice) FROM v WHERE " + where);
    got = syn.AnswerScalar(*variance, params);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, aggregate::EvaluateDerived(
                        aggregate::Derivation::kVariance, count,
                        f.Sum(var_plan->sum_key, admits, free),
                        f.Sum(var_plan->sumsq_key, admits, free)));

    // Extremum over each of the two o_totalprice dimensions.
    auto max2 = Parse("SELECT MAX(o2.o_totalprice) FROM v WHERE " + where);
    got = syn.AnswerScalar(*max2, params);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, f.Extremum(1, /*is_max=*/true, admits, free));
    auto min1 = Parse("SELECT MIN(o1.o_totalprice) FROM v WHERE " + where);
    got = syn.AnswerScalar(*min1, params);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, f.Extremum(0, /*is_max=*/false, admits, free));

    // Grouped over two dimensions: value cells only, lexicographic order,
    // each group pinned on the masks compiled once for the query.
    auto grouped = Parse(
        "SELECT c.c_mktsegment, o2.o_totalprice, COUNT(*), "
        "AVG(o1.o_totalprice), MAX(vrsq0.cnt) FROM v WHERE " +
        where + " GROUP BY c.c_mktsegment, o2.o_totalprice");
    auto rows = syn.AnswerGroupedData(*grouped, params);
    ASSERT_TRUE(rows.ok()) << rows.status();
    ASSERT_EQ(rows->rows.size(), 3u * 4u);
    size_t r = 0;
    for (int64_t seg = 0; seg < 3; ++seg) {
      for (int64_t price = 0; price < 4; ++price, ++r) {
        const std::vector<int64_t> pins = {-1, price, seg, -1};
        const double group_count = f.Sum("count", admits, pins);
        const aggregate::GroupedRow& row = rows->rows[r];
        EXPECT_EQ(row.values[0], Rep(f.view->attributes()[2].domain, seg));
        EXPECT_EQ(row.noisy_count, group_count);
        EXPECT_EQ(row.values[2].ToDouble(), group_count);
        EXPECT_EQ(row.values[3].ToDouble(),
                  aggregate::EvaluateDerived(
                      aggregate::Derivation::kAvg, group_count,
                      f.Sum(avg_plan->sum_key, admits, pins), 0));
        EXPECT_EQ(row.values[4].ToDouble(),
                  f.Extremum(3, /*is_max=*/true, admits, pins));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CellProgramTest, ::testing::Range(1, 9));

/// 1-D view under the hierarchical strategy: a COUNT whose admitted cells
/// are one contiguous value range (no NULL cell) reads the tree; any other
/// mask totals the noisy cells.
TEST(CellProgramHierarchicalTest, RangeOffTheMaskOrCellSum) {
  Random rng(17);
  Fixture f({Attr("o", "o_totalprice", ColumnDomain::IntBuckets(0, 63, 16))},
            &rng);
  auto tree = HierarchicalHistogram::Publish(f.parts.noisy.at("count"), 1.0,
                                             1.0, &rng);
  ASSERT_TRUE(tree.ok()) << tree.status();
  f.parts.hier_count = *tree;
  f.Publish();
  const Synopsis& syn = *f.synopsis;
  const int64_t nulls = f.sizes[0] - 1;  // the padding cell's index

  // Count over `admits` restricted to `pin`, by the hierarchical rule.
  auto expect_count = [&](const std::vector<bool>& admits, int64_t pin) {
    int64_t lo = -1, hi = -1, n = 0;
    for (int64_t idx = 0; idx <= nulls; ++idx) {
      if (!admits[static_cast<size_t>(idx)] || (pin >= 0 && pin != idx)) {
        continue;
      }
      if (lo < 0) lo = idx;
      hi = idx;
      ++n;
    }
    if (n > 0 && hi != nulls && hi - lo + 1 == n) {
      auto range = tree->RangeSum(lo, hi);
      EXPECT_TRUE(range.ok());
      return *range;
    }
    return f.Sum("count", admits, {pin});
  };

  for (int trial = 0; trial < 200; ++trial) {
    const ParamMap params = {
        {"p", Value::Double(static_cast<double>(rng.UniformInt(0, 64)))}};
    std::string where;
    for (int64_t i = rng.UniformInt(1, 3); i > 0; --i) {
      const std::string k = std::to_string(rng.UniformInt(0, 16) * 4);
      const char* atoms[] = {"o.o_totalprice >= ", "o_totalprice < ",
                             "o.o_totalprice <> ", "$p >= "};
      std::string atom = atoms[rng.UniformInt(0, 3)] + k;
      if (rng.Bernoulli(0.2)) atom = "(" + atom + " OR o_totalprice IS NULL)";
      if (rng.Bernoulli(0.15)) atom = "(NOT " + atom + ")";
      if (rng.Bernoulli(0.1)) atom = "o.o_totalprice < $p";
      where += (where.empty() ? "" : " AND ") + atom;
    }
    SCOPED_TRACE(where);
    auto count = Parse("SELECT COUNT(*) FROM v WHERE " + where);
    const std::vector<bool> admits = f.Admits(count->where.get(), params);
    auto got = syn.AnswerScalar(*count, params);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, expect_count(admits, -1));

    auto grouped = Parse("SELECT o.o_totalprice, COUNT(*) FROM v WHERE " +
                         where + " GROUP BY o.o_totalprice");
    auto rows = syn.AnswerGroupedData(*grouped, params);
    ASSERT_TRUE(rows.ok()) << rows.status();
    ASSERT_EQ(rows->rows.size(), static_cast<size_t>(nulls));
    for (int64_t g = 0; g < nulls; ++g) {
      EXPECT_EQ(rows->rows[static_cast<size_t>(g)].noisy_count,
                expect_count(admits, g));
    }
  }
}

TEST(CellProgramEdgeTest, NullPaddingCellAnswersNegatedExists) {
  Random rng(5);
  Fixture f(FourDims(), &rng);
  f.Publish();
  // Only the padding cell of vrsq0.cnt satisfies IS NULL; COALESCE maps
  // it to 0 so the NOT EXISTS form admits it too.
  for (const char* where :
       {"vrsq0.cnt IS NULL", "COALESCE(vrsq0.cnt, 0) < 1",
        "NOT (COALESCE(vrsq0.cnt, 0) >= 1) AND o1.o_totalprice IS NULL"}) {
    SCOPED_TRACE(where);
    auto q = Parse(std::string("SELECT COUNT(*) FROM v WHERE ") + where);
    auto got = f.synopsis->AnswerScalar(*q, {});
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, f.Sum("count", f.Admits(q->where.get(), {}),
                          std::vector<int64_t>(4, -1)));
  }
}

TEST(CellProgramEdgeTest, ConstantFalseConjunctZeroesEveryPath) {
  Random rng(6);
  Fixture f(FourDims(), &rng);
  f.Publish();
  const ParamMap params = {{"p", Value::Double(3)}};
  auto scalar = Parse(
      "SELECT COUNT(*) FROM v WHERE o1.o_totalprice >= 8 AND $p > 5");
  auto got = f.synopsis->AnswerScalar(*scalar, params);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, 0.0);
  auto grouped = Parse(
      "SELECT c.c_mktsegment, COUNT(*) FROM v WHERE 1 = 0 "
      "GROUP BY c.c_mktsegment");
  auto rows = f.synopsis->AnswerGroupedData(*grouped, params);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 3u);
  for (const auto& row : rows->rows) EXPECT_EQ(row.noisy_count, 0.0);
}

/// A multi-dimension conjunct that fails to evaluate at some sub-grid
/// point fails the answer only where per-cell evaluation of the conjuncts
/// in order would reach that point: cnt's first bucket has midpoint 1, so
/// `cnt - 1` divides by zero there.
TEST(CellProgramEdgeTest, ConjunctErrorsRaiseOnlyWhereReached) {
  Random rng(9);
  Fixture f(FourDims(), &rng);
  f.Publish();
  const std::string divides = "o1.o_totalprice / (vrsq0.cnt - 1) > 0";
  const std::vector<int64_t> free(4, -1);
  // Excluded by a single-dimension conjunct: never reached.
  auto masked = Parse("SELECT COUNT(*) FROM v WHERE vrsq0.cnt > 2 AND " +
                      divides);
  auto got = f.synopsis->AnswerScalar(*masked, {});
  ASSERT_TRUE(got.ok()) << got.status();
  auto same = Parse("SELECT COUNT(*) FROM v WHERE vrsq0.cnt > 2 AND "
                    "o1.o_totalprice IS NOT NULL");
  EXPECT_EQ(*got, f.Sum("count", f.Admits(same->where.get(), {}), free));
  // An earlier multi-dimension conjunct fails everywhere: never reached.
  const std::string never = "o2.o_totalprice + vrsq0.cnt > 1000";
  auto first = Parse("SELECT COUNT(*) FROM v WHERE " + never + " AND " +
                     divides);
  got = f.synopsis->AnswerScalar(*first, {});
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, 0.0);
  // Evaluated first: the error surfaces.
  auto second = Parse("SELECT COUNT(*) FROM v WHERE " + divides + " AND " +
                      never);
  got = f.synopsis->AnswerScalar(*second, {});
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kExecutionError);
}

TEST(CellProgramEdgeTest, NonViewAttributeIsAnError) {
  Random rng(7);
  Fixture f(FourDims(), &rng);
  f.Publish();
  auto q = Parse("SELECT COUNT(*) FROM v WHERE x.nope = 1");
  auto got = f.synopsis->AnswerScalar(*q, {});
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kExecutionError);
}

/// Regression: MIN/MAX resolve their argument by qualified name. On a
/// self-join view with o1.o_totalprice and o2.o_totalprice, MAX over o2
/// used to answer from o1's dimension (the first bare-name match).
TEST(CellProgramEdgeTest, ExtremumResolvesQualifiedColumnOnTwoAliasView) {
  Random rng(8);
  Fixture f({Attr("o1", "o_totalprice", ColumnDomain::IntBuckets(0, 63, 4)),
             Attr("o2", "o_totalprice", ColumnDomain::IntBuckets(0, 63, 4))},
            &rng);
  // All rows sit in the cell (o1 bucket 0, o2 bucket 3).
  std::vector<double>& exact = f.parts.exact.at("count");
  std::fill(exact.begin(), exact.end(), 0.0);
  exact[0 * 5 + 3] = 5;
  f.Publish();
  const double low = Rep(ColumnDomain::IntBuckets(0, 63, 4), 0).ToDouble();
  const double high = Rep(ColumnDomain::IntBuckets(0, 63, 4), 3).ToDouble();
  const std::map<std::string, double> expect = {
      {"MAX(o2.o_totalprice)", high}, {"MIN(o2.o_totalprice)", high},
      {"MAX(o1.o_totalprice)", low}, {"MIN(o1.o_totalprice)", low}};
  for (const auto& [item, value] : expect) {
    auto q = Parse("SELECT " + item + " FROM v");
    auto got = f.synopsis->AnswerScalar(*q, {}, /*use_exact=*/true);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, value) << item;
  }
}

}  // namespace
}  // namespace viewrewrite
