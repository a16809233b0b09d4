#ifndef VIEWREWRITE_SQL_PRINTER_H_
#define VIEWREWRITE_SQL_PRINTER_H_

#include <cstddef>
#include <functional>
#include <string>

#include "sql/ast.h"

namespace viewrewrite {

/// Renders an expression as SQL text. Output uses a canonical, fully
/// parenthesized form so that textual equality implies structural equality.
std::string ToSql(const Expr& expr);

/// Renders a table reference as SQL text.
std::string ToSql(const TableRef& ref);

/// Renders a SELECT statement as SQL text (single line, canonical form).
std::string ToSql(const SelectStmt& stmt);

/// Renders a full rewritten query: chain links as `name := (...)` prefixes
/// followed by the signed combination of queries.
std::string ToSql(const RewrittenQuery& rq);

/// Called for each literal as it is rendered, with the byte offset of its
/// text in the output.
using LiteralVisitor =
    std::function<void(const LiteralExpr& literal, size_t offset)>;

/// The renderings above, reporting every literal to `visit`.
std::string ToSql(const Expr& expr, const LiteralVisitor& visit);
std::string ToSql(const TableRef& ref, const LiteralVisitor& visit);
std::string ToSql(const RewrittenQuery& rq, const LiteralVisitor& visit);

}  // namespace viewrewrite

#endif  // VIEWREWRITE_SQL_PRINTER_H_
