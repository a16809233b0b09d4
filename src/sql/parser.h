#ifndef VIEWREWRITE_SQL_PARSER_H_
#define VIEWREWRITE_SQL_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/limits.h"
#include "common/result.h"
#include "sql/ast.h"

namespace viewrewrite {

/// Parses one SQL SELECT statement (optionally with WITH clauses and a
/// trailing semicolon) into an AST.
///
/// Supported grammar (the subset the paper's query classes need):
///   [WITH name AS (select) [, ...]]
///   SELECT [DISTINCT] item [, ...]
///   FROM table_ref [, ...]
///   [WHERE expr] [GROUP BY cols] [HAVING expr]
/// with joins (JOIN/INNER/LEFT [OUTER]/NATURAL ... ON), derived tables,
/// scalar/EXISTS/IN/ANY/SOME/ALL subqueries, aggregates with DISTINCT,
/// COALESCE, arithmetic, AND/OR/NOT, IS [NOT] NULL, BETWEEN, and `$param`
/// placeholders for chained queries.
///
/// Resource governance (`limits`): input size and token count are
/// enforced by the tokenizer; nesting depth, operator-chain length, and
/// total AST node count are enforced during parsing, and the finished
/// tree is re-measured with ComputeAstStats. Any breach returns
/// kResourceExhausted; malformed integer literals (overflowing int64)
/// return kInvalidArgument. A statement that parses OK is therefore safe
/// for every downstream recursive walk.
Result<SelectStmtPtr> ParseSelect(const std::string& sql);
Result<SelectStmtPtr> ParseSelect(const std::string& sql,
                                  const ResourceLimits& limits);

/// How the parser turned one literal token into a value. Every literal
/// the parser builds from a literal token carries that token's slot
/// (LiteralExpr::slot); the plan cache applies the same conversion to the
/// same slot of another text with the same lexical skeleton.
enum class SlotConversion : uint8_t {
  kUnused,        // consumed without becoming a tagged literal (LIMIT n,
                  // a second negation folded into a literal)
  kInt,           // 5
  kNegatedInt,    // -5, folded before the magnitude check
  kFloat,         // 1.5
  kNegatedFloat,  // -1.5
  kString,        // 'abc'
};

/// ParseSelect that also reports each literal token's conversion, by
/// slot (the token's index among the integer, float and string tokens).
Result<SelectStmtPtr> ParseSelect(const std::string& sql,
                                  const ResourceLimits& limits,
                                  std::vector<SlotConversion>* slots);

/// The value ParseSelect gives a literal of kind `conversion` whose
/// source text is `text` (for a string, the text between the quotes).
/// Fails where ParseSelect fails; kUnused always fails.
Result<Value> ConvertSlot(SlotConversion conversion, std::string_view text);

}  // namespace viewrewrite

#endif  // VIEWREWRITE_SQL_PARSER_H_
