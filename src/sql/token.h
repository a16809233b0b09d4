#ifndef VIEWREWRITE_SQL_TOKEN_H_
#define VIEWREWRITE_SQL_TOKEN_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/limits.h"
#include "common/result.h"

namespace viewrewrite {

enum class TokenType {
  kIdentifier,   // table/column/function names (case-insensitive)
  kKeyword,      // recognized SQL keywords, text stored upper-cased
  kInteger,      // 123
  kFloat,        // 1.5, .5, 2.
  kString,       // 'abc' with '' escaping
  kOperator,     // = <> != < <= > >= + - * / ( ) , . ; $
  kEnd,          // end of input sentinel
};

/// One lexical token with its source offset (for error messages).
struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;   // keywords upper-cased; identifiers lower-cased
  size_t offset = 0;  // byte offset in the original query string

  bool IsKeyword(const char* kw) const;
  bool IsOperator(const char* op) const;
};

/// Tokenizes `sql`. The final element is always a kEnd token. SQL keywords
/// are recognized case-insensitively from a fixed list; everything else
/// alphabetic is an identifier (lower-cased, since SQL identifiers are
/// case-insensitive across database platforms).
///
/// Resource governance: input larger than `limits.max_sql_bytes` is
/// refused before any scanning, and the token stream is capped at
/// `limits.max_tokens` — both with kResourceExhausted.
Result<std::vector<Token>> Tokenize(
    const std::string& sql,
    const ResourceLimits& limits = ResourceLimits::Defaults());

/// Source span of one integer, float or string literal token. For a
/// string the span is the text between the quotes, '' escapes intact.
struct LiteralSpan {
  TokenType type = TokenType::kInteger;
  size_t begin = 0;
  size_t size = 0;
};

/// A statement's lexical skeleton: the token stream as Tokenize
/// normalises it, with every literal token replaced by a marker of its
/// type, plus the literals' spans in source order (span i is slot i).
/// Two texts with equal keys tokenize identically except for their
/// literal values, so they have the same token count and parse to trees
/// of the same shape.
struct SqlSkeleton {
  std::string key;
  std::vector<LiteralSpan> literals;
};

/// Scans `sql` with Tokenize's scanner and limits, failing exactly where
/// Tokenize fails, without building a token vector.
Result<SqlSkeleton> LiteralSkeleton(
    const std::string& sql,
    const ResourceLimits& limits = ResourceLimits::Defaults());

/// The value of a string literal from its span text: '' becomes '.
std::string UnescapeSqlString(std::string_view quoted_body);

/// True if `word` (upper-cased) is a recognized SQL keyword.
bool IsSqlKeyword(const std::string& upper_word);

}  // namespace viewrewrite

#endif  // VIEWREWRITE_SQL_TOKEN_H_
