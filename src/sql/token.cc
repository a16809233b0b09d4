#include "sql/token.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

namespace viewrewrite {

namespace {

// "DISTINCT" and "BETWEEN" are the longest keywords.
constexpr size_t kMaxKeywordLength = 8;
constexpr size_t kMaxReservedTokens = 1024;

const std::unordered_set<std::string_view>& KeywordSet() {
  static const auto* kKeywords = new std::unordered_set<std::string_view>{
      "SELECT", "FROM",   "WHERE",  "GROUP",    "BY",     "HAVING",
      "AS",     "AND",    "OR",     "NOT",      "IN",     "EXISTS",
      "ANY",    "SOME",   "ALL",    "DISTINCT", "JOIN",   "INNER",
      "LEFT",   "RIGHT",  "OUTER",  "NATURAL",  "ON",     "WITH",
      "NULL",   "IS",     "BETWEEN", "LIKE",    "CASE",   "WHEN",
      "THEN",   "ELSE",   "END",    "UNION",    "ORDER",  "LIMIT",
      "ASC",    "DESC",   "TRUE",   "FALSE",
  };
  return *kKeywords;
}

/// The keyword `word` spells in any case, as its static upper-case text,
/// or empty if it is not a keyword. Allocates nothing.
std::string_view KeywordOf(std::string_view word) {
  if (word.size() > kMaxKeywordLength) return {};
  char upper[kMaxKeywordLength];
  for (size_t i = 0; i < word.size(); ++i) {
    upper[i] = static_cast<char>(
        std::toupper(static_cast<unsigned char>(word[i])));
  }
  const auto& set = KeywordSet();
  auto it = set.find(std::string_view(upper, word.size()));
  return it == set.end() ? std::string_view() : *it;
}

/// One scanned token before any copy. Keywords carry their static
/// upper-case text, operators their normalised text ("!=" scans as "<>"),
/// identifiers and numbers their source text, strings the source text
/// between the quotes.
struct RawToken {
  TokenType type;
  size_t offset;
  std::string_view text;
};

/// The scanner behind Tokenize and LiteralSkeleton: calls `emit` once per
/// token in source order, and enforces the byte and token limits.
template <typename Emit>
Status ScanSql(const std::string& sql, const ResourceLimits& limits,
               Emit&& emit) {
  if (sql.size() > limits.max_sql_bytes) {
    return Status::ResourceExhausted(
        "SQL text of " + std::to_string(sql.size()) +
        " bytes exceeds the limit (" + std::to_string(limits.max_sql_bytes) +
        ")");
  }
  const std::string_view src(sql);
  size_t count = 0;
  size_t i = 0;
  const size_t n = src.size();
  while (i < n) {
    if (count >= limits.max_tokens) {
      return Status::ResourceExhausted(
          "SQL token stream exceeds the limit (" +
          std::to_string(limits.max_tokens) + " tokens)");
    }
    const char c = src[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment: -- ... \n
    if (c == '-' && i + 1 < n && src[i + 1] == '-') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    const size_t start = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      while (i < n && (std::isalnum(static_cast<unsigned char>(src[i])) ||
                       src[i] == '_')) {
        ++i;
      }
      const std::string_view word = src.substr(start, i - start);
      const std::string_view keyword = KeywordOf(word);
      if (keyword.empty()) {
        emit(RawToken{TokenType::kIdentifier, start, word});
      } else {
        emit(RawToken{TokenType::kKeyword, start, keyword});
      }
      ++count;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      bool saw_dot = false;
      bool saw_exp = false;
      while (i < n && (std::isdigit(static_cast<unsigned char>(src[i])) ||
                       (!saw_dot && src[i] == '.'))) {
        if (src[i] == '.') saw_dot = true;
        ++i;
      }
      // Scientific notation: [eE][+-]?digits.
      if (i < n && (src[i] == 'e' || src[i] == 'E')) {
        size_t j = i + 1;
        if (j < n && (src[j] == '+' || src[j] == '-')) ++j;
        if (j < n && std::isdigit(static_cast<unsigned char>(src[j]))) {
          saw_exp = true;
          i = j;
          while (i < n && std::isdigit(static_cast<unsigned char>(src[i]))) {
            ++i;
          }
        }
      }
      emit(RawToken{(saw_dot || saw_exp) ? TokenType::kFloat
                                         : TokenType::kInteger,
                    start, src.substr(start, i - start)});
      ++count;
      continue;
    }
    if (c == '\'') {
      ++i;
      bool closed = false;
      while (i < n) {
        if (src[i] == '\'') {
          if (i + 1 < n && src[i + 1] == '\'') {
            i += 2;
            continue;
          }
          closed = true;
          break;
        }
        ++i;
      }
      if (!closed) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(start));
      }
      emit(RawToken{TokenType::kString, start,
                    src.substr(start + 1, i - start - 1)});
      ++i;  // closing quote
      ++count;
      continue;
    }
    // Multi-char operators first.
    if (i + 1 < n) {
      const std::string_view two = src.substr(i, 2);
      if (two == "<>" || two == "!=" || two == "<=" || two == ">=" ||
          two == ":=") {
        emit(RawToken{TokenType::kOperator, start,
                      two == "!=" ? std::string_view("<>") : two});
        i += 2;
        ++count;
        continue;
      }
    }
    static constexpr std::string_view kSingle = "=<>+-*/(),.;$";
    if (kSingle.find(c) != std::string_view::npos) {
      emit(RawToken{TokenType::kOperator, start, src.substr(i, 1)});
      ++i;
      ++count;
      continue;
    }
    return Status::ParseError("unexpected character '" + std::string(1, c) +
                              "' at offset " + std::to_string(i));
  }
  return Status::OK();
}

}  // namespace

bool IsSqlKeyword(const std::string& upper_word) {
  return KeywordSet().count(upper_word) > 0;
}

bool Token::IsKeyword(const char* kw) const {
  return type == TokenType::kKeyword && text == kw;
}

bool Token::IsOperator(const char* op) const {
  return type == TokenType::kOperator && text == op;
}

std::string UnescapeSqlString(std::string_view quoted_body) {
  std::string out;
  out.reserve(quoted_body.size());
  for (size_t i = 0; i < quoted_body.size(); ++i) {
    out += quoted_body[i];
    // The scanner only accepts a quote inside a literal as half of ''.
    if (quoted_body[i] == '\'') ++i;
  }
  return out;
}

Result<std::vector<Token>> Tokenize(const std::string& sql,
                                    const ResourceLimits& limits) {
  std::vector<Token> out;
  // About one token per three source bytes, so one allocation usually
  // holds a query's stream; capped so a long literal reserves little.
  out.reserve(std::min<size_t>({sql.size() / 3 + 2, limits.max_tokens + 1,
                                kMaxReservedTokens}));
  VR_RETURN_NOT_OK(ScanSql(sql, limits, [&out](const RawToken& raw) {
    Token& tok = out.emplace_back();
    tok.type = raw.type;
    tok.offset = raw.offset;
    if (raw.type == TokenType::kIdentifier) {
      tok.text.resize(raw.text.size());
      for (size_t i = 0; i < raw.text.size(); ++i) {
        tok.text[i] = static_cast<char>(
            std::tolower(static_cast<unsigned char>(raw.text[i])));
      }
    } else if (raw.type == TokenType::kString) {
      tok.text = UnescapeSqlString(raw.text);
    } else {
      tok.text = raw.text;
    }
  }));
  Token& end = out.emplace_back();
  end.type = TokenType::kEnd;
  end.offset = sql.size();
  return out;
}

Result<SqlSkeleton> LiteralSkeleton(const std::string& sql,
                                    const ResourceLimits& limits) {
  SqlSkeleton out;
  out.key.reserve(sql.size() + 8);
  VR_RETURN_NOT_OK(ScanSql(sql, limits, [&out](const RawToken& raw) {
    switch (raw.type) {
      case TokenType::kInteger:
      case TokenType::kFloat:
      case TokenType::kString: {
        // Control bytes cannot occur in any other token's text.
        out.key += raw.type == TokenType::kInteger ? '\x01'
                   : raw.type == TokenType::kFloat ? '\x02'
                                                   : '\x03';
        const size_t begin =
            raw.type == TokenType::kString ? raw.offset + 1 : raw.offset;
        out.literals.push_back(LiteralSpan{raw.type, begin, raw.text.size()});
        break;
      }
      case TokenType::kIdentifier:
        for (char c : raw.text) {
          out.key += static_cast<char>(
              std::tolower(static_cast<unsigned char>(c)));
        }
        break;
      default:
        out.key += raw.text;
        break;
    }
    out.key += ' ';
  }));
  return out;
}

}  // namespace viewrewrite
