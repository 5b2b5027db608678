#include "sql/lexer.h"

#include <limits>

namespace cdpd {

namespace {

// The dialect's character classes: those of <cctype> in the "C" locale,
// without a library call per byte.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsIdentStart(char c) {
  const int lower = c | 0x20;
  return (lower >= 'a' && lower <= 'z') || c == '_';
}

bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }

enum class LiteralScan { kOk, kStrayMinus, kOutOfRange };

/// Decodes the integer literal [-]?[0-9]+ that starts at `sql[*pos]`.
/// On kOk, `*pos` is one past it and `*value` holds it; otherwise
/// neither is meaningful.
LiteralScan ScanIntegerLiteral(std::string_view sql, size_t* pos,
                               int64_t* value) {
  const bool negative = sql[*pos] == '-';
  size_t j = *pos + (negative ? 1 : 0);
  if (j >= sql.size() || !IsDigit(sql[j])) return LiteralScan::kStrayMinus;
  const uint64_t limit =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) +
      (negative ? 1 : 0);
  uint64_t magnitude = 0;
  for (; j < sql.size() && IsDigit(sql[j]); ++j) {
    const uint64_t digit = static_cast<uint64_t>(sql[j] - '0');
    if (magnitude > (limit - digit) / 10) return LiteralScan::kOutOfRange;
    magnitude = magnitude * 10 + digit;
  }
  // Negated in unsigned arithmetic: -INT64_MIN does not fit in int64.
  *value = static_cast<int64_t>(negative ? 0 - magnitude : magnitude);
  *pos = j;
  return LiteralScan::kOk;
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < sql.size()) {
    const char c = sql[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    Token token;
    token.position = i;
    switch (c) {
      case '(':
        token.type = TokenType::kLeftParen;
        token.text = "(";
        ++i;
        tokens.push_back(std::move(token));
        continue;
      case ')':
        token.type = TokenType::kRightParen;
        token.text = ")";
        ++i;
        tokens.push_back(std::move(token));
        continue;
      case ',':
        token.type = TokenType::kComma;
        token.text = ",";
        ++i;
        tokens.push_back(std::move(token));
        continue;
      case '=':
        token.type = TokenType::kEquals;
        token.text = "=";
        ++i;
        tokens.push_back(std::move(token));
        continue;
      case '*':
        token.type = TokenType::kStar;
        token.text = "*";
        ++i;
        tokens.push_back(std::move(token));
        continue;
      case ';':
        token.type = TokenType::kSemicolon;
        token.text = ";";
        ++i;
        tokens.push_back(std::move(token));
        continue;
      default:
        break;
    }
    if (c == '-' || IsDigit(c)) {
      size_t j = i;
      switch (ScanIntegerLiteral(sql, &j, &token.value)) {
        case LiteralScan::kStrayMinus:
          return Status::ParseError("stray '-' at offset " +
                                    std::to_string(i));
        case LiteralScan::kOutOfRange:
          return Status::ParseError("integer literal out of range at offset " +
                                    std::to_string(i));
        case LiteralScan::kOk:
          break;
      }
      token.type = TokenType::kInteger;
      token.text = std::string(sql.substr(i, j - i));
      i = j;
      tokens.push_back(std::move(token));
      continue;
    }
    if (IsIdentStart(c)) {
      size_t j = i + 1;
      while (j < sql.size() && IsIdentChar(sql[j])) ++j;
      token.type = TokenType::kIdentifier;
      token.text = std::string(sql.substr(i, j - i));
      i = j;
      tokens.push_back(std::move(token));
      continue;
    }
    return Status::ParseError(std::string("unexpected character '") + c +
                              "' at offset " + std::to_string(i));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.position = sql.size();
  tokens.push_back(std::move(end));
  return tokens;
}

bool ScanSkeleton(std::string_view sql, std::string* key,
                  std::vector<int64_t>* literals) {
  key->clear();
  literals->clear();
  size_t run = 0;  // Start of the text not yet copied into `key`.
  size_t i = 0;
  while (i < sql.size()) {
    const char c = sql[i];
    if (IsIdentStart(c)) {
      // Digits inside an identifier are part of it, not literals.
      ++i;
      while (i < sql.size() && IsIdentChar(sql[i])) ++i;
      continue;
    }
    if (c == '-' || IsDigit(c)) {
      key->append(sql.data() + run, i - run);
      int64_t value = 0;
      if (ScanIntegerLiteral(sql, &i, &value) != LiteralScan::kOk) {
        return false;
      }
      key->push_back(kSkeletonSlot);
      literals->push_back(value);
      run = i;
      continue;
    }
    if (c == kSkeletonSlot) return false;
    ++i;
  }
  key->append(sql.data() + run, sql.size() - run);
  return true;
}

}  // namespace cdpd
