#ifndef CDPD_SQL_LEXER_H_
#define CDPD_SQL_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace cdpd {

/// Token categories of the SQL subset (see sql/parser.h for the
/// grammar).
enum class TokenType {
  kIdentifier,   // column / table / index names (also keywords, which
                 // the parser matches case-insensitively by text)
  kInteger,      // [-]?[0-9]+
  kLeftParen,    // (
  kRightParen,   // )
  kComma,        // ,
  kEquals,       // =
  kStar,         // *
  kSemicolon,    // ;
  kEnd,          // end of input sentinel
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;     // Raw text (identifier spelling).
  int64_t value = 0;    // For kInteger.
  size_t position = 0;  // Byte offset in the input, for error messages.

  bool operator==(const Token& other) const = default;
};

/// Tokenizes `sql`. Returns ParseError on any character outside the
/// dialect or an out-of-range integer literal. The result always ends
/// with a kEnd token.
Result<std::vector<Token>> Tokenize(std::string_view sql);

/// Stands in for each integer literal in a ScanSkeleton() key. The
/// lexer rejects this byte, so no accepted statement contains it.
inline constexpr char kSkeletonSlot = '\x01';

/// Reduces `sql` to its literal-erased skeleton: `*key` receives `sql`
/// with every integer literal token (digits, or '-' followed by a
/// digit, where a token starts) replaced by one kSkeletonSlot byte, and
/// `*literals` receives their values in order. Everything else, including
/// whitespace, keyword case and digits inside identifiers, is copied
/// verbatim. Token boundaries are Tokenize()'s, so two statements with
/// equal keys tokenize alike except for their literal values.
///
/// Returns false, leaving the outputs unspecified, when `sql` holds
/// something Tokenize() rejects that the scan can see: the slot byte, a
/// stray '-' or a literal outside int64. Other lexical errors are copied
/// into the key and surface when the statement is parsed in full.
bool ScanSkeleton(std::string_view sql, std::string* key,
                  std::vector<int64_t>* literals);

}  // namespace cdpd

#endif  // CDPD_SQL_LEXER_H_
