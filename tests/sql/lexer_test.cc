#include "sql/lexer.h"

#include <gtest/gtest.h>

namespace cdpd {
namespace {

TEST(LexerTest, EmptyInputYieldsEndToken) {
  auto tokens = Tokenize("");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 1u);
  EXPECT_EQ(tokens->front().type, TokenType::kEnd);
}

TEST(LexerTest, TokenizesSelectStatement) {
  auto tokens = Tokenize("SELECT a FROM t WHERE a = 42");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 9u);  // 8 tokens + end.
  EXPECT_EQ((*tokens)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[6].type, TokenType::kEquals);
  EXPECT_EQ((*tokens)[7].type, TokenType::kInteger);
  EXPECT_EQ((*tokens)[7].value, 42);
}

TEST(LexerTest, SymbolsAndStar) {
  auto tokens = Tokenize("( ) , = * ;");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kLeftParen);
  EXPECT_EQ((*tokens)[1].type, TokenType::kRightParen);
  EXPECT_EQ((*tokens)[2].type, TokenType::kComma);
  EXPECT_EQ((*tokens)[3].type, TokenType::kEquals);
  EXPECT_EQ((*tokens)[4].type, TokenType::kStar);
  EXPECT_EQ((*tokens)[5].type, TokenType::kSemicolon);
}

TEST(LexerTest, NegativeIntegers) {
  auto tokens = Tokenize("-17");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kInteger);
  EXPECT_EQ((*tokens)[0].value, -17);
}

TEST(LexerTest, Int64Boundaries) {
  auto max = Tokenize("9223372036854775807");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ((*max)[0].value, INT64_MAX);
  auto min = Tokenize("-9223372036854775808");
  ASSERT_TRUE(min.ok());
  EXPECT_EQ((*min)[0].value, INT64_MIN);
}

TEST(LexerTest, OverflowingIntegerIsParseError) {
  EXPECT_EQ(Tokenize("9223372036854775808").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(Tokenize("-9223372036854775809").status().code(),
            StatusCode::kParseError);
}

TEST(LexerTest, StrayMinusIsParseError) {
  EXPECT_EQ(Tokenize("- x").status().code(), StatusCode::kParseError);
}

TEST(LexerTest, IdentifiersWithUnderscoresAndDigits) {
  auto tokens = Tokenize("col_1 _tmp x9");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "col_1");
  EXPECT_EQ((*tokens)[1].text, "_tmp");
  EXPECT_EQ((*tokens)[2].text, "x9");
}

TEST(LexerTest, UnknownCharacterIsParseError) {
  const auto status = Tokenize("SELECT @ FROM t").status();
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("'@'"), std::string::npos);
}

TEST(LexerTest, PositionsAreByteOffsets) {
  auto tokens = Tokenize("ab  cd");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].position, 0u);
  EXPECT_EQ((*tokens)[1].position, 4u);
}

TEST(LexerTest, SkeletonErasesLiteralTokensOnly) {
  std::string key;
  std::vector<int64_t> literals;
  ASSERT_TRUE(ScanSkeleton("UPDATE t SET col_2 = -17 WHERE x9=007;", &key,
                           &literals));
  const std::string slot(1, kSkeletonSlot);
  EXPECT_EQ(key, "UPDATE t SET col_2 = " + slot + " WHERE x9=" + slot + ";");
  EXPECT_EQ(literals, (std::vector<int64_t>{-17, 7}));
  ASSERT_TRUE(ScanSkeleton("5-3 12ab", &key, &literals));
  EXPECT_EQ(key, slot + slot + " " + slot + "ab");
  EXPECT_EQ(literals, (std::vector<int64_t>{5, -3, 12}));
  ASSERT_TRUE(ScanSkeleton("-9223372036854775808", &key, &literals));
  EXPECT_EQ(literals, (std::vector<int64_t>{INT64_MIN}));
}

TEST(LexerTest, SkeletonRefusesWhatTokenizeRejects) {
  std::string key;
  std::vector<int64_t> literals;
  EXPECT_FALSE(ScanSkeleton("a = 9223372036854775808", &key, &literals));
  EXPECT_FALSE(ScanSkeleton("a = -9223372036854775809", &key, &literals));
  EXPECT_FALSE(ScanSkeleton("a = - 1", &key, &literals));
  EXPECT_FALSE(ScanSkeleton(std::string("a = ") + kSkeletonSlot, &key,
                            &literals));
}

}  // namespace
}  // namespace cdpd
