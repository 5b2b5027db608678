// SQL front-end fuzzing: (a) every valid bound statement round-trips
// through print -> parse -> bind unchanged; (b) arbitrary byte soup
// and shuffled token soup never crash the lexer/parser — they return
// a Status or a legitimate parse.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "test_util.h"
#include "workload/statement.h"

namespace cdpd {
namespace {

class SqlRoundTripFuzz : public ::testing::TestWithParam<uint64_t> {};

using testing_util::RandomStatement;

TEST_P(SqlRoundTripFuzz, BoundStatementsSurvivePrintParseBind) {
  const Schema schema = MakePaperSchema();
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const BoundStatement original = RandomStatement(&rng, schema);
    const std::string sql = original.ToString(schema);
    auto ast = ParseStatement(sql);
    ASSERT_TRUE(ast.ok()) << sql << " -> " << ast.status();
    auto bound = BindStatement(schema, ast.value());
    ASSERT_TRUE(bound.ok()) << sql << " -> " << bound.status();
    EXPECT_EQ(*bound, original) << sql;
  }
}

TEST_P(SqlRoundTripFuzz, ByteSoupNeverCrashes) {
  Rng rng(GetParam() ^ 0xf00d);
  const std::string alphabet =
      "SELECTUPDAINRTOVWHBFMXabcd0123456789 ()=,;*-\t\n_";
  for (int i = 0; i < 2000; ++i) {
    std::string soup;
    const size_t length = rng.NextBounded(60);
    for (size_t j = 0; j < length; ++j) {
      soup += alphabet[rng.NextBounded(alphabet.size())];
    }
    // Must not crash; outcome (ok or error) is irrelevant.
    auto result = ParseStatement(soup);
    if (result.ok()) {
      // Whatever parsed must print back to something parseable.
      EXPECT_TRUE(ParseStatement(AstToString(result.value())).ok());
    }
  }
}

TEST_P(SqlRoundTripFuzz, TokenSoupNeverCrashes) {
  Rng rng(GetParam() ^ 0xbeef);
  const std::vector<std::string> tokens = {
      "SELECT", "UPDATE", "INSERT", "INTO",  "VALUES", "FROM", "WHERE",
      "SET",    "BETWEEN", "AND",   "CREATE", "DROP",  "INDEX", "ON",
      "t",      "a",      "b",      "(",     ")",      ",",    "=",
      "42",     "-7",     ";"};
  for (int i = 0; i < 2000; ++i) {
    std::string soup;
    const size_t length = rng.NextBounded(12);
    for (size_t j = 0; j < length; ++j) {
      soup += tokens[rng.NextBounded(tokens.size())];
      soup += ' ';
    }
    auto result = ParseStatement(soup);
    (void)result;
  }
}

TEST_P(SqlRoundTripFuzz, LexerHandlesArbitraryBytes) {
  Rng rng(GetParam() ^ 0xcafe);
  for (int i = 0; i < 500; ++i) {
    std::string bytes;
    const size_t length = rng.NextBounded(40);
    for (size_t j = 0; j < length; ++j) {
      bytes += static_cast<char>(rng.NextBounded(127) + 1);  // No NUL.
    }
    auto tokens = Tokenize(bytes);
    if (tokens.ok()) {
      EXPECT_EQ(tokens->back().type, TokenType::kEnd);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlRoundTripFuzz,
                         ::testing::Values<uint64_t>(1, 2, 3, 4, 5),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace cdpd
