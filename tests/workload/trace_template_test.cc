// Differential test of ReadTrace's statement templates. ReadTrace binds
// each distinct literal-erased statement once and fills in only the
// literals for later lines of the same template. Its oracle is the
// per-line loop it replaced, which tokenizes, parses and binds every
// line on its own. For every input the two must return the same
// workload, or the same error code and message.

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "test_util.h"
#include "workload/generator.h"
#include "workload/query_mix.h"
#include "workload/standard_workloads.h"
#include "workload/trace_io.h"

namespace cdpd {
namespace {

using testing_util::RandomStatement;

/// ReadTrace before statement templates: every line goes through
/// Tokenize -> ParseStatement -> BindStatement on its own.
Result<Workload> ReadTraceLineByLine(const Schema& schema,
                                     std::string_view text) {
  Workload workload;
  size_t current_block = 0;
  bool saw_block_comments = false;
  size_t line_number = 0;
  size_t block_begin_statement = 0;

  std::istringstream stream{std::string(text)};
  std::string raw_line;
  while (std::getline(stream, raw_line)) {
    ++line_number;
    const std::string_view line = Trim(raw_line);
    if (line.empty()) continue;
    if (line.substr(0, 2) == "--") {
      const std::vector<std::string> words =
          Split(std::string(Trim(line.substr(2))), ' ');
      if (words.size() >= 2 && words[0] == "block") {
        saw_block_comments = true;
        current_block = static_cast<size_t>(std::atoll(words[1].c_str()));
        while (workload.block_mix_names.size() <= current_block) {
          workload.block_mix_names.emplace_back();
        }
        if (words.size() >= 4 && words[2] == "mix") {
          workload.block_mix_names[current_block] = words[3];
        }
        if (current_block == 1 && workload.block_size == 0) {
          workload.block_size = workload.size() - block_begin_statement;
        }
        block_begin_statement = workload.size();
      }
      continue;
    }
    auto ast = ParseStatement(line);
    if (!ast.ok()) {
      return Status::ParseError("line " + std::to_string(line_number) + ": " +
                                ast.status().message());
    }
    if (std::holds_alternative<CreateIndexAst>(*ast) ||
        std::holds_alternative<DropIndexAst>(*ast)) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_number) +
          ": index DDL is not allowed in a workload trace");
    }
    auto bound = BindStatement(schema, *ast);
    if (!bound.ok()) {
      return Status(bound.status().code(),
                    "line " + std::to_string(line_number) + ": " +
                        bound.status().message());
    }
    workload.statements.push_back(std::move(bound).value());
  }
  if (!saw_block_comments) {
    workload.block_mix_names.clear();
    workload.block_size = 0;
  }
  return workload;
}

/// Short inputs are printed on failure; long generated traces are not.
std::string Describe(std::string_view text) {
  return text.size() <= 400 ? "text: \"" + std::string(text) + "\""
                            : std::to_string(text.size()) + "-byte trace";
}

/// Reads `text` with ReadTrace and with the oracle, expects them to
/// agree, and returns ReadTrace's result.
Result<Workload> ReadBothWays(const Schema& schema, std::string_view text) {
  Result<Workload> expected = ReadTraceLineByLine(schema, text);
  Result<Workload> actual = ReadTrace(schema, text);
  EXPECT_EQ(actual.ok(), expected.ok())
      << Describe(text) << "\n  ReadTrace: " << actual.status()
      << "\n  oracle: " << expected.status();
  if (!actual.ok() || !expected.ok()) {
    EXPECT_EQ(actual.status().code(), expected.status().code())
        << Describe(text);
    EXPECT_EQ(actual.status().message(), expected.status().message())
        << Describe(text);
    return actual;
  }
  EXPECT_EQ(actual->statements, expected->statements) << Describe(text);
  EXPECT_EQ(actual->block_mix_names, expected->block_mix_names)
      << Describe(text);
  EXPECT_EQ(actual->block_size, expected->block_size) << Describe(text);
  return actual;
}

TEST(TraceTemplateTest, PaperWorkloadsMatchOracle) {
  const Schema schema = MakePaperSchema();
  uint64_t seed = 11;
  for (const char* name : {"W1", "W2", "W3"}) {
    SCOPED_TRACE(name);
    WorkloadGenerator gen(schema, 500'000, seed++);
    const Workload original = MakeScaledPaperWorkload(name, 40, &gen).value();
    const Result<Workload> parsed =
        ReadBothWays(schema, WriteTrace(schema, original));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->statements, original.statements);
    EXPECT_EQ(parsed->block_mix_names, original.block_mix_names);
    EXPECT_EQ(parsed->block_size, original.block_size);
  }
}

TEST(TraceTemplateTest, DmlMixesMatchOracle) {
  const Schema schema = MakePaperSchema();
  const std::vector<QueryMix> mixes = MakePaperQueryMixes();
  const std::vector<DmlMixOptions> dml_mixes = {
      {.update_fraction = 0.2, .insert_fraction = 0.1, .range_fraction = 0.3},
      {.update_fraction = 0.5, .insert_fraction = 0.0, .range_fraction = 0.0},
      {.update_fraction = 0.0, .insert_fraction = 0.4, .range_fraction = 0.5,
       .max_range_width = 1}};
  Rng rng(7);
  for (size_t d = 0; d < dml_mixes.size(); ++d) {
    SCOPED_TRACE("dml mix " + std::to_string(d));
    std::vector<int> blocks;
    for (int b = 0; b < 30; ++b) {
      blocks.push_back(static_cast<int>(rng.NextBounded(mixes.size())));
    }
    WorkloadGenerator gen(schema, 1'000, 100 + d);
    const Workload original =
        gen.GenerateBlocked(mixes, blocks, 100, dml_mixes[d]).value();
    const Result<Workload> parsed =
        ReadBothWays(schema, WriteTrace(schema, original));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->statements, original.statements);
  }
}

TEST(TraceTemplateTest, RandomStatementsMatchOracle) {
  const Schema schema = MakePaperSchema();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Workload original;
    for (int i = 0; i < 2000; ++i) {
      original.statements.push_back(RandomStatement(&rng, schema));
    }
    const Result<Workload> parsed =
        ReadBothWays(schema, WriteTrace(schema, original));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->statements, original.statements);
  }
}

/// A line read right after `primer`, which records the template the
/// line resembles. `ok` is whether the pair must parse.
struct AdversarialCase {
  const char* name;
  std::string primer;
  std::string line;
  bool ok;
};

TEST(TraceTemplateTest, AdversarialLinesAfterTheirTemplate) {
  const Schema schema = MakePaperSchema();
  const std::string point = "SELECT a FROM t WHERE b = 1;";
  const std::string range = "SELECT a FROM t WHERE b BETWEEN 3 AND 9;";
  const std::string update = "UPDATE t SET c = 1 WHERE d = 2;";
  const std::string insert = "INSERT INTO t VALUES (1, 2, 3, 4);";
  const std::string slot(1, kSkeletonSlot);
  const std::vector<AdversarialCase> cases = {
      {"int64_min", point, "SELECT a FROM t WHERE b = -9223372036854775808;",
       true},
      {"int64_max", point, "SELECT a FROM t WHERE b = 9223372036854775807;",
       true},
      {"above_int64", point, "SELECT a FROM t WHERE b = 9223372036854775808;",
       false},
      {"below_int64", point,
       "SELECT a FROM t WHERE b = -9223372036854775809;", false},
      {"between_out_of_order", range,
       "SELECT a FROM t WHERE b BETWEEN 9 AND 3;", false},
      {"between_equal", range, "SELECT a FROM t WHERE b BETWEEN 5 AND 5;",
       true},
      {"between_negative", range,
       "SELECT a FROM t WHERE b BETWEEN -9 AND -3;", true},
      {"slot_byte_as_literal", point, "SELECT a FROM t WHERE b = " + slot + ";",
       false},
      {"slot_byte_in_identifier", point,
       "SELECT a FROM t WHERE b" + slot + " = 1;", false},
      {"crlf", point + "\r", "SELECT a FROM t WHERE b = 2;\r", true},
      {"tab_after_spaces", point, "SELECT\ta FROM t WHERE b = 2;", true},
      {"tab_after_tab", "SELECT\ta FROM t WHERE b = 1;",
       "SELECT\ta FROM t WHERE b = 2;", true},
      {"leading_zeros", point, "SELECT a FROM t WHERE b = 007;", true},
      {"negative_zero", point, "SELECT a FROM t WHERE b = -0;", true},
      {"no_spaces", "SELECT a FROM t WHERE b=5;", "SELECT a FROM t WHERE b=-5;",
       true},
      {"stray_minus", point, "SELECT a FROM t WHERE b = - 5;", false},
      {"minus_between_literals", update, "UPDATE t SET c = 1-2 WHERE d = 2;",
       false},
      {"digits_then_identifier", point, "SELECT a FROM t WHERE b = 12abc;",
       false},
      {"literal_as_column", point, "SELECT 5 FROM t WHERE b = 1;", false},
      {"identifier_with_digit", point, "SELECT a1 FROM t WHERE b = 1;", false},
      {"unknown_column", point, "SELECT z FROM t WHERE b = 1;", false},
      {"missing_semicolon", point, "SELECT a FROM t WHERE b = 1", true},
      {"lower_case_keywords", point, "select a from t where b = 2;", true},
      {"upper_case_names", point, "SELECT A FROM T WHERE B = 2;", true},
      {"update_literals", update, "UPDATE t SET c = -3 WHERE d = 4;", true},
      {"insert_literals", insert, "INSERT INTO t VALUES (-1, 0, 7, 9);", true},
      {"insert_too_few", insert, "INSERT INTO t VALUES (1, 2, 3);", false},
      {"insert_too_many", insert, "INSERT INTO t VALUES (1, 2, 3, 4, 5);",
       false},
      {"create_index", point, "CREATE INDEX ON t (a);", false},
      {"drop_index", point, "DROP INDEX ON t (a, b);", false},
      {"embedded_nul", point,
       std::string("SELECT a FROM t WHERE b = 1;\0", 29), false},
  };
  for (const AdversarialCase& c : cases) {
    SCOPED_TRACE(c.name);
    const Result<Workload> parsed =
        ReadBothWays(schema, c.primer + "\n" + c.line + "\n");
    EXPECT_EQ(parsed.ok(), c.ok) << parsed.status();
  }
}

TEST(TraceTemplateTest, HitPathDecodesLiteralsExactly) {
  const Schema schema = MakePaperSchema();
  const Result<Workload> parsed = ReadBothWays(
      schema,
      "SELECT a FROM t WHERE b = 1;\n"
      "SELECT a FROM t WHERE b = -9223372036854775808;\n"
      "SELECT a FROM t WHERE b = 007;\n"
      "UPDATE t SET c = 1 WHERE d = 2;\n"
      "UPDATE t SET c = -3 WHERE d = 4;\n"
      "SELECT a FROM t WHERE b BETWEEN 3 AND 9;\n"
      "SELECT a FROM t WHERE b BETWEEN -9 AND 9223372036854775807;\n"
      "INSERT INTO t VALUES (1, 2, 3, 4);\n"
      "INSERT INTO t VALUES (-1, 0, 7, 9);\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 9u);
  EXPECT_EQ(parsed->statements[1],
            BoundStatement::SelectPoint(0, 1,
                                        std::numeric_limits<int64_t>::min()));
  EXPECT_EQ(parsed->statements[2], BoundStatement::SelectPoint(0, 1, 7));
  EXPECT_EQ(parsed->statements[4], BoundStatement::UpdatePoint(2, -3, 3, 4));
  EXPECT_EQ(parsed->statements[6],
            BoundStatement::SelectRange(0, 1, -9,
                                        std::numeric_limits<int64_t>::max()));
  EXPECT_EQ(parsed->statements[8], BoundStatement::Insert({-1, 0, 7, 9}));
}

TEST(TraceTemplateTest, IdentifiersWithDigitsKeepTheirColumns) {
  const Schema schema("t2", {"col_1", "col_2", "c10", "c1"});
  const Result<Workload> parsed = ReadBothWays(
      schema,
      "SELECT col_1 FROM t2 WHERE col_2 = 5;\n"
      "SELECT col_2 FROM t2 WHERE col_1 = 5;\n"
      "SELECT c10 FROM t2 WHERE c1 = 7;\n"
      "SELECT c1 FROM t2 WHERE c10 = 8;\n"
      "UPDATE t2 SET c1 = 1 WHERE col_1 = 2;\n"
      "UPDATE t2 SET c10 = 1 WHERE col_2 = 2;\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->statements[0], BoundStatement::SelectPoint(0, 1, 5));
  EXPECT_EQ(parsed->statements[1], BoundStatement::SelectPoint(1, 0, 5));
  EXPECT_EQ(parsed->statements[2], BoundStatement::SelectPoint(2, 3, 7));
  EXPECT_EQ(parsed->statements[3], BoundStatement::SelectPoint(3, 2, 8));
  EXPECT_EQ(parsed->statements[4], BoundStatement::UpdatePoint(3, 1, 0, 2));
  EXPECT_EQ(parsed->statements[5], BoundStatement::UpdatePoint(2, 1, 1, 2));
}

TEST(TraceTemplateTest, ErrorsKeepTheirLineNumbers) {
  const Schema schema = MakePaperSchema();
  const Result<Workload> parsed = ReadBothWays(
      schema,
      "-- block 0 mix A\n"
      "SELECT a FROM t WHERE b = 1;\n"
      "\n"
      "SELECT a FROM t WHERE b = 2;\n"
      "SELECT a FROM t WHERE b = 99999999999999999999;");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("line 5: "), std::string::npos)
      << parsed.status();
}

TEST(TraceTemplateTest, LineEndingsAndEmptyTexts) {
  const Schema schema = MakePaperSchema();
  for (const std::string text :
       {"", "\n", "\n\n\n", "   \t \r\n", "-- only a comment\n",
        "-- only a comment", "-- block 0 mix A\n",
        "-- block 0 mix A\n-- block 1 mix B\n",
        "SELECT a FROM t WHERE b = 1;\nSELECT a FROM t WHERE b = 2;",
        "SELECT a FROM t WHERE b = 1;\r\nSELECT a FROM t WHERE b = 2;\r\n",
        "\r\n\r\nSELECT a FROM t WHERE b = 1;\r\n-- block 3\r\n"
        "SELECT a FROM t WHERE b = 2;"}) {
    const Result<Workload> parsed = ReadBothWays(schema, text);
    EXPECT_TRUE(parsed.ok()) << Describe(text) << ": " << parsed.status();
  }
}

class TraceTemplateMutation : public ::testing::TestWithParam<uint64_t> {};

/// Byte-soup edits of a line that has just recorded its template. Edits
/// that touch only literals keep the skeleton and take the template
/// path; the rest change it and take the full parse.
TEST_P(TraceTemplateMutation, MutatedLinesMatchOracle) {
  const Schema schema = MakePaperSchema();
  Rng rng(GetParam() ^ 0x7e3a);
  const std::string alphabet = "SELECTUPDAINRTOVWHBFMXabcd0123456789 ()=,;*-\t_" +
                               std::string(1, kSkeletonSlot);
  std::string primer_key;
  std::string mutated_key;
  std::vector<int64_t> literals;
  int same_skeleton = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string primer = RandomStatement(&rng, schema).ToString(schema) + ";";
    std::string mutated = primer;
    const uint64_t edits = 1 + rng.NextBounded(3);
    for (uint64_t e = 0; e < edits; ++e) {
      const size_t pos = rng.NextBounded(mutated.size() + 1);
      const char byte = alphabet[rng.NextBounded(alphabet.size())];
      switch (rng.NextBounded(4)) {
        case 0:
          mutated.insert(pos, 1, byte);
          break;
        case 1:
          if (pos < mutated.size()) mutated.erase(pos, 1);
          break;
        case 2:  // A digit for a digit: the skeleton usually survives.
          if (pos < mutated.size() && mutated[pos] >= '0' &&
              mutated[pos] <= '9') {
            mutated[pos] = static_cast<char>('0' + rng.NextBounded(10));
          }
          break;
        default:
          if (pos < mutated.size()) mutated[pos] = byte;
          break;
      }
    }
    ASSERT_TRUE(ScanSkeleton(primer, &primer_key, &literals));
    if (ScanSkeleton(mutated, &mutated_key, &literals) &&
        mutated_key == primer_key) {
      ++same_skeleton;
    }
    ReadBothWays(schema, primer + "\n" + mutated + "\n");
    if (::testing::Test::HasFailure()) return;
  }
  // Enough edits leave the skeleton intact to exercise the template path.
  EXPECT_GT(same_skeleton, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceTemplateMutation,
                         ::testing::Values<uint64_t>(1, 2, 3, 4, 5),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace cdpd
