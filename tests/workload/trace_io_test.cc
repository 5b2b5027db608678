#include "workload/trace_io.h"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include <gtest/gtest.h>

#include "workload/generator.h"
#include "workload/standard_workloads.h"

namespace cdpd {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  Schema schema_ = MakePaperSchema();
};

TEST_F(TraceIoTest, RoundTripsStatementsExactly) {
  WorkloadGenerator gen(schema_, 1000, 31);
  Workload original = MakeScaledPaperWorkload("W1", 10, &gen).value();
  const std::string text = WriteTrace(schema_, original);
  auto parsed = ReadTrace(schema_, text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->statements, original.statements);
  EXPECT_EQ(parsed->block_mix_names, original.block_mix_names);
  EXPECT_EQ(parsed->block_size, original.block_size);
}

TEST_F(TraceIoTest, RoundTripsAllStatementKinds) {
  Workload workload;
  workload.statements = {
      BoundStatement::SelectPoint(0, 1, 42),
      BoundStatement::UpdatePoint(2, -5, 3, 7),
      BoundStatement::Insert({1, 2, 3, 4}),
  };
  auto parsed = ReadTrace(schema_, WriteTrace(schema_, workload));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->statements, workload.statements);
}

TEST_F(TraceIoTest, IgnoresCommentsAndBlankLines) {
  auto parsed = ReadTrace(schema_,
                          "-- a comment\n\n"
                          "SELECT a FROM t WHERE a = 1;\n"
                          "   \n-- another\n"
                          "SELECT b FROM t WHERE b = 2;\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 2u);
  EXPECT_TRUE(parsed->block_mix_names.empty());
}

TEST_F(TraceIoTest, ReportsLineNumbersOnParseErrors) {
  const auto status =
      ReadTrace(schema_, "SELECT a FROM t WHERE a = 1;\nNOT SQL;\n")
          .status();
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("line 2"), std::string::npos);
}

TEST_F(TraceIoTest, ReportsBindErrorsWithLineNumbers) {
  const auto status =
      ReadTrace(schema_, "SELECT zz FROM t WHERE a = 1;\n").status();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 1"), std::string::npos);
}

TEST_F(TraceIoTest, RejectsDdlInTraces) {
  const auto status =
      ReadTrace(schema_, "CREATE INDEX ON t (a);\n").status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(TraceIoTest, FileRoundTrip) {
  WorkloadGenerator gen(schema_, 1000, 32);
  Workload original = MakeScaledPaperWorkload("W2", 5, &gen).value();
  const std::string path = ::testing::TempDir() + "/cdpd_trace_test.sql";
  ASSERT_TRUE(WriteTraceFile(path, schema_, original).ok());
  auto parsed = ReadTraceFile(path, schema_);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->statements, original.statements);
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadTraceFile("/nonexistent/trace.sql", schema_).status().code(),
            StatusCode::kNotFound);
}

TEST_F(TraceIoTest, PipeWithoutLengthIsReadToItsEnd) {
  const std::string path = ::testing::TempDir() + "/cdpd_trace_test.fifo";
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&path] {
    std::ofstream out(path);
    out << "SELECT a FROM t WHERE b = 1;\nSELECT a FROM t WHERE b = 2;\n";
  });
  auto parsed = ReadTraceFile(path, schema_);
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->statements,
            (std::vector<BoundStatement>{BoundStatement::SelectPoint(0, 1, 1),
                                         BoundStatement::SelectPoint(0, 1, 2)}));
}

TEST_F(TraceIoTest, UnreadableFileIsInternal) {
  EXPECT_EQ(ReadTraceFile(::testing::TempDir(), schema_).status().code(),
            StatusCode::kInternal);
}

TEST_F(TraceIoTest, BlankLinesReserveNoMoreThanTheTextHolds) {
  const std::string blank(1 << 20, '\n');
  auto parsed = ReadTrace(schema_, blank);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->size(), 0u);
  EXPECT_LE(parsed->statements.capacity(), blank.size() / 16);
}

TEST_F(TraceIoTest, EmptyTraceIsEmptyWorkload) {
  auto parsed = ReadTrace(schema_, "");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 0u);
}

}  // namespace
}  // namespace cdpd
