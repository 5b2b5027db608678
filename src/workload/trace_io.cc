#include "workload/trace_io.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace cdpd {

std::string WriteTrace(const Schema& schema, const Workload& workload) {
  std::string out;
  out += "-- cdpd workload trace: " + std::to_string(workload.size()) +
         " statements over " + schema.ToString() + "\n";
  const bool blocked =
      workload.block_size > 0 && !workload.block_mix_names.empty();
  size_t block = static_cast<size_t>(-1);
  for (size_t i = 0; i < workload.statements.size(); ++i) {
    if (blocked && i / workload.block_size != block) {
      block = i / workload.block_size;
      out += "-- block " + std::to_string(block);
      if (block < workload.block_mix_names.size()) {
        out += " mix " + workload.block_mix_names[block];
      }
      out += "\n";
    }
    out += workload.statements[i].ToString(schema);
    out += ";\n";
  }
  return out;
}

Status WriteTraceFile(const std::string& path, const Schema& schema,
                      const Workload& workload) {
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  if (!file) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  file << WriteTrace(schema, workload);
  file.close();
  if (!file) {
    return Status::Internal("error writing '" + path + "'");
  }
  return Status::OK();
}

namespace {

/// Writes a template's literal values into `statement`, a copy of the
/// statement the full parse bound for the template's first line. Returns
/// false where the full parse could treat these literals differently: a
/// count that does not match, or BETWEEN bounds out of order.
bool FillLiterals(const std::vector<int64_t>& literals,
                  BoundStatement* statement) {
  switch (statement->type) {
    case StatementType::kSelectPoint:
      if (literals.size() != 1) return false;
      statement->where_value = literals[0];
      return true;
    case StatementType::kSelectRange:
      if (literals.size() != 2 || literals[0] > literals[1]) return false;
      statement->where_lo = literals[0];
      statement->where_hi = literals[1];
      return true;
    case StatementType::kUpdatePoint:
      if (literals.size() != 2) return false;
      statement->set_value = literals[0];
      statement->where_value = literals[1];
      return true;
    case StatementType::kInsert:
      if (literals.size() != statement->insert_values.size()) return false;
      std::copy(literals.begin(), literals.end(),
                statement->insert_values.begin());
      return true;
  }
  return false;
}

/// The full Tokenize -> ParseStatement -> BindStatement path for one
/// trace line, the only source of ReadTrace errors.
Result<BoundStatement> BindLine(const Schema& schema, std::string_view line,
                                size_t line_number) {
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
  return bound;
}

}  // namespace

Result<Workload> ReadTrace(const Schema& schema, std::string_view text) {
  // One statement per line, and no statement line is shorter than the
  // dialect's shortest statement, "INSERT INTO t VALUES(0)", plus its
  // '\n'. The second bound keeps text of blank lines from reserving far
  // more than it can hold.
  constexpr size_t kShortestStatementLine = 24;
  Workload workload;
  workload.statements.reserve(std::min(
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1,
      text.size() / kShortestStatementLine + 1));
  size_t current_block = 0;
  bool saw_block_comments = false;
  size_t line_number = 0;
  size_t block_begin_statement = 0;

  // Every statement template bound so far, keyed by its ScanSkeleton().
  std::unordered_map<std::string, BoundStatement> templates;
  std::string key;
  std::vector<int64_t> literals;
  size_t next = 0;
  while (next < text.size()) {
    const size_t newline = std::min(text.find('\n', next), text.size());
    const std::string_view line = Trim(text.substr(next, newline - next));
    next = newline + 1;
    ++line_number;
    if (line.empty()) continue;
    if (line.substr(0, 2) == "--") {
      // Block marker comments carry the mix labels; other comments are
      // ignored.
      const std::vector<std::string> words = Split(Trim(line.substr(2)), ' ');
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
    const bool scanned = ScanSkeleton(line, &key, &literals);
    if (scanned) {
      const auto plan = templates.find(key);
      if (plan != templates.end()) {
        BoundStatement statement = plan->second;
        if (FillLiterals(literals, &statement)) {
          workload.statements.push_back(std::move(statement));
          continue;
        }
      }
    }
    CDPD_ASSIGN_OR_RETURN(BoundStatement statement,
                          BindLine(schema, line, line_number));
    if (scanned) templates.emplace(key, statement);
    workload.statements.push_back(std::move(statement));
  }
  if (!saw_block_comments) {
    workload.block_mix_names.clear();
    workload.block_size = 0;
  }
  return workload;
}

Result<Workload> ReadTraceFile(const std::string& path,
                               const Schema& schema) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::NotFound("cannot open trace file '" + path + "'");
  }
  // Reserved from the length of a regular file; anything else (a pipe)
  // has none and is read to its end all the same.
  std::string contents;
  std::error_code no_length;
  const uintmax_t length = std::filesystem::file_size(path, no_length);
  if (!no_length) contents.reserve(static_cast<size_t>(length));
  char chunk[1 << 16];
  while (file.read(chunk, sizeof(chunk)) || file.gcount() > 0) {
    contents.append(chunk, static_cast<size_t>(file.gcount()));
  }
  if (file.bad()) {
    return Status::Internal("error reading trace file '" + path + "'");
  }
  return ReadTrace(schema, contents);
}

}  // namespace cdpd
