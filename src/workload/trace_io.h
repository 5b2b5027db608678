#ifndef CDPD_WORKLOAD_TRACE_IO_H_
#define CDPD_WORKLOAD_TRACE_IO_H_

#include <string>

#include "common/result.h"
#include "workload/workload.h"

namespace cdpd {

/// Serializes a workload trace as a SQL script: one statement per
/// line, terminated with ';'. Block structure (when present) is
/// preserved as comment lines of the form
///
///   -- block 7 mix B
///
/// so a captured trace round-trips through ReadTrace() losslessly,
/// including the Table 2 mix labels.
std::string WriteTrace(const Schema& schema, const Workload& workload);

/// Writes WriteTrace() output to `path`. Fails with Internal on I/O
/// errors.
Status WriteTraceFile(const std::string& path, const Schema& schema,
                      const Workload& workload);

/// Parses a trace produced by WriteTrace() — or any ';'-terminated,
/// one-statement-per-line SQL script with optional '--' comments —
/// into a bound workload. Statement kinds are restricted to the DML
/// dialect (index DDL in a trace is rejected: physical design is the
/// advisor's output, not its input).
///
/// Each statement template is bound once per call. A template is a
/// line with its integer literals erased (sql/lexer.h ScanSkeleton);
/// spacing and keyword case are part of it. The first line of a
/// template takes the full Tokenize -> ParseStatement -> BindStatement
/// path, and once that accepts it, later lines of the same template only
/// decode their literals into a copy of its BoundStatement. Every error
/// comes from the full path, prefixed with "line N: ", so results and
/// messages are those of binding every line on its own.
Result<Workload> ReadTrace(const Schema& schema, std::string_view text);

/// Reads a trace file into one buffer, reserved from the file length
/// when it has one, and parses it. Fails with NotFound when the file
/// cannot be opened and Internal when it cannot be read.
Result<Workload> ReadTraceFile(const std::string& path, const Schema& schema);

}  // namespace cdpd

#endif  // CDPD_WORKLOAD_TRACE_IO_H_
