#ifndef CDPD_WORKLOAD_WORKLOAD_H_
#define CDPD_WORKLOAD_WORKLOAD_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "workload/statement.h"

namespace cdpd {

/// A half-open range [begin, end) of statement positions — one stage
/// S_i of the design problem. The paper's formulation has one stage per
/// statement; grouping statements into blocks (the paper reports
/// designs per 500-query block in Table 2) is the practical way to keep
/// the sequence graph small, and a block size of 1 recovers the
/// per-statement formulation exactly.
struct Segment {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
  bool operator==(const Segment&) const = default;
};

/// A statement sequence plus optional per-block labelling (which query
/// mix generated each block) used when printing Table 2.
struct Workload {
  std::vector<BoundStatement> statements;
  /// Mix name per generated block ("A".."D"); empty when not generated
  /// from mixes. blocks_size gives the generation block granularity.
  std::vector<std::string> block_mix_names;
  size_t block_size = 0;

  size_t size() const { return statements.size(); }
  std::span<const BoundStatement> Span() const { return statements; }
};

/// Cuts [0, total) into consecutive segments of `block_size` (the last
/// may be shorter). block_size must be > 0.
std::vector<Segment> SegmentFixed(size_t total, size_t block_size);

}  // namespace cdpd

#endif  // CDPD_WORKLOAD_WORKLOAD_H_
