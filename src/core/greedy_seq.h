#ifndef CDPD_CORE_GREEDY_SEQ_H_
#define CDPD_CORE_GREEDY_SEQ_H_

#include <cstdint>
#include <vector>

#include "index/index_def.h"

namespace cdpd {

/// Options of the GREEDY-SEQ candidate reduction (§4.1), which Solve()
/// runs for OptimizerMethod::kGreedySeq (see core/greedy_seq.cc).
struct GreedySeqOptions {
  /// The m candidate *indexes* (not configurations) the greedy
  /// construction composes.
  std::vector<IndexDef> candidate_indexes;
  /// Cap on indexes per configuration (the paper's experiments use 1).
  int32_t max_indexes_per_config = 1 << 20;
};

}  // namespace cdpd

#endif  // CDPD_CORE_GREEDY_SEQ_H_
