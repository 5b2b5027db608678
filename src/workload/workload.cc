#include "workload/workload.h"

#include <cassert>

namespace cdpd {

std::vector<Segment> SegmentFixed(size_t total, size_t block_size) {
  assert(block_size > 0);
  std::vector<Segment> segments;
  segments.reserve((total + block_size - 1) / block_size);
  for (size_t begin = 0; begin < total; begin += block_size) {
    segments.push_back(Segment{begin, std::min(total, begin + block_size)});
  }
  return segments;
}

}  // namespace cdpd
