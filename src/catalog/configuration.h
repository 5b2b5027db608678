#ifndef CDPD_CATALOG_CONFIGURATION_H_
#define CDPD_CATALOG_CONFIGURATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/index_def.h"
#include "storage/schema.h"

namespace cdpd {

/// A physical design configuration: a set of index structures, as in
/// the paper ("a physical design consists of a set of structures chosen
/// from a set of candidate structures"). Immutable value type with a
/// canonical (sorted, duplicate-free) representation so that equality,
/// ordering and hashing are well defined — the design algorithms
/// compare configurations constantly (C_{i-1} != C_i is what the change
/// constraint counts).
///
/// The sorted index list lives in shared immutable storage (null for
/// the empty configuration), so a copy is a reference-count bump: a
/// schedule of n stages holds n copies of a handful of candidates
/// without n allocations, and two copies of one candidate compare
/// equal without walking their indexes. Copies and destructions are
/// safe from any number of threads.
class Configuration {
 public:
  /// The empty configuration (no auxiliary structures).
  Configuration() = default;

  /// Canonicalizes (sorts, dedups) the given index set.
  explicit Configuration(std::vector<IndexDef> indexes);

  static Configuration Empty() { return Configuration(); }

  bool empty() const { return indexes_ == nullptr; }
  int32_t num_indexes() const {
    return static_cast<int32_t>(indexes().size());
  }
  const std::vector<IndexDef>& indexes() const {
    return indexes_ != nullptr ? *indexes_ : kNoIndexes;
  }

  bool Contains(const IndexDef& def) const;

  /// Copy of this configuration with `def` added (no-op if present).
  Configuration With(const IndexDef& def) const;

  /// Copy of this configuration with `def` removed (no-op if absent).
  Configuration Without(const IndexDef& def) const;

  /// Total size in pages over a table of `num_rows` rows — the SIZE(C)
  /// of the paper, checked against the space bound b.
  int64_t SizePages(int64_t num_rows) const;

  /// "{}" or "{I(a), I(c,d)}" rendered against `schema`.
  std::string ToString(const Schema& schema) const;

  bool operator==(const Configuration& other) const {
    return indexes_ == other.indexes_ || indexes() == other.indexes();
  }
  bool operator<(const Configuration& other) const {
    return indexes() < other.indexes();
  }

 private:
  inline static const std::vector<IndexDef> kNoIndexes;

  // Sorted, duplicate-free, never empty; null for the empty
  // configuration. Shared between copies and never mutated.
  std::shared_ptr<const std::vector<IndexDef>> indexes_;
};

/// Hash functor so Configuration can key unordered containers.
struct ConfigurationHash {
  size_t operator()(const Configuration& config) const;
};

/// The indexes a transition from `from` to `to` must create and drop —
/// the physical work priced by TRANS(from, to).
struct ConfigurationDelta {
  std::vector<IndexDef> created;
  std::vector<IndexDef> dropped;
};

ConfigurationDelta DiffConfigurations(const Configuration& from,
                                      const Configuration& to);

}  // namespace cdpd

#endif  // CDPD_CATALOG_CONFIGURATION_H_
