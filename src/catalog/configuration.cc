#include "catalog/configuration.h"

#include <algorithm>

#include "common/string_util.h"

namespace cdpd {

Configuration::Configuration(std::vector<IndexDef> indexes) {
  std::sort(indexes.begin(), indexes.end());
  indexes.erase(std::unique(indexes.begin(), indexes.end()), indexes.end());
  if (!indexes.empty()) {
    indexes_ =
        std::make_shared<const std::vector<IndexDef>>(std::move(indexes));
  }
}

bool Configuration::Contains(const IndexDef& def) const {
  return std::binary_search(indexes().begin(), indexes().end(), def);
}

Configuration Configuration::With(const IndexDef& def) const {
  if (Contains(def)) return *this;
  std::vector<IndexDef> indexes = this->indexes();
  indexes.push_back(def);
  return Configuration(std::move(indexes));
}

Configuration Configuration::Without(const IndexDef& def) const {
  if (!Contains(def)) return *this;
  std::vector<IndexDef> indexes;
  indexes.reserve(this->indexes().size());
  for (const IndexDef& index : this->indexes()) {
    if (!(index == def)) indexes.push_back(index);
  }
  return Configuration(std::move(indexes));
}

int64_t Configuration::SizePages(int64_t num_rows) const {
  int64_t total = 0;
  for (const IndexDef& index : indexes()) {
    total += index.SizePages(num_rows);
  }
  return total;
}

std::string Configuration::ToString(const Schema& schema) const {
  std::vector<std::string> parts;
  parts.reserve(indexes().size());
  for (const IndexDef& index : indexes()) {
    parts.push_back(index.ToString(schema));
  }
  return "{" + Join(parts, ", ") + "}";
}

size_t ConfigurationHash::operator()(const Configuration& config) const {
  IndexDefHash index_hash;
  size_t h = 0x243f6a8885a308d3ULL;
  for (const IndexDef& index : config.indexes()) {
    h ^= index_hash(index) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

ConfigurationDelta DiffConfigurations(const Configuration& from,
                                      const Configuration& to) {
  ConfigurationDelta delta;
  std::set_difference(to.indexes().begin(), to.indexes().end(),
                      from.indexes().begin(), from.indexes().end(),
                      std::back_inserter(delta.created));
  std::set_difference(from.indexes().begin(), from.indexes().end(),
                      to.indexes().begin(), to.indexes().end(),
                      std::back_inserter(delta.dropped));
  return delta;
}

}  // namespace cdpd
