#include "cost/cost_model.h"

#include <algorithm>
#include <cassert>

#include "common/math_util.h"
#include "storage/page.h"

namespace cdpd {

std::string_view AccessPathKindToString(AccessPathKind kind) {
  switch (kind) {
    case AccessPathKind::kTableScan:
      return "TableScan";
    case AccessPathKind::kIndexSeek:
      return "IndexSeek";
    case AccessPathKind::kIndexSeekWithFetch:
      return "IndexSeekWithFetch";
    case AccessPathKind::kCoveringScan:
      return "CoveringScan";
  }
  return "Unknown";
}

CostModel::CostModel(Schema schema, int64_t num_rows, int64_t domain_size,
                     CostParams params)
    : schema_(std::move(schema)),
      num_rows_(num_rows),
      domain_size_(domain_size),
      params_(params) {
  assert(num_rows_ >= 0);
  assert(domain_size_ > 0);
}

double CostModel::ExpectedMatches() const {
  return static_cast<double>(num_rows_) / static_cast<double>(domain_size_);
}

double CostModel::ExpectedRangeMatches(Value lo, Value hi) const {
  if (lo > hi) return 0.0;
  const double selectivity =
      std::min(1.0, static_cast<double>(hi - lo + 1) /
                        static_cast<double>(domain_size_));
  return selectivity * static_cast<double>(num_rows_);
}

double CostModel::ExpectedMatchesFor(ColumnId column) const {
  if (stats_ != nullptr) return stats_->ExpectedEqMatches(column);
  return ExpectedMatches();
}

double CostModel::ExpectedRangeMatchesFor(ColumnId column, Value lo,
                                          Value hi) const {
  if (stats_ != nullptr) return stats_->ExpectedRangeMatches(column, lo, hi);
  return ExpectedRangeMatches(lo, hi);
}

int64_t CostModel::HeapPagesCount() const {
  return HeapPages(num_rows_, schema_.RowBytes());
}

double CostModel::PathCost(AccessPathKind kind, const IndexDef& index,
                           double matches) const {
  switch (kind) {
    case AccessPathKind::kTableScan:
      return static_cast<double>(HeapPagesCount()) * params_.seq_page_cost +
             static_cast<double>(num_rows_) * params_.cpu_tuple_cost;
    case AccessPathKind::kIndexSeek: {
      // Root-to-leaf descent, plus extra leaves if the matches overflow
      // the first leaf, plus per-match CPU.
      const double extra_leaves =
          matches / static_cast<double>(
                        IndexEntriesPerPage(index.num_key_columns()));
      return static_cast<double>(index.Height(num_rows_)) *
                 params_.random_page_cost +
             extra_leaves * params_.seq_page_cost +
             matches * params_.cpu_tuple_cost;
    }
    case AccessPathKind::kIndexSeekWithFetch: {
      const double extra_leaves =
          matches / static_cast<double>(
                        IndexEntriesPerPage(index.num_key_columns()));
      return static_cast<double>(index.Height(num_rows_)) *
                 params_.random_page_cost +
             extra_leaves * params_.seq_page_cost +
             matches * params_.random_page_cost +  // Heap fetches.
             matches * params_.cpu_tuple_cost;
    }
    case AccessPathKind::kCoveringScan:
      return static_cast<double>(index.LeafPages(num_rows_)) *
                 params_.seq_page_cost +
             static_cast<double>(num_rows_) * params_.cpu_tuple_cost;
  }
  return 0.0;
}

double CostModel::SelectCost(ColumnId select_column, ColumnId where_column,
                             double matches, const Configuration& config,
                             AccessPathChoice* choice) const {
  AccessPathChoice best;
  best.kind = AccessPathKind::kTableScan;
  best.index.reset();
  best.cost = PathCost(AccessPathKind::kTableScan, IndexDef(), matches);

  for (const IndexDef& index : config.indexes()) {
    const bool covers_select = index.ContainsColumn(select_column);
    if (index.HasPrefixColumn(where_column)) {
      const AccessPathKind kind = covers_select
                                      ? AccessPathKind::kIndexSeek
                                      : AccessPathKind::kIndexSeekWithFetch;
      const double cost = PathCost(kind, index, matches);
      if (cost < best.cost) {
        best = AccessPathChoice{kind, index, cost};
      }
    } else if (index.ContainsColumn(where_column) && covers_select) {
      const double cost =
          PathCost(AccessPathKind::kCoveringScan, index, matches);
      if (cost < best.cost) {
        best = AccessPathChoice{AccessPathKind::kCoveringScan, index, cost};
      }
    }
    // An index containing the predicate column but not the selected one
    // and without the prefix property would require a leaf scan plus
    // per-match heap fetches; that is never cheaper than either the
    // covering scan of a suitable index or the table scan for point
    // predicates, so the optimizer does not consider it.
  }
  if (choice != nullptr) *choice = best;
  return best.cost;
}

AccessPathChoice CostModel::ChooseAccessPath(const BoundStatement& statement,
                                             const Configuration& config) const {
  AccessPathChoice choice;
  switch (statement.type) {
    case StatementType::kSelectPoint:
      SelectCost(statement.select_column, statement.where_column,
                 ExpectedMatchesFor(statement.where_column), config, &choice);
      return choice;
    case StatementType::kSelectRange:
      SelectCost(statement.select_column, statement.where_column,
                 ExpectedRangeMatchesFor(statement.where_column,
                                         statement.where_lo,
                                         statement.where_hi),
                 config, &choice);
      return choice;
    case StatementType::kUpdatePoint:
      // Row location only needs the rid, which every index entry
      // carries, so the "selected column" is the predicate column.
      SelectCost(statement.where_column, statement.where_column,
                 ExpectedMatchesFor(statement.where_column), config, &choice);
      return choice;
    case StatementType::kInsert:
      choice.kind = AccessPathKind::kTableScan;  // Not meaningful; appends.
      choice.cost = 0.0;
      return choice;
  }
  return choice;
}

double CostModel::MaintenanceCost(const BoundStatement& statement,
                                  const Configuration& config) const {
  const double matches = ExpectedMatchesFor(statement.where_column);
  double cost = 0.0;
  switch (statement.type) {
    case StatementType::kSelectPoint:
    case StatementType::kSelectRange:
      return 0.0;
    case StatementType::kUpdatePoint: {
      // Fetch and rewrite the matching heap rows.
      cost += matches * (params_.random_page_cost + params_.write_page_cost);
      // Every index whose key contains the updated column must erase
      // the old entry and insert the new one.
      for (const IndexDef& index : config.indexes()) {
        if (!index.ContainsColumn(statement.set_column)) continue;
        const double descent = static_cast<double>(index.Height(num_rows_)) *
                               params_.random_page_cost;
        cost += matches * 2.0 * (descent + params_.write_page_cost);
      }
      return cost;
    }
    case StatementType::kInsert: {
      // Heap append (amortized one page write) plus one descent+write
      // per index.
      cost += params_.write_page_cost;
      for (const IndexDef& index : config.indexes()) {
        cost += static_cast<double>(index.Height(num_rows_)) *
                    params_.random_page_cost +
                params_.write_page_cost;
      }
      return cost;
    }
  }
  return cost;
}

double CostModel::StatementCost(const BoundStatement& statement,
                                const Configuration& config) const {
  switch (statement.type) {
    case StatementType::kSelectPoint:
      return SelectCost(statement.select_column, statement.where_column,
                        ExpectedMatchesFor(statement.where_column), config,
                        nullptr);
    case StatementType::kSelectRange:
      return SelectCost(statement.select_column, statement.where_column,
                        ExpectedRangeMatchesFor(statement.where_column,
                                                statement.where_lo,
                                                statement.where_hi),
                        config, nullptr);
    case StatementType::kUpdatePoint:
      return SelectCost(statement.where_column, statement.where_column,
                        ExpectedMatchesFor(statement.where_column), config,
                        nullptr) +
             MaintenanceCost(statement, config);
    case StatementType::kInsert:
      return MaintenanceCost(statement, config);
  }
  return 0.0;
}

double CostModel::BuildCost(const IndexDef& def) const {
  const double scan =
      static_cast<double>(HeapPagesCount()) * params_.seq_page_cost;
  const double sort = static_cast<double>(num_rows_) *
                      Log2(static_cast<double>(num_rows_)) *
                      params_.sort_cpu_factor;
  const double write = static_cast<double>(def.SizePages(num_rows_)) *
                       params_.write_page_cost;
  return scan + sort + write;
}

double CostModel::DropCost(const IndexDef& /*def*/) const {
  return params_.drop_pages * params_.write_page_cost;
}

double CostModel::TransitionCost(const Configuration& from,
                                 const Configuration& to) const {
  const ConfigurationDelta delta = DiffConfigurations(from, to);
  double cost = 0.0;
  for (const IndexDef& index : delta.created) cost += BuildCost(index);
  for (const IndexDef& index : delta.dropped) cost += DropCost(index);
  return cost;
}

int64_t CostModel::ConfigurationSizePages(const Configuration& config) const {
  return config.SizePages(num_rows_);
}

double CostModel::StatsToCost(const AccessStats& stats) const {
  return static_cast<double>(stats.sequential_pages) * params_.seq_page_cost +
         static_cast<double>(stats.random_pages) * params_.random_page_cost +
         static_cast<double>(stats.written_pages) * params_.write_page_cost +
         static_cast<double>(stats.rows_examined) * params_.cpu_tuple_cost;
}

}  // namespace cdpd
