#ifndef XORATOR_ORDB_PLANNER_H_
#define XORATOR_ORDB_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "ordb/catalog.h"
#include "ordb/executor.h"
#include "ordb/functions.h"
#include "ordb/sql.h"

namespace xorator::ordb {

/// Planner knobs, mirroring the DB2 configuration the paper describes
/// (hash joins enabled, a bounded sort heap, index-wizard indexes).
struct PlannerOptions {
  /// Hash-join build side must fit here, else the planner falls back to
  /// sort-merge (how the Figure 13 crossover arises at larger scales).
  size_t sort_heap_bytes = 8u << 20;
  bool enable_hash_join = true;
  /// Use index nested-loop joins when the outer side is estimated at most
  /// a quarter of the inner table's rows and the inner column is indexed.
  bool enable_index_join = true;
};

/// A base-table column (its schema position) a plan can reach by index.
struct IndexCandidate {
  const TableInfo* table;
  size_t column;
};

/// Translates a parsed SELECT into a physical operator tree over the
/// catalog: filter pushdown, left-deep joins in FROM order with
/// index-NL/hash/sort-merge selection, lateral table functions, aggregation,
/// DISTINCT and ORDER BY.
class Planner {
 public:
  Planner(Catalog* catalog, FunctionRegistry* functions,
          const PlannerOptions& options)
      : catalog_(catalog), functions_(functions), options_(options) {}

  [[nodiscard]] Result<OperatorPtr> PlanSelect(const sql::SelectStmt& stmt);

  /// The columns PlanSelect could reach by index in `stmt`, for the index
  /// advisor: those of top-level `col = literal` conjuncts (IndexScan) and
  /// of `colA = colB` conjuncts across two FROM items (IndexNLJoin). Names
  /// resolve as in PlanSelect; an unresolved FROM entry fails the call, a
  /// conjunct with an unresolved column adds nothing.
  [[nodiscard]] Result<std::vector<IndexCandidate>> IndexCandidates(
      const sql::SelectStmt& stmt);

  /// Binds `predicate` against the rows of base table `table`, resolving
  /// columns (bare or qualified by the table name) and functions as
  /// PlanSelect does for `SELECT ... FROM table WHERE predicate`. The bound
  /// expression reads a decoded row of the table's schema.
  [[nodiscard]] Result<ExprPtr> BindPredicate(const std::string& table,
                                              const sql::AstExpr& predicate);

 private:
  Catalog* catalog_;
  FunctionRegistry* functions_;
  PlannerOptions options_;
};

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_PLANNER_H_
