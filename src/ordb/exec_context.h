#ifndef XORATOR_ORDB_EXEC_CONTEXT_H_
#define XORATOR_ORDB_EXEC_CONTEXT_H_

#include <cstdint>

#include "common/status.h"
#include "ordb/functions.h"
#include "ordb/query_guard.h"

namespace xorator::ordb {

class BufferPool;
class Catalog;

/// Per-query execution context threaded through expressions and operators.
///
/// Carries the query's `QueryGuard` (deadline / cancellation / memory
/// budget, DESIGN.md §12): every operator's Next() loop and every
/// materializing Open() loop polls `CheckPoint()` so a runaway query can be
/// stopped cooperatively. `guard` is null for unguarded execution (internal
/// statements, tests), which makes the poll a branch on a null pointer.
struct ExecContext {
  FunctionRegistry* functions = nullptr;
  BufferPool* pool = nullptr;
  Catalog* catalog = nullptr;
  /// The statement's resource governor, or null when unguarded. Owned by
  /// Database::Query for the duration of the statement.
  QueryGuard* guard = nullptr;
  /// UDF dispatch accounting for this query.
  UdfStats udf_stats;

  /// Degraded-scan mode (DESIGN.md §13): when true, table scans skip
  /// quarantined/corrupt pages and corrupt overflow chains instead of
  /// failing, and report what was skipped through the counters below.
  /// Opt-in per query via QueryOptions::skip_quarantined.
  bool skip_quarantined = false;
  /// Heap pages skipped by degraded scans in this query.
  uint64_t skipped_pages = 0;
  /// Records (including per-page markers) skipped by degraded scans.
  uint64_t skipped_records = 0;

  /// Polls the guard, if any: OK to keep running, else the guard's
  /// kCancelled / kDeadlineExceeded / kResourceExhausted error. Operators
  /// call this once per row produced or materialized.
  [[nodiscard]] Status CheckPoint() {
    return guard == nullptr ? Status::OK() : guard->CheckPoint();
  }
};

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_EXEC_CONTEXT_H_
