#include "ordb/planner.h"

#include <algorithm>
#include <optional>
#include <set>
#include <string_view>

#include "common/str_util.h"

namespace xorator::ordb {

namespace {

using sql::AstExpr;

/// The aggregate a function name denotes (COUNT as kCount), matched
/// case-insensitively in place; nullopt for every other name.
std::optional<AggKind> AggregateKindOf(std::string_view name) {
  if (EqualsIgnoreCase(name, "count")) return AggKind::kCount;
  if (EqualsIgnoreCase(name, "sum")) return AggKind::kSum;
  if (EqualsIgnoreCase(name, "min")) return AggKind::kMin;
  if (EqualsIgnoreCase(name, "max")) return AggKind::kMax;
  return std::nullopt;
}

bool ContainsAggregate(const AstExpr& e) {
  if (e.kind == AstExpr::Kind::kFunc && AggregateKindOf(e.name)) return true;
  for (const auto& c : e.children) {
    if (ContainsAggregate(*c)) return true;
  }
  return false;
}

/// True if the qualified `column` ("alias.col") ends in `.name`, ignoring
/// case: `id` matches `emp.id` but neither `emp.deptid` nor `x.xid`.
bool MatchesUnqualified(std::string_view column, std::string_view name) {
  return column.size() > name.size() &&
         column[column.size() - name.size() - 1] == '.' &&
         EqualsIgnoreCase(column.substr(column.size() - name.size()), name);
}

/// One FROM entry with its contribution to the combined row layout.
struct FromItem {
  const TableInfo* table = nullptr;       // null for table functions
  const TableFunction* function = nullptr;
  std::string alias;
  std::vector<ColumnMeta> columns;  // qualified alias.col
  size_t offset = 0;
};

/// The FROM item for base table `table` under `alias`, at offset 0.
Result<FromItem> TableItem(const Catalog& catalog, const std::string& table,
                           const std::string& alias) {
  FromItem item;
  item.alias = alias;
  item.table = catalog.FindTable(table);
  if (item.table == nullptr) {
    return Status::NotFound("unknown table '" + table + "'");
  }
  item.columns.reserve(item.table->schema.columns.size());
  for (const ColumnDef& c : item.table->schema.columns) {
    item.columns.push_back({alias + "." + c.name, c.type});
  }
  return item;
}

/// Resolves column names against the combined layout of all FROM items.
class Scope {
 public:
  explicit Scope(const std::vector<FromItem>* items) : items_(items) {}

  struct Resolution {
    size_t global_index;
    size_t item;
    size_t local;  // column index within the item (its table's schema)
    TypeId type;
    const std::string* qualified;  // "alias.col", owned by the FromItem
  };

  /// Matches `name` case-insensitively and in place: a qualified name
  /// against the whole "alias.col", an unqualified one against the part
  /// after a '.' boundary (MatchesUnqualified). Two matches are ambiguous,
  /// none is unknown.
  Result<Resolution> Resolve(std::string_view name) const {
    const bool qualified = name.find('.') != std::string_view::npos;
    std::optional<Resolution> found;
    for (size_t i = 0; i < items_->size(); ++i) {
      const FromItem& item = (*items_)[i];
      for (size_t c = 0; c < item.columns.size(); ++c) {
        const std::string& col = item.columns[c].name;
        bool match = qualified ? EqualsIgnoreCase(col, name)
                               : MatchesUnqualified(col, name);
        if (!match) continue;
        if (found) {
          return Status::InvalidArgument("ambiguous column '" +
                                         std::string(name) + "'");
        }
        found = Resolution{item.offset + c, i, c, item.columns[c].type, &col};
      }
    }
    if (!found) {
      return Status::NotFound("unknown column '" + std::string(name) + "'");
    }
    return *found;
  }

 private:
  const std::vector<FromItem>* items_;
};

/// A column reference node with where it resolved.
struct ResolvedColumn {
  const AstExpr* node;
  Scope::Resolution res;
};

/// A WHERE conjunct with its column references, resolved once when the
/// conjuncts are classified, and the FROM items they reference.
struct Conjunct {
  const AstExpr* ast;
  std::vector<ResolvedColumn> columns;
  std::set<size_t> items;
  bool consumed = false;

  /// The resolution of `node` if it is one of this conjunct's columns.
  const Scope::Resolution* Find(const AstExpr* node) const {
    for (const ResolvedColumn& c : columns) {
      if (c.node == node) return &c.res;
    }
    return nullptr;
  }
};

/// Binds AST expressions to executable expressions against the combined
/// layout, optionally shifted for side-local binding.
class Binder {
 public:
  /// Column nodes of `conjuncts` reuse the resolutions recorded there.
  Binder(const Scope* scope, const FunctionRegistry* functions,
         const std::vector<Conjunct>* conjuncts)
      : scope_(scope), functions_(functions), conjuncts_(conjuncts) {}

  /// `offset_shift` is subtracted from every resolved global index (to bind
  /// an expression against one side's local layout).
  Result<ExprPtr> Bind(const AstExpr& e, size_t offset_shift = 0) const {
    switch (e.kind) {
      case AstExpr::Kind::kColumn: {
        XO_ASSIGN_OR_RETURN(auto res, Resolve(e));
        if (res.global_index < offset_shift) {
          return Status::Internal("column bound below side offset");
        }
        return ExprPtr(new ColumnRefExpr(res.global_index - offset_shift,
                                         *res.qualified, res.type));
      }
      case AstExpr::Kind::kLiteral:
        return ExprPtr(new LiteralExpr(e.literal));
      case AstExpr::Kind::kStar:
        return Status::InvalidArgument("'*' is only valid in COUNT(*)");
      case AstExpr::Kind::kCompare: {
        XO_ASSIGN_OR_RETURN(auto l, Bind(*e.children[0], offset_shift));
        XO_ASSIGN_OR_RETURN(auto r, Bind(*e.children[1], offset_shift));
        return ExprPtr(new CompareExpr(e.op, std::move(l), std::move(r)));
      }
      case AstExpr::Kind::kAnd:
      case AstExpr::Kind::kOr: {
        XO_ASSIGN_OR_RETURN(auto l, Bind(*e.children[0], offset_shift));
        XO_ASSIGN_OR_RETURN(auto r, Bind(*e.children[1], offset_shift));
        return ExprPtr(new LogicExpr(e.kind == AstExpr::Kind::kAnd
                                         ? LogicExpr::Kind::kAnd
                                         : LogicExpr::Kind::kOr,
                                     std::move(l), std::move(r)));
      }
      case AstExpr::Kind::kNot: {
        XO_ASSIGN_OR_RETURN(auto c, Bind(*e.children[0], offset_shift));
        return ExprPtr(
            new LogicExpr(LogicExpr::Kind::kNot, std::move(c), nullptr));
      }
      case AstExpr::Kind::kLike: {
        XO_ASSIGN_OR_RETURN(auto c, Bind(*e.children[0], offset_shift));
        return ExprPtr(new LikeExpr(std::move(c), e.pattern));
      }
      case AstExpr::Kind::kIsNull: {
        XO_ASSIGN_OR_RETURN(auto c, Bind(*e.children[0], offset_shift));
        return ExprPtr(new IsNullExpr(std::move(c), e.negated));
      }
      case AstExpr::Kind::kFunc: {
        const ScalarFunction* fn = functions_->FindScalar(e.name);
        if (fn == nullptr) {
          return Status::NotFound("unknown function '" + e.name + "'");
        }
        std::vector<ExprPtr> args;
        for (const auto& a : e.children) {
          XO_ASSIGN_OR_RETURN(auto bound, Bind(*a, offset_shift));
          args.push_back(std::move(bound));
        }
        return ExprPtr(new FunctionExpr(fn, std::move(args)));
      }
    }
    return Status::Internal("unhandled AST node");
  }

 private:
  Result<Scope::Resolution> Resolve(const AstExpr& column) const {
    for (const Conjunct& c : *conjuncts_) {
      if (const Scope::Resolution* res = c.Find(&column)) return *res;
    }
    return scope_->Resolve(column.name);
  }

  const Scope* scope_;
  const FunctionRegistry* functions_;
  const std::vector<Conjunct>* conjuncts_;
};

void CollectColumns(const AstExpr& e, std::vector<const AstExpr*>* out) {
  if (e.kind == AstExpr::Kind::kColumn) out->push_back(&e);
  for (const auto& c : e.children) CollectColumns(*c, out);
}

/// The first index on column `local` of `table`, or null.
const IndexInfo* IndexOn(const TableInfo& table, size_t local) {
  for (const IndexInfo* idx : table.indexes) {
    if (idx->column_index == static_cast<int>(local)) return idx;
  }
  return nullptr;
}

void FlattenConjuncts(const AstExpr& e, std::vector<const AstExpr*>* out) {
  if (e.kind == AstExpr::Kind::kAnd) {
    FlattenConjuncts(*e.children[0], out);
    FlattenConjuncts(*e.children[1], out);
    return;
  }
  out->push_back(&e);
}

/// Recognizes `col = literal` (for selectivity, index scans and the index
/// advisor); returns the column AST node and the literal.
bool MatchColumnEqLiteral(const AstExpr& e, const AstExpr** col,
                          const Value** literal) {
  if (e.kind != AstExpr::Kind::kCompare || e.op != CompareOp::kEq) {
    return false;
  }
  if (e.children[0]->kind == AstExpr::Kind::kColumn &&
      e.children[1]->kind == AstExpr::Kind::kLiteral) {
    *col = e.children[0].get();
    *literal = &e.children[1]->literal;
    return true;
  }
  if (e.children[1]->kind == AstExpr::Kind::kColumn &&
      e.children[0]->kind == AstExpr::Kind::kLiteral) {
    *col = e.children[1].get();
    *literal = &e.children[0]->literal;
    return true;
  }
  return false;
}

/// Crude selectivity model for base-table cardinality estimation. `e` is
/// (part of) conjunct `c`, whose columns all belong to `table`.
double EstimateSelectivity(const AstExpr& e, const TableInfo& table,
                           const Conjunct& c) {
  switch (e.kind) {
    case AstExpr::Kind::kCompare: {
      if (e.op != CompareOp::kEq) return 0.3;
      // col = literal: 1/ndv when stats exist.
      const AstExpr* col;
      const Value* literal;
      if (MatchColumnEqLiteral(e, &col, &literal) && table.stats.collected) {
        const Scope::Resolution* res = c.Find(col);
        if (res != nullptr && table.stats.columns[res->local].ndv > 0) {
          return 1.0 / table.stats.columns[res->local].ndv;
        }
      }
      return 0.05;
    }
    case AstExpr::Kind::kLike:
      return 0.25;
    case AstExpr::Kind::kAnd:
      return EstimateSelectivity(*e.children[0], table, c) *
             EstimateSelectivity(*e.children[1], table, c);
    case AstExpr::Kind::kOr:
      return std::min(1.0,
                      EstimateSelectivity(*e.children[0], table, c) +
                          EstimateSelectivity(*e.children[1], table, c));
    default:
      return 0.5;
  }
}

/// Recognizes `colA = colB` across two different items.
bool MatchEquiJoin(const AstExpr& e) {
  return e.kind == AstExpr::Kind::kCompare && e.op == CompareOp::kEq &&
         e.children[0]->kind == AstExpr::Kind::kColumn &&
         e.children[1]->kind == AstExpr::Kind::kColumn;
}

/// Conjoins `pred` onto `*residual` (which may be null).
void AndInto(ExprPtr* residual, ExprPtr pred) {
  *residual = *residual == nullptr
                  ? std::move(pred)
                  : ExprPtr(new LogicExpr(LogicExpr::Kind::kAnd,
                                          std::move(*residual),
                                          std::move(pred)));
}

/// Outer-to-inner row ratio below which an index nested-loop join pays.
constexpr double kIndexJoinOuterRatio = 0.25;

/// A SELECT's FROM items and its resolved top-level WHERE conjuncts.
struct FromWhere {
  std::vector<FromItem> items;
  std::vector<Conjunct> conjuncts;
};

/// Resolves the FROM items of `stmt` into one layout and classifies its
/// WHERE conjuncts by the items they reference, for PlanSelect and
/// IndexCandidates alike. A conjunct with an unknown or ambiguous column
/// fails the call, or with `drop_unresolved` is left out.
Result<FromWhere> ResolveFromWhere(const Catalog& catalog,
                                   const FunctionRegistry& functions,
                                   const sql::SelectStmt& stmt,
                                   bool drop_unresolved) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM clause is required");
  }
  FromWhere out;
  out.items.reserve(stmt.from.size());
  size_t offset = 0;
  for (const sql::TableRef& ref : stmt.from) {
    FromItem item;
    item.alias = ref.alias;
    if (ref.is_function) {
      item.function = functions.FindTable(ref.function_name);
      if (item.function == nullptr) {
        return Status::NotFound("unknown table function '" +
                                ref.function_name + "'");
      }
      item.columns.reserve(item.function->output.size());
      for (const ColumnDef& c : item.function->output) {
        item.columns.push_back({ref.alias + "." + c.name, c.type});
      }
    } else {
      XO_ASSIGN_OR_RETURN(item, TableItem(catalog, ref.table, ref.alias));
    }
    item.offset = offset;
    offset += item.columns.size();
    out.items.push_back(std::move(item));
  }
  if (stmt.where == nullptr) return out;
  const Scope scope(&out.items);
  std::vector<const AstExpr*> flat;
  FlattenConjuncts(*stmt.where, &flat);
  out.conjuncts.reserve(flat.size());
  std::vector<const AstExpr*> cols;
  for (const AstExpr* e : flat) {
    Conjunct c;
    c.ast = e;
    cols.clear();
    CollectColumns(*e, &cols);
    c.columns.reserve(cols.size());
    bool resolved = true;
    for (const AstExpr* col : cols) {
      Result<Scope::Resolution> res = scope.Resolve(col->name);
      if (!res.ok()) {
        if (!drop_unresolved) return res.status();
        resolved = false;
        break;
      }
      c.items.insert(res->item);
      c.columns.push_back({col, *res});
    }
    if (resolved) out.conjuncts.push_back(std::move(c));
  }
  return out;
}

}  // namespace

Result<ExprPtr> Planner::BindPredicate(const std::string& table,
                                       const AstExpr& predicate) {
  std::vector<FromItem> items(1);
  XO_ASSIGN_OR_RETURN(items[0], TableItem(*catalog_, table, table));
  Scope scope(&items);
  const std::vector<Conjunct> no_conjuncts;
  return Binder(&scope, functions_, &no_conjuncts).Bind(predicate);
}

Result<std::vector<IndexCandidate>> Planner::IndexCandidates(
    const sql::SelectStmt& stmt) {
  XO_ASSIGN_OR_RETURN(
      FromWhere fw,
      ResolveFromWhere(*catalog_, *functions_, stmt, /*drop_unresolved=*/true));
  std::vector<IndexCandidate> out;
  for (const Conjunct& c : fw.conjuncts) {
    const AstExpr* col;
    const Value* literal;
    if (!MatchColumnEqLiteral(*c.ast, &col, &literal) &&
        !(MatchEquiJoin(*c.ast) && c.items.size() == 2)) {
      continue;
    }
    for (const ResolvedColumn& rc : c.columns) {  // one, or one per side
      const TableInfo* table = fw.items[rc.res.item].table;
      if (table != nullptr) out.push_back({table, rc.res.local});
    }
  }
  return out;
}

Result<OperatorPtr> Planner::PlanSelect(const sql::SelectStmt& stmt) {
  // ---- Resolve FROM items and classify WHERE conjuncts by the items -----
  // ---- they reference, each column reference resolved once. --------------
  XO_ASSIGN_OR_RETURN(FromWhere fw,
                      ResolveFromWhere(*catalog_, *functions_, stmt,
                                       /*drop_unresolved=*/false));
  const std::vector<FromItem>& items = fw.items;
  std::vector<Conjunct>& conjuncts = fw.conjuncts;
  Scope scope(&items);
  Binder binder(&scope, functions_, &conjuncts);

  // ---- Build each base access path with pushed-down filters. -------------
  auto base_filters = [&](size_t item_idx) {
    std::vector<Conjunct*> out;
    for (Conjunct& c : conjuncts) {
      if (!c.consumed && c.items.size() == 1 && c.items.count(item_idx)) {
        out.push_back(&c);
      }
    }
    return out;
  };

  // Estimated cardinality per base item after pushed filters.
  std::vector<double> est_rows(items.size(), 1.0);
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].table == nullptr) {
      est_rows[i] = 4.0;  // table functions: a handful of rows per call
      continue;
    }
    double rows = static_cast<double>(items[i].table->heap->record_count());
    for (Conjunct* c : base_filters(i)) {
      rows *= EstimateSelectivity(*c->ast, *items[i].table, *c);
    }
    est_rows[i] = std::max(rows, 1.0);
  }

  auto build_base = [&](size_t i) -> Result<OperatorPtr> {
    const FromItem& item = items[i];
    std::vector<Conjunct*> filters = base_filters(i);
    OperatorPtr op;
    // Prefer an index scan for a `col = literal` filter.
    Conjunct* index_filter = nullptr;
    const IndexInfo* index = nullptr;
    Value index_key;
    for (Conjunct* c : filters) {
      const AstExpr* col;
      const Value* literal;
      if (!MatchColumnEqLiteral(*c->ast, &col, &literal)) continue;
      const Scope::Resolution* res = c->Find(col);
      if (res == nullptr || res->item != i) continue;
      const IndexInfo* idx = IndexOn(*item.table, res->local);
      if (idx != nullptr) {
        index_filter = c;
        index = idx;
        index_key = *literal;
        break;
      }
    }
    if (index != nullptr) {
      op = std::make_unique<IndexScanOp>(item.table, index, index_key,
                                         item.alias);
      index_filter->consumed = true;
    } else {
      op = std::make_unique<SeqScanOp>(item.table, item.alias);
    }
    // Remaining pushed filters. They are bound against the item's local
    // layout (shift by the item's offset).
    for (Conjunct* c : filters) {
      if (c->consumed) continue;
      XO_ASSIGN_OR_RETURN(auto pred, binder.Bind(*c->ast, item.offset));
      op = std::make_unique<FilterOp>(std::move(op), std::move(pred));
      c->consumed = true;
    }
    return op;
  };

  // ---- Left-deep join in FROM order. --------------------------------------
  std::set<size_t> joined;
  // True when every item `c` references is joined or is `item`.
  auto bound_with = [&](const Conjunct& c, size_t item) {
    return std::all_of(c.items.begin(), c.items.end(), [&](size_t it) {
      return it == item || joined.count(it) > 0;
    });
  };
  OperatorPtr plan;
  double acc_rows = 0;
  double acc_bytes_per_row = 64;

  auto table_bytes_per_row = [&](size_t i) -> double {
    if (items[i].table == nullptr || items[i].table->heap->record_count() == 0)
      return 64;
    return static_cast<double>(items[i].table->heap->bytes()) /
           static_cast<double>(items[i].table->heap->record_count());
  };

  for (size_t i = 0; i < items.size(); ++i) {
    const FromItem& item = items[i];
    if (item.function != nullptr) {
      // Lateral table function: arguments bound against the accumulated
      // layout (they may reference earlier items only).
      std::vector<ExprPtr> args;
      for (const auto& a : stmt.from[i].function_args) {
        std::vector<const AstExpr*> cols;
        CollectColumns(*a, &cols);
        for (const AstExpr* col : cols) {
          XO_ASSIGN_OR_RETURN(auto res, scope.Resolve(col->name));
          if (!joined.count(res.item)) {
            return Status::InvalidArgument(
                "table function argument references a later FROM item");
          }
        }
        XO_ASSIGN_OR_RETURN(auto bound, binder.Bind(*a));
        args.push_back(std::move(bound));
      }
      plan = std::make_unique<LateralTableFuncOp>(std::move(plan),
                                                  item.function,
                                                  std::move(args), item.alias);
      joined.insert(i);
      acc_rows = std::max(1.0, acc_rows) * est_rows[i];
      // Fall through to apply any now-complete conjuncts below.
    } else if (plan == nullptr) {
      XO_ASSIGN_OR_RETURN(plan, build_base(i));
      joined.insert(i);
      acc_rows = est_rows[i];
      acc_bytes_per_row = table_bytes_per_row(i);
    } else {
      // Find equi-join conjuncts linking the accumulated set to item i.
      struct JoinKey {
        const AstExpr* acc_side;
        const AstExpr* item_side;
        const Scope::Resolution* item_res;
        Conjunct* conjunct;
      };
      std::vector<JoinKey> keys;
      for (Conjunct& c : conjuncts) {
        if (c.consumed || !c.items.count(i)) continue;
        if (c.items.size() != 2) continue;
        size_t other = *c.items.begin() == i ? *c.items.rbegin()
                                             : *c.items.begin();
        if (!joined.count(other)) continue;
        if (!MatchEquiJoin(*c.ast)) continue;
        const AstExpr* acc_side = c.ast->children[0].get();
        const AstExpr* item_side = c.ast->children[1].get();
        if (c.Find(acc_side)->item == i) std::swap(acc_side, item_side);
        keys.push_back({acc_side, item_side, c.Find(item_side), &c});
      }
      if (keys.empty()) {
        XO_ASSIGN_OR_RETURN(OperatorPtr right, build_base(i));
        // Cross product with any applicable predicate as residual.
        ExprPtr residual;
        for (Conjunct& c : conjuncts) {
          if (c.consumed || !c.items.count(i) || !bound_with(c, i)) continue;
          XO_ASSIGN_OR_RETURN(auto pred, binder.Bind(*c.ast));
          AndInto(&residual, std::move(pred));
          c.consumed = true;
        }
        plan = std::make_unique<NestedLoopJoinOp>(
            std::move(plan), std::move(right), std::move(residual));
        acc_rows = std::max(1.0, acc_rows * est_rows[i] * 0.3);
      } else {
        // Join cardinality estimate: |acc >< i| = |acc| * |i| / ndv(key),
        // with the inner join-key column's distinct count from runstats.
        double ndv_key = est_rows[i];
        if (items[i].table != nullptr && items[i].table->stats.collected &&
            keys[0].item_res->item == i) {
          const ColumnStats& stats =
              items[i].table->stats.columns[keys[0].item_res->local];
          if (stats.ndv > 0) ndv_key = stats.ndv;
        }
        double join_rows = std::max(
            1.0, acc_rows * est_rows[i] / std::max(ndv_key, 1.0));

        // Decide the join algorithm.
        bool used_index_join = false;
        if (options_.enable_index_join && keys.size() >= 1 &&
            items[i].table != nullptr) {
          // Index NL is profitable when the outer (accumulated) side is
          // selective relative to the inner table.
          double inner_rows =
              static_cast<double>(items[i].table->heap->record_count());
          if (acc_rows <= kIndexJoinOuterRatio * std::max(inner_rows, 1.0)) {
            for (JoinKey& k : keys) {
              const IndexInfo* idx =
                  IndexOn(*items[i].table, k.item_res->local);
              if (idx == nullptr) continue;
              // Residual: the remaining join keys (bound to the combined
              // layout).
              ExprPtr residual;
              for (JoinKey& other : keys) {
                if (&other == &k) {
                  other.conjunct->consumed = true;
                  continue;
                }
                XO_ASSIGN_OR_RETURN(auto pred,
                                    binder.Bind(*other.conjunct->ast));
                AndInto(&residual, std::move(pred));
                other.conjunct->consumed = true;
              }
              XO_ASSIGN_OR_RETURN(auto outer_key, binder.Bind(*k.acc_side));
              // The inner side's pushed filters become part of the
              // residual (the index join reads the base table directly).
              for (Conjunct* c : base_filters(i)) {
                XO_ASSIGN_OR_RETURN(auto pred, binder.Bind(*c->ast));
                AndInto(&residual, std::move(pred));
                c->consumed = true;
              }
              plan = std::make_unique<IndexNestedLoopJoinOp>(
                  std::move(plan), items[i].table, idx, std::move(outer_key),
                  item.alias, std::move(residual));
              used_index_join = true;
              break;
            }
          }
        }
        if (!used_index_join) {
          XO_ASSIGN_OR_RETURN(OperatorPtr right, build_base(i));
          std::vector<ExprPtr> left_keys;
          std::vector<ExprPtr> right_keys;
          for (JoinKey& k : keys) {
            XO_ASSIGN_OR_RETURN(auto l, binder.Bind(*k.acc_side));
            XO_ASSIGN_OR_RETURN(auto r, binder.Bind(*k.item_side,
                                                    items[i].offset));
            left_keys.push_back(std::move(l));
            right_keys.push_back(std::move(r));
            k.conjunct->consumed = true;
          }
          double build_bytes = acc_rows * acc_bytes_per_row;
          bool hash_fits =
              options_.enable_hash_join &&
              build_bytes <= static_cast<double>(options_.sort_heap_bytes);
          if (hash_fits) {
            plan = std::make_unique<HashJoinOp>(
                std::move(plan), std::move(right), std::move(left_keys),
                std::move(right_keys), nullptr);
          } else {
            plan = std::make_unique<SortMergeJoinOp>(
                std::move(plan), std::move(right), std::move(left_keys),
                std::move(right_keys), nullptr);
          }
        }
        acc_rows = join_rows;
        acc_bytes_per_row += table_bytes_per_row(i);
      }
    }
    joined.insert(i);
    // Apply any conjuncts that have just become fully bound.
    for (Conjunct& c : conjuncts) {
      if (c.consumed || !bound_with(c, i)) continue;
      XO_ASSIGN_OR_RETURN(auto pred, binder.Bind(*c.ast));
      plan = std::make_unique<FilterOp>(std::move(plan), std::move(pred));
      c.consumed = true;
      acc_rows = std::max(1.0, acc_rows * 0.3);
    }
  }

  // ---- Aggregation. -------------------------------------------------------
  bool has_aggregate = !stmt.group_by.empty();
  for (const sql::SelectItem& item : stmt.items) {
    if (ContainsAggregate(*item.expr)) has_aggregate = true;
  }

  auto item_name = [](const sql::SelectItem& item) {
    return item.alias.empty() ? item.expr->ToString() : item.alias;
  };

  if (has_aggregate) {
    std::vector<ExprPtr> group_keys;
    std::vector<std::string> group_names;
    for (const auto& g : stmt.group_by) {
      XO_ASSIGN_OR_RETURN(auto bound, binder.Bind(*g));
      group_names.push_back(g->ToString());
      group_keys.push_back(std::move(bound));
    }
    std::vector<AggregateSpec> aggs;
    // Map each select item onto the aggregate output.
    struct OutputRef {
      bool is_group_key;
      size_t index;  // group key idx or aggregate idx
      std::string name;
      TypeId type;
    };
    std::vector<OutputRef> outputs;
    for (const sql::SelectItem& sel : stmt.items) {
      const AstExpr& e = *sel.expr;
      std::optional<AggKind> agg = e.kind == AstExpr::Kind::kFunc
                                       ? AggregateKindOf(e.name)
                                       : std::nullopt;
      if (agg) {
        AggregateSpec spec;
        if (*agg == AggKind::kCount) {
          if (e.children.size() == 1 &&
              e.children[0]->kind == AstExpr::Kind::kStar) {
            spec.kind = AggKind::kCountStar;
          } else if (e.children.size() == 1) {
            spec.kind = AggKind::kCount;
            XO_ASSIGN_OR_RETURN(spec.arg, binder.Bind(*e.children[0]));
          } else {
            return Status::InvalidArgument("COUNT takes one argument");
          }
        } else {
          if (e.children.size() != 1) {
            return Status::InvalidArgument(e.name + " takes one argument");
          }
          spec.kind = *agg;
          XO_ASSIGN_OR_RETURN(spec.arg, binder.Bind(*e.children[0]));
        }
        spec.name = item_name(sel);
        TypeId out_type =
            (spec.kind == AggKind::kMin || spec.kind == AggKind::kMax) &&
                    spec.arg != nullptr
                ? spec.arg->type()
                : TypeId::kInteger;
        outputs.push_back({false, aggs.size(), spec.name, out_type});
        aggs.push_back(std::move(spec));
        continue;
      }
      // Non-aggregate select item must match a GROUP BY expression.
      std::string text = e.ToString();
      bool matched = false;
      for (size_t g = 0; g < group_names.size(); ++g) {
        if (EqualsIgnoreCase(group_names[g], text)) {
          outputs.push_back(
              {true, g, item_name(sel), group_keys[g]->type()});
          matched = true;
          break;
        }
      }
      if (!matched) {
        return Status::InvalidArgument(
            "select item '" + text +
            "' must be an aggregate or appear in GROUP BY");
      }
    }
    size_t n_groups = group_keys.size();
    plan = std::make_unique<AggregateOp>(std::move(plan),
                                         std::move(group_keys), group_names,
                                         std::move(aggs));
    // Final projection into select order.
    std::vector<ExprPtr> proj;
    std::vector<std::string> names;
    for (const OutputRef& o : outputs) {
      size_t idx = o.is_group_key ? o.index : n_groups + o.index;
      proj.push_back(ExprPtr(new ColumnRefExpr(idx, o.name, o.type)));
      names.push_back(o.name);
    }
    plan = std::make_unique<ProjectOp>(std::move(plan), std::move(proj),
                                       std::move(names));
  } else {
    // ---- Plain projection. -----------------------------------------------
    std::vector<ExprPtr> proj;
    std::vector<std::string> names;
    for (const sql::SelectItem& sel : stmt.items) {
      if (sel.expr->kind == AstExpr::Kind::kStar) {
        for (const FromItem& item : items) {
          for (size_t c = 0; c < item.columns.size(); ++c) {
            proj.push_back(ExprPtr(new ColumnRefExpr(
                item.offset + c, item.columns[c].name, item.columns[c].type)));
            names.push_back(item.columns[c].name);
          }
        }
        continue;
      }
      XO_ASSIGN_OR_RETURN(auto bound, binder.Bind(*sel.expr));
      names.push_back(item_name(sel));
      proj.push_back(std::move(bound));
    }
    plan = std::make_unique<ProjectOp>(std::move(plan), std::move(proj),
                                       std::move(names));
  }

  if (stmt.distinct) {
    plan = std::make_unique<DistinctOp>(std::move(plan));
  }

  // ---- ORDER BY over the projected output. --------------------------------
  if (!stmt.order_by.empty()) {
    std::vector<ExprPtr> keys;
    std::vector<bool> asc;
    for (const sql::OrderItem& o : stmt.order_by) {
      std::string text = o.expr->ToString();
      const auto& cols = plan->columns();
      // An exact select-list name wins; else the name must match exactly
      // one column's unqualified suffix, the rule Scope::Resolve applies.
      std::optional<size_t> found;
      for (size_t c = 0; c < cols.size() && !found; ++c) {
        if (EqualsIgnoreCase(cols[c].name, text)) found = c;
      }
      if (!found) {
        for (size_t c = 0; c < cols.size(); ++c) {
          if (!MatchesUnqualified(cols[c].name, text)) continue;
          if (found) {
            return Status::InvalidArgument("ambiguous ORDER BY column '" +
                                           text + "'");
          }
          found = c;
        }
      }
      if (!found) {
        return Status::InvalidArgument(
            "ORDER BY expression '" + text +
            "' must reference a select-list column");
      }
      keys.push_back(ExprPtr(new ColumnRefExpr(
          *found, cols[*found].name, cols[*found].type)));
      asc.push_back(o.ascending);
    }
    plan = std::make_unique<SortOp>(std::move(plan), std::move(keys),
                                    std::move(asc));
  }
  return plan;
}

}  // namespace xorator::ordb
