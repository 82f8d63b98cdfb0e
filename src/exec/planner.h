#ifndef LDV_EXEC_PLANNER_H_
#define LDV_EXEC_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/operators.h"
#include "sql/ast.h"
#include "storage/database.h"
#include "storage/schema.h"

namespace ldv::exec {

/// A complete SELECT plan: the operator tree plus the result schema (with
/// user-facing column names, i.e., aliases applied).
struct SelectPlan {
  std::unique_ptr<PlanNode> root;
  storage::Schema output_schema;
};

/// Builds an executable plan for a SELECT statement:
///   - per-table predicate pushdown into scans,
///   - left-deep joins in FROM order, hash joins on extracted equi-join
///     conjuncts, nested loop + residual otherwise,
///   - hash aggregation with HAVING, DISTINCT, ORDER BY, LIMIT,
///   - prov_* pseudo-columns exposed on scans whose table is referenced by
///     one of them.
Result<SelectPlan> PlanSelect(storage::Database* db,
                              const sql::SelectStmt& select);

/// Appends the top-level AND terms of `expr` (null = none) to `out`, left to
/// right.
void SplitConjuncts(const sql::Expr* expr,
                    std::vector<const sql::Expr*>* out);

/// The access-path picker shared by SELECT planning and DML matching: sets
/// the hash-index probe on `scan` for the first of `conjuncts` (the scan
/// filter's AND terms) that equates an indexed column of the scanned table
/// with a literal coercible to the column type. Leaves `scan` unchanged when
/// none does.
void ChooseIndexProbe(ScanNode* scan,
                      const std::vector<const sql::Expr*>& conjuncts);

}  // namespace ldv::exec

#endif  // LDV_EXEC_PLANNER_H_
