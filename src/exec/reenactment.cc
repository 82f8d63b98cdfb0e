#include "exec/reenactment.h"

#include "exec/expression.h"
#include "exec/planner.h"

namespace ldv::exec {

using storage::RowVersion;
using storage::Table;
using storage::Tuple;
using storage::TupleVid;
using storage::Value;

namespace {

Tuple RowWithProvColumns(const RowVersion& row) {
  Tuple values = row.values;
  values.push_back(Value::Int(row.rowid));
  values.push_back(Value::Int(row.version));
  values.push_back(Value::Int(row.used_by_query));
  values.push_back(Value::Int(row.used_by_process));
  return values;
}

/// The scan that matches a DML statement's rows: `table` with its prov_*
/// pseudo-columns (qualified by `alias`), filtered by `where` (null = every
/// row) and probing the hash index when `where` allows it. Its scope is
/// also the scope SET expressions bind against.
Result<std::unique_ptr<ScanNode>> MatchScan(Table* table,
                                            const std::string& alias,
                                            const sql::Expr* where) {
  auto scan = std::make_unique<ScanNode>(table, alias,
                                         /*expose_prov_columns=*/true);
  if (where != nullptr) {
    LDV_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> filter,
                         BindExpr(*where, scan->scope()));
    scan->set_filter(std::move(filter));
    std::vector<const sql::Expr*> conjuncts;
    SplitConjuncts(where, &conjuncts);
    ChooseIndexProbe(scan.get(), conjuncts);
  }
  return scan;
}

/// Phase 1 of reenactment: runs the match scan over the live pre-state
/// through the columnar kernel (at the statement's dop, under its governor)
/// and snapshots the matched versions, read back through the prov_rowid
/// column in storage order.
Result<std::vector<RowVersion>> MatchPreState(storage::Database* db,
                                              ScanNode* scan,
                                              const ExecOptions& options) {
  ExecContext ctx = MakeExecContext(db, options);
  ctx.snapshot_epoch = 0;  // DML matches the live state
  LDV_ASSIGN_OR_RETURN(ColumnarResult out, scan->ExecuteColumnar(&ctx));
  const Table& table = *scan->table();
  const size_t rowid_col = table.schema().columns().size();
  std::vector<RowVersion> matched;
  matched.reserve(out.NumRows());
  for (size_t i = 0; i < out.NumRows(); ++i) {
    const storage::RowId rowid =
        out.columnar ? out.columns.cols[rowid_col].i64[i]
                     : out.rows.rows[i][rowid_col].AsInt();
    const RowVersion* row = table.Find(rowid);
    if (row == nullptr) {
      return Status::Internal(table.name() + ": matched row " +
                              std::to_string(rowid) + " vanished");
    }
    matched.push_back(*row);
  }
  return matched;
}

/// Charges the reenactment pre-state snapshot (the version-archive capture
/// of every matched row) against the statement's memory budget.
Status ChargePreState(const ExecOptions& options,
                      const std::vector<RowVersion>& matched) {
  if (options.governor == nullptr) return Status::Ok();
  size_t bytes = 0;
  for (const RowVersion& row : matched) {
    bytes += sizeof(RowVersion) + ApproxTupleBytes(row.values);
  }
  return options.governor->ChargeMemory(bytes);
}

}  // namespace

Result<ResultSet> ExecUpdate(storage::Database* db,
                             const sql::UpdateStmt& update,
                             const sql::Expr* where_expr, bool provenance,
                             const ExecOptions& options) {
  Table* table = db->FindTable(update.table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + update.table);
  }
  const std::string& alias =
      update.alias.empty() ? update.table : update.alias;

  LDV_ASSIGN_OR_RETURN(std::unique_ptr<ScanNode> scan,
                       MatchScan(table, alias, where_expr));
  // Bind SET expressions (they may reference old column values).
  std::vector<std::pair<int, std::unique_ptr<BoundExpr>>> sets;
  for (const auto& [col_name, expr] : update.assignments) {
    int idx = table->schema().IndexOf(col_name);
    if (idx < 0) {
      return Status::NotFound(update.table + ": no column " + col_name);
    }
    LDV_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bound,
                         BindExpr(*expr, scan->scope()));
    sets.emplace_back(idx, std::move(bound));
  }

  // Reenactment: retrieve the statement's provenance (the matched pre-state
  // versions) BEFORE mutating, per §VII-B.
  LDV_ASSIGN_OR_RETURN(std::vector<RowVersion> matched,
                       MatchPreState(db, scan.get(), options));
  LDV_RETURN_IF_ERROR(ChargePreState(options, matched));

  ResultSet result;
  const int64_t stmt_seq = db->NextStatementSeq();
  for (const RowVersion& old_row : matched) {
    Tuple old_with_prov = RowWithProvColumns(old_row);
    Tuple new_values = old_row.values;
    for (const auto& [idx, expr] : sets) {
      LDV_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, old_with_prov));
      LDV_ASSIGN_OR_RETURN(
          new_values[static_cast<size_t>(idx)],
          CoerceValue(std::move(v),
                      table->schema().column(idx).type));
    }
    LDV_RETURN_IF_ERROR(
        table->Update(old_row.rowid, std::move(new_values), stmt_seq));
    DmlRecord rec;
    rec.kind = DmlRecord::Kind::kUpdated;
    rec.table = table->name();
    rec.vid = TupleVid{table->id(), old_row.rowid, stmt_seq};
    rec.prior = TupleVid{table->id(), old_row.rowid, old_row.version};
    rec.has_prior = true;
    result.dml.push_back(rec);
    if (provenance) {
      ProvTupleRecord prov;
      prov.vid = rec.prior;
      prov.table = table->name();
      prov.values = old_row.values;
      result.prov_tuples.push_back(std::move(prov));
    }
  }
  result.affected = static_cast<int64_t>(matched.size());
  result.has_provenance = provenance;
  return result;
}

Result<ResultSet> ExecDelete(storage::Database* db, const sql::DeleteStmt& del,
                             const sql::Expr* where_expr, bool provenance,
                             const ExecOptions& options) {
  Table* table = db->FindTable(del.table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + del.table);
  }
  const std::string& alias = del.alias.empty() ? del.table : del.alias;
  LDV_ASSIGN_OR_RETURN(std::unique_ptr<ScanNode> scan,
                       MatchScan(table, alias, where_expr));
  LDV_ASSIGN_OR_RETURN(std::vector<RowVersion> matched,
                       MatchPreState(db, scan.get(), options));
  LDV_RETURN_IF_ERROR(ChargePreState(options, matched));

  ResultSet result;
  const int64_t stmt_seq = db->NextStatementSeq();
  for (const RowVersion& old_row : matched) {
    LDV_RETURN_IF_ERROR(table->Delete(old_row.rowid, stmt_seq));
    DmlRecord rec;
    rec.kind = DmlRecord::Kind::kDeleted;
    rec.table = table->name();
    rec.vid = TupleVid{table->id(), old_row.rowid, old_row.version};
    rec.prior = rec.vid;
    rec.has_prior = true;
    result.dml.push_back(rec);
    if (provenance) {
      ProvTupleRecord prov;
      prov.vid = rec.prior;
      prov.table = table->name();
      prov.values = old_row.values;
      result.prov_tuples.push_back(std::move(prov));
    }
  }
  result.affected = static_cast<int64_t>(matched.size());
  result.has_provenance = provenance;
  return result;
}

}  // namespace ldv::exec
