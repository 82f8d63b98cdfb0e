#include "ldv/auditing_db_client.h"

#include "ldv/auditor.h"
#include "net/protocol.h"
#include "obs/span.h"
#include "sql/parser.h"

namespace ldv {

std::vector<std::string> ReferencedTables(const sql::Statement& stmt) {
  std::vector<std::string> tables;
  auto add_select = [&tables](const sql::SelectStmt* select) {
    if (select == nullptr) return;
    for (const sql::TableRef& ref : select->from) tables.push_back(ref.table);
  };
  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      add_select(stmt.select.get());
      break;
    case sql::StatementKind::kInsert:
      tables.push_back(stmt.insert->table);
      add_select(stmt.insert->select.get());
      break;
    case sql::StatementKind::kUpdate:
      tables.push_back(stmt.update->table);
      break;
    case sql::StatementKind::kDelete:
      tables.push_back(stmt.del->table);
      break;
    case sql::StatementKind::kCopy:
      tables.push_back(stmt.copy->table);
      break;
    default:
      break;
  }
  return tables;
}

Result<exec::ResultSet> AuditingDbClient::Execute(
    const net::DbRequest& request) {
  // Parse once to classify the statement and find the touched tables.
  LDV_ASSIGN_OR_RETURN(sql::Statement parsed, sql::Parse(request.sql));

  const PackageMode mode = auditor_->options().mode;
  const bool provenance_capture =
      mode == PackageMode::kServerIncluded &&
      (parsed.kind == sql::StatementKind::kSelect ||
       parsed.kind == sql::StatementKind::kInsert ||
       parsed.kind == sql::StatementKind::kUpdate ||
       parsed.kind == sql::StatementKind::kDelete);

  if (mode == PackageMode::kServerIncluded) {
    // First-touch registration: version tracking + schema capture (§VII-B).
    for (const std::string& table : ReferencedTables(parsed)) {
      LDV_RETURN_IF_ERROR(auditor_->EnsureTableRegistered(table));
    }
  }

  Auditor::DbStatementRecord record;
  record.process_id = process_id_;
  record.query_id = auditor_->NextQueryId();
  record.sql = request.sql;
  record.kind = parsed.kind;

  // One span per audited statement, covering the reenactment round trip,
  // the statement itself, and trace/package bookkeeping.
  obs::Span span("audit.statement", "audit");
  if (span.recording()) {
    span.AddArg("qid", std::to_string(record.query_id));
    span.AddArg("sql", request.sql.size() <= 120
                           ? request.sql
                           : request.sql.substr(0, 117) + "...");
  }

  const bool is_modification = parsed.kind == sql::StatementKind::kUpdate ||
                               parsed.kind == sql::StatementKind::kDelete;

  net::DbRequest tagged;
  // The PROVENANCE rewrite the prototype performs inside libpq. For
  // modifications the prototype instead issues a *separate* reenactment
  // query against the pre-state before executing the statement (§VII-B:
  // "we retrieve the provenance for the update before executing it") —
  // this extra round trip is the Update-step audit overhead of Fig. 7a.
  tagged.sql = provenance_capture && !is_modification && !parsed.provenance
                   ? "PROVENANCE " + request.sql
                   : request.sql;
  tagged.process_id = process_id_;
  tagged.query_id = record.query_id;
  tagged.run_nonce = auditor_->run_nonce();

  record.t.begin = auditor_->clock_.Tick();
  exec::ResultSet reenactment;
  if (provenance_capture && is_modification) {
    const std::string& table = parsed.kind == sql::StatementKind::kUpdate
                                   ? parsed.update->table
                                   : parsed.del->table;
    const std::string& alias = parsed.kind == sql::StatementKind::kUpdate
                                   ? parsed.update->alias
                                   : parsed.del->alias;
    const sql::Expr* where = parsed.kind == sql::StatementKind::kUpdate
                                 ? parsed.update->where.get()
                                 : parsed.del->where.get();
    net::DbRequest reenact;
    reenact.sql = "PROVENANCE SELECT * FROM " + table;
    if (!alias.empty()) reenact.sql += " " + alias;
    if (where != nullptr) reenact.sql += " WHERE " + where->ToString();
    reenact.process_id = process_id_;
    reenact.query_id = record.query_id;
    reenact.run_nonce = tagged.run_nonce;
    LDV_ASSIGN_OR_RETURN(reenactment, backend_->Execute(reenact));
  }
  LDV_ASSIGN_OR_RETURN(exec::ResultSet result, backend_->Execute(tagged));
  record.t.end = auditor_->clock_.Tick();

  if (provenance_capture && is_modification) {
    // The reenactment query's provenance (the matched pre-state versions)
    // is the modification's provenance.
    result.prov_tuples = std::move(reenactment.prov_tuples);
    result.has_provenance = true;
  }
  record.result = &result;
  if (mode == PackageMode::kServerExcluded) {
    // Spool the exact request/response pair for replay (§VII-D). What we
    // replay is what the application saw: the provenance-free response.
    net::DbRequest original = request;
    original.process_id = process_id_;
    original.query_id = record.query_id;
    record.encoded_request = net::EncodeRequest(original);
    record.encoded_response = net::EncodeResponse(Status::Ok(), result);
  }
  LDV_RETURN_IF_ERROR(auditor_->OnDbStatement(record));

  // Strip audit artifacts before handing results to the application.
  result.lineage.clear();
  result.prov_tuples.clear();
  result.has_provenance = false;
  return result;
}

}  // namespace ldv
