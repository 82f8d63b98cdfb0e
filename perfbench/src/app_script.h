#ifndef LDV_PERFBENCH_APP_SCRIPT_H_
#define LDV_PERFBENCH_APP_SCRIPT_H_

// The application the workloads audit: a fixed statement list generated from
// the seed, executed through whatever DbClient the environment hands out,
// with every call timed and every answer checked.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "exec/executor.h"
#include "ldv/app.h"
#include "ldv/auditor.h"
#include "ldv/replayer.h"
#include "oracle.h"
#include "storage/database.h"

namespace perfbench {

enum Kind { kInsert = 0, kSelect = 1, kUpdate = 2, kNumKinds = 3 };
const char* KindName(Kind kind);

struct Stmt {
  Kind kind = kSelect;
  std::string sql;
  /// Expected answer of a single-row check, when known: count(*) and
  /// sum(o_totalprice) of an aggregate read, or the rowid a provenance read
  /// of one order must return and name in its lineage.
  int64_t custkey = -1;
  int64_t expect_count = -1;
  double expect_sum = 0;
  int64_t expect_rowid = -1;
};

struct AppScript {
  std::vector<Stmt> stmts;
  /// Keys of the UPDATEs in issue order, and the comment each key ends with.
  std::vector<int64_t> update_keys;
  std::map<int64_t, std::string> final_comment;
};

/// The §IX-A application: `inserts` new orders, `selects` executions of
/// `query_sql`, then `updates` single-row UPDATEs of o_comment on keys drawn
/// uniformly from the generated orders.
AppScript MakeAppScript(uint64_t seed, const Oracle& oracle,
                        const std::string& query_sql, int inserts, int selects,
                        int updates);

/// The SQL of the statement shapes shared by the workloads.
std::string InsertOrderSql(int64_t orderkey, int64_t custkey, int64_t price);
std::string UpdateCommentSql(int64_t orderkey, const std::string& comment);

enum class Phase { kPlain, kAudit, kReplay };

/// What one execution of the application observed.
struct AppLog {
  std::vector<double> latency_s[kNumKinds];
  uint64_t fingerprint = 1469598103934665603ULL;
  std::vector<int64_t> select_rows;
  std::vector<int64_t> select_count;  // first column of the first row
  /// Wall time of the application function itself, which excludes what the
  /// environment does before and after it (audit finalization).
  double app_seconds = 0;
};

/// Checks the answer of a statement that carries an expectation. The
/// lineage of a provenance read is checked in the plain phase only.
void CheckAnswer(const Stmt& stmt, const ldv::exec::ResultSet& result,
                 Phase phase, Report* report);

/// Builds the application function. Each statement is counted in `report`
/// under "<phase>.<kind>"; a failed statement ends the application.
/// `engine_backed` says whether a replay's SELECTs reach an engine (they
/// count towards SelectsIssued()).
ldv::AppFn MakeApp(const AppScript& script, Phase phase, AppLog* log,
                   Report* report, bool engine_backed = true);

/// Every key's o_comment in `db`'s orders table, read from Table::rows().
std::map<int64_t, std::string> Comments(const ldv::storage::Database& db);

/// Checks that every updated order holds the last comment written to it.
void CheckFinalComments(const ldv::storage::Database& db,
                        const AppScript& script, const std::string& label,
                        Report* report);

/// One audited execution of the application and the replay of its package.
struct PipelineResult {
  bool ok = false;
  double audit_s = 0;
  double replay_init_s = 0;
  double replay_s = 0;
  int64_t package_bytes = 0;
  ldv::AuditReport audit;
  ldv::ReplayReport replay;
  AppLog audit_log;
  AppLog replay_log;  // of the last replay
  /// trace::SerializeTrace of the audit's trace graph (traced runs only).
  double serialize_us = 0;
};

/// Runs `script` under an Auditor over `db` with `options` (package_dir and
/// sandbox_root set by the caller), inspects the package, replays it
/// `replays` times (the replay times are medians), checks that audit and
/// every replay saw the plain run's answers, and removes the package,
/// sandbox and replay scratch directories.
PipelineResult AuditAndReplay(const AppScript& script, ldv::storage::Database* db,
                              const ldv::AuditOptions& options, int replays,
                              uint64_t plain_fingerprint, bool trace,
                              const std::string& label, Report* report);

/// The end-to-end samples of one run; every workload fills every field (see
/// the README for what each times on which workload).
struct EndToEndSamples {
  std::vector<double> setup_s, plain_s, audit_s, package_mb, replay_init_s,
      replay_s, qps;
  /// Latencies in blocks of consecutive calls: one application run, or one
  /// closed-loop window. The calls of a block share the machine's speed of
  /// that moment, so a percentile is taken within each block and the
  /// median over blocks is reported; a pooled rank would fall on the
  /// boundary between a fast and a slow block. Reads are kept by query and
  /// read_p50_ms sums the queries' medians, so queries of very different
  /// cost do not share one rank either.
  using Blocks = std::vector<std::vector<double>>;
  std::map<std::string, Blocks> read_ms;
  Blocks prov_ms, write_ms;
  size_t read_samples() const;
  /// Adds every end-to-end metric: medians over rounds, and the median and
  /// (but for reads) the `tail` percentile of the latencies.
  void AddTo(Report* report, double tail) const;
};

size_t SampleCount(const EndToEndSamples::Blocks& blocks);

/// Per-layer samples of the audit and replay pipeline, pooled over a run.
struct PipelineSamples {
  std::vector<double> audit_us[kNumKinds];
  std::vector<double> finalize_s, tuples_persisted, trace_nodes, trace_edges,
      restored_tuples, replay_select_us, serialize_us;
  void Add(const PipelineResult& result);
  /// Adds the ldv.* and trace.serialize_us metrics.
  void AddTo(Report* report) const;
};

}  // namespace perfbench

#endif  // LDV_PERFBENCH_APP_SCRIPT_H_
