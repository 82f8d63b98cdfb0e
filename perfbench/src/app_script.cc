#include "app_script.h"

#include <cmath>
#include <cstdio>

#include "common/logging.h"
#include "exec/executor.h"
#include "ldv/manifest.h"
#include "trace/serialize.h"
#include "util/fsutil.h"

namespace perfbench {

const char* KindName(Kind kind) {
  switch (kind) {
    case kInsert:
      return "insert";
    case kSelect:
      return "select";
    case kUpdate:
      return "update";
    default:
      return "other";
  }
}

std::string InsertOrderSql(int64_t orderkey, int64_t custkey, int64_t price) {
  char sql[256];
  std::snprintf(sql, sizeof(sql),
                "INSERT INTO orders VALUES (%lld, %lld, 'O', %lld.00, "
                "'1998-09-01', '3-MEDIUM', 'Clerk#000000001', 0, "
                "'perfbench order %lld')",
                static_cast<long long>(orderkey),
                static_cast<long long>(custkey), static_cast<long long>(price),
                static_cast<long long>(orderkey));
  return sql;
}

std::string UpdateCommentSql(int64_t orderkey, const std::string& comment) {
  return "UPDATE orders SET o_comment = '" + comment +
         "' WHERE o_orderkey = " + std::to_string(orderkey);
}

AppScript MakeAppScript(uint64_t seed, const Oracle& oracle,
                        const std::string& query_sql, int inserts, int selects,
                        int updates) {
  InputRng rng(seed);
  AppScript script;
  for (int i = 0; i < inserts; ++i) {
    const int64_t orderkey = oracle.num_orders() + i + 1;
    script.stmts.push_back(
        {kInsert, InsertOrderSql(orderkey,
                                 rng.Uniform(1, oracle.num_customers()),
                                 rng.Uniform(1000, 400000))});
  }
  for (int i = 0; i < selects; ++i) script.stmts.push_back({kSelect, query_sql});
  for (int i = 0; i < updates; ++i) {
    const int64_t key = rng.Uniform(1, oracle.num_orders());
    const std::string comment = "perfbench update " + std::to_string(i);
    script.stmts.push_back({kUpdate, UpdateCommentSql(key, comment)});
    script.update_keys.push_back(key);
    script.final_comment[key] = comment;
  }
  return script;
}

namespace {

const char* SpanName(Phase phase) {
  switch (phase) {
    case Phase::kPlain:
      return "app.plain.execute";
    case Phase::kAudit:
      return "app.audit.execute";
    case Phase::kReplay:
      return "app.replay.execute";
  }
  return "app.execute";
}

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kPlain:
      return "plain";
    case Phase::kAudit:
      return "audit";
    case Phase::kReplay:
      return "replay";
  }
  return "app";
}

}  // namespace

void CheckAnswer(const Stmt& stmt, const ldv::exec::ResultSet& result,
                 Phase phase, Report* report) {
  const std::string label = PhaseName(phase);
  if (stmt.expect_count >= 0) {
    bool ok = result.rows.size() == 1 && result.rows[0].size() == 2 &&
              result.rows[0][0].AsInt() == stmt.expect_count;
    if (ok && stmt.expect_count > 0) {
      const double sum = result.rows[0][1].AsDouble();
      ok = std::fabs(sum - stmt.expect_sum) <=
           1e-9 * std::fmax(1.0, std::fabs(stmt.expect_sum));
    }
    report->Expect(ok, label + ": wrong answer to " + stmt.sql);
  }
  if (stmt.expect_rowid >= 0) {
    bool ok = result.rows.size() == 1;
    // The lineage names the generated row only on the live server: the
    // auditing client strips lineage, and a replay restores rows under new
    // rowids.
    if (ok && phase == Phase::kPlain) {
      ok = result.lineage.size() == 1;
      bool named = false;
      for (const ldv::storage::TupleVid& vid : result.lineage[0]) {
        named = named || vid.rowid == stmt.expect_rowid;
      }
      ok = ok && named;
    }
    report->Expect(ok, label + ": provenance read " + stmt.sql +
                           " did not return exactly its row");
  }
}

ldv::AppFn MakeApp(const AppScript& script, Phase phase, AppLog* log,
                   Report* report, bool engine_backed) {
  return [&script, phase, log, report,
          engine_backed](ldv::AppEnv& env) -> ldv::Status {
    const double start = NowSeconds();
    ldv::os::ProcessContext& proc = env.root_process();
    LDV_ASSIGN_OR_RETURN(ldv::net::DbClient * db, env.OpenDbConnection(proc));
    const std::string prefix = std::string(PhaseName(phase)) + ".";
    for (const Stmt& stmt : script.stmts) {
      const int64_t t0 = NowNanos();
      ldv::Result<ldv::exec::ResultSet> result(ldv::Status::Internal(""));
      {
        Tracer::Span span(SpanName(phase));
        result = db->Query(stmt.sql);
      }
      const double elapsed = static_cast<double>(NowNanos() - t0) * 1e-9;
      report->CountOp(prefix + KindName(stmt.kind), result.ok());
      if (!result.ok()) return result.status();
      log->latency_s[stmt.kind].push_back(elapsed);
      if (stmt.kind != kSelect) continue;
      if (phase != Phase::kReplay || engine_backed) CountSelectIssued();
      CheckAnswer(stmt, *result, phase, report);
      const uint64_t fp = result->Fingerprint();
      log->fingerprint ^= fp + 0x9E3779B97F4A7C15ULL + (log->fingerprint << 6) +
                          (log->fingerprint >> 2);
      log->select_rows.push_back(static_cast<int64_t>(result->rows.size()));
      log->select_count.push_back(
          !result->rows.empty() && !result->rows[0].empty() &&
                  result->rows[0][0].type() == ldv::storage::ValueType::kInt64
              ? result->rows[0][0].AsInt()
              : -1);
    }
    char digest[96];
    std::snprintf(digest, sizeof(digest), "fingerprint=%llu\n",
                  static_cast<unsigned long long>(log->fingerprint));
    LDV_RETURN_IF_ERROR(proc.WriteFile("/output/results.txt", digest));
    log->app_seconds = NowSeconds() - start;
    return ldv::Status::Ok();
  };
}

std::map<int64_t, std::string> Comments(const ldv::storage::Database& db) {
  std::map<int64_t, std::string> out;
  const ldv::storage::Table* orders = db.FindTable("orders");
  LDV_CHECK(orders != nullptr);
  const int key_col = orders->schema().IndexOf("o_orderkey");
  const int comment_col = orders->schema().IndexOf("o_comment");
  for (const ldv::storage::RowVersion& row : orders->rows()) {
    if (row.deleted) continue;
    out[row.values[key_col].AsInt()] = row.values[comment_col].AsString();
  }
  return out;
}

void CheckFinalComments(const ldv::storage::Database& db,
                        const AppScript& script, const std::string& label,
                        Report* report) {
  const std::map<int64_t, std::string> found = Comments(db);
  for (const auto& [key, comment] : script.final_comment) {
    auto it = found.find(key);
    report->Expect(it != found.end() && it->second == comment,
                   label + ": order " + std::to_string(key) +
                       " does not hold its last written comment");
  }
}

namespace {

void RunPipeline(const AppScript& script, ldv::storage::Database* db,
                 const ldv::AuditOptions& options, const std::string& replay_dir,
                 int replays, uint64_t plain_fingerprint, bool trace,
                 const std::string& label, Report* report,
                 PipelineResult* result) {
  PipelineResult& out = *result;
  {
    LDV_CHECK_OK(ldv::MakeDirs(options.sandbox_root));
    RotateCpu();
    ldv::Auditor auditor(db, options);
    ldv::AppFn app = MakeApp(script, Phase::kAudit, &out.audit_log, report);
    ldv::Result<ldv::AuditReport> audited(ldv::Status::Internal(""));
    const double t0 = NowSeconds();
    {
      Tracer::Span span("ldv.audit.run");
      audited = auditor.Run(app);
    }
    out.audit_s = NowSeconds() - t0;
    report->Expect(audited.ok(), label + " audit: " + audited.status().ToString());
    if (!audited.ok()) return;
    out.audit = *audited;
    report->Expect(out.audit_log.fingerprint == plain_fingerprint,
                   label + ": audited answers differ from the plain run's");
    if (trace) {
      const double s0 = NowSeconds();
      std::string bytes;
      {
        Tracer::Span span("trace.serialize");
        bytes = ldv::trace::SerializeTrace(auditor.trace_graph());
      }
      out.serialize_us = (NowSeconds() - s0) * 1e6;
      report->Expect(!bytes.empty(), label + ": empty serialized trace");
    }
  }
  auto info = ldv::InspectPackage(options.package_dir);
  report->Expect(info.ok(), label + " inspect: " + info.status().ToString());
  if (info.ok()) out.package_bytes = info->total_bytes;

  // Replays are short next to audits, so each package is replayed
  // `replays` times and the medians are kept.
  std::vector<double> init_s, run_s;
  bool replays_ok = true;
  for (int i = 0; i < replays; ++i) {
    RotateCpu();
    ldv::ReplayOptions replay;
    replay.package_dir = options.package_dir;
    replay.scratch_dir = replay_dir + std::to_string(i);
    ldv::Result<std::unique_ptr<ldv::Replayer>> replayer(
        ldv::Status::Internal(""));
    double t0 = NowSeconds();
    {
      Tracer::Span span("ldv.replay.open");
      replayer = ldv::Replayer::Open(replay);
    }
    init_s.push_back(NowSeconds() - t0);
    report->Expect(replayer.ok(),
                   label + " replay open: " + replayer.status().ToString());
    if (!replayer.ok()) {
      replays_ok = false;
      break;
    }
    // A server-excluded replay answers from its log, not from an engine.
    AppLog log;
    ldv::AppFn app = MakeApp(script, Phase::kReplay, &log, report,
                             options.mode != ldv::PackageMode::kServerExcluded);
    ldv::Result<ldv::ReplayReport> replayed(ldv::Status::Internal(""));
    t0 = NowSeconds();
    {
      Tracer::Span span("ldv.replay.run");
      replayed = (*replayer)->Run(app);
    }
    run_s.push_back(NowSeconds() - t0);
    replayer->reset();
    LDV_CHECK_OK(ldv::RemoveAll(replay.scratch_dir));
    report->Expect(replayed.ok(),
                   label + " replay: " + replayed.status().ToString());
    report->Expect(log.fingerprint == plain_fingerprint,
                   label + ": replayed answers differ from the plain run's");
    if (!replayed.ok()) {
      replays_ok = false;
      break;
    }
    out.replay = *replayed;
    out.replay_log = std::move(log);
  }
  out.replay_init_s = Median(init_s);
  out.replay_s = Median(run_s);
  out.ok = replays_ok && info.ok();
}

}  // namespace

PipelineResult AuditAndReplay(const AppScript& script, ldv::storage::Database* db,
                              const ldv::AuditOptions& options, int replays,
                              uint64_t plain_fingerprint, bool trace,
                              const std::string& label, Report* report) {
  PipelineResult out;
  const std::string replay_dir = options.package_dir + "_replay";
  RunPipeline(script, db, options, replay_dir, replays, plain_fingerprint,
              trace, label, report, &out);
  for (int i = 0; i < replays; ++i) {
    LDV_CHECK_OK(ldv::RemoveAll(replay_dir + std::to_string(i)));
  }
  for (const std::string& dir : {options.package_dir, options.sandbox_root}) {
    LDV_CHECK_OK(ldv::RemoveAll(dir));
  }
  return out;
}

size_t SampleCount(const EndToEndSamples::Blocks& blocks) {
  size_t n = 0;
  for (const std::vector<double>& block : blocks) n += block.size();
  return n;
}

size_t EndToEndSamples::read_samples() const {
  size_t n = 0;
  for (const auto& [query, blocks] : read_ms) n += SampleCount(blocks);
  return n;
}

namespace {

/// The median over blocks of the `q` percentile within each block.
double BlockPercentile(const EndToEndSamples::Blocks& blocks, double q) {
  std::vector<double> per_block;
  for (const std::vector<double>& block : blocks) {
    if (!block.empty()) per_block.push_back(Percentile(block, q));
  }
  return Median(per_block);
}

}  // namespace

void EndToEndSamples::AddTo(Report* report, double tail) const {
  double read_p50 = 0;
  for (const auto& [query, blocks] : read_ms) {
    read_p50 += BlockPercentile(blocks, 0.5);
  }
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("plain_s", Median(plain_s), "s");
  report->Add("audit_s", Median(audit_s), "s");
  report->Add("package_mb", Median(package_mb), "MB");
  report->Add("replay_init_s", Median(replay_init_s), "s");
  report->Add("replay_s", Median(replay_s), "s");
  report->Add("qps", Median(qps), "1/s");
  report->Add("read_p50_ms", read_p50, "ms");
  report->Add("prov_p50_ms", BlockPercentile(prov_ms, 0.5), "ms");
  report->Add("prov_tail_ms", BlockPercentile(prov_ms, tail), "ms");
  report->Add("write_p50_ms", BlockPercentile(write_ms, 0.5), "ms");
  report->Add("write_tail_ms", BlockPercentile(write_ms, tail), "ms");
}

void PipelineSamples::Add(const PipelineResult& r) {
  for (int k = 0; k < kNumKinds; ++k) {
    for (double s : r.audit_log.latency_s[k]) audit_us[k].push_back(s * 1e6);
  }
  finalize_s.push_back(r.audit_s - r.audit_log.app_seconds);
  trace_nodes.push_back(static_cast<double>(r.audit.trace_nodes));
  trace_edges.push_back(static_cast<double>(r.audit.trace_edges));
  // Only server-included packages hold tuples.
  if (r.replay.mode == ldv::PackageMode::kServerIncluded) {
    tuples_persisted.push_back(static_cast<double>(r.audit.tuples_persisted));
    restored_tuples.push_back(static_cast<double>(r.replay.restored_tuples));
  }
  for (double s : r.replay_log.latency_s[kSelect]) {
    replay_select_us.push_back(s * 1e6);
  }
  serialize_us.push_back(r.serialize_us);
}

void PipelineSamples::AddTo(Report* report) const {
  report->Add("ldv.audit.insert_us", Median(audit_us[kInsert]), "us");
  report->Add("ldv.audit.select_us", Median(audit_us[kSelect]), "us");
  report->Add("ldv.audit.update_us", Median(audit_us[kUpdate]), "us");
  report->Add("ldv.audit.finalize_s", Median(finalize_s), "s");
  report->Add("ldv.audit.tuples_persisted", Median(tuples_persisted), "count");
  report->Add("ldv.audit.trace_nodes", Median(trace_nodes), "count");
  report->Add("ldv.audit.trace_edges", Median(trace_edges), "count");
  report->Add("ldv.replay.restored_tuples", Median(restored_tuples), "count");
  report->Add("ldv.replay.select_us", Median(replay_select_us), "us");
  report->Add("trace.serialize_us", Median(serialize_us), "us");
}

}  // namespace perfbench
