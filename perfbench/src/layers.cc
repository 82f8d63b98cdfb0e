// Per-layer metrics of the traced run: each layer's public functions timed on
// a private copy of the generated database, and deltas of the counters the
// program exports.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "app_script.h"
#include "bench.h"
#include "common/logging.h"
#include "exec/executor.h"
#include "net/db_server.h"
#include "net/protocol.h"
#include "sql/parser.h"
#include "storage/wal.h"
#include "tpch/queries.h"
#include "util/fsutil.h"

namespace perfbench {

namespace {

/// Median wall time of `reps` calls of `fn`, in microseconds. Every call
/// must succeed; a failure marks the run incorrect.
double TimeMicros(const char* span_name, int reps,
                  const std::function<ldv::Status()>& fn, Report* report) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNanos();
    ldv::Status status;
    {
      Tracer::Span span(span_name);
      status = fn();
    }
    us.push_back(static_cast<double>(NowNanos() - t0) * 1e-3);
    report->CountOp(std::string("probe.") + span_name, status.ok());
    if (!status.ok()) {
      report->Fail(std::string(span_name) + ": " + status.ToString());
      break;
    }
  }
  return Median(us);
}

const ldv::obs::MetricsSnapshot::HistogramData* Hist(
    const ldv::obs::MetricsSnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? nullptr : &it->second;
}

/// Median of a histogram's observations between two snapshots, linearly
/// interpolated inside the bucket that holds it.
double HistogramDeltaMedian(const ldv::obs::MetricsSnapshot& before,
                            const ldv::obs::MetricsSnapshot& after,
                            const std::string& name) {
  const auto* a = Hist(after, name);
  if (a == nullptr) return 0;
  const auto* b = Hist(before, name);
  std::vector<int64_t> counts = a->counts;
  if (b != nullptr && b->counts.size() == counts.size()) {
    for (size_t i = 0; i < counts.size(); ++i) counts[i] -= b->counts[i];
  }
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) return 0;
  const double half = static_cast<double>(total) / 2;
  double seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (seen + static_cast<double>(counts[i]) < half) {
      seen += static_cast<double>(counts[i]);
      continue;
    }
    const double lo = i == 0 ? 0 : static_cast<double>(a->bounds[i - 1]);
    const double hi = i < a->bounds.size() ? static_cast<double>(a->bounds[i])
                                           : lo * 2;
    return lo + (hi - lo) * (half - seen) / static_cast<double>(counts[i]);
  }
  return 0;
}

}  // namespace

void AddCounterMetrics(const ldv::obs::MetricsSnapshot& before,
                       const ldv::obs::MetricsSnapshot& after, Report* report) {
  auto delta = [&](const std::string& name) {
    return static_cast<double>(CounterDelta(before, after, name));
  };
  auto hist_delta = [&](const std::string& name, bool sum) {
    const auto* a = Hist(after, name);
    const auto* b = Hist(before, name);
    int64_t av = a == nullptr ? 0 : (sum ? a->sum : a->total_count);
    int64_t bv = b == nullptr ? 0 : (sum ? b->sum : b->total_count);
    return static_cast<double>(av - bv);
  };
  report->Add("exec.vectorized.batches", delta("exec.vectorized.batches"),
              "count");
  report->Add("exec.vectorized.fallbacks", delta("exec.vectorized.fallbacks"),
              "count");
  const double statements = hist_delta("engine.statement_micros", false);
  report->Add("txn.lock_wait_us",
              statements > 0
                  ? hist_delta("txn.lock_wait_micros", true) / statements
                  : 0,
              "us");
  report->Add("txn.lock_contentions", delta("txn.lock_contentions"), "count");
  report->Add("engine.concurrent_read_ratio",
              SelectsIssued() > 0 ? delta("engine.concurrent_reads") /
                                        static_cast<double>(SelectsIssued())
                                  : 0,
              "ratio");
  report->Add("storage.wal.commits", delta("wal.commits"), "count");
  report->Add("storage.wal.syncs", delta("wal.syncs"), "count");
  report->Add("storage.wal.piggybacked_syncs", delta("wal.piggybacked_syncs"),
              "count");
  report->Add("storage.wal.append_bytes", delta("wal.append_bytes"), "B");
  report->Add("server.request_us.p50",
              HistogramDeltaMedian(before, after,
                                   "server.request_latency_micros"),
              "us");
}

void RunLayerProbes(const Config& config, Report* report) {
  Tracer::Global().set_enabled(true);
  std::unique_ptr<ldv::storage::Database> owned = GenerateTpch(config);
  ldv::storage::Database& db = *owned;
  const int64_t key = static_cast<int64_t>(config.seed % 1000) + 1;
  const std::string read_sql =
      "SELECT count(*), sum(o_totalprice) FROM orders WHERE o_custkey = " +
      std::to_string(key);
  const std::string prov_sql =
      "PROVENANCE SELECT * FROM orders WHERE o_orderkey = " +
      std::to_string(key);
  const std::string update_sql = UpdateCommentSql(key, "perfbench probe");
  const char* kQueries[] = {"Q1-1", "Q1-5", "Q2-4", "Q3-4", "Q4-5"};

  // --- sql: the parser on the workloads' statement texts. ---
  std::vector<std::string> selects = {read_sql, prov_sql};
  for (const char* qid : kQueries) selects.push_back(ldv::tpch::FindQuery(qid)->sql);
  std::vector<double> parse_select;
  for (const std::string& sql : selects) {
    parse_select.push_back(TimeMicros(
        "sql.parse", 200,
        [&] { return ldv::sql::Parse(sql).status(); }, report));
  }
  report->Add("sql.parse_us.select", Median(parse_select), "us");
  report->Add("sql.parse_us.update",
              TimeMicros(
                  "sql.parse", 200,
                  [&] { return ldv::sql::Parse(update_sql).status(); }, report),
              "us");

  // --- exec: the executor called directly. ---
  {
    ldv::exec::Executor executor(&db);
    ldv::exec::ExecOptions options;
    auto run = [&](const std::string& sql) {
      return [&executor, &options, sql] {
        return executor.Execute(sql, options).status();
      };
    };
    for (const char* qid : kQueries) {
      const std::string sql = ldv::tpch::FindQuery(qid)->sql;
      report->Add(std::string("exec.select_us.") + qid,
                  TimeMicros("exec.execute", 5, run(sql), report), "us");
      report->Add(std::string("exec.prov_select_us.") + qid,
                  TimeMicros("exec.execute", 3, run("PROVENANCE " + sql),
                             report),
                  "us");
    }
    report->Add("exec.update_us",
                TimeMicros("exec.execute", 20, run(update_sql), report), "us");
    report->Add("exec.reenact_us",
                TimeMicros("exec.execute", 20, run(prov_sql), report), "us");
    report->Add("exec.read_us",
                TimeMicros("exec.execute", 50, run(read_sql), report), "us");

    auto q24 = executor.Execute(ldv::tpch::FindQuery("Q2-4")->sql, options);
    report->Expect(q24.ok(), "Q2-4: " + q24.status().ToString());
    if (q24.ok()) {
      report->Add("net.encode_response_us.Q2-4",
                  TimeMicros(
                      "net.encode_response", 5,
                      [&] {
                        std::string frame =
                            ldv::net::EncodeResponse(ldv::Status::Ok(), *q24);
                        return frame.empty() ? ldv::Status::Internal("empty")
                                             : ldv::Status::Ok();
                      },
                      report),
                  "us");
    }
  }

  // --- net: the engine handle with one caller, then the same read over a
  // socket connection to a server on that engine. ---
  {
    ldv::net::EngineHandle engine(&db);
    auto local = [&](const std::string& sql) {
      return [&engine, sql] {
        if (sql.rfind("UPDATE", 0) != 0) CountSelectIssued();
        ldv::net::DbRequest request;
        request.sql = sql;
        return engine.Execute(request).status();
      };
    };
    report->Add("net.local_us.read",
                TimeMicros("net.local.execute", 50, local(read_sql), report),
                "us");
    report->Add("net.local_us.prov",
                TimeMicros("net.local.execute", 20, local(prov_sql), report),
                "us");
    report->Add("net.local_us.write",
                TimeMicros("net.local.execute", 20, local(update_sql), report),
                "us");
    ldv::net::DbServer server(&engine, config.workdir + "/probe.sock");
    LDV_CHECK_OK(server.Start());
    {
      auto client = ldv::net::SocketDbClient::Connect(server.socket_path());
      LDV_CHECK_OK(client.status());
      report->Add("net.socket_us.read",
                  TimeMicros(
                      "net.socket.execute", 50,
                      [&] {
                        CountSelectIssued();
                        return (*client)->Query(read_sql).status();
                      },
                      report),
                  "us");
    }
    server.Stop();
  }

  // --- storage: one commit group appended and synced, fdatasync mode. ---
  {
    ldv::storage::WalOptions options;
    options.sync_mode = ldv::storage::WalSyncMode::kFdatasync;
    auto wal = ldv::storage::Wal::Open(config.workdir + "/probe_wal", options, 1);
    LDV_CHECK_OK(wal.status());
    int64_t txn = 0;
    report->Add("storage.wal.sync_us",
                TimeMicros(
                    "storage.wal.commit", 50,
                    [&]() -> ldv::Status {
                      LDV_ASSIGN_OR_RETURN(
                          uint64_t lsn,
                          (*wal)->AppendCommit(++txn, {{txn, update_sql}}));
                      return (*wal)->Sync(lsn);
                    },
                    report),
                "us");
  }
  Tracer::Global().set_enabled(false);
}

}  // namespace perfbench
