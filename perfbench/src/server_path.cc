// server_path: a DbServer on a Unix socket with an fdatasync WAL, driven by
// three closed-loop socket connections, followed by an audited application
// session over the same socket.

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "app_script.h"
#include "bench.h"
#include "common/logging.h"
#include "exec/wal_redo.h"
#include "net/db_server.h"
#include "oracle.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "util/fsutil.h"

namespace perfbench {

namespace {

constexpr int kConnections = 3;
/// Set-ups per run; setup_s is their median, the last one serves the run.
constexpr int kSetups = 5;
/// Segments (one audited session, then one closed-loop window) per run: at
/// least this many, then more until the run's time is up.
constexpr int kMinSegments = 3;
constexpr double kLoopWindowSeconds = 3.0;
/// Replays per session package: one takes about 0.02 s, so the replay
/// times are medians of fifteen.
constexpr int kSessionReplays = 15;
/// Fixed tail percentile of the closed loop's latencies, taken per window:
/// every kind has about 100 samples per window, so about ten lie beyond
/// it in each window.
constexpr double kTail = 0.9;

/// A running server over a freshly generated database.
struct Server {
  std::unique_ptr<ldv::storage::Database> db;
  std::unique_ptr<ldv::net::EngineHandle> engine;
  std::unique_ptr<ldv::net::DbServer> server;
  std::string wal_dir;
  std::string socket_path;
  double generate_s = 0;

  void Stop() {
    if (server != nullptr) server->Stop();
    server.reset();
  }
};

Server StartServer(const Config& config, int index) {
  Server s;
  s.db = GenerateTpch(config, &s.generate_s);
  s.wal_dir = config.workdir + "/wal" + std::to_string(index);
  s.socket_path = config.workdir + "/db" + std::to_string(index) + ".sock";
  ldv::storage::WalOptions wal_options;
  wal_options.sync_mode = ldv::storage::WalSyncMode::kFdatasync;
  auto wal = ldv::storage::Wal::Open(s.wal_dir, wal_options, 1);
  LDV_CHECK_OK(wal.status());
  s.engine = std::make_unique<ldv::net::EngineHandle>(s.db.get());
  s.engine->AttachWal(std::move(*wal), {});
  s.server = std::make_unique<ldv::net::DbServer>(s.engine.get(), s.socket_path);
  LDV_CHECK_OK(s.server->Start());
  return s;
}

std::string ReadSql(int64_t custkey) {
  return "SELECT count(*), sum(o_totalprice) FROM orders WHERE o_custkey = " +
         std::to_string(custkey);
}
std::string ProvSql(int64_t orderkey) {
  return "PROVENANCE SELECT * FROM orders WHERE o_orderkey = " +
         std::to_string(orderkey);
}

/// The four statements of one cycle: two aggregate reads, one
/// reenactment-shaped provenance read, one autocommit UPDATE.
void AppendCycle(const Oracle& oracle, InputRng* rng, int64_t prov_lo,
                 int64_t prov_hi, int64_t upd_lo, int64_t upd_hi,
                 const std::string& comment, AppScript* script) {
  for (int r = 0; r < 2; ++r) {
    const int64_t custkey = rng->Uniform(1, oracle.num_customers());
    const Oracle::CustomerOrders expect = oracle.OrdersOf(custkey);
    Stmt read{kSelect, ReadSql(custkey)};
    read.custkey = custkey;
    read.expect_count = expect.count;
    read.expect_sum = expect.sum;
    script->stmts.push_back(read);
  }
  const int64_t prov_key = rng->Uniform(prov_lo, prov_hi);
  Stmt prov{kSelect, ProvSql(prov_key)};
  prov.expect_rowid = oracle.OrderRowId(prov_key);
  script->stmts.push_back(prov);
  const int64_t key = rng->Uniform(upd_lo, upd_hi);
  script->stmts.push_back({kUpdate, UpdateCommentSql(key, comment)});
  script->update_keys.push_back(key);
  script->final_comment[key] = comment;
}

/// Audited session `index`: a few inserts and the cycle's statement shapes,
/// as one application. Each session is a different application (its own
/// keys and comments): the server's at-most-once cache answers a request
/// that repeats an earlier one's (process id, query id, text) from the cache,
/// and every audit numbers its statements from the same ids. The session's
/// UPDATEs own the last quarter's lower half; its provenance reads the upper
/// half, which nothing updates.
AppScript MakeSession(const Config& config, const Oracle& oracle, int index) {
  const int64_t n = oracle.num_orders();
  InputRng rng(config.seed * 104729 + static_cast<uint64_t>(index));
  AppScript session;
  for (int i = 0; i < 10; ++i) {
    // Customer key 0 belongs to no customer, so the aggregate reads'
    // answers stay those of the generated data.
    session.stmts.push_back(
        {kInsert, InsertOrderSql(n + 100 * index + i + 1, 0,
                                 rng.Uniform(1000, 400000))});
  }
  const int64_t base = 3 * n / 4;
  for (int i = 0; i < 20; ++i) {
    AppendCycle(oracle, &rng, base + n / 8 + 1, n, base + 1, base + n / 8,
                "session " + std::to_string(index) + " " + std::to_string(i),
                &session);
  }
  return session;
}

/// What one closed-loop connection did.
struct ConnLog {
  std::vector<double> read_ms, prov_ms, write_ms;
  int64_t statements = 0;
  int64_t writes_acked = 0;
  std::map<int64_t, std::string> last_comment;
};

/// One closed-loop connection: whole cycles until `deadline`. It owns the
/// UPDATE key range [lo, hi]; its provenance reads span every generated key.
void ClosedLoop(const Config& config, const Oracle& oracle,
                const std::string& socket_path, int conn, int64_t lo,
                int64_t hi, double deadline, ConnLog* log, Report* report) {
  auto client = ldv::net::SocketDbClient::Connect(socket_path);
  if (!client.ok()) {
    report->Fail("connect: " + client.status().ToString());
    return;
  }
  InputRng rng(config.seed * 7919 + static_cast<uint64_t>(conn));
  for (int64_t cycle = 0; NowSeconds() < deadline; ++cycle) {
    AppScript script;
    AppendCycle(oracle, &rng, 1, oracle.num_orders(), lo, hi,
                "c" + std::to_string(conn) + " n" + std::to_string(cycle),
                &script);
    for (const Stmt& stmt : script.stmts) {
      const bool prov = stmt.expect_rowid >= 0;
      const char* kind = stmt.kind == kUpdate ? "loop.update"
                         : prov               ? "loop.prov_select"
                                              : "loop.select";
      const int64_t t0 = NowNanos();
      ldv::Result<ldv::exec::ResultSet> result(ldv::Status::Internal(""));
      {
        Tracer::Span span("net.socket.execute");
        result = (*client)->Query(stmt.sql);
      }
      const double ms = static_cast<double>(NowNanos() - t0) * 1e-6;
      report->CountOp(kind, result.ok());
      if (!result.ok()) {
        report->Fail(std::string(kind) + ": " + result.status().ToString());
        return;
      }
      ++log->statements;
      if (stmt.kind == kUpdate) {
        log->write_ms.push_back(ms);
        ++log->writes_acked;
        log->last_comment[script.update_keys.back()] =
            script.final_comment.begin()->second;
        continue;
      }
      CountSelectIssued();
      (prov ? log->prov_ms : log->read_ms).push_back(ms);
      CheckAnswer(stmt, *result, Phase::kPlain, report);
    }
  }
}

}  // namespace

void RunServerPath(const Config& config, Report* report) {
  EndToEndSamples e2e;
  PipelineSamples pipeline;
  std::vector<double> generate_s;
  Server server;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) {
      server.Stop();
      LDV_CHECK_OK(ldv::RemoveAll(server.wal_dir));
    }
    const double t0 = NowSeconds();
    server = StartServer(config, i);
    e2e.setup_s.push_back(NowSeconds() - t0);
    generate_s.push_back(server.generate_s);
  }
  const Oracle oracle(*server.db);
  const int64_t n = oracle.num_orders();
  const auto before = ldv::obs::MetricsRegistry::Global().Snapshot();

  // The run is a sequence of whole segments until its time is up: one
  // audited session, then a closed-loop window. Spreading both over the run
  // keeps a slow spell of the machine from landing on one metric alone.
  // The traced run traces every second segment; the others are its
  // untraced reference.
  std::vector<ConnLog> logs(kConnections);
  std::vector<double> traced_qps;
  int64_t session_writes = 0;
  std::map<int64_t, std::string> session_comments;
  const double run_start = NowSeconds();
  int segments = 0;
  for (; segments < kMinSegments || NowSeconds() - run_start < config.seconds;
       ++segments) {
    const bool traced = config.trace && segments % 2 == 1;
    Tracer::Global().set_enabled(traced);

    // --- Audited session: one application over the socket, run plain,
    // audited server-included, and replayed. ---
    const std::string cell =
        config.workdir + "/session" + std::to_string(segments);
    const AppScript session = MakeSession(config, oracle, segments);
    for (const auto& [key, comment] : session.final_comment) {
      session_comments[key] = comment;
    }
    AppLog plain_log;
    {
      auto client = ldv::net::SocketDbClient::Connect(server.socket_path);
      LDV_CHECK_OK(client.status());
      LDV_CHECK_OK(ldv::MakeDirs(cell + "_plain"));
      PlainEnv env(cell + "_plain", client->get());
      ldv::AppFn app = MakeApp(session, Phase::kPlain, &plain_log, report);
      RotateCpu();
      const double t0 = NowSeconds();
      ldv::Status status = app(env);
      e2e.plain_s.push_back(NowSeconds() - t0);
      report->Expect(status.ok(), "session plain: " + status.ToString());
      LDV_CHECK_OK(ldv::RemoveAll(cell + "_plain"));
    }
    ldv::AuditOptions options;
    options.mode = ldv::PackageMode::kServerIncluded;
    options.package_dir = cell + "_pkg";
    options.sandbox_root = cell + "_sandbox";
    options.db_socket_path = server.socket_path;
    PipelineResult r =
        AuditAndReplay(session, server.db.get(), options, kSessionReplays,
                       plain_log.fingerprint, config.trace, "session", report);
    for (const AppLog* log : {&plain_log, &r.audit_log}) {
      session_writes += static_cast<int64_t>(log->latency_s[kInsert].size() +
                                             log->latency_s[kUpdate].size());
    }
    e2e.audit_s.push_back(r.audit_s);
    e2e.package_mb.push_back(static_cast<double>(r.package_bytes) / 1e6);
    e2e.replay_init_s.push_back(r.replay_init_s);
    e2e.replay_s.push_back(r.replay_s);
    if (r.ok) {
      // Packaged: the orders each aggregate read counted, the rows the
      // provenance reads returned, and the rows the UPDATEs matched.
      std::set<int64_t> rows;
      for (const Stmt& stmt : session.stmts) {
        if (stmt.expect_rowid >= 0) rows.insert(stmt.expect_rowid);
        if (stmt.custkey < 0) continue;
        for (int64_t rowid : oracle.OrderRowIdsOf(stmt.custkey)) {
          rows.insert(rowid);
        }
      }
      for (int64_t key : session.update_keys) {
        rows.insert(oracle.OrderRowId(key));
      }
      report->Expect(
          r.audit.tuples_persisted == static_cast<int64_t>(rows.size()),
          "session: tuples_persisted " +
              std::to_string(r.audit.tuples_persisted) + ", oracle " +
              std::to_string(rows.size()));
    }
    if (r.ok && config.trace) pipeline.Add(r);

    // --- Closed loop: three connections, each owning a quarter of the
    // keys, for one window. ---
    // The connections' threads may use every CPU.
    UnpinCpu();
    std::vector<ConnLog> part(kConnections);
    const double start = NowSeconds();
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back(ClosedLoop, std::cref(config), std::cref(oracle),
                           server.socket_path, c, c * n / 4 + 1,
                           (c + 1) * n / 4, start + kLoopWindowSeconds,
                           &part[c], report);
    }
    for (std::thread& t : threads) t.join();
    const double elapsed = NowSeconds() - start;
    int64_t statements = 0;
    std::vector<double> reads, provs, writes;  // this window's block
    for (int c = 0; c < kConnections; ++c) {
      statements += part[c].statements;
      Append(&reads, part[c].read_ms);
      Append(&provs, part[c].prov_ms);
      Append(&writes, part[c].write_ms);
      ConnLog& log = logs[c];
      log.writes_acked += part[c].writes_acked;
      for (const auto& [key, comment] : part[c].last_comment) {
        log.last_comment[key] = comment;
      }
    }
    (traced ? traced_qps : e2e.qps)
        .push_back(static_cast<double>(statements) / elapsed);
    e2e.read_ms["aggregate"].push_back(std::move(reads));
    e2e.prov_ms.push_back(std::move(provs));
    e2e.write_ms.push_back(std::move(writes));
  }
  Tracer::Global().set_enabled(false);
  server.Stop();
  const auto after = ldv::obs::MetricsRegistry::Global().Snapshot();

  // --- Checks after the run. ---
  int64_t loop_writes = 0;
  std::map<int64_t, std::string> expected;
  for (int64_t key = 1; key <= n; ++key) expected[key] = oracle.OriginalComment(key);
  for (const ConnLog& log : logs) {
    loop_writes += log.writes_acked;
    for (const auto& [key, comment] : log.last_comment) expected[key] = comment;
  }
  for (const auto& [key, comment] : session_comments) expected[key] = comment;
  const std::map<int64_t, std::string> live = Comments(*server.db);
  for (const auto& [key, comment] : expected) {
    auto it = live.find(key);
    if (it == live.end() || it->second != comment) {
      report->Fail("order " + std::to_string(key) +
                   " does not hold the last comment its owner wrote");
      break;
    }
  }
  const int64_t commits = CounterDelta(before, after, "wal.commits");
  report->Expect(commits == loop_writes + session_writes,
                 "wal.commits moved by " + std::to_string(commits) + ", " +
                     std::to_string(loop_writes + session_writes) +
                     " writes acknowledged");
  {
    auto recovered = GenerateTpch(config);
    ldv::storage::RecoveryStats stats;
    ldv::Status status = ldv::storage::RecoverDatabase(
        recovered.get(), "", server.wal_dir,
        ldv::exec::MakeWalRedo(recovered.get()), &stats);
    report->Expect(status.ok(), "recovery: " + status.ToString());
    report->Expect(Comments(*recovered) == live,
                   "recovered o_comment values differ from the server's");
  }

  std::printf("workload loop reads=%zu prov=%zu writes=%zu segments=%d tail=p%g\n",
              e2e.read_samples(), SampleCount(e2e.prov_ms),
              SampleCount(e2e.write_ms),
              segments, kTail * 100);

  if (!config.trace) {
    e2e.AddTo(report, kTail);
    return;
  }
  report->Add("tpch.generate_s", Median(generate_s), "s");
  pipeline.AddTo(report);
  report->Add("trace.overhead_pct",
              (Median(e2e.qps) / Median(traced_qps) - 1.0) * 100.0, "%");
}

}  // namespace perfbench
