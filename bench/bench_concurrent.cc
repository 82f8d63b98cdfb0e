// Multi-client throughput benchmark for the MVCC concurrency subsystem
// (DESIGN.md §12): N socket clients hammer one DbServer and the clients-vs-
// QPS curve shows whether independent SELECTs actually execute concurrently.
//
// Morsel parallelism is pinned to dop 1 so every statement is serial and
// any scaling comes purely from inter-query parallelism — the quantity this
// benchmark isolates. Two workloads:
//   - read_only: all clients run the same aggregation query,
//   - mixed: one writer streams autocommit UPDATEs while the remaining
//     clients read (snapshot reads must keep flowing around the writer).
//
// Writes BENCH_CONCURRENT.json (path = argv[1], default
// LDV_BENCH_CONCURRENT_OUT, default "BENCH_CONCURRENT.json");
// tools/bench_smoke_check.py enforces the scaling gate: >= 3x read-only QPS
// at 8 clients vs 1 on boxes with >= 4 hardware threads, a loud SKIP plus a
// no-regression floor otherwise.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "net/db_client.h"
#include "net/db_server.h"
#include "storage/database.h"
#include "util/fsutil.h"
#include "util/thread_pool.h"

namespace {

using ldv::net::DbServer;
using ldv::net::DbServerOptions;
using ldv::net::EngineHandle;
using ldv::net::LocalDbClient;
using ldv::net::SocketDbClient;

constexpr int kRows = 20'000;
constexpr int64_t kRunNanos = 400'000'000;  // 400 ms per curve point

constexpr char kReadSql[] =
    "SELECT grp, count(*), sum(val) FROM wide WHERE val < 750 GROUP BY grp";

bool FillDatabase(LocalDbClient* client) {
  if (!client->Query("CREATE TABLE wide (id INT, grp INT, val INT)").ok()) {
    return false;
  }
  for (int base = 0; base < kRows; base += 500) {
    std::string sql = "INSERT INTO wide VALUES ";
    for (int i = base; i < base + 500; ++i) {
      if (i != base) sql += ",";
      sql += '(' + std::to_string(i) + "," + std::to_string(i % 97) + "," +
             std::to_string(i % 1000) + ")";
    }
    if (!client->Query(sql).ok()) return false;
  }
  return true;
}

/// Runs `clients` reader threads for kRunNanos; returns aggregate QPS.
double ReadOnlyQps(const std::string& socket_path, int clients) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> completed{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      auto client = SocketDbClient::Connect(socket_path);
      if (!client.ok()) {
        ++errors;
        return;
      }
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_acquire)) {
        if (!(*client)->Query(kReadSql).ok()) {
          ++errors;
          return;
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const int64_t start = ldv::NowNanos();
  go.store(true, std::memory_order_release);
  while (ldv::NowNanos() - start < kRunNanos) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  if (errors.load() != 0) {
    std::fprintf(stderr, "bench_concurrent: %d client error(s) at %d clients\n",
                 errors.load(), clients);
    std::exit(1);
  }
  const double seconds =
      static_cast<double>(ldv::NowNanos() - start) / 1e9;
  return static_cast<double>(completed.load()) / seconds;
}

struct MixedResult {
  double reads_per_sec = 0;
  double writes_per_sec = 0;
};

/// One autocommit writer + (clients - 1) readers for kRunNanos.
MixedResult MixedQps(const std::string& socket_path, int clients) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};
  std::atomic<int64_t> writes{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  threads.emplace_back([&] {
    auto client = SocketDbClient::Connect(socket_path);
    if (!client.ok()) {
      ++errors;
      return;
    }
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    int i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::string sql = "UPDATE wide SET val = val + 1 WHERE id = " +
                              std::to_string(i++ % kRows);
      if (!(*client)->Query(sql).ok()) {
        ++errors;
        return;
      }
      writes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int c = 1; c < clients; ++c) {
    threads.emplace_back([&] {
      auto client = SocketDbClient::Connect(socket_path);
      if (!client.ok()) {
        ++errors;
        return;
      }
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_acquire)) {
        if (!(*client)->Query(kReadSql).ok()) {
          ++errors;
          return;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const int64_t start = ldv::NowNanos();
  go.store(true, std::memory_order_release);
  while (ldv::NowNanos() - start < kRunNanos) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  if (errors.load() != 0) {
    std::fprintf(stderr, "bench_concurrent: %d client error(s) in mixed run\n",
                 errors.load());
    std::exit(1);
  }
  const double seconds =
      static_cast<double>(ldv::NowNanos() - start) / 1e9;
  MixedResult result;
  result.reads_per_sec = static_cast<double>(reads.load()) / seconds;
  result.writes_per_sec = static_cast<double>(writes.load()) / seconds;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_CONCURRENT.json";
  if (const char* env = std::getenv("LDV_BENCH_CONCURRENT_OUT")) out = env;
  if (argc > 1) out = argv[1];

  // Serial statements: the curve must measure inter-query parallelism, not
  // morsel fan-out.
  ldv::ThreadPool::SetDefaultDop(1);

  auto dir = ldv::MakeTempDir("bench_concurrent");
  if (!dir.ok()) {
    std::fprintf(stderr, "bench_concurrent: %s\n",
                 dir.status().ToString().c_str());
    return 1;
  }
  ldv::storage::Database db;
  EngineHandle engine(&db);
  LocalDbClient local(&engine);
  if (!FillDatabase(&local)) {
    std::fprintf(stderr, "bench_concurrent: database fill failed\n");
    return 1;
  }
  const std::string socket_path = *dir + "/bench.sock";
  DbServer server(&engine, socket_path, DbServerOptions{});
  ldv::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "bench_concurrent: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  ldv::Json read_only = ldv::Json::MakeObject();
  for (int clients : {1, 2, 4, 8}) {
    const double qps = ReadOnlyQps(socket_path, clients);
    std::printf("bench_concurrent: read_only clients=%d %.0f qps\n", clients,
                qps);
    read_only.Set("clients_" + std::to_string(clients),
                  ldv::Json::MakeDouble(qps));
  }
  const MixedResult mixed = MixedQps(socket_path, 8);
  std::printf("bench_concurrent: mixed clients=8 %.0f reads/s %.0f writes/s\n",
              mixed.reads_per_sec, mixed.writes_per_sec);

  server.Stop();
  (void)ldv::RemoveAll(*dir);

  ldv::Json mixed_doc = ldv::Json::MakeObject();
  mixed_doc.Set("clients", ldv::Json::MakeInt(8));
  mixed_doc.Set("reads_per_sec", ldv::Json::MakeDouble(mixed.reads_per_sec));
  mixed_doc.Set("writes_per_sec",
                ldv::Json::MakeDouble(mixed.writes_per_sec));
  ldv::Json doc = ldv::Json::MakeObject();
  doc.Set("hardware_threads",
          ldv::Json::MakeInt(std::thread::hardware_concurrency()));
  doc.Set("rows", ldv::Json::MakeInt(kRows));
  doc.Set("duration_ms", ldv::Json::MakeInt(kRunNanos / 1'000'000));
  doc.Set("read_only", std::move(read_only));
  doc.Set("mixed", std::move(mixed_doc));
  ldv::Status written = ldv::WriteStringToFile(out, doc.Dump(true) + "\n");
  if (!written.ok()) {
    std::fprintf(stderr, "bench_concurrent: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  std::printf("bench_concurrent: wrote %s\n", out.c_str());
  return 0;
}
