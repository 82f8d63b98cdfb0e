// Prepared statements and the shared plan cache (DESIGN.md §13): handle
// lifecycle, statement-text normalization, schema-version invalidation
// (DDL / COPY evict cached plans; a handle prepared before DDL replans),
// parameter-binding edge cases, and the interplay between EXECUTE and the
// server's (pid, qid) response-dedup cache.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/fault.h"
#include "exec/plan_cache.h"
#include "net/db_client.h"
#include "net/db_server.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "storage/database.h"
#include "util/fsutil.h"
#include "util/strings.h"

namespace ldv::net {
namespace {

using storage::Database;
using storage::Value;

Result<exec::ResultSet> Exec(EngineHandle* engine, const std::string& sql,
                             int64_t session = EngineHandle::kLocalSession) {
  DbRequest request;
  request.sql = sql;
  return engine->ExecuteSession(request, session);
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().counter(name)->Value();
}

class PreparedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<EngineHandle>(&db_);
    ASSERT_TRUE(Exec(engine_.get(), "CREATE TABLE t (id INT, val INT)").ok());
    ASSERT_TRUE(
        Exec(engine_.get(), "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
            .ok());
  }

  Database db_;
  std::unique_ptr<EngineHandle> engine_;
};

// ---------------------------------------------------------------------------
// Handle lifecycle
// ---------------------------------------------------------------------------

TEST_F(PreparedTest, PrepareExecuteDeallocateRoundTrip) {
  ASSERT_TRUE(
      Exec(engine_.get(), "PREPARE q AS SELECT val FROM t WHERE id = ?").ok());
  auto result = Exec(engine_.get(), "EXECUTE q (2)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt(), 20);
  ASSERT_TRUE(Exec(engine_.get(), "DEALLOCATE q").ok());
  EXPECT_FALSE(Exec(engine_.get(), "EXECUTE q (2)").ok());
}

TEST_F(PreparedTest, DuplicateNameIsRejectedAndNamesAreCaseInsensitive) {
  ASSERT_TRUE(Exec(engine_.get(), "PREPARE q AS SELECT 1").ok());
  Result<exec::ResultSet> dup =
      Exec(engine_.get(), "PREPARE Q AS SELECT 2");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  // EXECUTE resolves the name case-insensitively.
  EXPECT_TRUE(Exec(engine_.get(), "EXECUTE Q").ok());
  ASSERT_TRUE(Exec(engine_.get(), "DEALLOCATE PREPARE q").ok());
}

TEST_F(PreparedTest, DeallocateAllDropsEverySessionHandle) {
  ASSERT_TRUE(Exec(engine_.get(), "PREPARE a AS SELECT 1").ok());
  ASSERT_TRUE(Exec(engine_.get(), "PREPARE b AS SELECT 2").ok());
  ASSERT_TRUE(Exec(engine_.get(), "DEALLOCATE ALL").ok());
  EXPECT_FALSE(Exec(engine_.get(), "EXECUTE a").ok());
  EXPECT_FALSE(Exec(engine_.get(), "EXECUTE b").ok());
}

TEST_F(PreparedTest, HandlesAreSessionScoped) {
  ASSERT_TRUE(Exec(engine_.get(), "PREPARE q AS SELECT 1", 7).ok());
  Result<exec::ResultSet> other = Exec(engine_.get(), "EXECUTE q", 8);
  ASSERT_FALSE(other.ok());
  EXPECT_EQ(other.status().code(), StatusCode::kNotFound);
  // Session teardown drops the handles.
  engine_->AbortSession(7);
  EXPECT_FALSE(Exec(engine_.get(), "EXECUTE q", 7).ok());
}

TEST_F(PreparedTest, PrepareRejectsDdlAndExplainBodies) {
  EXPECT_FALSE(
      Exec(engine_.get(), "PREPARE d AS CREATE TABLE u (x INT)").ok());
  EXPECT_FALSE(Exec(engine_.get(), "PREPARE d AS DROP TABLE t").ok());
  EXPECT_FALSE(
      Exec(engine_.get(), "PREPARE e AS EXPLAIN SELECT * FROM t").ok());
}

TEST_F(PreparedTest, PreparedDmlWritesTheSubstitutedTextToTheWal) {
  auto dir = MakeTempDir("prepared_wal");
  ASSERT_TRUE(dir.ok());
  storage::WalOptions wal_options;
  wal_options.sync_mode = storage::WalSyncMode::kNone;
  auto wal = storage::Wal::Open(*dir, wal_options, 1);
  ASSERT_TRUE(wal.ok());
  engine_->AttachWal(std::move(*wal), EngineDurabilityOptions{});

  ASSERT_TRUE(
      Exec(engine_.get(), "PREPARE ins AS INSERT INTO t VALUES (?, ?)").ok());
  ASSERT_TRUE(Exec(engine_.get(), "EXECUTE ins (9, 90)").ok());
  ASSERT_TRUE(engine_->FlushWal().ok());

  // The logged statement is the rendered text with the values inlined — a
  // redo pass needs no parameter context.
  auto segments = storage::ListWalSegments(*dir);
  ASSERT_TRUE(segments.ok());
  bool found = false;
  for (const std::string& name : *segments) {
    auto bytes = ReadFileToString(JoinPath(*dir, name));
    if (bytes.ok() &&
        bytes->find("INSERT INTO t VALUES (9, 90)") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  (void)RemoveAll(*dir);
}

// ---------------------------------------------------------------------------
// Normalization & cache sharing
// ---------------------------------------------------------------------------

TEST(NormalizeTest, EquivalentTextsShareOneKey) {
  const std::string a = exec::NormalizeStatementText(
      "SELECT  id ,  val FROM t WHERE id < ?");
  const std::string b = exec::NormalizeStatementText(
      "select id, val from T where ID < $1");
  EXPECT_EQ(a, b);
  // String literals stay case-sensitive; identifiers do not.
  EXPECT_NE(exec::NormalizeStatementText("SELECT 'ABC'"),
            exec::NormalizeStatementText("SELECT 'abc'"));
  EXPECT_EQ(exec::NormalizeStatementText("SELECT X"),
            exec::NormalizeStatementText("select x"));
  // Distinct placeholders keep distinct positions.
  EXPECT_NE(exec::NormalizeStatementText("SELECT $1, $2"),
            exec::NormalizeStatementText("SELECT $2, $1"));
}

TEST_F(PreparedTest, EquivalentPreparesShareOnePlanCacheEntry) {
  exec::PlanCache& cache = exec::PlanCache::Global();
  const size_t entries_before = cache.entries();
  const int64_t hits_before = CounterValue("plan_cache.hit");
  ASSERT_TRUE(
      Exec(engine_.get(), "PREPARE a AS SELECT val FROM t WHERE id < ?", 1)
          .ok());
  ASSERT_TRUE(
      Exec(engine_.get(), "prepare b as select VAL from T where ID < $1", 2)
          .ok());
  EXPECT_EQ(cache.entries(), entries_before + 1);
  ASSERT_TRUE(Exec(engine_.get(), "EXECUTE a (3)", 1).ok());
  // The second session's first EXECUTE reuses the plan the first built.
  ASSERT_TRUE(Exec(engine_.get(), "EXECUTE b (3)", 2).ok());
  EXPECT_GT(CounterValue("plan_cache.hit"), hits_before);
}

TEST_F(PreparedTest, CapacityZeroDisablesCachingAndCapacityBoundsEntries) {
  exec::PlanCache& cache = exec::PlanCache::Global();
  cache.Clear();
  cache.set_capacity(0);
  ASSERT_TRUE(
      Exec(engine_.get(), "PREPARE q AS SELECT val FROM t WHERE id < ?").ok());
  ASSERT_TRUE(Exec(engine_.get(), "EXECUTE q (3)").ok());
  EXPECT_EQ(cache.entries(), 0u);
  ASSERT_TRUE(Exec(engine_.get(), "DEALLOCATE q").ok());

  cache.set_capacity(2);
  const int64_t evictions_before = CounterValue("plan_cache.evict");
  for (int i = 0; i < 4; ++i) {
    const std::string name = 'q' + std::to_string(i);
    ASSERT_TRUE(Exec(engine_.get(),
                     "PREPARE " + name + " AS SELECT val FROM t WHERE id < ? "
                     "AND val < " + std::to_string(100 + i))
                    .ok());
    ASSERT_TRUE(Exec(engine_.get(), "EXECUTE " + name + " (3)").ok());
  }
  EXPECT_LE(cache.entries(), 2u);
  EXPECT_GT(CounterValue("plan_cache.evict"), evictions_before);
  cache.set_capacity(256);
  cache.Clear();
}

// ---------------------------------------------------------------------------
// Invalidation: DDL / COPY bump the schema version
// ---------------------------------------------------------------------------

TEST_F(PreparedTest, HandlePreparedBeforeAlterReplansAndSeesTheNewColumn) {
  const int64_t stale_before = CounterValue("plan_cache.stale");
  ASSERT_TRUE(
      Exec(engine_.get(), "PREPARE q AS SELECT * FROM t WHERE id = ?").ok());
  auto before = Exec(engine_.get(), "EXECUTE q (1)");
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->rows[0].size(), 2u);

  ASSERT_TRUE(Exec(engine_.get(), "ALTER TABLE t ADD COLUMN extra INT").ok());
  auto after = Exec(engine_.get(), "EXECUTE q (1)");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  // The cached plan was built against the old catalog; the version bump
  // forced a replan, so SELECT * now yields the new column.
  ASSERT_EQ(after->rows[0].size(), 3u);
  EXPECT_GT(CounterValue("plan_cache.stale"), stale_before);
}

TEST_F(PreparedTest, CreateAndDropTableInvalidateAffectedPlans) {
  ASSERT_TRUE(
      Exec(engine_.get(), "PREPARE q AS SELECT val FROM t WHERE id = ?").ok());
  ASSERT_TRUE(Exec(engine_.get(), "EXECUTE q (1)").ok());
  // An unrelated CREATE TABLE bumps the version: the entry is restamped and
  // the EXECUTE still succeeds (replanned, not poisoned).
  ASSERT_TRUE(Exec(engine_.get(), "CREATE TABLE other (x INT)").ok());
  EXPECT_TRUE(Exec(engine_.get(), "EXECUTE q (1)").ok());
  // Dropping the referenced table: the replan fails loudly, not silently.
  ASSERT_TRUE(Exec(engine_.get(), "DROP TABLE t").ok());
  Result<exec::ResultSet> gone = Exec(engine_.get(), "EXECUTE q (1)");
  ASSERT_FALSE(gone.ok());
  EXPECT_NE(gone.status().message().find("t"), std::string::npos);
}

TEST_F(PreparedTest, CopyBumpsTheSchemaVersionAndNewRowsAreVisible) {
  auto dir = MakeTempDir("prepared_copy");
  ASSERT_TRUE(dir.ok());
  const std::string csv = JoinPath(*dir, "rows.csv");
  ASSERT_TRUE(WriteStringToFile(csv, "7,70\n8,80\n").ok());

  const uint64_t version_before = db_.schema_version();
  ASSERT_TRUE(
      Exec(engine_.get(), "PREPARE q AS SELECT count(*) FROM t WHERE val > ?")
          .ok());
  auto before = Exec(engine_.get(), "EXECUTE q (0)");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rows[0][0].AsInt(), 3);

  ASSERT_TRUE(Exec(engine_.get(), "COPY t FROM '" + csv + "'").ok());
  EXPECT_GT(db_.schema_version(), version_before);
  auto after = Exec(engine_.get(), "EXECUTE q (0)");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0][0].AsInt(), 5);
  (void)RemoveAll(*dir);
}

TEST_F(PreparedTest, StaleFaultPointForcesReplanning) {
  FaultInjector& injector = FaultInjector::Instance();
  ASSERT_TRUE(injector.ConfigureFromSpec("plancache.stale=p:1.0").ok());
  injector.Enable(1);
  const int64_t stale_before = CounterValue("plan_cache.stale");
  ASSERT_TRUE(
      Exec(engine_.get(), "PREPARE q AS SELECT val FROM t WHERE id = ?").ok());
  ASSERT_TRUE(Exec(engine_.get(), "EXECUTE q (1)").ok());
  ASSERT_TRUE(Exec(engine_.get(), "EXECUTE q (2)").ok());
  // Every lookup was forced down the stale path and replanned; results stay
  // correct throughout.
  EXPECT_GE(CounterValue("plan_cache.stale") - stale_before, 1);
  injector.Reset();
}

// ---------------------------------------------------------------------------
// Parameter-binding edges
// ---------------------------------------------------------------------------

TEST_F(PreparedTest, NullParameterBehavesLikeNullLiteral) {
  ASSERT_TRUE(
      Exec(engine_.get(), "PREPARE q AS SELECT count(*) FROM t WHERE id = ?")
          .ok());
  auto bound = Exec(engine_.get(), "EXECUTE q (NULL)");
  auto direct = Exec(engine_.get(), "SELECT count(*) FROM t WHERE id = NULL");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(bound->rows[0][0].AsInt(), direct->rows[0][0].AsInt());
}

TEST_F(PreparedTest, IntAndDoubleParametersCompareLikeLiterals) {
  ASSERT_TRUE(Exec(engine_.get(),
                   "PREPARE q AS SELECT count(*) FROM t WHERE val > ?")
                  .ok());
  auto via_int = Exec(engine_.get(), "EXECUTE q (15)");
  auto via_double = Exec(engine_.get(), "EXECUTE q (15.0)");
  ASSERT_TRUE(via_int.ok());
  ASSERT_TRUE(via_double.ok());
  EXPECT_EQ(via_int->rows[0][0].AsInt(), 2);
  EXPECT_EQ(via_double->rows[0][0].AsInt(), 2);
}

TEST_F(PreparedTest, StringParameterAgainstIntColumnFailsCleanly) {
  ASSERT_TRUE(
      Exec(engine_.get(), "PREPARE q AS SELECT count(*) FROM t WHERE val > ?")
          .ok());
  Result<exec::ResultSet> mismatch = Exec(engine_.get(), "EXECUTE q ('x')");
  Result<exec::ResultSet> direct =
      Exec(engine_.get(), "SELECT count(*) FROM t WHERE val > 'x'");
  // No silent coercion: the bound string fails exactly like the literal.
  EXPECT_EQ(mismatch.ok(), direct.ok());
}

TEST_F(PreparedTest, ArityMismatchIsRejected) {
  ASSERT_TRUE(Exec(engine_.get(),
                   "PREPARE q AS SELECT val FROM t WHERE id = ? AND val > ?")
                  .ok());
  Result<exec::ResultSet> too_few = Exec(engine_.get(), "EXECUTE q (1)");
  ASSERT_FALSE(too_few.ok());
  EXPECT_EQ(too_few.status().code(), StatusCode::kInvalidArgument);
  Result<exec::ResultSet> too_many = Exec(engine_.get(), "EXECUTE q (1, 2, 3)");
  ASSERT_FALSE(too_many.ok());
  EXPECT_TRUE(Exec(engine_.get(), "EXECUTE q (1, 15)").ok());
}

TEST_F(PreparedTest, ExecuteOfUnknownHandleReturnsNotFound) {
  Result<exec::ResultSet> unknown = Exec(engine_.get(), "EXECUTE nope (1)");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("nope"), std::string::npos);
}

TEST_F(PreparedTest, ExecuteArgumentsMustBeConstantExpressions) {
  ASSERT_TRUE(
      Exec(engine_.get(), "PREPARE q AS SELECT val FROM t WHERE id = ?").ok());
  // Arithmetic over constants is fine; a placeholder inside the argument
  // list is rejected by the parser.
  EXPECT_TRUE(Exec(engine_.get(), "EXECUTE q (1 + 1)").ok());
  EXPECT_FALSE(Exec(engine_.get(), "EXECUTE q (?)").ok());
  EXPECT_FALSE(Exec(engine_.get(), "EXECUTE q (val)").ok());
}

TEST_F(PreparedTest, ParameterInOrderByTakesTheSubstitutionPath) {
  // A bare placeholder as an ORDER BY item would be an ordinal when inlined
  // as a literal; the statement must behave exactly like its inlined form.
  ASSERT_TRUE(
      Exec(engine_.get(), "PREPARE q AS SELECT id, val FROM t ORDER BY ?")
          .ok());
  auto bound = Exec(engine_.get(), "EXECUTE q (2)");
  auto direct = Exec(engine_.get(), "SELECT id, val FROM t ORDER BY 2");
  ASSERT_EQ(bound.ok(), direct.ok());
  if (bound.ok()) {
    ASSERT_EQ(bound->rows.size(), direct->rows.size());
    for (size_t i = 0; i < bound->rows.size(); ++i) {
      EXPECT_EQ(bound->rows[i], direct->rows[i]);
    }
  }
}

TEST_F(PreparedTest, ExecuteInsideTransactionSeesUncommittedWrites) {
  ASSERT_TRUE(
      Exec(engine_.get(), "PREPARE q AS SELECT count(*) FROM t WHERE id > ?")
          .ok());
  ASSERT_TRUE(Exec(engine_.get(), "BEGIN").ok());
  ASSERT_TRUE(Exec(engine_.get(), "INSERT INTO t VALUES (99, 990)").ok());
  // In-transaction EXECUTE must not take the snapshot read path: the owner
  // sees its own uncommitted row.
  auto in_txn = Exec(engine_.get(), "EXECUTE q (0)");
  ASSERT_TRUE(in_txn.ok()) << in_txn.status().ToString();
  EXPECT_EQ(in_txn->rows[0][0].AsInt(), 4);
  ASSERT_TRUE(Exec(engine_.get(), "ROLLBACK").ok());
  auto after = Exec(engine_.get(), "EXECUTE q (0)");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0][0].AsInt(), 3);
}

// ---------------------------------------------------------------------------
// Protocol verbs + retry interplay with the response-dedup cache
// ---------------------------------------------------------------------------

class PreparedSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("prepared_socket");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { (void)RemoveAll(dir_); }

  std::string dir_;
};

TEST_F(PreparedSocketTest, ProtocolVerbsRoundTripOverTheSocket) {
  Database db;
  EngineHandle engine(&db);
  ASSERT_TRUE(Exec(&engine, "CREATE TABLE t (id INT, val INT)").ok());
  ASSERT_TRUE(Exec(&engine, "INSERT INTO t VALUES (1, 10), (2, 20)").ok());

  const std::string path = dir_ + "/db.sock";
  DbServer server(&engine, path, DbServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = SocketDbClient::Connect(path);
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(PrepareStatement(client->get(), "sel",
                               "SELECT val FROM t WHERE id = ?")
                  .ok());
  auto result = ExecutePrepared(client->get(), "sel", {Value::Int(2)});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt(), 20);
  ASSERT_TRUE(DeallocatePrepared(client->get(), "sel").ok());
  EXPECT_FALSE(ExecutePrepared(client->get(), "sel", {Value::Int(2)}).ok());
  server.Stop();
}

TEST_F(PreparedSocketTest, RetriedExecuteHitsTheDedupCache) {
  Database db;
  EngineHandle engine(&db);
  ASSERT_TRUE(Exec(&engine, "CREATE TABLE t (id INT)").ok());

  const std::string path = dir_ + "/db.sock";
  DbServerOptions options;
  options.dedup_capacity = 16;
  DbServer server(&engine, path, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = SocketDbClient::Connect(path);
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(
      PrepareStatement(client->get(), "ins", "INSERT INTO t VALUES (?)").ok());
  // Same (pid, qid): the retry is answered from the dedup cache with an
  // identical payload, and the insert happens exactly once.
  auto first =
      ExecutePrepared(client->get(), "ins", {Value::Int(1)}, /*process_id=*/5,
                      /*query_id=*/100);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->affected, 1);
  auto retry =
      ExecutePrepared(client->get(), "ins", {Value::Int(1)}, 5, 100);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->affected, first->affected);
  EXPECT_EQ(server.deduped_requests(), 1);

  // A different binding under the same pid with a fresh qid is NOT deduped
  // against the first — the parameters are folded into the dedup key, so it
  // executes (same handle, same shape, different values).
  auto other =
      ExecutePrepared(client->get(), "ins", {Value::Int(2)}, 5, 101);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(server.deduped_requests(), 1);

  auto count = Exec(&engine, "SELECT count(*) FROM t");
  server.Stop();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), 2);
}

TEST_F(PreparedSocketTest, ServerStatsExposePlanCacheMetrics) {
  Database db;
  EngineHandle engine(&db);
  ASSERT_TRUE(Exec(&engine, "CREATE TABLE t (id INT)").ok());
  ASSERT_TRUE(Exec(&engine, "INSERT INTO t VALUES (1)").ok());

  const std::string path = dir_ + "/db.sock";
  DbServer server(&engine, path, DbServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = SocketDbClient::Connect(path);
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(PrepareStatement(client->get(), "q",
                               "SELECT id FROM t WHERE id = ?")
                  .ok());
  ASSERT_TRUE(ExecutePrepared(client->get(), "q", {Value::Int(1)}).ok());
  ASSERT_TRUE(ExecutePrepared(client->get(), "q", {Value::Int(1)}).ok());

  auto stats = FetchServerStats(client->get());
  server.Stop();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const std::string dump = stats->Dump();
  EXPECT_NE(dump.find("plan_cache.entries"), std::string::npos);
  EXPECT_NE(dump.find("plan_cache.hit"), std::string::npos);
}

}  // namespace
}  // namespace ldv::net
