#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/executor.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "util/rng.h"

namespace ldv::exec {
namespace {

using storage::Database;
using storage::RowVersion;
using storage::Table;
using storage::Tuple;
using storage::TupleVid;
using storage::Value;
using storage::ValueType;

constexpr int kRows = 5000;  // three morsels

/// What a naive loop over Table::rows() says a WHERE clause matches: the
/// live versions it keeps, in storage order, or the first evaluation error.
struct NaiveMatch {
  Status error;
  std::vector<RowVersion> matched;
};

/// The reference matcher: binds `where` against m's columns plus the prov_*
/// pseudo-columns and evaluates it row by row with the row evaluator.
NaiveMatch MatchNaively(const Table& table, const std::string& where) {
  NaiveMatch out;
  auto parsed = sql::Parse("SELECT * FROM m WHERE " + where);
  EXPECT_TRUE(parsed.ok()) << where;
  Scope scope;
  for (const storage::Column& c : table.schema().columns()) {
    scope.Add({"m", c.name, c.type, /*hidden=*/false});
  }
  for (std::string_view prov :
       {storage::kProvRowIdColumn, storage::kProvVersionColumn,
        storage::kProvUsedByColumn, storage::kProvProcessColumn}) {
    scope.Add({"m", std::string(prov), ValueType::kInt64, /*hidden=*/true});
  }
  auto bound = BindExpr(*parsed->select->where, scope);
  EXPECT_TRUE(bound.ok()) << where;
  for (const RowVersion& row : table.rows()) {
    if (row.deleted) continue;
    Tuple values = row.values;
    values.push_back(Value::Int(row.rowid));
    values.push_back(Value::Int(row.version));
    values.push_back(Value::Int(row.used_by_query));
    values.push_back(Value::Int(row.used_by_process));
    Result<Value> keep = EvalExpr(**bound, values);
    if (!keep.ok()) {
      out.error = keep.status();
      out.matched.clear();
      return out;
    }
    if (keep->IsTruthy()) out.matched.push_back(row);
  }
  return out;
}

/// Random table m (id, k, d, s) with NULLs in k, d and s, a hash index on
/// k, versions spread over several statements, prov_usedby stamps on every
/// third row, and one deviant-typed cell (an INT in the DOUBLE column d)
/// that forces the scan's strict-typing row fallback whenever it is read.
void FillTable(Database* db, Executor* exec, uint64_t seed) {
  ASSERT_TRUE(
      exec->Execute("CREATE TABLE m (id INT, k INT, d DOUBLE, s TEXT)", {})
          .ok());
  ASSERT_TRUE(exec->Execute("CREATE INDEX m_k ON m (k)", {}).ok());
  Rng rng(seed);
  std::string insert;
  for (int i = 0; i < kRows; ++i) {
    if (i == kRows / 2) {
      Table* m = db->FindTable("m");
      ASSERT_TRUE(m->Insert({Value::Int(i), Value::Int(7), Value::Int(7),
                             Value::Str("s7")},
                            db->NextStatementSeq())
                      .ok());
      continue;
    }
    insert += insert.empty() ? "INSERT INTO m VALUES " : ", ";
    const std::string k =
        rng.Uniform(0, 9) == 0 ? "NULL" : std::to_string(rng.Uniform(0, 40));
    const std::string d = rng.Uniform(0, 7) == 0
                              ? "NULL"
                              : std::to_string(rng.Uniform(-99, 99)) + ".5";
    const std::string s = rng.Uniform(0, 8) == 0
                              ? "NULL"
                              : "'s" + std::to_string(rng.Uniform(0, 9)) + "'";
    insert += '(' + std::to_string(i) + ", " + k + ", " + d + ", " + s + ")";
    if (rng.Uniform(0, 400) == 0 || i + 1 == kRows) {
      ASSERT_TRUE(exec->Execute(insert, {}).ok());
      insert.clear();
    }
  }
  ExecOptions stamp;
  stamp.query_id = 5;
  stamp.process_id = 9;
  ASSERT_TRUE(
      exec->Execute("PROVENANCE SELECT id FROM m WHERE id % 3 = 0", stamp)
          .ok());
  db->FindTable("m")->set_provenance_tracking(true);
}

std::string RandomAtom(Rng& rng, int64_t max_seq) {
  auto num = [&rng](int64_t lo, int64_t hi) {
    return std::to_string(rng.Uniform(lo, hi));
  };
  switch (rng.Uniform(0, 11)) {
    case 0:
      return "id < " + num(0, kRows);
    case 1:
      return "k = " + num(0, 40);  // hash-index probe
    case 2:
      return "d > " + num(-99, 99) + ".25";
    case 3:
      return "d IS NULL";
    case 4:
      return "s = 's" + num(0, 9) + "'";
    case 5:
      return "s IS NOT NULL";
    case 6:
      return "prov_rowid % 7 = " + num(0, 6);
    case 7:
      return "prov_v >= " + num(1, max_seq);
    case 8:
      return rng.Uniform(0, 1) == 0 ? "prov_usedby = 5" : "prov_p <> 9";
    case 9:
      return "k BETWEEN " + num(0, 20) + " AND " + num(20, 40);
    case 10:
      return "s IN ('s1', 's4', 's7')";
    default:
      return "NOT (id % 3 = 1)";
  }
}

/// A random WHERE clause. One in four is "cold": it contains an atom the
/// columnar kernels cannot evaluate (function calls), some of which fail at
/// runtime on the first non-NULL cell (string arithmetic, % on doubles).
/// Cold clauses never carry an index probe, so every row is visited.
std::string RandomWhere(Rng& rng, int64_t max_seq) {
  if (rng.Uniform(0, 3) == 0) {
    static const char* const kCold[] = {"UPPER(s) = 'S3'", "LENGTH(s) > 1",
                                        "s + 1 > 0", "d % 2 = 0"};
    std::string cold = kCold[rng.Uniform(0, 3)];
    if (rng.Uniform(0, 1) == 0) return cold;
    return "(" + cold + (rng.Uniform(0, 1) == 0 ? " AND " : " OR ") +
           "id < " + std::to_string(rng.Uniform(0, kRows)) + ")";
  }
  std::string where = RandomAtom(rng, max_seq);
  for (int64_t terms = rng.Uniform(0, 2); terms > 0; --terms) {
    where = "(" + where + (rng.Uniform(0, 1) == 0 ? " AND " : " OR ") +
            RandomAtom(rng, max_seq) + ")";
  }
  return where;
}

std::string Vid(const TupleVid& v) { return v.ToString(); }

/// Checks one UPDATE/DELETE result against the naive match: the same rows
/// in the same order, with DmlRecords and prov tuples naming exactly the
/// matched pre-state versions.
void ExpectMatches(const Result<ResultSet>& got, const NaiveMatch& want,
                   bool is_update, const Table& table, int64_t stmt_seq,
                   const std::string& what) {
  if (!want.error.ok()) {
    ASSERT_FALSE(got.ok()) << what;
    EXPECT_EQ(got.status().ToString(), want.error.ToString()) << what;
    return;
  }
  ASSERT_TRUE(got.ok()) << what << " -> " << got.status().ToString();
  ASSERT_EQ(got->affected, static_cast<int64_t>(want.matched.size())) << what;
  ASSERT_EQ(got->dml.size(), want.matched.size()) << what;
  ASSERT_EQ(got->prov_tuples.size(), want.matched.size()) << what;
  for (size_t i = 0; i < want.matched.size(); ++i) {
    const RowVersion& row = want.matched[i];
    const TupleVid prior{table.id(), row.rowid, row.version};
    const DmlRecord& rec = got->dml[i];
    EXPECT_EQ(rec.kind, is_update ? DmlRecord::Kind::kUpdated
                                  : DmlRecord::Kind::kDeleted)
        << what;
    EXPECT_EQ(rec.table, "m") << what;
    EXPECT_TRUE(rec.has_prior) << what;
    EXPECT_EQ(Vid(rec.prior), Vid(prior)) << what << " record " << i;
    EXPECT_EQ(Vid(rec.vid),
              Vid(is_update ? TupleVid{table.id(), row.rowid, stmt_seq}
                            : prior))
        << what << " record " << i;
    EXPECT_EQ(Vid(got->prov_tuples[i].vid), Vid(prior))
        << what << " prov tuple " << i;
    EXPECT_EQ(got->prov_tuples[i].values, row.values)
        << what << " prov tuple " << i;
  }
}

/// UPDATE and DELETE match through the columnar scan at dop 1 and 4: the
/// matched rows, DmlRecords, prov tuples and their order are exactly what a
/// naive loop over Table::rows() selects, and a failing predicate fails
/// with the same error. The databases evolve under a random statement
/// sequence, so later statements see updated versions, tombstones and
/// re-stamped rows.
TEST(DmlMatchTest, UpdateAndDeleteMatchTheNaiveLoopAtAnyDop) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Database dbs[2];
    std::unique_ptr<Executor> execs[2];
    const int dops[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      execs[i] = std::make_unique<Executor>(&dbs[i]);
      FillTable(&dbs[i], execs[i].get(), seed);
    }
    Rng rng(seed * 7919);
    for (int stmt = 0; stmt < 30; ++stmt) {
      const int64_t max_seq = dbs[0].current_statement_seq();
      const std::string where = RandomWhere(rng, max_seq);
      const bool is_update = rng.Uniform(0, 2) != 0;
      static const char* const kSets[] = {"s = 'u'", "k = k + 1",
                                          "d = d * 2"};
      const std::string sql =
          is_update ? "PROVENANCE UPDATE m SET " +
                          std::string(kSets[rng.Uniform(0, 2)]) + " WHERE " +
                          where
                    : "PROVENANCE DELETE FROM m WHERE " + where +
                          " AND id % 8 = " + std::to_string(stmt % 8);
      const std::string naive_where =
          is_update ? where
                    : "(" + where + ") AND id % 8 = " + std::to_string(stmt % 8);
      for (int i = 0; i < 2; ++i) {
        const Table& table = *dbs[i].FindTable("m");
        const NaiveMatch want = MatchNaively(table, naive_where);
        const int64_t stmt_seq = dbs[i].current_statement_seq() + 1;
        ExecOptions options;
        options.threads = dops[i];
        ExpectMatches(execs[i]->Execute(sql, options), want, is_update, table,
                      stmt_seq,
                      "seed " + std::to_string(seed) + " dop " +
                          std::to_string(dops[i]) + ": " + sql);
      }
    }
    // Both databases went through the same states.
    const auto& a = dbs[0].FindTable("m")->rows();
    const auto& b = dbs[1].FindTable("m")->rows();
    ASSERT_EQ(a.size(), b.size());
    for (size_t r = 0; r < a.size(); ++r) {
      EXPECT_EQ(a[r].values, b[r].values) << "seed " << seed << " row " << r;
      EXPECT_EQ(a[r].version, b[r].version) << "seed " << seed;
      EXPECT_EQ(a[r].deleted, b[r].deleted) << "seed " << seed;
    }
  }
}

/// The filter-first scan extracts a non-filter column only for the rows the
/// filter keeps, so a deviant-typed cell in a row the filter drops no
/// longer forces the row fallback — and the result stays identical to the
/// row engine's. A deviant cell the scan does read still falls back.
TEST(DmlMatchTest, DeviantCellOutsideTheSelectionStaysColumnar) {
  Database db;
  Executor exec(&db);
  FillTable(&db, &exec, 11);
  obs::Counter* fallbacks =
      obs::MetricsRegistry::Global().counter("exec.vectorized.fallbacks");
  auto run = [&exec](const std::string& sql, int threads, int vectorize) {
    ExecOptions options;
    options.threads = threads;
    options.vectorize = vectorize;
    auto r = exec.Execute(sql, options);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : ResultSet{};
  };
  // Row kRows / 2 holds the deviant cell in d.
  const std::string skips_deviant =
      "SELECT id, k, d, s FROM m WHERE id % 5 = 1 AND s IS NOT NULL";
  const std::string reads_deviant = "SELECT id, d FROM m WHERE id % 100 = 0";
  for (int threads : {1, 4}) {
    const ResultSet reference = run(skips_deviant, threads, -1);
    const int64_t before = fallbacks->Value();
    const ResultSet columnar = run(skips_deviant, threads, 1);
    EXPECT_EQ(fallbacks->Value(), before) << "threads " << threads;
    EXPECT_EQ(columnar.rows, reference.rows) << "threads " << threads;
    EXPECT_EQ(columnar.Fingerprint(), reference.Fingerprint());

    const ResultSet read_reference = run(reads_deviant, threads, -1);
    const int64_t before_read = fallbacks->Value();
    const ResultSet read_columnar = run(reads_deviant, threads, 1);
    EXPECT_GT(fallbacks->Value(), before_read) << "threads " << threads;
    EXPECT_EQ(read_columnar.rows, read_reference.rows);
    bool saw_deviant = false;
    for (const Tuple& row : read_columnar.rows) {
      saw_deviant |= row[0].AsInt() == kRows / 2;
    }
    EXPECT_TRUE(saw_deviant);
  }
}

}  // namespace
}  // namespace ldv::exec
