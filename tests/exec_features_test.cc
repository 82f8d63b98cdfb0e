#include <gtest/gtest.h>

#include <functional>

#include "common/clock.h"
#include "exec/executor.h"
#include "obs/profile.h"
#include "storage/database.h"

namespace ldv::exec {
namespace {

using storage::Database;
using storage::Value;

/// Tests for the engine extensions: LEFT JOIN, uncorrelated subqueries,
/// EXISTS, and hash indexes.
class ExecFeaturesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    exec_ = std::make_unique<Executor>(&db_);
    Run("CREATE TABLE dept (id INT, name TEXT)");
    Run("INSERT INTO dept VALUES (1, 'eng'), (2, 'ops'), (3, 'empty')");
    Run("CREATE TABLE emp (id INT, dept_id INT, salary INT)");
    Run("INSERT INTO emp VALUES (10, 1, 100), (11, 1, 120), (12, 2, 90)");
  }

  ResultSet Run(const std::string& sql) {
    auto result = exec_->Execute(sql, {});
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(result).value() : ResultSet{};
  }

  Database db_;
  std::unique_ptr<Executor> exec_;
};

TEST_F(ExecFeaturesTest, LeftJoinPadsUnmatchedRows) {
  ResultSet r = Run(
      "SELECT d.name, e.salary FROM dept d LEFT JOIN emp e "
      "ON d.id = e.dept_id ORDER BY d.name, e.salary");
  ASSERT_EQ(r.rows.size(), 4u);  // eng x2, ops x1, empty padded
  EXPECT_EQ(r.rows[0][0].AsString(), "empty");
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_EQ(r.rows[1][0].AsString(), "eng");
  EXPECT_EQ(r.rows[3][0].AsString(), "ops");
}

TEST_F(ExecFeaturesTest, LeftJoinWhereAppliesAfterPadding) {
  // WHERE on the right side filters padded rows (NULL never qualifies).
  ResultSet with_where = Run(
      "SELECT d.name FROM dept d LEFT JOIN emp e ON d.id = e.dept_id "
      "WHERE e.salary > 95");
  EXPECT_EQ(with_where.rows.size(), 2u);  // eng's two employees over 95
  // IS NULL finds the unmatched rows — the anti-join idiom.
  ResultSet anti = Run(
      "SELECT d.name FROM dept d LEFT JOIN emp e ON d.id = e.dept_id "
      "WHERE e.salary IS NULL");
  ASSERT_EQ(anti.rows.size(), 1u);
  EXPECT_EQ(anti.rows[0][0].AsString(), "empty");
}

TEST_F(ExecFeaturesTest, LeftJoinWithResidualOnCondition) {
  // Non-equi ON residual decides matching, not post-filtering.
  ResultSet r = Run(
      "SELECT d.id AS did, e.id AS eid FROM dept d LEFT JOIN emp e "
      "ON d.id = e.dept_id AND e.salary > 100 ORDER BY did");
  // eng matches only emp 11 (salary 120); ops/empty padded.
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].AsInt(), 11);
  EXPECT_TRUE(r.rows[1][1].is_null());
  EXPECT_TRUE(r.rows[2][1].is_null());
}

TEST_F(ExecFeaturesTest, LeftJoinLineageOfPaddedRowIsLeftOnly) {
  db_.FindTable("dept")->set_provenance_tracking(true);
  db_.FindTable("emp")->set_provenance_tracking(true);
  ResultSet r = Run(
      "PROVENANCE SELECT d.name, e.salary FROM dept d LEFT JOIN emp e "
      "ON d.id = e.dept_id ORDER BY d.name");
  ASSERT_EQ(r.rows.size(), 4u);
  // Row 0 is 'empty' (padded): lineage = the dept tuple only.
  EXPECT_EQ(r.lineage[0].size(), 1u);
  // Matched rows carry both sides.
  EXPECT_EQ(r.lineage[1].size(), 2u);
}

TEST_F(ExecFeaturesTest, ScalarSubquery) {
  ResultSet r = Run(
      "SELECT id FROM emp WHERE salary = (SELECT max(salary) FROM emp)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 11);
  // Empty scalar subquery yields NULL (matches nothing).
  EXPECT_EQ(Run("SELECT id FROM emp WHERE salary = "
                "(SELECT salary FROM emp WHERE id = 999)")
                .rows.size(),
            0u);
  // Multi-row scalar subquery is an error.
  auto bad = exec_->Execute(
      "SELECT id FROM emp WHERE salary = (SELECT salary FROM emp)", {});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecFeaturesTest, InSubquery) {
  ResultSet r = Run(
      "SELECT name FROM dept WHERE id IN (SELECT dept_id FROM emp) "
      "ORDER BY name");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "eng");
  EXPECT_EQ(r.rows[1][0].AsString(), "ops");
  ResultSet negated = Run(
      "SELECT name FROM dept WHERE id NOT IN (SELECT dept_id FROM emp)");
  ASSERT_EQ(negated.rows.size(), 1u);
  EXPECT_EQ(negated.rows[0][0].AsString(), "empty");
}

TEST_F(ExecFeaturesTest, ExistsSubquery) {
  EXPECT_EQ(Run("SELECT name FROM dept WHERE EXISTS "
                "(SELECT 1 FROM emp WHERE salary > 110)")
                .rows.size(),
            3u);  // uncorrelated EXISTS is true for every row
  EXPECT_EQ(Run("SELECT name FROM dept WHERE EXISTS "
                "(SELECT 1 FROM emp WHERE salary > 999)")
                .rows.size(),
            0u);
  EXPECT_EQ(Run("SELECT name FROM dept WHERE NOT EXISTS "
                "(SELECT 1 FROM emp WHERE salary > 999)")
                .rows.size(),
            3u);
}

TEST_F(ExecFeaturesTest, CorrelatedSubqueryIsRejectedCleanly) {
  auto result = exec_->Execute(
      "SELECT name FROM dept d WHERE EXISTS "
      "(SELECT 1 FROM emp e WHERE e.dept_id = d.id)",
      {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound)
      << result.status().ToString();  // d.id unknown inside the subquery
}

TEST_F(ExecFeaturesTest, SubqueryLineageIsAmbient) {
  db_.FindTable("dept")->set_provenance_tracking(true);
  db_.FindTable("emp")->set_provenance_tracking(true);
  ResultSet r = Run(
      "PROVENANCE SELECT id FROM emp WHERE salary = "
      "(SELECT max(salary) FROM emp)");
  ASSERT_EQ(r.rows.size(), 1u);
  // The result row depends on its own tuple AND on every tuple the subquery
  // aggregated over (conservative ambient lineage).
  EXPECT_EQ(r.lineage[0].size(), 3u);
  EXPECT_EQ(r.prov_tuples.size(), 3u);
}

TEST_F(ExecFeaturesTest, SubqueryInUpdateWhere) {
  Run("UPDATE emp SET salary = salary + 1 WHERE dept_id IN "
      "(SELECT id FROM dept WHERE name = 'eng')");
  EXPECT_EQ(Run("SELECT sum(salary) FROM emp").rows[0][0].AsInt(),
            100 + 120 + 2 + 90);
  // Salaries are now 101, 121, 90 (avg 104): the delete removes 101 and 90.
  Run("DELETE FROM emp WHERE salary < (SELECT avg(salary) FROM emp)");
  EXPECT_EQ(Run("SELECT count(*) FROM emp").rows[0][0].AsInt(), 1);
}

class IndexTest : public ExecFeaturesTest {};

TEST_F(IndexTest, CreateIndexAndLookup) {
  Run("CREATE INDEX idx_emp_dept ON emp (dept_id)");
  storage::Table* emp = db_.FindTable("emp");
  int col = emp->schema().IndexOf("dept_id");
  EXPECT_TRUE(emp->HasIndexOn(col));
  EXPECT_EQ(emp->IndexLookup(col, Value::Int(1)).size(), 2u);
  EXPECT_EQ(emp->IndexLookup(col, Value::Int(9)).size(), 0u);
  // NULL probes never match.
  EXPECT_TRUE(emp->IndexLookup(col, Value::Null()).empty());

  EXPECT_FALSE(
      exec_->Execute("CREATE INDEX idx_emp_dept ON emp (dept_id)", {}).ok());
  Run("CREATE INDEX IF NOT EXISTS idx_emp_dept ON emp (dept_id)");
  EXPECT_FALSE(exec_->Execute("CREATE INDEX i ON emp (nope)", {}).ok());
  EXPECT_FALSE(exec_->Execute("CREATE INDEX i ON nope (x)", {}).ok());
}

TEST_F(IndexTest, IndexStaysConsistentAcrossDml) {
  Run("CREATE INDEX idx ON emp (dept_id)");
  storage::Table* emp = db_.FindTable("emp");
  int col = emp->schema().IndexOf("dept_id");
  Run("INSERT INTO emp VALUES (13, 1, 70)");
  EXPECT_EQ(emp->IndexLookup(col, Value::Int(1)).size(), 3u);
  Run("UPDATE emp SET dept_id = 2 WHERE id = 10");
  EXPECT_EQ(emp->IndexLookup(col, Value::Int(1)).size(), 2u);
  EXPECT_EQ(emp->IndexLookup(col, Value::Int(2)).size(), 2u);
  Run("DELETE FROM emp WHERE dept_id = 2");
  EXPECT_TRUE(emp->IndexLookup(col, Value::Int(2)).empty());
}

TEST_F(IndexTest, IndexedQueriesMatchScans) {
  // Same query with and without index must agree (including row order).
  const std::string query = "SELECT id, salary FROM emp WHERE dept_id = 1";
  ResultSet before = Run(query);
  Run("CREATE INDEX idx ON emp (dept_id)");
  ResultSet after = Run(query);
  EXPECT_EQ(before.Fingerprint(), after.Fingerprint());
  // And with provenance: lineage via the probe equals lineage via the scan.
  db_.FindTable("emp")->set_provenance_tracking(true);
  ResultSet prov = Run("PROVENANCE " + query);
  ASSERT_EQ(prov.rows.size(), 2u);
  EXPECT_EQ(prov.lineage[0].size(), 1u);
  EXPECT_EQ(prov.prov_tuples.size(), 2u);
}

TEST_F(IndexTest, UpdatesUseTheIndexFastPath) {
  Run("CREATE INDEX idx ON emp (id)");
  // Correctness of the indexed reenactment path.
  Run("UPDATE emp SET salary = 999 WHERE id = 11");
  EXPECT_EQ(Run("SELECT salary FROM emp WHERE id = 11").rows[0][0].AsInt(),
            999);
  Run("DELETE FROM emp WHERE id = 10");
  EXPECT_EQ(Run("SELECT count(*) FROM emp").rows[0][0].AsInt(), 2);
}

TEST_F(IndexTest, IndexProbeSpeedsUpPointLookups) {
  // Build a larger table and compare wall time scan vs probe. Generous
  // threshold: the probe must be at least 3x faster at 20k rows.
  Run("CREATE TABLE big (k INT, v INT)");
  std::string values;
  for (int i = 0; i < 20000; ++i) {
    if (i > 0) values += ",";
    values += '(' + std::to_string(i) + "," + std::to_string(i * 3) + ")";
  }
  Run("INSERT INTO big VALUES " + values);
  const std::string query = "SELECT v FROM big WHERE k = 19999";
  WallTimer timer;
  for (int i = 0; i < 50; ++i) Run(query);
  double scan_seconds = timer.Seconds();
  Run("CREATE INDEX idx_big ON big (k)");
  timer.Restart();
  for (int i = 0; i < 50; ++i) Run(query);
  double probe_seconds = timer.Seconds();
  EXPECT_LT(probe_seconds * 3, scan_seconds)
      << "scan=" << scan_seconds << " probe=" << probe_seconds;
}

TEST_F(ExecFeaturesTest, ExplainAnalyzeReportsPerOperatorStats) {
  Run("CREATE TABLE loc (dept_id INT, city TEXT)");
  Run("INSERT INTO loc VALUES (1, 'nyc'), (2, 'sfo')");
  ResultSet r = Run(
      "EXPLAIN ANALYZE SELECT d.name, COUNT(e.id), SUM(e.salary) "
      "FROM emp e JOIN dept d ON e.dept_id = d.id "
      "JOIN loc l ON l.dept_id = d.id "
      "GROUP BY d.name ORDER BY d.name");

  // Rendered plan: a single "QUERY PLAN" text column, one line per operator.
  ASSERT_EQ(r.schema.num_columns(), 1);
  EXPECT_EQ(r.schema.column(0).name, "QUERY PLAN");
  ASSERT_FALSE(r.rows.empty());
  std::string rendered;
  for (const auto& row : r.rows) rendered += row[0].AsString() + "\n";
  EXPECT_NE(rendered.find("rows="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("time="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("Total:"), std::string::npos) << rendered;

  // Structured profile: the 3-way join + GROUP BY plan with real row counts.
  ASSERT_NE(r.profile, nullptr);
  EXPECT_EQ(r.profile->rows_returned, 2);  // groups: eng, ops
  int scans = 0, joins = 0, aggregates = 0;
  int64_t join_build_nanos = 0;
  std::function<void(const obs::OperatorProfile&)> walk =
      [&](const obs::OperatorProfile& op) {
        EXPECT_EQ(op.invocations, 1) << op.label;
        EXPECT_GE(op.wall_nanos, 0) << op.label;
        if (op.label == "Scan") {
          ++scans;
          EXPECT_GT(op.rows_out, 0) << op.detail;
        } else if (op.label == "HashJoin") {
          ++joins;
          join_build_nanos += op.build_nanos;
        } else if (op.label == "Aggregate") {
          ++aggregates;
          EXPECT_EQ(op.rows_out, 2);
        }
        for (const obs::OperatorProfile& child : op.children) walk(child);
      };
  walk(r.profile->root);
  EXPECT_EQ(scans, 3);
  EXPECT_EQ(joins, 2);
  EXPECT_EQ(aggregates, 1);
  EXPECT_GE(join_build_nanos, 0);
}

TEST_F(ExecFeaturesTest, PlainExplainOmitsRuntimeColumns) {
  ResultSet r = Run(
      "EXPLAIN SELECT d.name, e.salary FROM dept d JOIN emp e "
      "ON d.id = e.dept_id WHERE e.salary > 95");
  ASSERT_FALSE(r.rows.empty());
  EXPECT_EQ(r.profile, nullptr);  // plans only; nothing executed
  for (const auto& row : r.rows) {
    const std::string line = row[0].AsString();
    EXPECT_EQ(line.find("rows="), std::string::npos) << line;
    EXPECT_EQ(line.find("time="), std::string::npos) << line;
  }
  // The join and both scans still appear in the rendered plan.
  std::string rendered;
  for (const auto& row : r.rows) rendered += row[0].AsString() + "\n";
  EXPECT_NE(rendered.find("HashJoin"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("Scan"), std::string::npos) << rendered;
}

}  // namespace
}  // namespace ldv::exec
