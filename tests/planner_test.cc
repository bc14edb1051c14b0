#include <gtest/gtest.h>

#include "ordb/database.h"
#include "xadt/functions.h"

namespace xorator::ordb {
namespace {

/// Plan-shape coverage: what the planner chooses under different schemas,
/// statistics and options.
class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open({});
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(xadt::RegisterXadtFunctions(db_->functions()).ok());
    ASSERT_TRUE(
        db_->Execute("CREATE TABLE big (id INTEGER, fk INTEGER, v VARCHAR)")
            .ok());
    ASSERT_TRUE(
        db_->Execute("CREATE TABLE small (id INTEGER, name VARCHAR)").ok());
    // 2000 rows in big (fk spreads over 100 groups), 100 in small.
    std::vector<Tuple> big_rows;
    for (int i = 0; i < 2000; ++i) {
      big_rows.push_back({Value::Int(i), Value::Int(i % 100),
                          Value::Varchar("value-" + std::to_string(i % 7))});
    }
    ASSERT_TRUE(db_->BulkInsert("big", big_rows).ok());
    std::vector<Tuple> small_rows;
    for (int i = 0; i < 100; ++i) {
      small_rows.push_back(
          {Value::Int(i), Value::Varchar("name-" + std::to_string(i))});
    }
    ASSERT_TRUE(db_->BulkInsert("small", small_rows).ok());
    ASSERT_TRUE(db_->RunStats().ok());
  }

  std::string Plan(const std::string& sql) {
    auto plan = db_->Explain(sql);
    EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    return plan.ok() ? *plan : "";
  }

  std::unique_ptr<Database> db_;
};

TEST_F(PlannerTest, FilterPushdownBelowJoin) {
  std::string plan = Plan(
      "SELECT v FROM big, small WHERE fk = small.id AND name = 'name-3'");
  // The name filter must sit below the join, directly over small's scan.
  size_t join = plan.find("Join");
  size_t filter = plan.find("Filter(small.name = 'name-3')");
  ASSERT_NE(join, std::string::npos) << plan;
  ASSERT_NE(filter, std::string::npos) << plan;
  EXPECT_GT(filter, join) << plan;
}

TEST_F(PlannerTest, IndexScanChosenForEqualityWithIndex) {
  ASSERT_TRUE(db_->Execute("CREATE INDEX i1 ON big (id)").ok());
  EXPECT_NE(Plan("SELECT v FROM big WHERE id = 7").find("IndexScan"),
            std::string::npos);
  // Non-equality predicates do not use the point index.
  EXPECT_EQ(Plan("SELECT v FROM big WHERE id > 7").find("IndexScan"),
            std::string::npos);
}

TEST_F(PlannerTest, IndexJoinRequiresSelectiveOuter) {
  ASSERT_TRUE(db_->Execute("CREATE INDEX i2 ON big (fk)").ok());
  ASSERT_TRUE(db_->RunStats().ok());
  // Selective outer (one small row) -> index NL join into big.
  std::string selective = Plan(
      "SELECT v FROM small, big WHERE small.id = big.fk "
      "AND name = 'name-3'");
  EXPECT_NE(selective.find("IndexNLJoin"), std::string::npos) << selective;
  // Unselective outer (all 2000 big rows probing small) -> hash join.
  ASSERT_TRUE(db_->Execute("CREATE INDEX i3 ON small (id)").ok());
  ASSERT_TRUE(db_->RunStats().ok());
  std::string unselective =
      Plan("SELECT v FROM big, small WHERE big.fk = small.id");
  EXPECT_EQ(unselective.find("IndexNLJoin"), std::string::npos)
      << unselective;
  EXPECT_NE(unselective.find("HashJoin"), std::string::npos) << unselective;
}

TEST_F(PlannerTest, SortMergeWhenBuildSideExceedsSortHeap) {
  db_->mutable_options()->planner.enable_index_join = false;
  db_->mutable_options()->planner.sort_heap_bytes = 1024;  // tiny
  std::string plan =
      Plan("SELECT v FROM big, small WHERE big.fk = small.id");
  EXPECT_NE(plan.find("SortMergeJoin"), std::string::npos) << plan;
}

TEST_F(PlannerTest, CrossProductUsesNestedLoop) {
  std::string plan = Plan("SELECT v FROM big, small");
  EXPECT_NE(plan.find("NestedLoopJoin"), std::string::npos) << plan;
}

TEST_F(PlannerTest, NonEquiJoinPredicateBecomesResidualFilter) {
  std::string plan =
      Plan("SELECT v FROM big, small WHERE big.fk < small.id");
  EXPECT_NE(plan.find("NestedLoopJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("big.fk < small.id"), std::string::npos) << plan;
}

TEST_F(PlannerTest, MultiKeyEquiJoin) {
  ASSERT_TRUE(
      db_->Execute("CREATE TABLE pairs (a INTEGER, b INTEGER)").ok());
  ASSERT_TRUE(db_->Execute("INSERT INTO pairs VALUES (1, 1), (2, 2)").ok());
  std::string plan = Plan(
      "SELECT v FROM big, pairs WHERE big.fk = pairs.a AND big.id = pairs.b");
  // Both keys land in one join.
  EXPECT_NE(plan.find(" = "), std::string::npos);
  auto r = db_->Query(
      "SELECT big.id FROM big, pairs WHERE big.fk = pairs.a "
      "AND big.id = pairs.b");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);  // rows 1 and 2 have id == fk
}

TEST_F(PlannerTest, AggregatePlacedAboveJoins) {
  std::string plan = Plan(
      "SELECT name, COUNT(*) AS n FROM small, big WHERE small.id = big.fk "
      "GROUP BY name");
  size_t agg = plan.find("Aggregate");
  size_t join = plan.find("Join");
  ASSERT_NE(agg, std::string::npos);
  ASSERT_NE(join, std::string::npos);
  EXPECT_LT(agg, join);
}

TEST_F(PlannerTest, DistinctAboveProjection) {
  std::string plan = Plan("SELECT DISTINCT v FROM big");
  size_t distinct = plan.find("Distinct");
  size_t project = plan.find("Project");
  ASSERT_NE(distinct, std::string::npos);
  ASSERT_NE(project, std::string::npos);
  EXPECT_LT(distinct, project);
}

TEST_F(PlannerTest, LateralFunctionArgsMustReferenceEarlierItems) {
  ASSERT_TRUE(db_->Execute("CREATE TABLE fx (x XADT)").ok());
  // Function argument referencing a *later* FROM item is rejected.
  auto bad = db_->Query(
      "SELECT u.out FROM table(unnest(fx.x, 'a')) u, fx");
  EXPECT_FALSE(bad.ok());
  // Proper order works.
  ASSERT_TRUE(db_->Execute("INSERT INTO fx VALUES ('<a>1</a>')").ok());
  auto good = db_->Query("SELECT u.out FROM fx, table(unnest(x, 'a')) u");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->rows.size(), 1u);
}

TEST_F(PlannerTest, StatsImproveSelectivityEstimates) {
  // Without an index on v (ndv = 7 over 2000 rows: unselective), a filter
  // on v still runs; with stats the estimate flows into join sizing.
  auto r = db_->Query("SELECT COUNT(*) AS n FROM big WHERE v = 'value-3'");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->rows[0][0].AsInt(), 200);
}

TEST_F(PlannerTest, OrderByMissingColumnRejected) {
  EXPECT_FALSE(db_->Query("SELECT v FROM big ORDER BY nosuch").ok());
}

TEST_F(PlannerTest, GroupByNonColumnAggregatesRejected) {
  EXPECT_FALSE(db_->Query("SELECT COUNT(*) FROM big GROUP BY COUNT(*)").ok());
}

TEST_F(PlannerTest, FromlessQueryRejected) {
  EXPECT_FALSE(db_->Query("SELECT 1").ok());
}

/// Name-resolution rules (DESIGN.md section 18): case-insensitive matching,
/// an unqualified name matches a column only after a '.' boundary, and a
/// name that matches two columns is ambiguous in WHERE and ORDER BY alike.
class NameResolutionTest : public PlannerTest {
 protected:
  void SetUp() override {
    PlannerTest::SetUp();
    ASSERT_TRUE(db_->Execute("CREATE TABLE emp (id INTEGER, deptid INTEGER, "
                             "name VARCHAR)")
                    .ok());
    ASSERT_TRUE(db_->Execute("INSERT INTO emp VALUES (1, 20, 'ann'), "
                             "(2, 10, 'bob'), (3, 30, 'cy')")
                    .ok());
    ASSERT_TRUE(
        db_->Execute("CREATE TABLE dept (id INTEGER, title VARCHAR)").ok());
    ASSERT_TRUE(db_->Execute("INSERT INTO dept VALUES (10, 'ops'), "
                             "(20, 'dev'), (30, 'qa')")
                    .ok());
    ASSERT_TRUE(db_->Execute("CREATE TABLE x (xid INTEGER)").ok());
    ASSERT_TRUE(db_->Execute("INSERT INTO x VALUES (7)").ok());
    ASSERT_TRUE(db_->Execute("CREATE TABLE fx (doc XADT)").ok());
    ASSERT_TRUE(
        db_->Execute("INSERT INTO fx VALUES ('<a>1</a><a>2</a>')").ok());
  }

  /// The first column of `sql`'s rows, as integers.
  std::vector<int64_t> Ints(const std::string& sql) {
    std::vector<int64_t> out;
    auto r = db_->Query(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (!r.ok()) return out;
    for (const Tuple& row : r->rows) out.push_back(row[0].AsInt());
    return out;
  }

  /// The status code `sql` fails with (kOk if it runs).
  StatusCode Code(const std::string& sql) {
    return db_->Query(sql).status().code();
  }
};

TEST_F(NameResolutionTest, MixedCaseNamesResolve) {
  EXPECT_EQ(Ints("SELECT EMP.ID FROM emp WHERE Emp.DeptId = 10"),
            std::vector<int64_t>{2});
  EXPECT_EQ(Ints("SELECT Id FROM emp WHERE NAME = 'cy'"),
            std::vector<int64_t>{3});
  EXPECT_EQ(Ints("SELECT e.id FROM emp E, dept d WHERE E.DEPTID = D.id "
                 "AND d.TITLE = 'dev'"),
            std::vector<int64_t>{1});
  EXPECT_EQ(Ints("SELECT Count(*) AS n FROM emp"), std::vector<int64_t>{3});
  EXPECT_EQ(Ints("SELECT MAX(id) AS m FROM emp"), std::vector<int64_t>{3});
}

TEST_F(NameResolutionTest, UnqualifiedNameMatchesOnlyAfterADot) {
  // `id` is a suffix of emp.deptid and x.xid, but not after a '.'.
  EXPECT_EQ(Ints("SELECT id FROM emp, x WHERE id = 2"),
            std::vector<int64_t>{2});
  EXPECT_EQ(Code("SELECT id FROM x"), StatusCode::kNotFound);
  EXPECT_EQ(Code("SELECT xid FROM x WHERE id = 7"), StatusCode::kNotFound);
}

TEST_F(NameResolutionTest, NameInTwoItemsIsAmbiguousButQualifiedFormsResolve) {
  auto select = db_->Query("SELECT id FROM emp, dept");
  EXPECT_EQ(select.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(select.status().message().find("ambiguous column 'id'"),
            std::string::npos)
      << select.status().ToString();
  EXPECT_EQ(Code("SELECT name FROM emp, dept WHERE id = 10"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Ints("SELECT emp.id FROM emp, dept WHERE emp.deptid = dept.id "
                 "AND dept.id = 30"),
            std::vector<int64_t>{3});
  EXPECT_EQ(Ints("SELECT dept.id FROM emp, dept WHERE emp.deptid = dept.id "
                 "AND emp.id = 1"),
            std::vector<int64_t>{20});
}

TEST_F(NameResolutionTest, UnknownColumnAndUnknownFunctionAreErrors) {
  auto column = db_->Query("SELECT salary FROM emp");
  EXPECT_EQ(column.status().code(), StatusCode::kNotFound);
  EXPECT_NE(column.status().message().find("unknown column 'salary'"),
            std::string::npos);
  EXPECT_EQ(Code("SELECT emp.salary FROM emp"), StatusCode::kNotFound);
  auto function = db_->Query("SELECT nosuchfn(name) FROM emp");
  EXPECT_EQ(function.status().code(), StatusCode::kNotFound);
  EXPECT_NE(function.status().message().find("unknown function 'nosuchfn'"),
            std::string::npos);
  EXPECT_EQ(Code("SELECT s.out FROM fx, table(nosuchfn(doc, 'a')) s"),
            StatusCode::kNotFound);
}

TEST_F(NameResolutionTest, TableFunctionOutputColumnsResolve) {
  auto r = db_->Query(
      "SELECT s.out FROM fx, table(unnest(fx.doc, 'a')) s "
      "WHERE S.OUT = '2'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "2");
  auto unqualified =
      db_->Query("SELECT out FROM fx, table(UNNEST(doc, 'a')) s");
  ASSERT_TRUE(unqualified.ok()) << unqualified.status().ToString();
  EXPECT_EQ(unqualified->rows.size(), 2u);
}

TEST_F(NameResolutionTest, UpperCaseUdfNameBinds) {
  EXPECT_EQ(Ints("SELECT FINDKEYINELM(doc, 'a', '2') FROM fx"),
            std::vector<int64_t>{1});
  EXPECT_EQ(Ints("SELECT COUNT(*) AS n FROM fx "
                 "WHERE FindKeyInElm(doc, 'A', '3') = 1"),
            std::vector<int64_t>{0});
}

TEST_F(NameResolutionTest, AmbiguousOrderByColumnRejected) {
  // Regression: ORDER BY used to take the first column whose suffix
  // matched, silently sorting by emp.id.
  auto r = db_->Query(
      "SELECT emp.id, dept.id FROM emp, dept WHERE emp.deptid = dept.id "
      "ORDER BY id");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("ambiguous ORDER BY column 'id'"),
            std::string::npos)
      << r.status().ToString();
  // Each qualified form still sorts by its own column.
  EXPECT_EQ(Ints("SELECT emp.id, dept.id FROM emp, dept "
                 "WHERE emp.deptid = dept.id ORDER BY dept.id"),
            (std::vector<int64_t>{2, 1, 3}));
  EXPECT_EQ(Ints("SELECT emp.id, dept.id FROM emp, dept "
                 "WHERE emp.deptid = dept.id ORDER BY EMP.ID DESC"),
            (std::vector<int64_t>{3, 2, 1}));
}

TEST_F(NameResolutionTest, OrderByExactSelectNameBeatsSuffixMatch) {
  // `id` names the second column exactly and suffix-matches the first;
  // the exact name wins.
  EXPECT_EQ(Ints("SELECT emp.id, deptid AS id FROM emp ORDER BY id"),
            (std::vector<int64_t>{2, 1, 3}));
  // A unique suffix match still works.
  EXPECT_EQ(Ints("SELECT emp.id FROM emp ORDER BY id DESC"),
            (std::vector<int64_t>{3, 2, 1}));
}

}  // namespace
}  // namespace xorator::ordb
