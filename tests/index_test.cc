#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "benchutil/fixture.h"
#include "benchutil/workload.h"
#include "common/str_util.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "ordb/bptree.h"
#include "ordb/database.h"

namespace xorator {
namespace {

using ordb::Database;
using ordb::DbOptions;
using ordb::IndexInfo;
using ordb::IndexKey;
using ordb::IntIndexKey;
using ordb::QueryResult;
using ordb::TableSchema;
using ordb::Tuple;
using ordb::TypeId;
using ordb::Value;

/// Coverage for the one index path: the key rule (IndexKey), the entry
/// maintenance behind BulkInsert / DELETE / CreateIndex, the index access
/// paths measured against the scan and hash-join route, and the advisor's
/// index sets on the paper fixtures.

// ------------------------------------------------------------ the key rule

TEST(IndexKeyTest, IntegerIndexKeepsOrderForIntegralProbes) {
  EXPECT_EQ(IndexKey(TypeId::kInteger, Value::Int(-7)), IntIndexKey(-7));
  EXPECT_EQ(IndexKey(TypeId::kInteger, Value::Double(3.0)), IntIndexKey(3));
  EXPECT_EQ(IndexKey(TypeId::kInteger, Value::Double(-0.0)), IntIndexKey(0));
  EXPECT_EQ(IndexKey(TypeId::kInteger, Value::Bool(true)), IntIndexKey(1));
  // No INTEGER row equals a fraction, an out-of-range double, a string or
  // NULL.
  EXPECT_EQ(IndexKey(TypeId::kInteger, Value::Double(2.5)), std::nullopt);
  EXPECT_EQ(IndexKey(TypeId::kInteger, Value::Double(1e300)), std::nullopt);
  EXPECT_EQ(IndexKey(TypeId::kInteger,
                     Value::Double(std::numeric_limits<double>::infinity())),
            std::nullopt);
  EXPECT_EQ(IndexKey(TypeId::kInteger, Value::Varchar("1")), std::nullopt);
  EXPECT_EQ(IndexKey(TypeId::kInteger, Value::Null()), std::nullopt);
}

TEST(IndexKeyTest, HashedKeysAgreeWithEquals) {
  // VARCHAR keys are the plain string hash, as in every earlier file.
  EXPECT_EQ(IndexKey(TypeId::kVarchar, Value::Varchar("speech")),
            Hash64("speech"));
  EXPECT_EQ(IndexKey(TypeId::kVarchar, Value::Varchar("")), Hash64(""));
  // Numeric values that Equals calls equal share a key, whatever their
  // type, in DOUBLE and BOOLEAN indexes alike.
  for (TypeId key_type : {TypeId::kDouble, TypeId::kBoolean}) {
    EXPECT_EQ(IndexKey(key_type, Value::Double(3.0)),
              IndexKey(key_type, Value::Int(3)));
    EXPECT_EQ(IndexKey(key_type, Value::Bool(true)),
              IndexKey(key_type, Value::Double(1.0)));
    EXPECT_EQ(IndexKey(key_type, Value::Bool(false)),
              IndexKey(key_type, Value::Int(0)));
    EXPECT_EQ(IndexKey(key_type, Value::Double(-0.0)),
              IndexKey(key_type, Value::Double(0.0)));
    EXPECT_NE(IndexKey(key_type, Value::Double(2.5)),
              IndexKey(key_type, Value::Double(3.5)));
    EXPECT_EQ(IndexKey(key_type, Value::Null()), std::nullopt);
  }
}

// ------------------------------------------- index route against scan route

std::unique_ptr<Database> Open(const std::string& path = "") {
  DbOptions options;
  options.path = path;
  auto db = Database::Open(options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? std::move(*db) : nullptr;
}

/// Every row of `r`, rendered and sorted, so answers compare as multisets.
std::vector<std::string> Rows(const QueryResult& r) {
  std::vector<std::string> out;
  for (const Tuple& row : r.rows) {
    std::string line;
    for (const Value& v : row) line.append(v.ToString()).append("|");
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

constexpr const char* kColumns[] = {"i", "d", "b", "s"};

void IndexEveryColumn(Database* db) {
  for (const char* col : kColumns) {
    ASSERT_TRUE(db->CreateIndex("t", col).ok()) << col;
  }
}

/// Table t(id, i INTEGER, d DOUBLE, b BOOLEAN, s VARCHAR) with duplicates
/// and NULLs in every column, and one small probe table per key type for
/// the joins, each holding a NULL. Values stay inside Value::Compare's
/// contract: numbers meet numbers, strings meet strings. With
/// `index_first`, t's columns are indexed before its rows arrive, so
/// BulkInsert files the entries.
void Populate(Database* db, bool index_first = false) {
  TableSchema t;
  t.columns = {{"id", TypeId::kInteger},
               {"i", TypeId::kInteger},
               {"d", TypeId::kDouble},
               {"b", TypeId::kBoolean},
               {"s", TypeId::kVarchar}};
  ASSERT_TRUE(db->CreateTable("t", t).ok());
  if (index_first) IndexEveryColumn(db);
  const char* kStrings[] = {"", "a", "ab", "b", "a longer string value"};
  std::mt19937_64 rng(19);
  std::vector<Tuple> rows;
  for (int id = 0; id < 240; ++id) {
    auto pick = [&](int n) { return static_cast<int>(rng() % n); };
    Tuple row;
    row.push_back(Value::Int(id));
    row.push_back(pick(10) == 0 ? Value::Null() : Value::Int(pick(11) - 5));
    row.push_back(pick(10) == 0 ? Value::Null()
                                : Value::Double((pick(21) - 10) * 0.5));
    row.push_back(pick(10) == 0 ? Value::Null() : Value::Bool(pick(2) == 1));
    row.push_back(pick(10) == 0 ? Value::Null()
                                : Value::Varchar(kStrings[pick(5)]));
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE(db->BulkInsert("t", rows).ok());

  struct Probe {
    const char* table;
    TypeId type;
    std::vector<Value> values;
  };
  const Probe kProbes[] = {
      {"p_int", TypeId::kInteger,
       {Value::Int(-3), Value::Int(0), Value::Int(1), Value::Int(4),
        Value::Int(9), Value::Null()}},
      {"p_dbl", TypeId::kDouble,
       {Value::Double(-1.5), Value::Double(-0.0), Value::Double(1.0),
        Value::Double(2.5), Value::Double(4.0), Value::Double(1e300),
        Value::Null()}},
      {"p_bool", TypeId::kBoolean,
       {Value::Bool(true), Value::Bool(false), Value::Null()}},
      {"p_str", TypeId::kVarchar,
       {Value::Varchar(""), Value::Varchar("a"), Value::Varchar("ab"),
        Value::Varchar("zz"), Value::Null()}},
  };
  for (const Probe& p : kProbes) {
    TableSchema schema;
    schema.columns = {{"v", p.type}};
    ASSERT_TRUE(db->CreateTable(p.table, schema).ok());
    std::vector<Tuple> probe_rows;
    for (const Value& v : p.values) probe_rows.push_back({v});
    ASSERT_TRUE(db->BulkInsert(p.table, probe_rows).ok());
  }
}

/// The statements compared across routes: point lookups on each column
/// (integer literals for the numeric columns, string literals for the
/// VARCHAR one) and joins from each compatible probe table.
std::vector<std::string> DifferentialQueries() {
  std::vector<std::string> out;
  for (const char* col : {"i", "d", "b"}) {
    for (int literal : {-3, -1, 0, 1, 2, 9}) {
      out.push_back(std::string("SELECT id FROM t WHERE ") + col + " = " +
                    std::to_string(literal));
    }
    for (const char* probe : {"p_int", "p_dbl", "p_bool"}) {
      out.push_back(std::string("SELECT ") + probe + ".v, t.id FROM " + probe +
                    ", t WHERE " + probe + ".v = t." + col);
    }
  }
  for (const char* literal : {"''", "'a'", "'ab'", "'nope'"}) {
    out.push_back(std::string("SELECT id FROM t WHERE s = ") + literal);
  }
  out.push_back("SELECT p_str.v, t.id FROM p_str, t WHERE p_str.v = t.s");
  return out;
}

/// Runs every differential query on `indexed` (which must route each one
/// through an IndexScan or IndexNLJoin) and on `reference` (which scans
/// and hash-joins), and compares the answers.
void ExpectSameAnswers(Database* indexed, Database* reference,
                       const std::string& label) {
  for (const std::string& sql : DifferentialQueries()) {
    auto plan = indexed->Explain(sql);
    ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    EXPECT_TRUE(plan->find("IndexScan") != std::string::npos ||
                plan->find("IndexNLJoin") != std::string::npos)
        << label << ": " << sql << " did not use its index:\n"
        << *plan;
    auto want = reference->Query(sql);
    auto got = indexed->Query(sql);
    ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
    ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
    EXPECT_EQ(Rows(*got), Rows(*want)) << label << ": " << sql;
  }
}

std::unique_ptr<Database> ScanReference() {
  auto reference = Open();
  Populate(reference.get());
  reference->mutable_options()->planner.enable_index_join = false;
  return reference;
}

TEST(IndexRouteTest, IndexAnswersMatchScanAnswers) {
  auto reference = ScanReference();
  ASSERT_NE(reference, nullptr);

  // Memory-backed, indexes backfilled after the load.
  auto backfilled = Open();
  Populate(backfilled.get());
  IndexEveryColumn(backfilled.get());
  ExpectSameAnswers(backfilled.get(), reference.get(), "backfilled");

  // Memory-backed, entries filed by BulkInsert during the load.
  auto maintained = Open();
  Populate(maintained.get(), /*index_first=*/true);
  ExpectSameAnswers(maintained.get(), reference.get(), "maintained");

  // File-backed, then again after a reopen reads the trees back.
  const std::string path = ::testing::TempDir() + "/xorator_index_route.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  {
    auto file = Open(path);
    ASSERT_NE(file, nullptr);
    Populate(file.get());
    IndexEveryColumn(file.get());
    ExpectSameAnswers(file.get(), reference.get(), "file");
    ASSERT_TRUE(file->Close().ok());
  }
  {
    auto reopened = Open(path);
    ASSERT_NE(reopened, nullptr);
    ExpectSameAnswers(reopened.get(), reference.get(), "reopened");
    ASSERT_TRUE(reopened->Close().ok());
  }
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(IndexRouteTest, DeleteRemovesEveryIndexEntry) {
  auto reference = ScanReference();
  auto db = Open();
  Populate(db.get());
  IndexEveryColumn(db.get());
  for (Database* d : {db.get(), reference.get()}) {
    auto deleted = d->Query("DELETE FROM t WHERE d = 1 OR s = 'a'");
    ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
    EXPECT_GT(deleted->rows[0][0].AsInt(), 0);
  }
  ExpectSameAnswers(db.get(), reference.get(), "after delete");
  // The trees hold exactly one entry per remaining non-NULL key.
  for (const IndexInfo* index : db->catalog()->indexes()) {
    auto non_null = db->Query("SELECT COUNT(" + index->column +
                              ") AS n FROM t");
    ASSERT_TRUE(non_null.ok());
    EXPECT_EQ(index->tree->entry_count(),
              static_cast<uint64_t>(non_null->rows[0][0].AsInt()))
        << index->column;
  }
}

TEST(IndexRouteTest, DoubleProbeOfAnIntegerIndexMatchesTheHashJoin) {
  // n.d is DOUBLE, m.k an indexed INTEGER: the probe 2.0 must find k = 2,
  // and 2.5 must find nothing.
  for (bool index_join : {true, false}) {
    auto db = Open();
    ASSERT_TRUE(db->Execute("CREATE TABLE n (d DOUBLE)").ok());
    ASSERT_TRUE(db->Execute("CREATE TABLE m (k INTEGER)").ok());
    ASSERT_TRUE(db->BulkInsert("n", {{Value::Double(2.0)},
                                     {Value::Double(2.5)},
                                     {Value::Double(3.0)}})
                    .ok());
    std::vector<Tuple> m_rows;
    for (int k = 0; k < 40; ++k) m_rows.push_back({Value::Int(k)});
    ASSERT_TRUE(db->BulkInsert("m", m_rows).ok());
    ASSERT_TRUE(db->CreateIndex("m", "k").ok());
    db->mutable_options()->planner.enable_index_join = index_join;
    const std::string sql = "SELECT m.k FROM n, m WHERE n.d = m.k";
    auto plan = db->Explain(sql);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->find("IndexNLJoin") != std::string::npos, index_join)
        << *plan;
    auto r = db->Query(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Rows(*r), (std::vector<std::string>{"2|", "3|"})) << *plan;
  }
}

TEST(IndexRouteTest, DoublePointLookupReadsOnlyItsMatches) {
  auto db = Open();
  ASSERT_TRUE(db->Execute("CREATE TABLE w (id INTEGER, d DOUBLE)").ok());
  std::vector<Tuple> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({Value::Int(i), Value::Double(i * 0.5)});
  }
  ASSERT_TRUE(db->BulkInsert("w", rows).ok());
  ASSERT_TRUE(db->CreateIndex("w", "d").ok());
  const std::string sql = "SELECT id FROM w WHERE d = 17";
  auto plan = db->Explain(sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
  const auto before = db->buffer_pool()->stats();
  auto r = db->Query(sql);
  const auto after = db->buffer_pool()->stats();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Rows(*r), std::vector<std::string>{"34|"});
  // A root-to-leaf descent plus one heap page, not the whole table.
  const uint64_t fetched =
      (after.hits + after.misses) - (before.hits + before.misses);
  EXPECT_LE(fetched, 8u);
}

// -------------------------------------------- advised index sets, pinned

/// The non-ID indexes (not `<table>ID`) of `db`, as "table.column".
std::set<std::string> AdvisedIndexes(Database* db) {
  std::set<std::string> out;
  for (const IndexInfo* index : db->catalog()->indexes()) {
    if (index->column == index->table + "ID") continue;
    out.insert(index->table + "." + index->column);
  }
  return out;
}

std::set<std::string> BuildAndAdvise(
    const char* dtd, const std::vector<std::unique_ptr<xml::Node>>& corpus,
    benchutil::Mapping mapping, std::vector<std::string> advisor) {
  std::vector<const xml::Node*> docs;
  for (const auto& d : corpus) docs.push_back(d.get());
  benchutil::ExperimentOptions options;
  options.mapping = mapping;
  options.advisor_queries = std::move(advisor);
  options.tuned.max_fragment_bytes = 256;
  options.tuned.max_fragment_depth = 0;
  auto built = benchutil::BuildExperimentDb(dtd, docs, options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.ok() ? AdvisedIndexes(built->db.get()) : std::set<std::string>{};
}

std::vector<std::string> BothDialects(
    const std::vector<benchutil::PaperQuery>& queries) {
  std::vector<std::string> out;
  for (const auto& q : queries) {
    out.push_back(q.hybrid_sql);
    out.push_back(q.xorator_sql);
  }
  return out;
}

TEST(AdvisedIndexSetTest, ShakespeareThirtySevenPlays) {
  datagen::ShakespeareOptions gen;
  gen.plays = 37;
  const auto corpus = datagen::ShakespeareGenerator(gen).GenerateCorpus();
  const auto queries = BothDialects(benchutil::ShakespeareQueries());
  EXPECT_EQ(BuildAndAdvise(datagen::kShakespeareDtd, corpus,
                           benchutil::Mapping::kHybrid, queries),
            (std::set<std::string>{
                "act.act_parentID", "line.line_parentID", "play.play_title",
                "scene.scene_parentID", "speaker.speaker_parentID",
                "speech.speech_parentID", "stagedir.stagedir_parentID"}));
  EXPECT_EQ(BuildAndAdvise(datagen::kShakespeareDtd, corpus,
                           benchutil::Mapping::kXorator, queries),
            (std::set<std::string>{"act.act_parentID", "play.play_title",
                                   "scene.scene_parentID",
                                   "speech.speech_parentID"}));
}

TEST(AdvisedIndexSetTest, SigmodFourHundredDocuments) {
  datagen::SigmodOptions gen;
  gen.documents = 400;
  const auto corpus = datagen::SigmodGenerator(gen).GenerateCorpus();
  const auto queries = BothDialects(benchutil::SigmodQueries());
  EXPECT_EQ(BuildAndAdvise(datagen::kSigmodDtd, corpus,
                           benchutil::Mapping::kHybrid, queries),
            (std::set<std::string>{
                "articles.articles_parentID", "atuple.atuple_parentID",
                "author.author_parentID", "authors.authors_parentID"}));
  EXPECT_EQ(BuildAndAdvise(datagen::kSigmodDtd, corpus,
                           benchutil::Mapping::kXorator, queries),
            std::set<std::string>{});

  // The QG5 texts of bench/bench_mapping_ablation.cc, one per mapping.
  const std::string join_qg5 =
      "SELECT COUNT(*) AS n FROM atuple, authors, author "
      "WHERE authors_parentID = atupleID AND author_parentID = authorsID "
      "AND author_value LIKE '%Bird%'";
  const std::string xorator_qg5 =
      "SELECT COUNT(*) AS n FROM pp, "
      "table(unnest(getElm(pp_slist, 'author', '', ''), 'author')) a "
      "WHERE a.out LIKE '%Bird%'";
  const std::string tuned_qg5 =
      "SELECT COUNT(*) AS n FROM atuple, "
      "table(unnest(getElm(atuple_authors, 'author', '', ''), 'author')) a "
      "WHERE a.out LIKE '%Bird%'";
  const std::set<std::string> join_indexes = {"author.author_parentID",
                                              "authors.authors_parentID"};
  for (benchutil::Mapping m :
       {benchutil::Mapping::kHybrid, benchutil::Mapping::kShared,
        benchutil::Mapping::kPerElement}) {
    EXPECT_EQ(BuildAndAdvise(datagen::kSigmodDtd, corpus, m, {join_qg5}),
              join_indexes)
        << static_cast<int>(m);
  }
  EXPECT_EQ(BuildAndAdvise(datagen::kSigmodDtd, corpus,
                           benchutil::Mapping::kXorator, {xorator_qg5}),
            std::set<std::string>{});
  EXPECT_EQ(BuildAndAdvise(datagen::kSigmodDtd, corpus,
                           benchutil::Mapping::kXoratorTuned, {tuned_qg5}),
            std::set<std::string>{});
}

}  // namespace
}  // namespace xorator
