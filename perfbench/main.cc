// The repository benchmark program. One workload per invocation:
//
//   perfbench --workload lookup|scan|wire|load --seed N --seconds S
//             --trace 0|1 [--digests FILE] [--spans FILE]
//             [--record-digests FILE]
//
// Every workload is a closed loop over seeded datagen inputs, checks every
// answer against a reference digest, and prints human-readable context
// lines followed by one JSON result line (the last line of stdout). With
// --trace 0 the JSON carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of a separate traced run, whose spans wrap
// the calls into each module's public functions (see README.md).
//
// The traced run replicates Database::RunSelect from outside through public
// calls only: sql::ParseSql -> Planner::PlanSelect -> Operator::Explain ->
// Open / Next* / Close with an ExecContext filled in here.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchutil/fixture.h"
#include "benchutil/workload.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "ordb/database.h"
#include "ordb/exec_context.h"
#include "ordb/executor.h"
#include "ordb/planner.h"
#include "ordb/sql.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "shred/loader.h"
#include "trace.h"
#include "xadt/functions.h"
#include "xml/parser.h"
#include "xml/serializer.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using xorator::Result;
using xorator::Status;
using xorator::benchutil::Mapping;
namespace ordb = xorator::ordb;
namespace server = xorator::server;

/// The seed whose answer digests are recorded in expected_digests.txt.
constexpr uint64_t kDefaultSeed = 1;

/// A timed window that has not yet collected enough latency samples for the
/// p99 rule is stretched up to max(kMaxStretch x --seconds, kMinCapSeconds).
constexpr int kMaxStretch = 3;
constexpr double kMinCapSeconds = 30;
/// Spans written to the --spans file (the rest are counted, not written).
constexpr size_t kMaxSpansWritten = 100000;

enum class Workload { kLookup, kScan, kWire, kLoad };

struct Args {
  Workload workload = Workload::kLookup;
  std::string workload_name;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string digests_path;
  std::string spans_path;
  std::string record_path;
};

/// Failures of this run: counted, and the first few printed to stderr.
struct Failures {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::mutex mu;

  void Attempt(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (ok) return;
    if (failed < 10) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    ++failed;
  }
};

Failures g_failures;

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ----------------------------------------------------------------- inputs

/// One generated corpus, serialized to XML text.
struct Corpus {
  std::string name;  // "shakespeare" or "sigmod"
  const char* dtd = nullptr;
  std::vector<std::string> texts;
  uint64_t xml_bytes = 0;
  std::vector<std::string> advisor_queries;
  /// Shakespeare only: each play's title and lead (its first cast member,
  /// ROMEO in 'Romeo and Juliet'), in document order.
  std::vector<std::pair<std::string, std::string>> leads;
};

std::vector<std::string> AdvisorQueries(
    const std::vector<xorator::benchutil::PaperQuery>& queries) {
  std::vector<std::string> out;
  for (const auto& q : queries) {
    out.push_back(q.hybrid_sql);
    out.push_back(q.xorator_sql);
  }
  return out;
}

Corpus Serialize(std::string name, const char* dtd,
                 const std::vector<std::unique_ptr<xorator::xml::Node>>& docs,
                 std::vector<std::string> advisor) {
  Corpus c;
  c.name = std::move(name);
  c.dtd = dtd;
  c.advisor_queries = std::move(advisor);
  for (const auto& doc : docs) {
    c.texts.push_back(xorator::xml::Serialize(*doc));
    c.xml_bytes += c.texts.back().size();
  }
  return c;
}

/// The first PERSONA of a play's PERSONAE, which may open a PGROUP.
std::string Lead(const xorator::xml::Node& play) {
  const xorator::xml::Node* personae = play.FirstChildElement("PERSONAE");
  if (personae != nullptr) {
    for (const auto& child : personae->children()) {
      if (child->name() == "PERSONA") return child->TextContent();
      if (child->name() == "PGROUP") {
        const xorator::xml::Node* p = child->FirstChildElement("PERSONA");
        if (p != nullptr) return p->TextContent();
      }
    }
  }
  std::fprintf(stderr, "perfbench: a generated play has no cast\n");
  std::exit(2);
}

Corpus Shakespeare(const xorator::datagen::ShakespeareOptions& options) {
  const auto plays =
      xorator::datagen::ShakespeareGenerator(options).GenerateCorpus();
  Corpus c = Serialize("shakespeare", xorator::datagen::kShakespeareDtd, plays,
                       AdvisorQueries(xorator::benchutil::ShakespeareQueries()));
  for (const auto& play : plays) {
    const xorator::xml::Node* title = play->FirstChildElement("TITLE");
    c.leads.emplace_back(title != nullptr ? title->TextContent() : "",
                         Lead(*play));
  }
  return c;
}

Corpus Sigmod(const xorator::datagen::SigmodOptions& options) {
  return Serialize("sigmod", xorator::datagen::kSigmodDtd,
                   xorator::datagen::SigmodGenerator(options).GenerateCorpus(),
                   AdvisorQueries(xorator::benchutil::SigmodQueries()));
}

xorator::datagen::ShakespeareOptions ShakespeareShape(uint64_t seed,
                                                      int plays) {
  xorator::datagen::ShakespeareOptions o;
  o.seed = SplitMix(seed ^ 0x5348414bull);
  o.plays = plays;
  return o;
}

xorator::datagen::SigmodOptions SigmodShape(uint64_t seed, int documents) {
  xorator::datagen::SigmodOptions o;
  o.seed = SplitMix(seed ^ 0x5349474dull);
  o.documents = documents;
  return o;
}

/// The corpora a workload reads. lookup/wire: 37 small plays (2 acts x 2
/// scenes x 8 speeches). scan: 8 paper-shape plays and 400 SIGMOD
/// documents. load: the paper-scale corpora (37 plays, 3000 documents).
std::vector<Corpus> MakeCorpora(Workload w, uint64_t seed) {
  std::vector<Corpus> out;
  switch (w) {
    case Workload::kLookup:
    case Workload::kWire: {
      auto o = ShakespeareShape(seed, 37);
      o.acts_per_play = 2;
      o.scenes_per_act = 2;
      o.speeches_per_scene = 8;
      out.push_back(Shakespeare(o));
      break;
    }
    case Workload::kScan:
      out.push_back(Shakespeare(ShakespeareShape(seed, 8)));
      out.push_back(Sigmod(SigmodShape(seed, 400)));
      break;
    case Workload::kLoad:
      out.push_back(Shakespeare(ShakespeareShape(seed, 37)));
      out.push_back(Sigmod(SigmodShape(seed, 3000)));
      break;
  }
  return out;
}

/// Set-ups per run, about 2-3 s of them; setup_s is their median. lookup's
/// set-up takes about 50 ms, and the median of five of them spread 0.5 of
/// its median across runs. A fixed count keeps peak_rss_mb, which grows a
/// little with every set-up, independent of the host's speed.
int Setups(Workload w) {
  switch (w) {
    case Workload::kScan:
      return 7;
    case Workload::kLoad:
      return 11;
    default:
      return 41;
  }
}

/// Buffer pool pages per database: the default for lookup/wire, smaller
/// than the working set for scan (64) and load (128).
size_t PoolPages(Workload w) {
  switch (w) {
    case Workload::kScan:
      return 64;
    case Workload::kLoad:
      return 128;
    default:
      return ordb::DbOptions{}.buffer_pool_pages;
  }
}

// -------------------------------------------------------------- databases

struct BuiltDb {
  std::string name;  // "<corpus>.<mapping>"
  const Corpus* corpus = nullptr;
  bool xorator = false;
  xorator::mapping::MappedSchema schema;
  std::unique_ptr<ordb::Database> db;
  uint64_t tuples = 0;
  size_t pool_pages = 0;
  std::vector<double> doc_ms;  // shred + insert per document
  ordb::BufferPoolStats pool;  // pool counters at the end of the build
  int64_t build_ns = 0;

  uint64_t StoredBytes() const { return db->DataBytes() + db->IndexBytes(); }
};

/// One load pass of `corpus` under one mapping: xml::ParseDocument ->
/// Loader::CreateTables / Load -> CreateIndex on every ID column ->
/// RunStats -> AdviseIndexes -> RunStats, into a fresh memory-backed
/// database (no WAL, no fsync).
Result<BuiltDb> BuildDb(const Corpus& corpus, bool xorator_mapping,
                        size_t pool_pages, Tracer* t, int64_t parent,
                        uint64_t request) {
  const int64_t begin = NowNs();
  BuiltDb out;
  out.name = corpus.name + (xorator_mapping ? ".xorator" : ".hybrid");
  out.corpus = &corpus;
  out.xorator = xorator_mapping;
  out.pool_pages = pool_pages;
  std::vector<xorator::xml::Document> docs;
  std::vector<const xorator::xml::Node*> roots;
  {
    ScopedSpan s(t, "xml.parse", parent, request);
    docs.reserve(corpus.texts.size());
    for (const std::string& text : corpus.texts) {
      ASSIGN_OR_RETURN(xorator::xml::Document doc,
                       xorator::xml::ParseDocument(text));
      docs.push_back(std::move(doc));
      roots.push_back(docs.back().root.get());
    }
  }
  xorator::shred::LoadReport report;
  {
    ScopedSpan s(t, "shred.load", parent, request);
    ASSIGN_OR_RETURN(out.schema,
                     xorator::benchutil::MapDtd(
                         corpus.dtd, xorator_mapping ? Mapping::kXorator
                                                     : Mapping::kHybrid));
    ordb::DbOptions options;
    options.buffer_pool_pages = pool_pages;
    ASSIGN_OR_RETURN(out.db, ordb::Database::Open(options));
    RETURN_IF_ERROR(xorator::xadt::RegisterXadtFunctions(out.db->functions()));
    xorator::shred::Loader loader(out.db.get(), &out.schema);
    RETURN_IF_ERROR(loader.CreateTables());
    ASSIGN_OR_RETURN(report, loader.Load(roots));
  }
  if (report.documents != roots.size() || report.skipped != 0 ||
      !report.errors.empty() || report.cancelled != 0) {
    return Status::Internal(out.name + ": load skipped documents");
  }
  out.tuples = report.tuples;
  out.doc_ms = std::move(report.doc_millis);
  {
    ScopedSpan s(t, "storage.index", parent, request);
    for (const auto& table : out.schema.tables) {
      const int id = table.RoleIndex(xorator::mapping::ColumnRole::kId);
      if (id >= 0) {
        RETURN_IF_ERROR(out.db->CreateIndex(
            table.name, table.columns[static_cast<size_t>(id)].name));
      }
    }
  }
  {
    ScopedSpan s(t, "storage.stats", parent, request);
    RETURN_IF_ERROR(out.db->RunStats());
  }
  {
    ScopedSpan s(t, "storage.index", parent, request);
    RETURN_IF_ERROR(out.db->AdviseIndexes(corpus.advisor_queries));
  }
  {
    ScopedSpan s(t, "storage.stats", parent, request);
    RETURN_IF_ERROR(out.db->RunStats());
  }
  out.pool = out.db->buffer_pool()->stats();
  out.build_ns = NowNs() - begin;
  return out;
}

// ------------------------------------------------------------- statements

struct Statement {
  std::string key;  // "QS4.hybrid", "check.QG1.xorator", ...
  size_t db = 0;    // index into the workload's databases
  bool xorator = false;
  std::string sql;
};

/// How a pin compares the Hybrid and XORator answers.
enum class PinKind {
  kRows,          // equal multisets of rows
  kDistinctRows,  // equal sets of rows
  kRowCount,      // Hybrid row count equals XORator's single COUNT value
};

/// A pair of statements whose answers must agree: the Hybrid/XORator pairs
/// tests/integration_test.cc pins. A null SQL text means the paper query
/// itself. The rewrites make the two sides ask the same question on every
/// seed, not only on the test's fixture:
///   * QS4: findKeyInElm matches SPEAKER text by containment, so when the
///     Romeo play casts a numbered "ROMEO n" the paper's two texts differ
///     (equality vs containment); the Hybrid side uses containment too.
///   * QG1/QG3/QG6: the XORator queries return XADT fragments; the
///     rewrites unnest them to the Hybrid value sets.
///   * QG3/QG5: XORator answers once per matching section, Hybrid once per
///     matching author row, so QG3 compares sets and QG5 compares the
///     XORator count with the Hybrid count of distinct sections.
struct PinSpec {
  const char* id;
  PinKind kind;
  const char* hybrid_sql;
  const char* xorator_sql;
};

const std::vector<PinSpec>& PinSpecs() {
  static const auto* kPins = new std::vector<PinSpec>{
      {"QS4", PinKind::kRows,
       "SELECT DISTINCT speechID "
       "FROM play, act, scene, speech, speaker "
       "WHERE play_title = 'Romeo and Juliet' AND act_parentID = playID "
       "AND scene_parentID = actID AND scene_parentCODE = 'ACT' "
       "AND speech_parentID = sceneID AND speech_parentCODE = 'SCENE' "
       "AND speaker_parentID = speechID AND speaker_value LIKE '%ROMEO%'",
       nullptr},
      {"QG1", PinKind::kRows, nullptr,
       "SELECT u.out FROM pp, "
       "table(unnest(getElm(getElm(pp_slist, 'aTuple', 'title', 'Join'), "
       "'author', '', ''), 'author')) u"},
      {"QG3", PinKind::kDistinctRows, nullptr,
       "SELECT u.out FROM pp, "
       "table(unnest(getElm(getElm(pp_slist, 'sListTuple', 'author', "
       "'Worthy'), 'sectionName', '', ''), 'sectionName')) u "
       "WHERE findKeyInElm(pp_slist, 'author', 'Worthy') = 1"},
      {"QG4", PinKind::kRows, nullptr, nullptr},
      {"QG5", PinKind::kRowCount,
       "SELECT DISTINCT slisttupleID "
       "FROM slisttuple, articles, atuple, authors, author "
       "WHERE articles_parentID = slisttupleID "
       "AND atuple_parentID = articlesID "
       "AND authors_parentID = atupleID AND author_parentID = authorsID "
       "AND author_value LIKE '%Bird%'",
       nullptr},
      {"QG6", PinKind::kRows, nullptr,
       "SELECT u.out FROM pp, "
       "table(unnest(getElmIndex(getElm(pp_slist, 'aTuple', 'title', "
       "'Join'), 'authors', 'author', 2, 2), 'author')) u"},
  };
  return *kPins;
}

struct Pin {
  std::string hybrid_key;
  std::string xorator_key;
  PinKind kind = PinKind::kRows;
};

const xorator::benchutil::PaperQuery& Paper(const std::string& id) {
  for (const auto* set : {&xorator::benchutil::ShakespeareQueries(),
                          &xorator::benchutil::SigmodQueries()}) {
    for (const auto& q : *set) {
      if (q.id == id) return q;
    }
  }
  std::fprintf(stderr, "perfbench: unknown paper query %s\n", id.c_str());
  std::exit(2);
}

/// Index of the database holding `corpus` under the given mapping.
size_t DbIndex(const std::vector<BuiltDb>& dbs, const std::string& corpus,
               bool xorator_mapping) {
  for (size_t i = 0; i < dbs.size(); ++i) {
    if (dbs[i].corpus->name == corpus && dbs[i].xorator == xorator_mapping) {
      return i;
    }
  }
  std::fprintf(stderr, "perfbench: no %s database\n", corpus.c_str());
  std::exit(2);
}

/// The workload's statements (both dialects, interleaved) and its pins.
struct Mix {
  std::vector<Statement> statements;
  /// Statements run once per reference phase for the pins only.
  std::vector<Statement> checks;
  std::vector<Pin> pins;
};

/// A play and its lead, as in Corpus::leads.
using Play = std::pair<std::string, std::string>;

/// The paper's Shakespeare texts ask about ROMEO in 'Romeo and Juliet';
/// this asks the same question about `play` and its lead. Play 0 is
/// 'Romeo and Juliet' led by ROMEO, for which `sql` comes back unchanged.
std::string Bind(std::string sql, const Play& play) {
  auto replace_all = [&sql](const std::string& from, const std::string& to) {
    for (size_t at = sql.find(from); at != std::string::npos;
         at = sql.find(from, at + to.size())) {
      sql.replace(at, from.size(), to);
    }
  };
  replace_all("ROMEO", play.second);  // first: a title may name a ROMEO
  replace_all("Romeo and Juliet", play.first);
  return sql;
}

Mix MakeMix(Workload w, const std::vector<BuiltDb>& dbs) {
  std::vector<std::string> ids;
  std::vector<std::string> pinned;
  switch (w) {
    case Workload::kLookup:
      ids = {"QS4", "QS5"};
      pinned = {"QS4"};
      break;
    case Workload::kWire:
      ids = {"QS1", "QS4", "QS5"};
      pinned = {"QS4"};
      break;
    case Workload::kScan:
      ids = {"QS1", "QS2", "QS3", "QS6", "QG1",
             "QG2", "QG3", "QG4", "QG5", "QG6"};
      pinned = {"QS4", "QG1", "QG3", "QG4", "QG5", "QG6"};
      break;
    case Workload::kLoad:
      ids = {"QS4", "QG5"};
      pinned = {"QS4", "QG5"};
      break;
  }
  auto corpus_of = [](const std::string& id) {
    return id.rfind("QS", 0) == 0 ? "shakespeare" : "sigmod";
  };
  // lookup asks QS4/QS5 of every play, so that its work is an average over
  // the corpus rather than the size of one seeded play; the other
  // workloads ask the paper's texts as written.
  std::vector<Play> plays = {{"Romeo and Juliet", "ROMEO"}};
  if (w == Workload::kLookup) {
    plays = dbs[DbIndex(dbs, "shakespeare", false)].corpus->leads;
  }
  Mix mix;
  auto in_mix = [&mix](const std::string& key) {
    for (const Statement& s : mix.statements) {
      if (s.key == key) return true;
    }
    return false;
  };
  for (size_t p = 0; p < plays.size(); ++p) {
    // Play 0 keeps the paper's keys ("QS4.hybrid"); play p adds ".p<p>".
    const std::string suffix = p == 0 ? "" : ".p" + std::to_string(p);
    for (const std::string& id : ids) {
      const auto& q = Paper(id);
      mix.statements.push_back({id + suffix + ".hybrid",
                                DbIndex(dbs, corpus_of(id), false), false,
                                Bind(q.hybrid_sql, plays[p])});
      mix.statements.push_back({id + suffix + ".xorator",
                                DbIndex(dbs, corpus_of(id), true), true,
                                Bind(q.xorator_sql, plays[p])});
    }
    // The key of one side of a pin, adding a check statement when the mix
    // does not already run that text.
    auto side = [&](const std::string& id, bool xorator_mapping,
                    const char* rewrite) {
      const std::string dialect = xorator_mapping ? ".xorator" : ".hybrid";
      const auto& q = Paper(id);
      std::string key = (rewrite != nullptr ? "check." : "") + id + suffix +
                        dialect;
      if (!in_mix(key)) {
        mix.checks.push_back(
            {key, DbIndex(dbs, corpus_of(id), xorator_mapping),
             xorator_mapping,
             Bind(rewrite != nullptr ? rewrite
                                     : (xorator_mapping ? q.xorator_sql
                                                        : q.hybrid_sql),
                  plays[p])});
      }
      return key;
    };
    for (const std::string& id : pinned) {
      for (const PinSpec& spec : PinSpecs()) {
        if (spec.id != id) continue;
        mix.pins.push_back({side(id, false, spec.hybrid_sql),
                            side(id, true, spec.xorator_sql), spec.kind});
      }
    }
  }
  return mix;
}

// ---------------------------------------------------------------- answers

std::vector<std::string> Render(const ordb::Tuple& row) {
  std::vector<std::string> cells;
  cells.reserve(row.size());
  for (const ordb::Value& v : row) cells.push_back(v.ToString());
  return cells;
}

std::string DigestOf(const std::vector<ordb::Tuple>& rows) {
  RowDigest d;
  for (const ordb::Tuple& row : rows) d.AddRow(Render(row));
  return d.Hex();
}

std::string DigestOf(const std::vector<std::vector<std::string>>& rows) {
  RowDigest d;
  for (const auto& row : rows) d.AddRow(row);
  return d.Hex();
}

/// Answer digests by statement key.
using Digests = std::map<std::string, std::string>;

/// Reads "<seed> <workload> <key> <digest>" lines recorded for this seed
/// and workload.
Digests ReadRecorded(const std::string& path, uint64_t seed,
                     const std::string& workload) {
  Digests out;
  if (path.empty()) return out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    uint64_t s = 0;
    std::string w, key, digest;
    if (fields >> s >> w >> key >> digest && s == seed && w == workload) {
      out[key] = digest;
    }
  }
  return out;
}

/// Checks that every digest matches the one recorded for this seed, when
/// digests are recorded for it.
void CheckRecorded(const Digests& ref, const Digests& recorded) {
  if (recorded.empty()) return;
  for (const auto& [key, digest] : ref) {
    auto r = recorded.find(key);
    g_failures.Attempt(r != recorded.end() && r->second == digest,
                       "recorded digest of " + key);
  }
}

// ------------------------------------------------------------ split route

/// One SELECT run the way Database::RunSelect runs it, from public calls.
struct SplitAnswer {
  std::vector<std::string> columns;
  std::vector<ordb::Tuple> rows;
  std::string plan;
  ordb::UdfStats udf;
};

Result<SplitAnswer> RunSplit(ordb::Database* db, const std::string& sql,
                             Tracer* t, int64_t parent, uint64_t request) {
  xorator::ordb::sql::Statement stmt;
  {
    ScopedSpan s(t, "sql.parse", parent, request);
    ASSIGN_OR_RETURN(stmt, xorator::ordb::sql::ParseSql(sql));
  }
  if (stmt.kind != xorator::ordb::sql::Statement::Kind::kSelect) {
    return Status::InvalidArgument("not a SELECT: " + sql);
  }
  ordb::OperatorPtr plan;
  {
    ScopedSpan s(t, "planner.plan", parent, request);
    ordb::Planner planner(db->catalog(), db->functions(),
                          db->options().planner);
    ASSIGN_OR_RETURN(plan, planner.PlanSelect(stmt.select));
  }
  SplitAnswer out;
  {
    ScopedSpan s(t, "planner.explain", parent, request);
    out.plan = plan->Explain();
  }
  for (const ordb::ColumnMeta& c : plan->columns()) out.columns.push_back(c.name);
  ordb::ExecContext ctx;
  ctx.functions = db->functions();
  ctx.pool = db->buffer_pool();
  ctx.catalog = db->catalog();
  Status exec;
  {
    ScopedSpan s(t, "executor.open", parent, request);
    exec = plan->Open(&ctx);
  }
  if (exec.ok()) {
    ScopedSpan s(t, "executor.next", parent, request);
    ordb::Tuple row;
    while (true) {
      Result<bool> more = plan->Next(&row);
      if (!more.ok()) {
        exec = more.status();
        break;
      }
      if (!*more) break;
      out.rows.push_back(row);
      if (stmt.select.limit >= 0 &&
          out.rows.size() >= static_cast<size_t>(stmt.select.limit)) {
        break;
      }
    }
  }
  {
    ScopedSpan s(t, "executor.close", parent, request);
    plan->Close();
  }
  RETURN_IF_ERROR(exec);
  out.udf = ctx.udf_stats;
  return out;
}

// ---------------------------------------------------------- measurements

/// What one thread measured in a run's timed window.
struct Timings {
  std::vector<double> latency_ms;
  /// The same samples by operation: a statement key, or one document of a
  /// load pass.
  std::map<std::string, std::vector<double>> latency_by_op_ms;
  std::vector<double> hybrid_rounds_ms;
  std::vector<double> xorator_rounds_ms;
  /// Sum over statements of (hybrid + xorator) route time, per pass.
  std::vector<double> plain_rounds_ms;
  std::vector<double> traced_rounds_ms;
  double busy_s = 0;
  uint64_t completed = 0;

  /// Operations per second of this client's busy time.
  double Rate() const {
    return busy_s > 0 ? static_cast<double>(completed) / busy_s : 0;
  }

  void Merge(const Timings& o) {
    auto append = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    append(&latency_ms, o.latency_ms);
    for (const auto& [op, samples] : o.latency_by_op_ms) {
      append(&latency_by_op_ms[op], samples);
    }
    append(&hybrid_rounds_ms, o.hybrid_rounds_ms);
    append(&xorator_rounds_ms, o.xorator_rounds_ms);
    append(&plain_rounds_ms, o.plain_rounds_ms);
    append(&traced_rounds_ms, o.traced_rounds_ms);
    busy_s += o.busy_s;
    completed += o.completed;
  }
};

/// A per-layer record of one traced pass (or one traced set-up).
using Record = std::map<std::string, double>;

void AddPool(const ordb::BufferPoolStats& before,
             const ordb::BufferPoolStats& after, Record* r) {
  (*r)["buffer_pool.hits"] += static_cast<double>(after.hits - before.hits);
  (*r)["buffer_pool.misses"] += static_cast<double>(after.misses - before.misses);
  (*r)["buffer_pool.evictions"] +=
      static_cast<double>(after.evictions - before.evictions);
  (*r)["buffer_pool.writebacks"] +=
      static_cast<double>(after.writebacks - before.writebacks);
}

/// Sets the Database::Query time of one traced pass and what derives from
/// it: the residual over the split stages (lock, guard and result copy)
/// and the server's overhead over the engine.
void SetQueryTime(double query_us, Record* r) {
  (*r)["database.query_us"] = query_us;
  (*r)["database.residual_us"] = query_us - (*r)["split_us"];
  (*r)["server.overhead_us"] = (*r)["server.round_trip_us"] - query_us;
}

/// Turns the spans of one traced pass into per-layer self times.
void AddSpanTimes(const Tracer& t, size_t begin, size_t end, Record* r) {
  auto self = SelfNsByName(t.spans(), begin, end);
  auto us = [&self](const char* name) { return self[name] / 1e3; };
  auto ms = [&self](const char* name) { return self[name] / 1e6; };
  if (self.count("statement") != 0) {
    (*r)["sql.parse_us"] = us("sql.parse");
    (*r)["planner.plan_us"] = us("planner.plan");
    (*r)["planner.explain_us"] = us("planner.explain");
    (*r)["executor.open_us"] = us("executor.open");
    (*r)["executor.next_us"] = us("executor.next");
    (*r)["split_us"] = us("sql.parse") + us("planner.plan") +
                       us("planner.explain") + us("executor.open") +
                       us("executor.next") + us("executor.close");
    (*r)["protocol.encode_us"] = us("protocol.encode");
    (*r)["protocol.decode_us"] = us("protocol.decode");
    (*r)["server.round_trip_us"] = us("server.round_trip");
    if (self.count("database.query") != 0) {
      SetQueryTime(us("database.query"), r);
    }
  }
  if (self.count("xml.parse") != 0) {
    (*r)["xml.parse_ms"] = ms("xml.parse");
    (*r)["shred.load_ms"] = ms("shred.load");
    (*r)["storage.index_ms"] = ms("storage.index");
    (*r)["storage.stats_ms"] = ms("storage.stats");
  }
}

/// Per-layer facts of a set of freshly built databases.
void AddBuildCounts(const std::vector<BuiltDb>& dbs, Record* r) {
  for (const BuiltDb& b : dbs) {
    (*r)["shred.tuples"] += static_cast<double>(b.tuples);
    (*r)["storage.data_bytes"] += static_cast<double>(b.db->DataBytes());
    (*r)["storage.index_bytes"] += static_cast<double>(b.db->IndexBytes());
  }
}

/// One loopback server per database, for the wire routes.
struct Servers {
  std::vector<std::unique_ptr<server::Server>> servers;

  Status Start(const std::vector<BuiltDb>& dbs) {
    for (const BuiltDb& b : dbs) {
      ASSIGN_OR_RETURN(auto s, server::Server::Start(b.db.get()));
      servers.push_back(std::move(s));
    }
    return Status::OK();
  }
  uint64_t PeakQueueDepth() const {
    uint64_t peak = 0;
    for (const auto& s : servers) {
      peak = std::max(peak, s->server_stats().peak_queue_depth);
    }
    return peak;
  }
  ~Servers() {
    for (auto& s : servers) s->Shutdown();
  }
};

/// One client connection per server, owned by one thread.
struct Clients {
  std::vector<std::unique_ptr<server::Client>> clients;

  explicit Clients(const Servers& servers) {
    for (const auto& s : servers.servers) {
      server::ClientOptions options;
      options.port = s->port();
      clients.push_back(std::make_unique<server::Client>(std::move(options)));
    }
  }
};

/// What the statement loops share: the databases and reference digests.
struct Context {
  std::vector<BuiltDb>* dbs = nullptr;
  const Digests* ref = nullptr;
};

void CheckAnswer(const Context& c, const Statement& s, const std::string& route,
                 const std::string& digest) {
  auto want = c.ref->find(s.key);
  g_failures.Attempt(want != c.ref->end() && want->second == digest,
                     route + " answer of " + s.key);
}

/// One untraced pass of the mix, engine-direct (`clients` null) or over the
/// wire.
void PlainPass(const Context& c, const std::vector<Statement>& mix,
               size_t rotate, Clients* clients, Timings* out) {
  double hybrid = 0, xorator = 0;
  for (size_t i = 0; i < mix.size(); ++i) {
    const Statement& s = mix[(i + rotate) % mix.size()];
    std::optional<std::string> digest;
    const int64_t t0 = NowNs();
    int64_t t1 = 0;
    if (clients == nullptr) {
      Result<ordb::QueryResult> r = (*c.dbs)[s.db].db->Query(s.sql);
      t1 = NowNs();
      if (r.ok()) digest = DigestOf(r->rows);
    } else {
      Result<server::ResultPayload> r = clients->clients[s.db]->Query(s.sql);
      t1 = NowNs();
      if (r.ok()) digest = DigestOf(r->rows);
    }
    if (!digest) {
      g_failures.Attempt(false, "statement " + s.key);
      continue;
    }
    const double ms = Millis(t1 - t0);
    out->latency_ms.push_back(ms);
    out->latency_by_op_ms[s.key].push_back(ms);
    (s.xorator ? xorator : hybrid) += ms;
    out->busy_s += ms / 1e3;
    ++out->completed;
    CheckAnswer(c, s, clients == nullptr ? "direct" : "wire", *digest);
  }
  out->hybrid_rounds_ms.push_back(hybrid);
  out->xorator_rounds_ms.push_back(xorator);
  out->plain_rounds_ms.push_back(hybrid + xorator);
}

/// One traced pass: every statement runs through the workload's own route
/// (split engine-direct, or the wire when `wire_primary`) under a
/// "statement" span, then through other routes to the same answer as side
/// measurements: the wire (when `clients` is set), the split route with
/// EncodeResult/DecodeResult of its rendered payload, and, when
/// `direct_route`, Database::Query. Every answer is checked. Returns the
/// pass record.
Record TracedPass(const Context& c, const std::vector<Statement>& mix,
                  size_t rotate, Clients* clients, bool wire_primary,
                  bool direct_route, Tracer* t, uint64_t* request,
                  Timings* out) {
  Record rec;
  const size_t first = t->size();
  double route_ms = 0;
  for (size_t i = 0; i < mix.size(); ++i) {
    const Statement& s = mix[(i + rotate) % mix.size()];
    ordb::Database* db = (*c.dbs)[s.db].db.get();
    const uint64_t req = ++*request;
    ScopedSpan root(t, "statement", -1, req);

    auto wire = [&]() {
      if (clients == nullptr) return 0.0;
      const auto before = db->buffer_pool()->stats();
      const int64_t t0 = NowNs();
      Result<server::ResultPayload> r = Status::Internal("unset");
      {
        ScopedSpan span(t, "server.round_trip", root.id(), req);
        r = clients->clients[s.db]->Query(s.sql);
      }
      const double ms = Millis(NowNs() - t0);
      if (wire_primary) AddPool(before, db->buffer_pool()->stats(), &rec);
      if (!r.ok()) {
        g_failures.Attempt(false, "wire " + s.key + ": " + r.status().ToString());
        return ms;
      }
      CheckAnswer(c, s, "wire", DigestOf(r->rows));
      return ms;
    };
    auto split = [&]() {
      const auto before = db->buffer_pool()->stats();
      const int64_t t0 = NowNs();
      Result<SplitAnswer> r = RunSplit(db, s.sql, t, root.id(), req);
      const double ms = Millis(NowNs() - t0);
      if (!wire_primary) AddPool(before, db->buffer_pool()->stats(), &rec);
      if (!r.ok()) {
        g_failures.Attempt(false, "split " + s.key + ": " + r.status().ToString());
        return ms;
      }
      CheckAnswer(c, s, "split", DigestOf(r->rows));
      rec["executor.rows"] += static_cast<double>(r->rows.size());
      rec["udf.scalar_calls"] += static_cast<double>(r->udf.scalar_calls);
      rec["udf.table_calls"] += static_cast<double>(r->udf.table_calls);
      rec["udf.marshaled_bytes"] += static_cast<double>(r->udf.marshaled_bytes);
      // The payload a server would frame for this answer.
      server::ResultPayload payload;
      payload.columns = r->columns;
      payload.plan = r->plan;
      payload.rows.reserve(r->rows.size());
      for (const ordb::Tuple& row : r->rows) payload.rows.push_back(Render(row));
      Result<std::string> frame = Status::Internal("unset");
      {
        ScopedSpan span(t, "protocol.encode", root.id(), req);
        frame = server::EncodeResult(payload);
      }
      if (!frame.ok()) {
        g_failures.Attempt(false, "encode " + s.key);
        return ms;
      }
      rec["protocol.result_bytes"] += static_cast<double>(frame->size());
      Result<server::ResultPayload> decoded = Status::Internal("unset");
      {
        ScopedSpan span(t, "protocol.decode", root.id(), req);
        const std::string_view bytes(*frame);
        Result<server::FrameHeader> header = server::DecodeFrameHeader(bytes);
        if (header.ok()) {
          decoded = server::DecodeResult(bytes.substr(server::kFrameHeaderBytes));
        }
      }
      g_failures.Attempt(decoded.ok() && DigestOf(decoded->rows) == DigestOf(payload.rows),
                         "protocol round trip of " + s.key);
      return ms;
    };

    route_ms += wire_primary ? wire() : split();
    if (direct_route) {
      Result<ordb::QueryResult> r = Status::Internal("unset");
      {
        ScopedSpan span(t, "database.query", root.id(), req);
        r = db->Query(s.sql);
      }
      if (r.ok()) {
        CheckAnswer(c, s, "direct", DigestOf(r->rows));
      } else {
        g_failures.Attempt(false, "direct " + s.key);
      }
    }
    if (wire_primary) {
      split();
    } else {
      wire();
    }
  }
  AddSpanTimes(*t, first, t->size(), &rec);
  const double lookups = rec["buffer_pool.hits"] + rec["buffer_pool.misses"];
  rec["buffer_pool.hit_ratio"] =
      lookups > 0 ? rec["buffer_pool.hits"] / lookups : 1.0;
  out->traced_rounds_ms.push_back(route_ms);
  return rec;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintContext(const Args& a) {
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload_name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::printf("perfbench: build_type=%s compiler=%s nproc=%u\n",
              PERFBENCH_BUILD_TYPE,
#if defined(__clang__)
              "clang " __clang_version__,
#elif defined(__GNUC__)
              "g++ " __VERSION__,
#else
              "unknown",
#endif
              std::thread::hardware_concurrency());
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::printf(
        "perfbench: WARNING: build type is %s, not Release; these numbers "
        "are not comparable with Release runs\n",
        PERFBENCH_BUILD_TYPE);
  }
  std::printf(
      "perfbench: flush_policy=memory-backed pager, no WAL, no fsync\n");
}

void PrintSetups(const std::vector<double>& setup_s) {
  std::printf("perfbench: set-ups=%zu seconds:", setup_s.size());
  for (double v : setup_s) std::printf(" %.4f", v);
  std::printf("\n");
}

void PrintFixtures(const std::vector<BuiltDb>& dbs) {
  for (const BuiltDb& b : dbs) {
    std::printf(
        "perfbench: fixture %s xml_bytes=%llu db_bytes=%llu "
        "(data=%llu index=%llu) pool_pages=%zu tuples=%llu\n",
        b.name.c_str(), static_cast<unsigned long long>(b.corpus->xml_bytes),
        static_cast<unsigned long long>(b.StoredBytes()),
        static_cast<unsigned long long>(b.db->DataBytes()),
        static_cast<unsigned long long>(b.db->IndexBytes()), b.pool_pages,
        static_cast<unsigned long long>(b.tuples));
  }
}

int PrintResult(const std::vector<Metric>& metrics) {
  const bool correct = g_failures.failed == 0 && g_failures.attempted > 0;
  for (const Metric& m : metrics) {
    std::printf("perfbench: %-28s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("perfbench: attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(g_failures.attempted),
              static_cast<unsigned long long>(g_failures.failed),
              correct ? "true" : "false");
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(g_failures.attempted) +
                     ", \"failed\": " + std::to_string(g_failures.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void WriteSpans(const std::string& path, const std::vector<const Tracer*>& tracers) {
  if (path.empty()) return;
  std::ofstream out(path);
  size_t written = 0, total = 0;
  for (size_t ti = 0; ti < tracers.size(); ++ti) {
    for (size_t i = 0; i < tracers[ti]->size(); ++i) {
      ++total;
      if (written >= kMaxSpansWritten) continue;
      const Span& s = tracers[ti]->spans()[i];
      out << "{\"thread\":" << ti << ",\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}\n";
      ++written;
    }
  }
  std::printf("perfbench: spans recorded=%zu written=%zu to %s\n", total,
              written, path.c_str());
}

/// Per-layer metrics: the median across records holding each metric.
std::vector<Metric> LayerMetrics(const std::vector<Record>& records,
                                 const Timings& timings, uint64_t peak_queue) {
  static const std::vector<std::pair<std::string, std::string>> kLayers = {
      {"sql.parse_us", "us"},          {"planner.plan_us", "us"},
      {"planner.explain_us", "us"},    {"database.query_us", "us"},
      {"database.residual_us", "us"},  {"executor.open_us", "us"},
      {"executor.next_us", "us"},      {"executor.rows", "count"},
      {"udf.scalar_calls", "count"},   {"udf.table_calls", "count"},
      {"udf.marshaled_bytes", "bytes"}, {"buffer_pool.hits", "count"},
      {"buffer_pool.misses", "count"}, {"buffer_pool.hit_ratio", "ratio"},
      {"buffer_pool.evictions", "count"},
      {"buffer_pool.writebacks", "count"},
      {"protocol.encode_us", "us"},    {"protocol.decode_us", "us"},
      {"protocol.result_bytes", "bytes"},
      {"server.round_trip_us", "us"},  {"server.overhead_us", "us"},
      {"xml.parse_ms", "ms"},          {"shred.load_ms", "ms"},
      {"shred.tuples", "count"},       {"storage.index_ms", "ms"},
      {"storage.stats_ms", "ms"},      {"storage.data_bytes", "bytes"},
      {"storage.index_bytes", "bytes"},
  };
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayers) {
    std::vector<double> values;
    for (const Record& r : records) {
      auto it = r.find(name);
      if (it != r.end()) values.push_back(it->second);
    }
    if (values.empty()) {
      g_failures.Attempt(false, "no traced value for " + name);
      continue;
    }
    out.push_back({name, Median(values), unit});
  }
  out.push_back({"server.peak_queue_depth", static_cast<double>(peak_queue),
                 "count"});
  const double plain = Median(timings.plain_rounds_ms);
  const double traced = Median(timings.traced_rounds_ms);
  out.push_back({"trace.overhead_pct",
                 plain > 0 ? (traced - plain) / plain * 100.0 : 0, "%"});
  std::printf("perfbench: traced passes=%zu untraced passes=%zu\n",
              timings.traced_rounds_ms.size(), timings.plain_rounds_ms.size());
  return out;
}

/// End-to-end metrics from an untraced window. `qps` sums the clients'
/// rates; `load_mb_per_s` is printed as context, not reported.
/// `latency_p50_ms` is the median over operations of each one's median
/// latency. scan's mix has a fast and a slow half with a gap between them;
/// the median of the pooled samples falls in that gap, where it reads the
/// slowest samples of the fast half.
std::vector<Metric> EndToEndMetrics(const Timings& t, double qps,
                                    double setup_s, double load_mb_per_s,
                                    double stored_ratio,
                                    const char* unit_of_work) {
  std::vector<double> sorted = t.latency_ms;
  std::sort(sorted.begin(), sorted.end());
  const auto p99 = TailPercentile(sorted, 0.99);
  std::vector<double> op_medians;
  for (const auto& [op, samples] : t.latency_by_op_ms) {
    op_medians.push_back(Median(samples));
  }
  g_failures.Attempt(p99.has_value(),
                     "p99 needs " + std::to_string(SamplesForTail(0.99)) +
                         " samples, got " + std::to_string(sorted.size()));
  std::printf("perfbench: samples latency=%zu (%s) operations=%zu passes=%zu "
              "busy_s=%.3f\n",
              sorted.size(), unit_of_work, op_medians.size(),
              t.hybrid_rounds_ms.size(), t.busy_s);
  std::printf("perfbench: load_mb_per_s=%.6f (XML MB/s through the load "
              "path)\n",
              load_mb_per_s);
  return {
      {"qps", qps, "1/s"},
      {"latency_p50_ms", Median(op_medians), "ms"},
      {"latency_p99_ms", p99.value_or(0), "ms"},
      {"hybrid_round_ms", Median(t.hybrid_rounds_ms), "ms"},
      {"xorator_round_ms", Median(t.xorator_rounds_ms), "ms"},
      {"stored_bytes_per_xml_byte", stored_ratio, "B/B"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// (data + index bytes) over the XML bytes loaded into `dbs`.
double StoredRatio(const std::vector<BuiltDb>& dbs) {
  double stored = 0, xml = 0;
  for (const BuiltDb& b : dbs) {
    stored += static_cast<double>(b.StoredBytes());
    xml += static_cast<double>(b.corpus->xml_bytes);
  }
  return xml > 0 ? stored / xml : 0;
}

// ----------------------------------------------------------- query workloads

/// Builds the workload's databases from `corpora` (one set-up's build).
Result<std::vector<BuiltDb>> BuildAll(Workload w,
                                      const std::vector<Corpus>& corpora,
                                      Tracer* t, uint64_t* request) {
  std::vector<BuiltDb> dbs;
  for (const Corpus& c : corpora) {
    for (bool xorator_mapping : {false, true}) {
      const uint64_t req = ++*request;
      ScopedSpan root(t, "build", -1, req);
      ASSIGN_OR_RETURN(BuiltDb b, BuildDb(c, xorator_mapping, PoolPages(w), t,
                                          root.id(), req));
      dbs.push_back(std::move(b));
    }
  }
  return dbs;
}

using Rows = std::vector<std::vector<std::string>>;

bool PinHolds(const Pin& pin, const std::map<std::string, Rows>& answers) {
  auto h = answers.find(pin.hybrid_key);
  auto x = answers.find(pin.xorator_key);
  if (h == answers.end() || x == answers.end()) return false;
  switch (pin.kind) {
    case PinKind::kRows:
      return DigestOf(h->second) == DigestOf(x->second);
    case PinKind::kDistinctRows:
      return std::set<std::vector<std::string>>(h->second.begin(),
                                                h->second.end()) ==
             std::set<std::vector<std::string>>(x->second.begin(),
                                                x->second.end());
    case PinKind::kRowCount:
      return x->second.size() == 1 && x->second[0].size() == 1 &&
             x->second[0][0] == std::to_string(h->second.size());
  }
  return false;
}

/// Runs every statement and check once through Database::Query, checks the
/// pins, and returns the answer digests.
Digests Reference(std::vector<BuiltDb>* dbs, const Mix& mix) {
  std::map<std::string, Rows> answers;
  for (const auto* list : {&mix.statements, &mix.checks}) {
    for (const Statement& s : *list) {
      Result<ordb::QueryResult> r = (*dbs)[s.db].db->Query(s.sql);
      g_failures.Attempt(r.ok(), "reference " + s.key);
      if (!r.ok()) continue;
      Rows& rows = answers[s.key];
      for (const ordb::Tuple& row : r->rows) rows.push_back(Render(row));
    }
  }
  for (const Pin& pin : mix.pins) {
    g_failures.Attempt(PinHolds(pin, answers),
                       "pin " + pin.hybrid_key + " = " + pin.xorator_key);
  }
  Digests ref;
  for (const auto& [key, rows] : answers) ref[key] = DigestOf(rows);
  return ref;
}

void RecordDigests(const Args& a, const Digests& ref) {
  std::ofstream out(a.record_path, std::ios::app);
  for (const auto& [key, digest] : ref) {
    out << a.seed << ' ' << a.workload_name << ' ' << key << ' ' << digest
        << '\n';
  }
}

int RunQueryWorkload(const Args& a) {
  const Digests recorded = ReadRecorded(a.digests_path, a.seed, a.workload_name);
  // Set-ups: generate, serialize, parse, load, index, stats.
  std::vector<Corpus> corpora;
  std::vector<BuiltDb> dbs;
  std::vector<double> setup_s, build_mb_per_s;
  std::vector<Record> records;
  Tracer setup_tracer;
  uint64_t request = 0;
  for (int i = 0; i < Setups(a.workload); ++i) {
    dbs.clear();
    corpora.clear();
    const int64_t t0 = NowNs();
    corpora = MakeCorpora(a.workload, a.seed);
    const size_t first_span = setup_tracer.size();
    Result<std::vector<BuiltDb>> built =
        BuildAll(a.workload, corpora, a.trace ? &setup_tracer : nullptr,
                 &request);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    dbs = std::move(*built);
    setup_s.push_back(Seconds(NowNs() - t0));
    double xml = 0, build_ns = 0;
    for (const BuiltDb& b : dbs) {
      xml += static_cast<double>(b.corpus->xml_bytes);
      build_ns += static_cast<double>(b.build_ns);
    }
    build_mb_per_s.push_back(xml / 1e6 / (build_ns / 1e9));
    if (a.trace) {
      Record r;
      AddSpanTimes(setup_tracer, first_span, setup_tracer.size(), &r);
      AddBuildCounts(dbs, &r);
      records.push_back(std::move(r));
    }
  }
  PrintSetups(setup_s);
  PrintFixtures(dbs);

  const Mix mix = MakeMix(a.workload, dbs);
  const Digests ref = Reference(&dbs, mix);
  CheckRecorded(ref, recorded);
  if (!a.record_path.empty()) {
    RecordDigests(a, ref);
    return g_failures.failed == 0 ? 0 : 1;
  }

  const bool wire = a.workload == Workload::kWire;
  Servers servers;
  if (wire || a.trace) {
    if (Status st = servers.Start(dbs); !st.ok()) {
      std::fprintf(stderr, "perfbench: server start failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  Context ctx{&dbs, &ref};
  // The wire workload runs two client threads (one connection to each
  // server apiece); the engine-direct workloads run one.
  const size_t threads = wire ? 2 : 1;
  const size_t min_samples = a.trace ? 0 : SamplesForTail(0.99);
  const int64_t window_ns = static_cast<int64_t>(a.seconds * 1e9);
  const int64_t cap_ns = static_cast<int64_t>(
      std::max(kMaxStretch * a.seconds, kMinCapSeconds) * 1e9);
  std::vector<Timings> timings(threads);
  std::vector<Tracer> tracers(threads);
  std::vector<std::vector<Record>> thread_records(threads);
  std::atomic<uint64_t> completed{0};
  const int64_t start = NowNs();
  auto client_loop = [&](size_t ti) {
    std::unique_ptr<Clients> clients;
    if (wire || a.trace) clients = std::make_unique<Clients>(servers);
    Clients* plain_clients = wire ? clients.get() : nullptr;
    const size_t rotate = ti * mix.statements.size() / threads;
    uint64_t req = (ti + 1) << 40;
    for (uint64_t pass = 0;; ++pass) {
      const int64_t elapsed = NowNs() - start;
      const bool enough = completed.load() >= min_samples;
      if (pass > 0 && elapsed >= window_ns &&
          (enough || elapsed >= cap_ns)) {
        if (!a.trace || !timings[ti].traced_rounds_ms.empty()) break;
      }
      const uint64_t before = timings[ti].completed;
      if (a.trace && pass % 2 == 1) {
        thread_records[ti].push_back(TracedPass(ctx, mix.statements, rotate,
                                                clients.get(), wire, wire,
                                                &tracers[ti], &req,
                                                &timings[ti]));
      } else {
        PlainPass(ctx, mix.statements, rotate, plain_clients, &timings[ti]);
      }
      completed += timings[ti].completed - before;
    }
  };
  std::vector<std::thread> pool;
  for (size_t ti = 1; ti < threads; ++ti) pool.emplace_back(client_loop, ti);
  client_loop(0);
  for (std::thread& th : pool) th.join();

  Timings all;
  for (const Timings& t : timings) all.Merge(t);
  // Engine-direct workloads time Database::Query in their untraced passes,
  // under the same pool state as the split route of the traced passes.
  const double query_us = Median(all.plain_rounds_ms) * 1e3;
  for (auto& per_thread : thread_records) {
    for (Record& r : per_thread) {
      if (!wire) SetQueryTime(query_us, &r);
      records.push_back(std::move(r));
    }
  }
  const uint64_t peak_queue = servers.PeakQueueDepth();
  std::vector<Metric> metrics;
  if (a.trace) {
    metrics = LayerMetrics(records, all, peak_queue);
    std::vector<const Tracer*> all_tracers = {&setup_tracer};
    for (const Tracer& t : tracers) all_tracers.push_back(&t);
    WriteSpans(a.spans_path, all_tracers);
  } else {
    double qps = 0;
    for (const Timings& t : timings) qps += t.Rate();
    metrics = EndToEndMetrics(all, qps, Median(setup_s), Median(build_mb_per_s),
                              StoredRatio(dbs), "statements");
  }
  return PrintResult(metrics);
}

// ------------------------------------------------------------ load workload

int RunLoadWorkload(const Args& a) {
  const Digests recorded = ReadRecorded(a.digests_path, a.seed, a.workload_name);
  // Set-up: generate the paper-scale corpora and serialize them to text.
  std::vector<Corpus> corpora;
  std::vector<double> setup_s;
  for (int i = 0; i < Setups(a.workload); ++i) {
    corpora.clear();
    const int64_t t0 = NowNs();
    corpora = MakeCorpora(a.workload, a.seed);
    setup_s.push_back(Seconds(NowNs() - t0));
  }
  PrintSetups(setup_s);
  for (const Corpus& c : corpora) {
    std::printf("perfbench: corpus %s documents=%zu xml_bytes=%llu\n",
                c.name.c_str(), c.texts.size(),
                static_cast<unsigned long long>(c.xml_bytes));
  }

  Timings timings;
  std::vector<Record> records;
  std::vector<double> mb_per_s;
  std::vector<double> ratios;
  Tracer tracer;
  uint64_t request = 0;
  Digests ref;
  uint64_t peak_queue = 0;
  const int64_t window_ns = static_cast<int64_t>(a.seconds * 1e9);
  const int64_t cap_ns = static_cast<int64_t>(
      std::max(kMaxStretch * a.seconds, kMinCapSeconds) * 1e9);
  const size_t min_samples = a.trace ? 0 : SamplesForTail(0.99);
  const int64_t start = NowNs();
  for (uint64_t pass = 0;; ++pass) {
    const int64_t elapsed = NowNs() - start;
    if (pass > 0 && elapsed >= window_ns &&
        (timings.latency_ms.size() >= min_samples ||
         elapsed >= cap_ns) &&
        (!a.trace || !timings.traced_rounds_ms.empty())) {
      break;
    }
    const bool traced = a.trace && pass % 2 == 1;
    Tracer* t = traced ? &tracer : nullptr;
    const size_t first_span = tracer.size();
    // The timed part: both corpora under both mappings.
    Result<std::vector<BuiltDb>> built = BuildAll(a.workload, corpora, t, &request);
    if (!built.ok()) {
      g_failures.Attempt(false, "load pass: " + built.status().ToString());
      break;
    }
    std::vector<BuiltDb> dbs = std::move(*built);
    double hybrid_ms = 0, xorator_ms = 0, xml = 0;
    Record rec;
    for (const BuiltDb& b : dbs) {
      const double ms = Millis(b.build_ns);
      (b.xorator ? xorator_ms : hybrid_ms) += ms;
      xml += static_cast<double>(b.corpus->xml_bytes);
      g_failures.Attempt(true, "load " + b.name);
      if (!traced) {
        timings.latency_ms.insert(timings.latency_ms.end(), b.doc_ms.begin(),
                                  b.doc_ms.end());
        for (size_t d = 0; d < b.doc_ms.size(); ++d) {
          timings.latency_by_op_ms[b.name + "#" + std::to_string(d)]
              .push_back(b.doc_ms[d]);
        }
        timings.completed += b.doc_ms.size();
        timings.busy_s += ms / 1e3;
      }
      AddPool({}, b.pool, &rec);
    }
    if (traced) {
      AddSpanTimes(tracer, first_span, tracer.size(), &rec);
      AddBuildCounts(dbs, &rec);
      timings.traced_rounds_ms.push_back(hybrid_ms + xorator_ms);
    } else {
      timings.hybrid_rounds_ms.push_back(hybrid_ms);
      timings.xorator_rounds_ms.push_back(xorator_ms);
      timings.plain_rounds_ms.push_back(hybrid_ms + xorator_ms);
      mb_per_s.push_back(xml / 1e6 / ((hybrid_ms + xorator_ms) / 1e3));
      ratios.push_back(StoredRatio(dbs));
    }
    if (pass == 0) PrintFixtures(dbs);

    // Verify the loaded data (untimed): the pinned cross-mapping answers,
    // stable across passes and equal to the recorded ones.
    const Mix mix = MakeMix(a.workload, dbs);
    const Digests got = Reference(&dbs, mix);
    if (pass == 0) {
      ref = got;
      CheckRecorded(ref, recorded);
      if (!a.record_path.empty()) {
        RecordDigests(a, ref);
        return g_failures.failed == 0 ? 0 : 1;
      }
    } else {
      for (const auto& [key, digest] : got) {
        auto want = ref.find(key);
        g_failures.Attempt(want != ref.end() && want->second == digest,
                           "pass answer of " + key);
      }
    }
    if (traced) {
      Servers servers;
      if (Status st = servers.Start(dbs); !st.ok()) {
        g_failures.Attempt(false, "server start: " + st.ToString());
        break;
      }
      Clients clients(servers);
      Context ctx{&dbs, &ref};
      Timings verify;
      Record q = TracedPass(ctx, mix.statements, 0, &clients, false, true,
                            &tracer, &request, &verify);
      // Load owns the build-side pool counters; keep the query layers.
      for (const auto& [k, v] : q) {
        if (k.rfind("buffer_pool.", 0) != 0 && rec.count(k) == 0) rec[k] = v;
      }
      peak_queue = std::max(peak_queue, servers.PeakQueueDepth());
    }
    if (traced) {
      const double lookups = rec["buffer_pool.hits"] + rec["buffer_pool.misses"];
      rec["buffer_pool.hit_ratio"] = lookups > 0 ? rec["buffer_pool.hits"] / lookups : 1.0;
      records.push_back(std::move(rec));
    }
  }

  std::vector<Metric> metrics;
  if (a.trace) {
    metrics = LayerMetrics(records, timings, peak_queue);
    WriteSpans(a.spans_path, {&tracer});
  } else {
    metrics = EndToEndMetrics(timings, timings.Rate(), Median(setup_s),
                              Median(mb_per_s),
                              Median(ratios), "documents");
  }
  return PrintResult(metrics);
}

// ------------------------------------------------------------------- main

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload lookup|scan|wire|load --seed N "
               "--seconds S --trace 0|1 [--digests FILE] [--spans FILE] "
               "[--record-digests FILE]\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload_name = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--digests") {
      a.digests_path = value;
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else if (flag == "--record-digests") {
      a.record_path = value;
    } else {
      Usage();
    }
  }
  static const std::map<std::string, Workload> kNames = {
      {"lookup", Workload::kLookup},
      {"scan", Workload::kScan},
      {"wire", Workload::kWire},
      {"load", Workload::kLoad}};
  auto it = kNames.find(a.workload_name);
  if (it == kNames.end() || a.seconds <= 0) Usage();
  a.workload = it->second;
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  perfbench::PrintContext(args);
  return args.workload == perfbench::Workload::kLoad
             ? perfbench::RunLoadWorkload(args)
             : perfbench::RunQueryWorkload(args);
}
