#ifndef XORATOR_BENCHUTIL_FIXTURE_H_
#define XORATOR_BENCHUTIL_FIXTURE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "mapping/mapper.h"
#include "mapping/schema.h"
#include "ordb/database.h"
#include "shred/loader.h"
#include "xml/dom.h"

namespace xorator::benchutil {

/// Which mapping algorithm a fixture database uses.
enum class Mapping { kHybrid, kXorator, kShared, kPerElement, kXoratorTuned };

/// A loaded experiment database: mapping + engine + load report.
///
/// Once built, the database may be queried from many threads at once —
/// SELECTs take the statement lock shared (DESIGN.md section 10); the
/// concurrency tests and the multi-threaded benchmarks share one
/// ExperimentDb across reader threads this way.
struct ExperimentDb {
  mapping::MappedSchema schema;
  std::unique_ptr<ordb::Database> db;
  shred::LoadReport load;
};

/// Knobs for one paper-experiment run (mapping, corpus scale, indexes).
struct ExperimentOptions {
  Mapping mapping = Mapping::kHybrid;
  /// Load the corpus this many times (the paper's DSx1/x2/x4/x8 scaling).
  int load_multiplier = 1;
  /// Queries handed to the index advisor (the paper's "Index Wizard") after
  /// loading; statistics are always collected ("runstats").
  std::vector<std::string> advisor_queries;
  shred::LoadOptions load_options;
  ordb::DbOptions db_options;
  /// Thresholds for Mapping::kXoratorTuned (statistics collected from the
  /// first five documents).
  mapping::TunedOptions tuned;
};

/// Builds a database for `dtd_text`, loads `documents` (multiplied), creates
/// advised indexes and collects statistics. The XADT UDFs are registered for
/// every mapping so both dialects run everywhere.
[[nodiscard]] Result<ExperimentDb> BuildExperimentDb(
    const std::string& dtd_text,
    const std::vector<const xml::Node*>& documents,
    const ExperimentOptions& options);

/// Maps a DTD text with the requested algorithm.
[[nodiscard]] Result<mapping::MappedSchema> MapDtd(const std::string& dtd_text,
                                     Mapping mapping);

}  // namespace xorator::benchutil

#endif  // XORATOR_BENCHUTIL_FIXTURE_H_
