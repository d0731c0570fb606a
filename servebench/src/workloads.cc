#include "workloads.h"

#include <algorithm>
#include <cstdio>

namespace servebench {

namespace {

constexpr int64_t kMin = 60;
constexpr int64_t kHour = 60 * kMin;
constexpr int64_t kDay = 24 * kHour;
constexpr int64_t kWeek = 7 * kDay;
constexpr uint64_t kObjects = 16;
constexpr int64_t kEmployees = 16;
// In-band margins: every generated offset stays this far inside its band.
constexpr int64_t kMargin = 2 * kHour;

// Sizes (elements per relation before the 0-2% seed jitter).
constexpr int64_t kPointRelationSize = 4000;
constexpr int64_t kHistoryRelationSize = 40000;
constexpr int64_t kBulkRelationSize = 5000;
constexpr int64_t kIngestWrittenSize = 2000;
constexpr int64_t kIngestReadSize = 5000;

// Measured statement lists, per connection.
constexpr size_t kPointListLength = 4096;
constexpr size_t kBulkListLength = 256;
constexpr int64_t kNarrowRows = 8;
constexpr int64_t kBulkMinRows = 1000;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashString(uint64_t seed, const std::string& s) {
  uint64_t h = Mix(seed);
  for (char c : s) h = Mix(h ^ static_cast<unsigned char>(c));
  return h;
}

/// Floor division for pre-epoch instants.
int64_t FloorDiv(int64_t a, int64_t b) {
  return a / b - ((a % b != 0) && ((a < 0) != (b < 0)) ? 1 : 0);
}

std::string Quote(int64_t seconds) { return TimeLiteral(seconds); }

}  // namespace

uint64_t Rng::Next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int64_t Rng::Uniform(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

std::string TimeLiteral(int64_t seconds) {
  // Days-from-civil inverse (Howard Hinnant's algorithm), proleptic
  // Gregorian, valid for negative day counts.
  const int64_t days = FloorDiv(seconds, kDay);
  const int64_t secs = seconds - days * kDay;
  const int64_t z = days + 719468;
  const int64_t era = FloorDiv(z, 146097);
  const int64_t doe = z - era * 146097;
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int64_t mp = (5 * doy + 2) / 153;
  const int64_t d = doy - (153 * mp + 2) / 5 + 1;
  const int64_t m = mp < 10 ? mp + 3 : mp - 9;
  const int64_t y = yoe + era * 400 + (m <= 2 ? 1 : 0);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "'%04lld-%02lld-%02lld %02lld:%02lld:%02lld'",
                static_cast<long long>(y), static_cast<long long>(m),
                static_cast<long long>(d),
                static_cast<long long>(secs / kHour),
                static_cast<long long>(secs % kHour / kMin),
                static_cast<long long>(secs % kMin));
  return buf;
}

std::string CreateStatement(App app, const std::string& name) {
  // Pinned from the seven tenant declarations (TenantDriver::
  // CreateStatement). Deviations: the degenerate relation samples at 1s
  // granularity (at 1d every element of a run shares one granule, so no
  // timeslice could be selective), and the monotone relation, which no
  // tenant declares, is the process-monitoring schema WITH NONDECREASING.
  switch (app) {
    case App::kProcessMonitoring:
      return "CREATE EVENT RELATION " + name +
             " (sensor INT64 KEY, celsius DOUBLE) GRANULARITY 1s WITH "
             "DELAYED RETROACTIVE 1min, RETROACTIVELY BOUNDED 2h";
    case App::kDegenerate:
      return "CREATE EVENT RELATION " + name +
             " (sensor INT64 KEY, level DOUBLE) GRANULARITY 1s WITH "
             "DEGENERATE";
    case App::kPayroll:
      return "CREATE EVENT RELATION " + name +
             " (employee INT64 KEY, amount DOUBLE) GRANULARITY 1s WITH EARLY "
             "STRONGLY PREDICTIVELY BOUNDED 3d 7d";
    case App::kAssignments:
      return "CREATE INTERVAL RELATION " + name +
             " (employee INT64 KEY, project STRING) GRANULARITY 1h WITH "
             "VT_BEGIN PREDICTIVE, STRICT VALID INTERVAL REGULAR 1w, "
             "CONTIGUOUS PER SURROGATE";
    case App::kAccounting:
      return "CREATE EVENT RELATION " + name +
             " (account INT64 KEY, amount DOUBLE) GRANULARITY 1s WITH "
             "STRONGLY BOUNDED 5d 2d";
    case App::kOrders:
      return "CREATE EVENT RELATION " + name +
             " (customer INT64 KEY, total DOUBLE) GRANULARITY 1s WITH "
             "PREDICTIVELY BOUNDED 30d";
    case App::kArchaeology:
      return "CREATE INTERVAL RELATION " + name +
             " (square INT64 KEY, depth DOUBLE) GRANULARITY 1h WITH "
             "NONINCREASING";
    case App::kGeneral:
      return "CREATE EVENT RELATION " + name +
             " (id INT64 KEY, v DOUBLE) GRANULARITY 1s";
    case App::kMonotone:
      return "CREATE EVENT RELATION " + name +
             " (sensor INT64 KEY, celsius DOUBLE) GRANULARITY 1s WITH "
             "NONDECREASING";
  }
  return "";
}

RelationGen::RelationGen(RelationSpec spec, uint64_t seed)
    : spec_(std::move(spec)),
      rng_(HashString(seed, spec_.name)),
      employee_weeks_(kEmployees + 1, 0) {}

bool RelationGen::interval() const {
  return spec_.app == App::kAssignments || spec_.app == App::kArchaeology;
}

int64_t RelationGen::live() const {
  return static_cast<int64_t>(elements_.size() - deleted_.size());
}

std::string RelationGen::InsertAt(int64_t vt_begin, int64_t vt_end,
                                  uint64_t object, bool record) {
  char value[32];
  std::snprintf(value, sizeof(value), "%lld.%02lld",
                static_cast<long long>(rng_.Uniform(10, 89)),
                static_cast<long long>(rng_.Uniform(0, 99)));
  std::string values = std::to_string(object) + ", ";
  if (spec_.app == App::kAssignments) {
    values += "'project-" + std::to_string(rng_.Uniform(0, 4)) + "'";
  } else {
    values += value;
  }
  std::string statement = "INSERT INTO " + spec_.name + " OBJECT " +
                          std::to_string(object) + " VALUES (" + values +
                          ") VALID ";
  if (interval()) {
    statement += "FROM " + Quote(vt_begin) + " TO " + Quote(vt_end);
  } else {
    statement += "AT " + Quote(vt_begin);
  }
  const uint64_t surrogate = next_surrogate_++;
  if (record) {
    GenElement e;
    e.surrogate = surrogate;
    e.tt = mutations_;
    e.vt_begin = vt_begin;
    e.vt_end = vt_end;
    elements_.push_back(e);
    deletable_.push_back(surrogate);
    sorted_vt_.push_back(vt_begin);
    sorted_ = false;
  }
  ++mutations_;
  return statement;
}

std::string RelationGen::NextInsert() {
  const int64_t tt = mutations_;
  uint64_t object = static_cast<uint64_t>(rng_.Uniform(1, kObjects));
  int64_t vt = 0;
  switch (spec_.app) {
    case App::kProcessMonitoring:
      // Transmission delay well inside [1min, 2h].
      vt = tt - rng_.Uniform(5 * kMin, kHour);
      break;
    case App::kDegenerate:
      vt = tt;
      break;
    case App::kPayroll:
      vt = tt + rng_.Uniform(3 * kDay + kMargin, 7 * kDay - kMargin);
      break;
    case App::kAssignments: {
      // Round-robin employees; each employee's weeks are consecutive, so
      // per-surrogate intervals stay contiguous and exactly one week long.
      const int64_t employee =
          static_cast<int64_t>(elements_.size()) % kEmployees + 1;
      const int64_t week = employee_weeks_[employee]++;
      const int64_t begin = 2 * kDay + week * kWeek;
      return InsertAt(begin, begin + kWeek, static_cast<uint64_t>(employee),
                      true);
    }
    case App::kAccounting:
      vt = tt + rng_.Uniform(-5 * kDay + kMargin, 2 * kDay - kMargin);
      break;
    case App::kOrders:
      vt = tt + rng_.Uniform(-60 * kDay, 30 * kDay - kMargin);
      break;
    case App::kArchaeology: {
      const int64_t layer = static_cast<int64_t>(elements_.size());
      const int64_t begin = -(layer + 1) * kHour;
      return InsertAt(begin, begin + kHour, object, true);
    }
    case App::kGeneral:
      vt = tt + rng_.Uniform(-kMargin, kMargin);
      break;
    case App::kMonotone:
      last_vt_ += rng_.Uniform(0, 2);
      vt = last_vt_;
      break;
  }
  return InsertAt(vt, vt + 1, object, true);
}

std::string RelationGen::NextRejectedInsert() {
  // A month past every declared predictive bound.
  const int64_t vt = mutations_ + 30 * kDay;
  return InsertAt(vt, vt + 1, 1, false);
}

std::string RelationGen::NextDelete(uint64_t* surrogate) {
  *surrogate = deletable_.front();
  deletable_.pop_front();
  deleted_.push_back(*surrogate);
  ++mutations_;
  return "DELETE FROM " + spec_.name + " WHERE ID " +
         std::to_string(*surrogate);
}

int64_t RelationGen::PickValidInstant(Rng& rng, size_t* index) const {
  *index = static_cast<size_t>(
      rng.Uniform(0, static_cast<int64_t>(elements_.size()) - 1));
  const GenElement& e = elements_[*index];
  return e.vt_begin + rng.Uniform(0, e.vt_end - e.vt_begin - 1);
}

std::string RelationGen::Timeslice(Rng& rng) const {
  size_t index = 0;
  const int64_t vt = PickValidInstant(rng, &index);
  return "TIMESLICE " + spec_.name + " AT " + Quote(vt);
}

std::string RelationGen::TimesliceAsOf(Rng& rng) const {
  size_t index = 0;
  const int64_t vt = PickValidInstant(rng, &index);
  const int64_t tt = rng.Uniform(elements_[index].tt, mutations_ - 1);
  return "TIMESLICE " + spec_.name + " AT " + Quote(vt) + " AS OF " +
         Quote(tt);
}

std::string RelationGen::Range(Rng& rng, int64_t rows) const {
  if (!sorted_) {
    std::sort(sorted_vt_.begin(), sorted_vt_.end());
    sorted_ = true;
  }
  const int64_t n = static_cast<int64_t>(sorted_vt_.size());
  rows = std::min(rows, n - 1);
  const int64_t i = rng.Uniform(0, n - 1 - rows);
  const int64_t lo = sorted_vt_[static_cast<size_t>(i)];
  const int64_t hi =
      std::max(lo + 1, sorted_vt_[static_cast<size_t>(i + rows)]);
  return "RANGE " + spec_.name + " FROM " + Quote(lo) + " TO " + Quote(hi);
}

std::string RelationGen::Current() const { return "CURRENT " + spec_.name; }

std::string RelationGen::RollbackRows(int64_t rows) const {
  rows = std::clamp<int64_t>(rows, 1, static_cast<int64_t>(elements_.size()));
  return "ROLLBACK " + spec_.name + " TO " +
         Quote(elements_[static_cast<size_t>(rows - 1)].tt);
}

WriteStream::WriteStream(std::vector<RelationGen*> relations,
                         int delete_percent, uint64_t seed)
    : relations_(std::move(relations)),
      delete_percent_(delete_percent),
      rng_(Mix(seed ^ 0x5772697465ULL)) {}

WriteStream::Write WriteStream::Next() {
  RelationGen* gen = relations_[next_];
  next_ = (next_ + 1) % relations_.size();
  Write w;
  w.relation = gen->spec().name;
  // Deletes target elements at least a few writes old, never the last live
  // one, so the relation never empties.
  if (rng_.Uniform(0, 99) < delete_percent_ && gen->live() > 8) {
    w.is_delete = true;
    w.statement = gen->NextDelete(&w.surrogate);
  } else {
    w.statement = gen->NextInsert();
    w.surrogate = gen->elements().back().surrogate;
  }
  return w;
}

namespace {

int64_t Jittered(int64_t base, uint64_t seed, const std::string& name) {
  return base + static_cast<int64_t>(HashString(seed ^ 0x6a6974ULL, name) %
                                     static_cast<uint64_t>(base / 50 + 1));
}

/// Narrow reads: timeslice 40%, timeslice-as-of 30%, ~8-row range 30%.
std::vector<std::string> NarrowReads(const std::vector<RelationGen*>& gens,
                                     size_t length, Rng& rng) {
  std::vector<std::string> out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    const RelationGen* gen = gens[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(gens.size()) - 1))];
    const int64_t kind = rng.Uniform(0, 9);
    if (kind < 4) {
      out.push_back(gen->Timeslice(rng));
    } else if (kind < 7) {
      out.push_back(gen->TimesliceAsOf(rng));
    } else {
      out.push_back(gen->Range(rng, kNarrowRows));
    }
  }
  return out;
}

/// Bulk reads: CURRENT, ROLLBACK TO and wide RANGE returning 10^3..n rows.
std::vector<std::string> BulkReads(const std::vector<RelationGen*>& gens,
                                   size_t length, Rng& rng) {
  std::vector<std::string> out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    const RelationGen* gen = gens[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(gens.size()) - 1))];
    const int64_t n = static_cast<int64_t>(gen->elements().size());
    switch (rng.Uniform(0, 2)) {
      case 0:
        out.push_back(gen->Current());
        break;
      case 1:
        out.push_back(gen->RollbackRows(rng.Uniform(kBulkMinRows, n)));
        break;
      default:
        out.push_back(gen->Range(rng, rng.Uniform(kBulkMinRows, n - 1)));
        break;
    }
  }
  return out;
}

struct RelDef {
  const char* name;
  App app;
  int64_t size;
  const char* kernel;  // EXPLAIN TIMESLICE kernel token
  int rejected_tail;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "point_reads", "history_scan", "bulk_export", "ingest_mixed"};
  return names;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  std::vector<RelDef> defs;
  std::vector<RelDef> read_defs;  // ingest_mixed: the reader's relations
  const std::vector<RelDef> seven = {
      {"plant_temperatures", App::kProcessMonitoring, 0, "banded_columnar", 0},
      {"reactor_samples", App::kDegenerate, 0, "degenerate_columnar", 0},
      {"payroll_deposits", App::kPayroll, 0, "banded_columnar", 0},
      {"assignments", App::kAssignments, 0, "generic_columnar", 0},
      {"ledger", App::kAccounting, 0, "banded_columnar", 0},
      {"orders", App::kOrders, 0, "banded_columnar", 0},
      {"strata", App::kArchaeology, 0, "row_at_a_time", 0},
  };
  if (name == "point_reads") {
    defs = seven;
    for (RelDef& d : defs) d.size = kPointRelationSize;
  } else if (name == "history_scan") {
    // One relation per plan path.
    defs = {
        {"reactor_samples", App::kDegenerate, kHistoryRelationSize,
         "degenerate_columnar", 0},
        {"ledger", App::kAccounting, kHistoryRelationSize, "banded_columnar",
         0},
        {"readings", App::kMonotone, kHistoryRelationSize,
         "monotone_columnar", 0},
        {"general_events", App::kGeneral, kHistoryRelationSize,
         "row_at_a_time", 0},
        {"ledger_drifted", App::kAccounting, kHistoryRelationSize,
         "row_at_a_time", 4},
    };
  } else if (name == "bulk_export") {
    defs = {
        {"ledger", App::kAccounting, kBulkRelationSize, "banded_columnar", 0},
        {"reactor_samples", App::kDegenerate, kBulkRelationSize,
         "degenerate_columnar", 0},
        {"strata", App::kArchaeology, kBulkRelationSize, "row_at_a_time", 0},
        {"general_events", App::kGeneral, kBulkRelationSize, "row_at_a_time",
         0},
        {"orders", App::kOrders, kBulkRelationSize, "banded_columnar", 0},
        {"assignments", App::kAssignments, kBulkRelationSize,
         "generic_columnar", 0},
    };
  } else if (name == "ingest_mixed") {
    defs = seven;
    for (RelDef& d : defs) d.size = kIngestWrittenSize;
    read_defs = {
        {"plant_readback", App::kProcessMonitoring, kIngestReadSize,
         "banded_columnar", 0},
        {"ledger_readback", App::kAccounting, kIngestReadSize,
         "banded_columnar", 0},
        {"strata_readback", App::kArchaeology, kIngestReadSize,
         "row_at_a_time", 0},
    };
  } else {
    return false;
  }

  Workload w;
  w.name = name;
  auto add = [&](const RelDef& d) {
    RelationSpec spec;
    spec.name = d.name;
    spec.app = d.app;
    spec.initial = Jittered(d.size, seed, d.name);
    spec.rejected_tail = d.rejected_tail;
    spec.kernel = d.kernel;
    spec.expect_drifted = d.rejected_tail > 0;
    auto gen = std::make_unique<RelationGen>(spec, seed);
    RelationSetup setup;
    setup.statements.push_back(CreateStatement(spec.app, spec.name));
    for (int64_t i = 0; i < spec.initial; ++i) {
      setup.statements.push_back(gen->NextInsert());
    }
    for (int i = 0; i < spec.rejected_tail; ++i) {
      setup.rejected.push_back(setup.statements.size());
      setup.statements.push_back(gen->NextRejectedInsert());
    }
    w.relations.push_back(spec);
    w.setup.push_back(std::move(setup));
    w.gens.push_back(std::move(gen));
  };
  for (const RelDef& d : defs) add(d);
  for (const RelDef& d : read_defs) add(d);

  std::vector<RelationGen*> all;
  for (auto& g : w.gens) all.push_back(g.get());
  Rng rng(Mix(HashString(seed, name)));
  if (name == "point_reads") {
    w.connections = {{Protocol::kTsp1, NarrowReads(all, kPointListLength, rng), false},
                     {Protocol::kHttp, NarrowReads(all, kPointListLength, rng), false}};
    w.warmup_statements = 20000;
  } else if (name == "history_scan") {
    w.connections = {{Protocol::kTsp1, NarrowReads(all, kPointListLength, rng), false},
                     {Protocol::kTsp1, NarrowReads(all, kPointListLength, rng), false}};
    w.warmup_statements = 8000;
    w.setups = 3;  // ~8 s each
  } else if (name == "bulk_export") {
    w.connections = {{Protocol::kTsp1, BulkReads(all, kBulkListLength, rng), false},
                     {Protocol::kHttp, BulkReads(all, kBulkListLength, rng), false}};
    w.warmup_statements = 400;
  } else {
    std::vector<RelationGen*> readers(all.begin() + static_cast<long>(defs.size()),
                                      all.end());
    for (size_t i = 0; i < defs.size(); ++i) w.written.push_back(i);
    w.connections = {{Protocol::kTsp1, {}, true},
                     {Protocol::kHttp, NarrowReads(readers, kPointListLength, rng), false}};
    w.warmup_statements = 15000;
    w.delete_percent = 5;
  }
  *out = std::move(w);
  return true;
}

}  // namespace servebench
