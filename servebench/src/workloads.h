// Seeded workload generators for servebench.
//
// Everything the benchmark sends to the server is generated here from the
// workload name and the seed alone: the DDL, the initial data, the measured
// statement lists and the ingest write stream. Nothing here calls into the
// engine (time literals, the PRNG and the DDL text are the benchmark's own),
// so a later change under src/ cannot alter the inputs; the self-test checks
// that the pinned DDL still matches the engine's tenant declarations.
//
// Transaction times are predicted exactly: each relation stamps its k-th
// mutation at k seconds past the epoch (the engine's per-relation logical
// clock) and each relation is written by exactly one connection, so every
// generated valid time is placed inside its declared band relative to the
// stamp it will receive.
#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace servebench {

/// splitmix64: the benchmark's own PRNG, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [lo, hi] (inclusive).
  int64_t Uniform(int64_t lo, int64_t hi);

 private:
  uint64_t state_;
};

/// "'YYYY-MM-DD HH:MM:SS'" for whole-second instants (negative = pre-epoch).
std::string TimeLiteral(int64_t seconds);

/// The data generator behind one relation: which declared specialization
/// its stamps honour.
enum class App {
  kProcessMonitoring,  // delayed retroactive 1min, retroactively bounded 2h
  kDegenerate,         // vt = tt (1s granularity)
  kPayroll,            // early strongly predictively bounded 3d..7d
  kAssignments,        // weekly contiguous intervals, vt_begin >= tt
  kAccounting,         // strongly bounded 5d back, 2d ahead
  kOrders,             // predictively bounded 30d
  kArchaeology,        // non-increasing one-hour strata
  kGeneral,            // undeclared
  kMonotone,           // non-decreasing valid times
};

/// The CREATE statement pinned for `app`, naming the relation `name`.
std::string CreateStatement(App app, const std::string& name);

struct RelationSpec {
  std::string name;
  App app = App::kGeneral;
  int64_t initial = 0;      // elements loaded at set-up
  int rejected_tail = 0;    // out-of-band inserts appended after the load
  std::string kernel;       // scan kernel EXPLAIN must report at set-up
  bool expect_drifted = false;
};

/// One generated element (stamps in seconds).
struct GenElement {
  uint64_t surrogate = 0;
  int64_t tt = 0;
  int64_t vt_begin = 0;
  int64_t vt_end = 0;  // vt_begin + 1 for events
};

/// Per-relation generator state: the clock and surrogate prediction plus
/// the app's own progress. Deterministic given the seed.
class RelationGen {
 public:
  RelationGen(RelationSpec spec, uint64_t seed);

  const RelationSpec& spec() const { return spec_; }
  bool interval() const;

  /// Next in-band INSERT; records the element it will create.
  std::string NextInsert();
  /// An INSERT far outside the declared band (the engine must reject it;
  /// the rejected stamp still ticks the clock and burns a surrogate).
  std::string NextRejectedInsert();
  /// DELETE of the oldest live element this generator inserted.
  std::string NextDelete(uint64_t* surrogate);

  const std::vector<GenElement>& elements() const { return elements_; }
  /// Live (not deleted) elements among those generated.
  int64_t live() const;

  // Read statements over the generated extension.
  std::string Timeslice(Rng& rng) const;
  std::string TimesliceAsOf(Rng& rng) const;
  /// Valid-time range covering about `rows` elements.
  std::string Range(Rng& rng, int64_t rows) const;
  std::string Current() const;
  /// Rollback to the stamp of the `rows`-th element.
  std::string RollbackRows(int64_t rows) const;

 private:
  int64_t PickValidInstant(Rng& rng, size_t* index) const;
  std::string InsertAt(int64_t vt_begin, int64_t vt_end, uint64_t object,
                       bool record);

  RelationSpec spec_;
  Rng rng_;
  int64_t mutations_ = 0;  // = the next transaction time, in seconds
  uint64_t next_surrogate_ = 1;
  int64_t last_vt_ = 0;
  std::vector<int64_t> employee_weeks_;
  std::vector<GenElement> elements_;
  std::deque<uint64_t> deletable_;  // inserted, not yet deleted, oldest first
  std::vector<uint64_t> deleted_;
  // Valid begins, sorted on first use by Range().
  mutable std::vector<int64_t> sorted_vt_;
  mutable bool sorted_ = true;
};

enum class Protocol { kHttp, kTsp1 };

struct ConnectionPlan {
  Protocol protocol = Protocol::kTsp1;
  /// Measured statements, replayed from the start after the warm-up and
  /// cycled when exhausted. Empty for the ingest writer.
  std::vector<std::string> statements;
  bool writer = false;
};

struct RelationSetup {
  /// CREATE, the initial load, then the rejected tail.
  std::vector<std::string> statements;
  /// Indexes into `statements` the engine must refuse.
  std::vector<size_t> rejected;
};

struct Workload {
  std::string name;
  std::vector<RelationSpec> relations;
  std::vector<RelationSetup> setup;  // parallel to relations
  /// Generators positioned after set-up, parallel to relations: the
  /// reference model of the loaded extension, and the ingest writer's
  /// continuation.
  std::vector<std::unique_ptr<RelationGen>> gens;
  /// Relations the ingest writer writes (indexes into relations).
  std::vector<size_t> written;
  std::vector<ConnectionPlan> connections;
  /// Statements per connection executed untimed before measuring.
  uint64_t warmup_statements = 0;
  /// Set-ups per run (each on a fresh data dir); setup_s is their median.
  int setups = 5;
  /// Deletes per 100 writes on the ingest writer.
  int delete_percent = 0;
};

/// Names of every workload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds the workload `name` for `seed`: relation sizes (seed-jittered by
/// up to 2%) and the measured statement lists. Returns false for an unknown
/// name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/// The ingest writer's stream: round-robin over the written relations,
/// `delete_percent` of writes deleting the oldest live element.
class WriteStream {
 public:
  WriteStream(std::vector<RelationGen*> relations, int delete_percent,
              uint64_t seed);
  struct Write {
    std::string statement;
    std::string relation;
    bool is_delete = false;
    uint64_t surrogate = 0;  // predicted inserted / deleted element
  };
  Write Next();

 private:
  std::vector<RelationGen*> relations_;
  int delete_percent_;
  Rng rng_;
  size_t next_ = 0;
};

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
