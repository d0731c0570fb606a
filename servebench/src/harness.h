// The load generator: server process control, the set-up load, the
// reference model, and the closed measured loop with its reply checks.
// Used by the untraced run (a spawned tempspec_serve) and by the traced run
// (the same engine hosted in-process), which differ only in the server.
#ifndef SERVEBENCH_HARNESS_H_
#define SERVEBENCH_HARNESS_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/client.h"
#include "workloads.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

int64_t NowNanos();

/// One tempspec_serve child process on a data dir. The pid is kept in a
/// pid file so a later run can reap a server this one failed to stop.
class ServerProcess {
 public:
  ServerProcess(std::string binary, std::string data_dir, std::string run_dir);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns the daemon and waits for its port; false on failure.
  bool Start();
  /// Signals the daemon and waits for it to exit. Idempotent.
  void Stop(int signo);

  uint16_t port() const { return port_; }
  /// Resident set size of the daemon, bytes (0 when unreadable).
  int64_t RssBytes() const;

  /// Kills a daemon a previous run left behind (pid file in `run_dir`).
  /// Returns how many it reaped.
  static int ReapStray(const std::string& run_dir);

 private:
  std::string binary_;
  std::string data_dir_;
  std::string run_dir_;
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// Replies the server must have counted in server.requests (every reply
/// except admission refusals and transport failures).
struct RequestLedger {
  std::atomic<uint64_t> counted{0};
  void Note(const tempspec::WireReply& reply);
};

/// One client-side request span (traced run only).
struct ClientSpan {
  std::string wire_trace;  // joins the server-side handler span
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t statement = 0;  // index into the connection's list
  bool write = false;
  uint32_t reply_bytes = 0;
};

/// One write the ingest writer sent, in order (when LoopConfig asks).
struct WriteRecord {
  std::string statement;
  bool is_delete = false;
};

struct ConnStats {
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::vector<int64_t> done_ns;  // completion time of every measured success
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t compared = 0;  // replies checked row-for-row against the model
  std::vector<std::string> errors;  // the first few failures
  std::map<std::string, int64_t> acked_inserts;
  std::map<std::string, int64_t> acked_deletes;
  int64_t last_end_ns = 0;
  std::vector<ClientSpan> spans;
  std::vector<WriteRecord> writes;  // warm-up and measured, in order
};

struct SetupResult {
  double seconds = 0;
  std::vector<double> write_us;
  uint64_t statements = 0;
  std::vector<std::string> errors;
};

/// Creates every relation and loads its initial data over two TSP1
/// connections (each relation on exactly one connection, so its stamps are
/// deterministic). Checks every reply, including the expected refusals.
SetupResult LoadSetup(const Workload& workload, uint16_t port,
                      RequestLedger* ledger);

/// Asserts each relation's planned kernel via EXPLAIN and its drift state
/// via SHOW SPECIALIZATION. Appends failures to `errors`.
void CheckPlans(const Workload& workload, uint16_t port, RequestLedger* ledger,
                std::vector<std::string>* errors);

/// Expected reply bodies for a seeded sample of every connection's list,
/// computed by an in-process QueryService loaded with the same set-up.
struct Reference {
  std::vector<std::unordered_map<uint32_t, std::string>> bodies;
};
Reference BuildReference(const Workload& workload, uint64_t seed);

struct LoopConfig {
  double seconds = 1;
  bool record_spans = false;   // ClientSpan per measured statement
  bool record_writes = false;  // WriteRecord per write, warm-up included
  /// Called once between the warm-up and the measured phase, while no
  /// statement is in flight.
  std::function<void()> on_warmed;
};

struct MeasuredRun {
  std::vector<ConnStats> connections;
  int64_t start_ns = 0;
  double elapsed_s = 0;
  uint64_t warmup_statements = 0;
};

/// Untimed warm-up (workload.warmup_statements per connection), a barrier,
/// then the closed measured loop for `config.seconds`. Every reply is
/// classified and checked.
MeasuredRun RunMeasured(const Workload& workload, WriteStream* writes,
                        uint16_t port, const Reference& reference,
                        RequestLedger* ledger, const LoopConfig& config);

/// Cumulative CPU time from /proc/stat: what the hypervisor stole, and all.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};

/// Samples /proc/stat every 50 ms on its own thread until destroyed, so the
/// steal share of any interval of the run (a noise indicator for the
/// evidence) can be read back afterwards.
class StealSampler {
 public:
  StealSampler();
  ~StealSampler();
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Steal share between the samples nearest to the two instants.
  double ShareBetween(int64_t from_ns, int64_t to_ns) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<int64_t, CpuTimes>> samples_;  // guarded by mu_
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: it uses the members above
};

/// "N element(s)" out of a reply body; -1 when absent.
int64_t ElementCount(const std::string& body);

/// Sum of file sizes under `dir`.
int64_t DirectoryBytes(const std::string& dir);

}  // namespace servebench

#endif  // SERVEBENCH_HARNESS_H_
