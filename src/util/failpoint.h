// Deterministic fault-injection seam for the storage stack.
//
// A failpoint is a named IO site ("wal.append", "disk.write_page", ...)
// that the storage layer consults before performing the real syscall.
// Tests arm a site with a FaultSpec — fault kind, the operation count at
// which it fires, and a seed — and the registry then injects short writes,
// bit flips, dropped fsyncs, transient EIO, or a clean simulated crash at
// exactly that operation. Once a crash-type fault fires, the registry enters
// a sticky "crashed" state and every subsequent storage operation fails,
// which lets a test stop a workload at a deterministic point, tear the
// store down, and re-open it to exercise recovery.
//
// Nothing outside tests arms a site, so on a serving path each call site
// costs one relaxed atomic load.
#ifndef TEMPSPEC_UTIL_FAILPOINT_H_
#define TEMPSPEC_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/status.h"

namespace tempspec {

enum class FaultKind : uint8_t {
  kShortWrite,      // write a seeded prefix of the buffer, then crash
  kCorruptBit,      // flip one seeded bit in the buffer, write it, then crash
  kDropSync,        // from the trigger on, syncs report success without syncing
  kTransientError,  // the next `transient_ops` matching ops fail with EIO
  kCrash,           // fail the operation cleanly and enter the crashed state
};

const char* FaultKindToString(FaultKind kind);

struct FaultSpec {
  FaultKind kind = FaultKind::kCrash;
  /// The fault fires on the trigger_at'th evaluation of its site (0-based).
  uint64_t trigger_at = 0;
  /// kTransientError: how many consecutive evaluations fail before the site
  /// behaves normally again.
  uint32_t transient_ops = 1;
  /// Drives cut points (kShortWrite), bit choices (kCorruptBit), and the
  /// crash-time WAL tail cut. Same spec, same workload => same faults.
  uint64_t seed = 0;
};

/// \brief Monotonic totals since the last ResetCounters(). A crash harness
/// prints these so a build whose failpoints never fired fails loudly.
struct FaultCounters {
  uint64_t evaluated = 0;         // On* calls while any site was armed
  uint64_t injected = 0;          // faults actually delivered
  uint64_t short_writes = 0;
  uint64_t corrupt_writes = 0;
  uint64_t dropped_syncs = 0;
  uint64_t transient_errors = 0;
  uint64_t crashes = 0;
};

/// \brief Process-wide failpoint state. Thread-safe; the armed check on the
/// hot path is a single relaxed atomic load.
class FailpointRegistry {
 public:
  static FailpointRegistry& Instance();

  void Arm(const std::string& site, FaultSpec spec);
  void Disarm(const std::string& site);
  /// \brief Disarms every site and clears the crashed state. Counters are
  /// kept (see ResetCounters) so a harness can aggregate across trials.
  void DisarmAll();

  /// \brief Fast check: any site armed, or crashed state latched.
  bool active() const {
    return armed_sites_.load(std::memory_order_relaxed) > 0 ||
           crashed_.load(std::memory_order_relaxed);
  }
  bool crashed() const { return crashed_.load(std::memory_order_relaxed); }

  FaultCounters counters() const;
  void ResetCounters();

  // -- Site evaluation (called from storage IO paths) ------------------------

  /// \brief What a write site must do: write the first `write_len` bytes of
  /// the (possibly mutated) buffer, then return `after`.
  struct WriteDecision {
    size_t write_len;
    Status after;
  };
  WriteDecision OnWrite(std::string_view site, char* buf, size_t len);

  /// \brief What a sync site must do: `skip` pretends success without
  /// syncing; otherwise return `after` (OK = perform the real sync).
  struct SyncDecision {
    bool skip;
    Status after;
  };
  SyncDecision OnSync(std::string_view site);

  /// \brief Read sites can only fail (transiently or as a crash).
  Status OnRead(std::string_view site);

  /// \brief Seeded choice in [lo, hi] for crash-time file mutation (the WAL
  /// uses it to cut its unsynced tail at an arbitrary byte).
  uint64_t CrashCut(uint64_t lo, uint64_t hi);

 private:
  FailpointRegistry() = default;

  struct ArmedSite {
    FaultSpec spec;
    uint64_t hits = 0;
    uint32_t transients_left = 0;
    bool fired = false;
    std::mt19937_64 rng;
  };

  /// \brief Latches the crashed state; returns the error every operation
  /// sees from then on.
  Status EnterCrashedLocked();

  mutable std::mutex mu_;
  std::unordered_map<std::string, ArmedSite> sites_;
  std::atomic<int> armed_sites_{0};
  std::atomic<bool> crashed_{false};
  std::mt19937_64 crash_rng_{0x7465'6d70'7370'6563ull};
  FaultCounters counters_;
};

/// \brief Retry policy for transient IO errors: storage operations retry
/// IOError failures up to kMaxIoAttempts times with a short exponential
/// backoff, so injected (and real) transient EIO is survived, not fatal.
constexpr int kMaxIoAttempts = 4;
void IoRetryBackoff(int attempt);

}  // namespace tempspec

#endif  // TEMPSPEC_UTIL_FAILPOINT_H_
