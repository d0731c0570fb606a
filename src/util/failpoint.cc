#include "util/failpoint.h"

#include <chrono>
#include <thread>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace tempspec {

const char* FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kShortWrite: return "short-write";
    case FaultKind::kCorruptBit: return "corrupt-bit";
    case FaultKind::kDropSync: return "drop-sync";
    case FaultKind::kTransientError: return "transient-error";
    case FaultKind::kCrash: return "crash";
  }
  return "unknown";
}

FailpointRegistry& FailpointRegistry::Instance() {
  static FailpointRegistry* registry = new FailpointRegistry();
  return *registry;
}

void FailpointRegistry::Arm(const std::string& site, FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  ArmedSite& armed = sites_[site];
  armed.spec = spec;
  armed.hits = 0;
  armed.transients_left = spec.transient_ops;
  armed.fired = false;
  armed.rng.seed(spec.seed);
  crash_rng_.seed(spec.seed ^ 0x9e3779b97f4a7c15ull);
  armed_sites_.store(static_cast<int>(sites_.size()), std::memory_order_relaxed);
}

void FailpointRegistry::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.erase(site);
  armed_sites_.store(static_cast<int>(sites_.size()), std::memory_order_relaxed);
}

void FailpointRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  armed_sites_.store(0, std::memory_order_relaxed);
  crashed_.store(false, std::memory_order_relaxed);
}

FaultCounters FailpointRegistry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void FailpointRegistry::ResetCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_ = FaultCounters{};
}

Status FailpointRegistry::EnterCrashedLocked() {
  if (!crashed_.load(std::memory_order_relaxed)) {
    crashed_.store(true, std::memory_order_relaxed);
    ++counters_.crashes;
    TS_FLIGHT(FlightCategory::kFault, FlightCode::kCrashLatch, 0, 0, "");
  }
  return Status::IOError("simulated crash (failpoint)");
}

FailpointRegistry::WriteDecision FailpointRegistry::OnWrite(
    std::string_view site, char* buf, size_t len) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.evaluated;
  if (crashed_.load(std::memory_order_relaxed)) {
    return {0, Status::IOError("simulated crash (failpoint)")};
  }
  auto it = sites_.find(std::string(site));
  if (it == sites_.end()) return {len, Status::OK()};
  ArmedSite& armed = it->second;
  const uint64_t hit = armed.hits++;
  if (hit < armed.spec.trigger_at) return {len, Status::OK()};

  switch (armed.spec.kind) {
    case FaultKind::kTransientError:
      if (armed.transients_left > 0) {
        --armed.transients_left;
        ++counters_.injected;
        ++counters_.transient_errors;
        TS_FLIGHT(FlightCategory::kFault, FlightCode::kFaultInject,
                  armed.spec.kind, hit, site);
        return {0, Status::IOError("injected transient EIO at '", site, "'")};
      }
      return {len, Status::OK()};
    case FaultKind::kShortWrite: {
      if (armed.fired) return {0, EnterCrashedLocked()};
      armed.fired = true;
      const size_t cut = len == 0 ? 0 : armed.rng() % len;
      ++counters_.injected;
      ++counters_.short_writes;
      TS_FLIGHT(FlightCategory::kFault, FlightCode::kFaultInject,
                armed.spec.kind, hit, site);
      EnterCrashedLocked();
      return {cut, Status::IOError("simulated crash after short write of ",
                                   cut, "/", len, " bytes at '", site, "'")};
    }
    case FaultKind::kCorruptBit: {
      if (armed.fired) return {0, EnterCrashedLocked()};
      armed.fired = true;
      if (len > 0) {
        const size_t bit = armed.rng() % (len * 8);
        buf[bit / 8] = static_cast<char>(buf[bit / 8] ^ (1u << (bit % 8)));
      }
      ++counters_.injected;
      ++counters_.corrupt_writes;
      TS_FLIGHT(FlightCategory::kFault, FlightCode::kFaultInject,
                armed.spec.kind, hit, site);
      EnterCrashedLocked();
      return {len, Status::IOError("simulated crash after corrupt write at '",
                                   site, "'")};
    }
    case FaultKind::kDropSync:
      // A drop-sync spec on a write site has nothing to drop; proceed.
      return {len, Status::OK()};
    case FaultKind::kCrash:
      ++counters_.injected;
      TS_FLIGHT(FlightCategory::kFault, FlightCode::kFaultInject,
                armed.spec.kind, hit, site);
      return {0, EnterCrashedLocked()};
  }
  return {len, Status::OK()};
}

FailpointRegistry::SyncDecision FailpointRegistry::OnSync(std::string_view site) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.evaluated;
  if (crashed_.load(std::memory_order_relaxed)) {
    return {false, Status::IOError("simulated crash (failpoint)")};
  }
  auto it = sites_.find(std::string(site));
  if (it == sites_.end()) return {false, Status::OK()};
  ArmedSite& armed = it->second;
  const uint64_t hit = armed.hits++;
  if (hit < armed.spec.trigger_at) return {false, Status::OK()};

  switch (armed.spec.kind) {
    case FaultKind::kDropSync:
      ++counters_.injected;
      ++counters_.dropped_syncs;
      TS_FLIGHT(FlightCategory::kFault, FlightCode::kFaultInject,
                armed.spec.kind, hit, site);
      return {true, Status::OK()};
    case FaultKind::kTransientError:
      if (armed.transients_left > 0) {
        --armed.transients_left;
        ++counters_.injected;
        ++counters_.transient_errors;
        TS_FLIGHT(FlightCategory::kFault, FlightCode::kFaultInject,
                  armed.spec.kind, hit, site);
        return {false, Status::IOError("injected transient EIO at '", site, "'")};
      }
      return {false, Status::OK()};
    case FaultKind::kShortWrite:
    case FaultKind::kCorruptBit:
    case FaultKind::kCrash:
      ++counters_.injected;
      TS_FLIGHT(FlightCategory::kFault, FlightCode::kFaultInject,
                armed.spec.kind, hit, site);
      return {false, EnterCrashedLocked()};
  }
  return {false, Status::OK()};
}

Status FailpointRegistry::OnRead(std::string_view site) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.evaluated;
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::IOError("simulated crash (failpoint)");
  }
  auto it = sites_.find(std::string(site));
  if (it == sites_.end()) return Status::OK();
  ArmedSite& armed = it->second;
  const uint64_t hit = armed.hits++;
  if (hit < armed.spec.trigger_at) return Status::OK();

  switch (armed.spec.kind) {
    case FaultKind::kTransientError:
      if (armed.transients_left > 0) {
        --armed.transients_left;
        ++counters_.injected;
        ++counters_.transient_errors;
        TS_FLIGHT(FlightCategory::kFault, FlightCode::kFaultInject,
                  armed.spec.kind, hit, site);
        return Status::IOError("injected transient EIO at '", site, "'");
      }
      return Status::OK();
    case FaultKind::kShortWrite:
    case FaultKind::kCorruptBit:
    case FaultKind::kDropSync:
      return Status::OK();
    case FaultKind::kCrash:
      ++counters_.injected;
      TS_FLIGHT(FlightCategory::kFault, FlightCode::kFaultInject,
                armed.spec.kind, hit, site);
      return EnterCrashedLocked();
  }
  return Status::OK();
}

uint64_t FailpointRegistry::CrashCut(uint64_t lo, uint64_t hi) {
  std::lock_guard<std::mutex> lock(mu_);
  if (hi <= lo) return lo;
  return lo + crash_rng_() % (hi - lo + 1);
}

void IoRetryBackoff(int attempt) {
  TS_COUNTER_INC("storage.io.retries");
  std::this_thread::sleep_for(std::chrono::microseconds(50) * (1 << attempt));
}

}  // namespace tempspec
