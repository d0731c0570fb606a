#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/serde.h"
#include "util/failpoint.h"

namespace tempspec {

namespace {
constexpr size_t kRecordHeaderSize = 4 + 4 + 8 + 8;  // len, crc, epoch, lsn
}  // namespace

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(const std::string& path,
                                                           SyncMode mode,
                                                           uint32_t sync_every,
                                                           uint64_t epoch) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open WAL '", path, "': ", std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("cannot stat WAL '", path, "': ", std::strerror(err));
  }
  auto wal = std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(path, fd, mode, sync_every == 0 ? 1 : sync_every));
  wal->epoch_ = epoch;
  // Bytes already on disk at open are presumed durable.
  wal->file_size_ = static_cast<uint64_t>(st.st_size);
  wal->synced_bytes_ = wal->file_size_;
  // Scan once to learn the next LSN (replay discards payloads).
  auto replayed = wal->Replay(
      [](uint64_t, std::string_view) { return Status::OK(); });
  TS_RETURN_NOT_OK(replayed.status());
  return wal;
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) {
    // Simulated machine crash: bytes appended since the last successful
    // fsync are not guaranteed durable. Cut the file at a seeded point
    // within the unsynced tail — anywhere from "nothing lost" to "torn
    // mid-record" — before recovery reopens it.
    FailpointRegistry& registry = FailpointRegistry::Instance();
    if (registry.crashed()) {
      struct stat st;
      if (::fstat(fd_, &st) == 0) {
        const uint64_t size = static_cast<uint64_t>(st.st_size);
        const uint64_t lo = synced_bytes_ < size ? synced_bytes_ : size;
        const uint64_t cut = registry.CrashCut(lo, size);
        if (cut < size && ::ftruncate(fd_, static_cast<off_t>(cut)) != 0) {
          // If the cut silently failed, the "machine crash" model degrades:
          // the unsynced tail survives and a crash test would assert
          // against the wrong file contents. Fail hard instead.
          std::fprintf(stderr,
                       "tempspec: simulated-crash ftruncate of '%s' to %llu "
                       "bytes failed: %s\n",
                       path_.c_str(), static_cast<unsigned long long>(cut),
                       std::strerror(errno));
          std::abort();
        }
      }
    }
    ::close(fd_);
  }
}

Status WriteAheadLog::AppendOnce(std::string* record, bool* wrote_any) {
  size_t want = record->size();
  Status injected = Status::OK();
  if (FailpointRegistry& registry = FailpointRegistry::Instance();
      registry.active()) {
    FailpointRegistry::WriteDecision decision =
        registry.OnWrite("wal.append", record->data(), record->size());
    want = decision.write_len;
    injected = std::move(decision.after);
  }
  size_t done = 0;
  while (done < want) {
    ssize_t n = ::write(fd_, record->data() + done, want - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      file_size_ += done;
      return Status::IOError("WAL append failed: ", std::strerror(errno));
    }
    if (n > 0) *wrote_any = true;
    done += static_cast<size_t>(n);
  }
  file_size_ += done;
  if (!injected.ok()) return injected;
  return Status::OK();
}

Result<uint64_t> WriteAheadLog::Append(std::string_view payload) {
  const uint64_t lsn = next_lsn_;
  // The CRC covers the epoch and LSN as well as the payload: recovery
  // routes records by epoch and LSN, so an unprotected header byte would
  // turn silent corruption into a bogus replay.
  std::string body;
  body.reserve(16 + payload.size());
  Encoder body_enc(&body);
  body_enc.PutU64(epoch_);
  body_enc.PutU64(lsn);
  body.append(payload.data(), payload.size());
  std::string record;
  record.reserve(kRecordHeaderSize + payload.size());
  Encoder enc(&record);
  enc.PutU32(static_cast<uint32_t>(payload.size()));
  enc.PutU32(Crc32(body));
  record += body;

  Status st = Status::OK();
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    if (attempt > 0) IoRetryBackoff(attempt);
    bool wrote_any = false;
    st = AppendOnce(&record, &wrote_any);
    if (st.ok()) break;
    // A partial record may already be on disk: retrying would append a
    // duplicate after the torn bytes, so only retry clean failures.
    if (wrote_any || !st.IsIOError()) break;
  }
  TS_RETURN_NOT_OK(st);
  bytes_written_ += record.size();
  ++next_lsn_;
  TS_COUNTER_INC("storage.wal.appends");
  TS_COUNTER_ADD("storage.wal.bytes_appended", record.size());
  TS_FLIGHT(FlightCategory::kWal, FlightCode::kWalAppend, lsn, record.size(),
            "");

  if (mode_ == SyncMode::kAlways ||
      (mode_ == SyncMode::kEveryN && ++appends_since_sync_ >= sync_every_)) {
    TS_RETURN_NOT_OK(Sync());
  }
  return lsn;
}

Status WriteAheadLog::SyncOnce() {
  if (FailpointRegistry& registry = FailpointRegistry::Instance();
      registry.active()) {
    FailpointRegistry::SyncDecision decision = registry.OnSync("wal.sync");
    if (!decision.after.ok()) return std::move(decision.after);
    // Dropped sync: report success without syncing; the durable watermark
    // stays put, so a later simulated crash can lose this tail.
    if (decision.skip) return Status::OK();
  }
  if (::fdatasync(fd_) != 0) {
    return Status::IOError("WAL fsync failed: ", std::strerror(errno));
  }
  synced_bytes_ = file_size_;
  TS_COUNTER_INC("storage.wal.syncs");
  TS_FLIGHT(FlightCategory::kWal, FlightCode::kWalSync, synced_bytes_, 0, "");
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  appends_since_sync_ = 0;
  Status st = Status::OK();
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    if (attempt > 0) IoRetryBackoff(attempt);
    st = SyncOnce();
    if (st.ok() || !st.IsIOError()) break;
  }
  return st;
}

Result<uint64_t> WriteAheadLog::Replay(
    const std::function<Status(uint64_t, std::string_view)>& fn) {
  // Read the whole file via a separate descriptor so the append offset is
  // untouched.
  const int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot reopen WAL '", path_, "' for replay");
  }
  std::string content;
  char buf[1 << 16];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    content.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  uint64_t count = 0;
  size_t pos = 0;
  uint64_t max_lsn_seen = next_lsn_ == 0 ? 0 : next_lsn_ - 1;
  bool any = next_lsn_ > 0;
  while (pos + kRecordHeaderSize <= content.size()) {
    Decoder dec(std::string_view(content).substr(pos, kRecordHeaderSize));
    const uint32_t len = dec.GetU32().ValueOrDie();
    const uint32_t crc = dec.GetU32().ValueOrDie();
    const uint64_t epoch = dec.GetU64().ValueOrDie();
    const uint64_t lsn = dec.GetU64().ValueOrDie();
    if (pos + kRecordHeaderSize + len > content.size()) break;  // torn tail
    const std::string_view body(content.data() + pos + 8,
                                16 + len);  // epoch+lsn+payload
    if (Crc32(body) != crc) break;  // corrupt tail
    if (epoch == epoch_) {
      const std::string_view payload = body.substr(16);
      TS_RETURN_NOT_OK(fn(lsn, payload));
      if (!any || lsn > max_lsn_seen) {
        max_lsn_seen = lsn;
        any = true;
      }
      ++count;
    }
    // Records of another epoch belong to a superseded generation (a
    // compaction whose Reset never became durable): walk past them without
    // delivering or letting their old LSNs advance the counter.
    pos += kRecordHeaderSize + len;
  }
  if (any) next_lsn_ = max_lsn_seen + 1;
  return count;
}

Status WriteAheadLog::Reset() {
  if (FailpointRegistry& registry = FailpointRegistry::Instance();
      registry.active()) {
    FailpointRegistry::SyncDecision decision = registry.OnSync("wal.reset");
    if (!decision.after.ok()) return std::move(decision.after);
    // Dropped reset: the truncation never reaches the disk (modeling a
    // crash that loses it). The stale records stay in the file; recovery
    // must skip them by LSN rather than replaying them twice.
    if (decision.skip) return Status::OK();
  }
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IOError("WAL truncate failed: ", std::strerror(errno));
  }
  // Make the truncation itself durable: fsync the inode, then the parent
  // directory entry, so a crash right after Reset cannot resurrect the old
  // tail.
  if (::fsync(fd_) != 0) {
    return Status::IOError("WAL fsync after truncate failed: ",
                           std::strerror(errno));
  }
  TS_RETURN_NOT_OK(FsyncParentDirectory(path_));
  bytes_written_ = 0;
  file_size_ = 0;
  synced_bytes_ = 0;
  TS_FLIGHT(FlightCategory::kWal, FlightCode::kWalReset, epoch_, 0, "");
  return Status::OK();
}

}  // namespace tempspec
