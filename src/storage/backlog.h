// The backlog representation of a temporal relation.
//
// Section 2 lists admissible physical representations; we implement the
// backlog model of [JMRS90] ("a backlog relation of insertion, modification,
// and deletion operations (tuples) with single transaction time-stamps"):
// every update is an appended, transaction-time-stamped operation, and any
// historical state is reproduced by replaying the prefix of operations up to
// the requested transaction time. Snapshot caching and differential replay
// (snapshot.h) accelerate the reproduction, mirroring the caching/
// differential techniques the paper cites.
//
// Durability: each operation is written to the WAL before being applied;
// Checkpoint() packs applied operations into the slotted page file and
// resets the WAL. Open() recovers by reading the page file and replaying
// the WAL tail.
//
// Crash-recovery protocol (exercised by tests/storage/crash_recovery_test.cc):
//   - WAL record LSNs equal global operation indices. The page file holds a
//     CRC-guarded prefix of the operation history; its length is *derived*
//     by scanning (never trusted from a header), so a torn checkpoint can
//     only shorten it. The scan quarantines everything from the first
//     damaged page onward — truncating the file, not just stopping — so a
//     post-recovery checkpoint can never strand durable batches behind a
//     still-damaged page.
//   - Each checkpoint batch starts on a fresh page, so checkpointing never
//     rewrites a page whose records the WAL no longer covers.
//   - Checkpoint order: persist pages, fsync, then reset the WAL (truncate +
//     fsync file and directory). A crash between the two leaves overlapping
//     copies; recovery skips WAL records with lsn < the scanned page count
//     and rejects any LSN gap as corruption.
//   - Compaction (ReplaceAll) rewrites the page file through a side file
//     adopted by atomic rename, under a bumped generation epoch stamped
//     into the header and every WAL record: a crash resolves to exactly the
//     old or exactly the new generation, and stale WAL records (old epoch,
//     old LSN numbering) are discarded at replay.
//   - The header records a format version; unknown versions are rejected at
//     open instead of being mis-recovered as an empty store.
//   - After any unrecoverable IO failure the store turns read-only
//     (fail-stop): later appends could otherwise land beyond a torn WAL
//     tail and be silently unreachable at replay.
#ifndef TEMPSPEC_STORAGE_BACKLOG_H_
#define TEMPSPEC_STORAGE_BACKLOG_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "model/element.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "util/result.h"

namespace tempspec {

class TraceContext;

enum class BacklogOpType : uint8_t {
  kInsert = 1,
  kLogicalDelete = 2,
};

/// \brief One operation of the backlog. A modification is represented, per
/// Section 2, as a logical deletion followed by an insertion with a fresh
/// element surrogate.
struct BacklogEntry {
  BacklogOpType op = BacklogOpType::kInsert;
  TimePoint tt;               // transaction time of the operation
  Element element;            // the inserted element (op == kInsert)
  ElementSurrogate target = kInvalidElementSurrogate;  // op == kLogicalDelete

  std::string Encode() const;
  static Result<BacklogEntry> Decode(std::string_view payload);
};

/// \brief Append-only operation store with optional durability.
class BacklogStore {
 public:
  struct Options {
    /// Empty = in-memory only (no WAL, no page file).
    std::string directory;
    SyncMode sync_mode = SyncMode::kNone;
    uint32_t sync_every = 64;
    size_t buffer_pool_pages = 64;
  };

  /// \brief Opens a store, recovering any persisted operations. The
  /// recovered entries are available via entries().
  static Result<std::unique_ptr<BacklogStore>> Open(Options options);

  /// \brief Appends one operation (WAL first when durable).
  Status Append(const BacklogEntry& entry);

  /// \brief All operations, in transaction-time (= append) order.
  const std::vector<BacklogEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

  /// \brief Replays operations with tt <= `tt` and returns the historical
  /// state: all elements alive at `tt`, with their (open) deletion stamps.
  std::vector<Element> MaterializeState(TimePoint tt) const;

  /// \brief Reconstructs the full bitemporal element set (every element ever
  /// inserted, with its final existence interval) — used on recovery.
  std::vector<Element> ReconstructElements() const;

  /// \brief Packs all in-memory operations into the page file and resets the
  /// WAL. No-op for in-memory stores.
  Status Checkpoint();

  /// \brief Replaces the whole operation history (backlog compaction, used
  /// by vacuuming). Durable stores are rewritten crash-atomically: the new
  /// generation is built in a side file and adopted by rename under a
  /// bumped epoch. No page guards may be outstanding. An optional trace
  /// span receives the side_build / rename / wal_reset stage timings.
  Status ReplaceAll(std::vector<BacklogEntry> entries,
                    TraceContext* trace = nullptr);

  bool durable() const { return wal_ != nullptr; }
  uint64_t persisted_entries() const { return persisted_entries_; }
  /// \brief Generation number of the on-disk state; bumped by ReplaceAll.
  uint64_t epoch() const { return epoch_; }
  const BufferPool* buffer_pool() const { return pool_.get(); }
  const WriteAheadLog* wal() const { return wal_.get(); }
  /// \brief True once an unrecoverable IO failure turned the store
  /// read-only; reopen from disk to recover.
  bool io_failed() const { return io_failed_; }

  /// \brief Total encoded size of all operations (storage-cost metric for
  /// the benches).
  size_t EncodedBytes() const;

 private:
  BacklogStore() = default;

  Status RecoverFromPages();
  Status WriteHeaderPage(BufferPool* pool, uint64_t epoch);
  Status CheckpointInternal(TraceContext* trace);
  Status PersistRange(BufferPool* pool, std::span<const BacklogEntry> entries);

  size_t buffer_pool_pages_ = 64;

  std::vector<BacklogEntry> entries_;
  uint64_t persisted_entries_ = 0;
  uint64_t epoch_ = 0;
  bool io_failed_ = false;

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<WriteAheadLog> wal_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_STORAGE_BACKLOG_H_
