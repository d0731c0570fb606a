#include "storage/backlog.h"

#include <unordered_map>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span_store.h"
#include "storage/page.h"
#include "storage/serde.h"

namespace tempspec {

namespace {
constexpr uint32_t kBacklogMagic = 0x544C4B42;  // "BKLT"
// v3: the header meta is [magic][version][u64 epoch]; the entry count is
// derived by scanning the CRC-guarded data pages ([u32 crc][payload]
// records); WAL records carry the epoch and an LSN equal to the global
// operation index. The epoch is bumped by compaction (ReplaceAll) so stale
// WAL records of a superseded generation are recognizable at replay.
// Earlier versions (v1: trusted count header, no record CRCs; v2: no
// epoch) are rejected at open rather than mis-recovered as empty.
constexpr uint32_t kBacklogVersion = 3;
}  // namespace

std::string BacklogEntry::Encode() const {
  std::string out;
  Encoder enc(&out);
  enc.PutU8(static_cast<uint8_t>(op));
  enc.PutTimePoint(tt);
  if (op == BacklogOpType::kInsert) {
    EncodeElement(element, &enc);
  } else {
    enc.PutU64(target);
  }
  return out;
}

Result<BacklogEntry> BacklogEntry::Decode(std::string_view payload) {
  Decoder dec(payload);
  BacklogEntry entry;
  TS_ASSIGN_OR_RETURN(uint8_t op, dec.GetU8());
  if (op != static_cast<uint8_t>(BacklogOpType::kInsert) &&
      op != static_cast<uint8_t>(BacklogOpType::kLogicalDelete)) {
    return Status::Corruption("unknown backlog op ", static_cast<int>(op));
  }
  entry.op = static_cast<BacklogOpType>(op);
  TS_ASSIGN_OR_RETURN(entry.tt, dec.GetTimePoint());
  if (entry.op == BacklogOpType::kInsert) {
    TS_ASSIGN_OR_RETURN(entry.element, DecodeElement(&dec));
  } else {
    TS_ASSIGN_OR_RETURN(entry.target, dec.GetU64());
  }
  return entry;
}

Result<std::unique_ptr<BacklogStore>> BacklogStore::Open(Options options) {
  auto store = std::unique_ptr<BacklogStore>(new BacklogStore());
  if (options.directory.empty()) return store;

  // Recovery is a background span: its stage timings (page scan vs WAL
  // replay) and recovered counts land in the span store, and the
  // recovery milestones land in the flight recorder.
  TraceContext span;
  span.Begin("background.recovery");
  span.SetAttr("directory", options.directory);
  TS_FLIGHT(FlightCategory::kRecovery, FlightCode::kRecoveryBegin, 0, 0,
            options.directory);

  TS_ASSIGN_OR_RETURN(store->disk_,
                      DiskManager::Open(options.directory + "/backlog.pages"));
  store->buffer_pool_pages_ = options.buffer_pool_pages;
  store->pool_ = std::make_unique<BufferPool>(store->disk_.get(),
                                              options.buffer_pool_pages);
  {
    TraceContext::StageScope stage(&span, "page_scan");
    TS_RETURN_NOT_OK(store->RecoverFromPages());
  }

  TS_ASSIGN_OR_RETURN(store->wal_,
                      WriteAheadLog::Open(options.directory + "/backlog.wal",
                                          options.sync_mode,
                                          options.sync_every,
                                          store->epoch_));
  // The WAL holds operations appended since the last completed checkpoint —
  // plus, after a crash between checkpoint and WAL reset, stale records the
  // pages already cover. Records of older epochs (a compaction whose WAL
  // reset never became durable) are filtered inside Replay; within the
  // current epoch, LSNs are global operation indices: skip what the pages
  // hold, reject gaps (a gap means durable data was lost).
  const uint64_t persisted = store->persisted_entries_;
  uint64_t expected = persisted;
  uint64_t replayed_count = 0;
  {
    TraceContext::StageScope stage(&span, "wal_replay");
    auto replayed = store->wal_->Replay(
        [&](uint64_t lsn, std::string_view payload) -> Status {
          if (lsn < persisted) return Status::OK();  // already checkpointed
          if (lsn != expected) {
            return Status::Corruption(
                "WAL gap after a damaged page file: pages hold ", persisted,
                " operations, expected WAL lsn ", expected, ", found ", lsn);
          }
          TS_ASSIGN_OR_RETURN(BacklogEntry entry, BacklogEntry::Decode(payload));
          store->entries_.push_back(std::move(entry));
          ++expected;
          return Status::OK();
        });
    TS_RETURN_NOT_OK(replayed.status());
    replayed_count = replayed.ValueOrDie();
  }
  TS_FLIGHT(FlightCategory::kRecovery, FlightCode::kRecoveryWalReplay,
            replayed_count, store->entries_.size(), "");
  store->wal_->SetNextLsn(store->entries_.size());
  TS_COUNTER_INC("storage.backlog.recoveries");
  TS_COUNTER_ADD("storage.backlog.recovered_entries", store->entries_.size());
  TS_FLIGHT(FlightCategory::kRecovery, FlightCode::kRecoveryEnd,
            store->entries_.size(), store->persisted_entries_, "");
  span.AddCounter("recovered_entries", store->entries_.size());
  span.AddCounter("persisted_entries", store->persisted_entries_);
  span.AddCounter("wal_replayed", replayed_count);
  SpanStore::Instance().Record(span);
  return store;
}

Status BacklogStore::WriteHeaderPage(BufferPool* pool, uint64_t epoch) {
  {
    TS_ASSIGN_OR_RETURN(PageGuard header, pool->Allocate());
    SlottedPage sp(header.mutable_page());
    sp.Init();
    std::string meta;
    Encoder enc(&meta);
    enc.PutU32(kBacklogMagic);
    enc.PutU32(kBacklogVersion);
    enc.PutU64(epoch);
    TS_RETURN_NOT_OK(sp.Insert(meta).status());
  }
  return pool->FlushAll();
}

Status BacklogStore::RecoverFromPages() {
  if (disk_->page_count() == 0) {
    // Fresh file: create and flush the header page, so a process that exits
    // without ever checkpointing still leaves a well-formed file behind.
    return WriteHeaderPage(pool_.get(), epoch_);
  }

  {
    TS_ASSIGN_OR_RETURN(PageGuard header, pool_->Fetch(0));
    Page page_copy = header.page();
    SlottedPage sp(&page_copy);
    bool header_ok = false;
    if (sp.slot_count() > 0) {
      auto meta = sp.Get(0);
      if (meta.ok()) {
        Decoder dec(meta.ValueOrDie());
        auto magic = dec.GetU32();
        if (magic.ok() && magic.ValueOrDie() == kBacklogMagic) {
          // The magic matches, so this *is* a backlog file: check the
          // version before trusting anything else. A pre-v3 file would
          // otherwise "recover" as empty — its records carry no CRC
          // prefixes, so the data-page scan and the WAL replay would both
          // stop at the first record and silently discard the data.
          auto version = dec.GetU32();
          auto epoch = dec.GetU64();
          if (version.ok() && version.ValueOrDie() != kBacklogVersion) {
            return Status::Corruption(
                "unsupported backlog format version ", version.ValueOrDie(),
                " (this build reads only v", kBacklogVersion,
                "); refusing to recover");
          }
          if (version.ok() && epoch.ok()) {
            header_ok = true;
            epoch_ = epoch.ValueOrDie();
          }
        }
      }
    }
    if (!header_ok) {
      // A single unreadable page is what a crash during store creation
      // leaves behind (the header is written exactly once, before any WAL
      // exists; compaction replaces it only via a completely-written,
      // renamed side file); anything larger is real damage.
      if (disk_->page_count() > 1) {
        return Status::Corruption("bad backlog page-file header");
      }
      header.Release();
      pool_ = std::make_unique<BufferPool>(disk_.get(), buffer_pool_pages_);
      TS_RETURN_NOT_OK(disk_->Truncate());
      return WriteHeaderPage(pool_.get(), epoch_);
    }
  }

  // The page file's entry count is derived, never trusted: scan data pages
  // in order, reading CRC-guarded records until the first torn, corrupt, or
  // never-completed one. Everything from the damaged page onward is
  // quarantined — truncated off the file — not merely skipped: checkpoints
  // append batches on fresh pages at the end, so a scan that only *stopped*
  // at the damage would, after a post-recovery checkpoint, never reach the
  // durable batches beyond it. The truncated records are still covered by
  // the WAL (a page can only be damaged if the checkpoint writing it never
  // completed its WAL reset).
  uint64_t keep_pages = disk_->page_count();
  for (PageId id = 1; id < disk_->page_count(); ++id) {
    const size_t page_first_entry = entries_.size();
    bool damaged = false;
    {
      TS_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(id));
      Page data_copy = guard.page();
      SlottedPage data(&data_copy);
      if (data.slot_count() == 0) damaged = true;  // never-completed page
      for (uint16_t slot = 0; !damaged && slot < data.slot_count(); ++slot) {
        auto record = data.Get(slot);
        if (!record.ok() || record.ValueOrDie().size() < 4) {
          damaged = true;
          break;
        }
        const std::string_view raw = record.ValueOrDie();
        Decoder dec(raw);
        const uint32_t crc = dec.GetU32().ValueOrDie();
        const std::string_view payload = raw.substr(4);
        if (Crc32(payload) != crc) {
          damaged = true;
          break;
        }
        auto entry = BacklogEntry::Decode(payload);
        if (!entry.ok()) {
          damaged = true;
          break;
        }
        entries_.push_back(std::move(entry).ValueOrDie());
      }
    }
    if (damaged) {
      // The page's valid record prefix is dropped along with the page: a
      // damaged page belongs to an unfinished checkpoint batch, so the WAL
      // replay below the caller restores those operations.
      entries_.resize(page_first_entry);
      keep_pages = id;
      break;
    }
  }
  if (keep_pages < disk_->page_count()) {
    TS_FLIGHT(FlightCategory::kRecovery, FlightCode::kRecoveryQuarantine,
              keep_pages, disk_->page_count() - keep_pages, "");
    pool_ = std::make_unique<BufferPool>(disk_.get(), buffer_pool_pages_);
    TS_RETURN_NOT_OK(disk_->TruncateToPages(keep_pages));
  }
  persisted_entries_ = entries_.size();
  TS_FLIGHT(FlightCategory::kRecovery, FlightCode::kRecoveryPages,
            entries_.size(), keep_pages, "");
  return Status::OK();
}

Status BacklogStore::Append(const BacklogEntry& entry) {
  if (io_failed_) {
    return Status::IOError(
        "backlog store is read-only after an IO failure; reopen to recover");
  }
  if (wal_) {
    auto appended = wal_->Append(entry.Encode());
    if (!appended.ok()) {
      // The WAL tail may be torn: a later successful append would land
      // beyond the tear and be unreachable at replay. Fail stop.
      io_failed_ = true;
      return appended.status();
    }
  }
  entries_.push_back(entry);
  TS_COUNTER_INC("storage.backlog.appends");
  return Status::OK();
}

std::vector<Element> BacklogStore::MaterializeState(TimePoint tt) const {
  std::unordered_map<ElementSurrogate, Element> alive;
  for (const BacklogEntry& e : entries_) {
    if (e.tt > tt) break;  // entries are in transaction-time order
    if (e.op == BacklogOpType::kInsert) {
      alive.emplace(e.element.element_surrogate, e.element);
    } else {
      alive.erase(e.target);
    }
  }
  std::vector<Element> out;
  out.reserve(alive.size());
  for (auto& [id, element] : alive) out.push_back(std::move(element));
  return out;
}

std::vector<Element> BacklogStore::ReconstructElements() const {
  std::vector<Element> out;
  std::unordered_map<ElementSurrogate, size_t> index;
  for (const BacklogEntry& e : entries_) {
    if (e.op == BacklogOpType::kInsert) {
      index[e.element.element_surrogate] = out.size();
      out.push_back(e.element);
    } else {
      auto it = index.find(e.target);
      if (it != index.end()) out[it->second].tt_end = e.tt;
    }
  }
  return out;
}

Status BacklogStore::PersistRange(BufferPool* pool, size_t begin, size_t end) {
  if (begin >= end) return Status::OK();
  // Always start the batch on a fresh page: the tail page of the previous
  // checkpoint holds records the WAL no longer covers, and a torn in-place
  // rewrite of that page would destroy durable data.
  PageId current = kInvalidPageId;
  for (size_t i = begin; i < end; ++i) {
    const std::string payload = entries_[i].Encode();
    std::string record;
    Encoder enc(&record);
    enc.PutU32(Crc32(payload));
    record += payload;
    bool stored = false;
    if (current != kInvalidPageId) {
      TS_ASSIGN_OR_RETURN(PageGuard guard, pool->Fetch(current));
      SlottedPage sp(guard.mutable_page());
      if (sp.Fits(record.size())) {
        TS_RETURN_NOT_OK(sp.Insert(record).status());
        stored = true;
      }
    }
    if (!stored) {
      TS_ASSIGN_OR_RETURN(PageGuard guard, pool->Allocate());
      SlottedPage sp(guard.mutable_page());
      sp.Init();
      TS_RETURN_NOT_OK(sp.Insert(record).status());
      current = guard.id();
    }
  }
  return Status::OK();
}

Status BacklogStore::CheckpointInternal(TraceContext* trace) {
  // Order matters: an operation must never exist only in a reset WAL.
  // 1. Persist the new batch onto fresh pages and make them durable.
  {
    TraceContext::StageScope stage(trace, "persist");
    TS_RETURN_NOT_OK(
        PersistRange(pool_.get(), persisted_entries_, entries_.size()));
    TS_RETURN_NOT_OK(pool_->FlushAll());
  }
  // 2. Only now discard the WAL (truncate + fsync file and directory).
  {
    TraceContext::StageScope stage(trace, "wal_reset");
    TS_RETURN_NOT_OK(wal_->Reset());
  }
  wal_->SetNextLsn(entries_.size());
  persisted_entries_ = entries_.size();
  return Status::OK();
}

Status BacklogStore::Checkpoint() {
  if (!wal_) return Status::OK();
  if (io_failed_) {
    return Status::IOError(
        "backlog store is read-only after an IO failure; reopen to recover");
  }
  TraceContext span;
  span.Begin("background.checkpoint");
  const uint64_t pending = entries_.size() - persisted_entries_;
  TS_FLIGHT(FlightCategory::kCheckpoint, FlightCode::kCheckpointBegin, pending,
            entries_.size(), "");
  Status st = CheckpointInternal(&span);
  // A half-completed checkpoint left pages the scan-based recovery would
  // double-count if we blindly re-ran it; fail stop until reopened.
  if (!st.ok()) io_failed_ = true;
  if (st.ok()) {
    TS_COUNTER_INC("storage.backlog.checkpoints");
    TS_FLIGHT(FlightCategory::kCheckpoint, FlightCode::kCheckpointEnd,
              persisted_entries_, 0, "");
  }
  span.AddCounter("pending_entries", pending);
  span.AddCounter("persisted_entries", persisted_entries_);
  span.SetAttr("status", st.ok() ? "ok" : "error");
  SpanStore::Instance().Record(span);
  return st;
}

Status BacklogStore::ReplaceAll(std::vector<BacklogEntry> entries,
                                TraceContext* trace) {
  if (io_failed_) {
    return Status::IOError(
        "backlog store is read-only after an IO failure; reopen to recover");
  }
  const uint64_t old_count = entries_.size();
  entries_ = std::move(entries);
  persisted_entries_ = 0;
  if (!wal_) return Status::OK();
  TS_FLIGHT(FlightCategory::kCompaction, FlightCode::kCompactionBegin,
            old_count, entries_.size(), "");

  // Build the compacted generation in a side file and adopt it with an
  // atomic rename: a crash at any point leaves either the old complete
  // state or the new one on disk, never a truncated hybrid. The new header
  // carries a bumped epoch, and WAL records are epoch-stamped, so the stale
  // records of the old generation are discarded at replay even when the
  // Reset below never becomes durable — their old, higher LSNs could
  // otherwise alias the compacted count (bogus replay) or trip the
  // recovery gap check.
  const uint64_t new_epoch = epoch_ + 1;
  Status st = [&]() -> Status {
    std::unique_ptr<DiskManager> side;
    std::unique_ptr<BufferPool> side_pool;
    {
      TraceContext::StageScope stage(trace, "side_build");
      TS_ASSIGN_OR_RETURN(side, DiskManager::Open(disk_->path() + ".compact"));
      if (side->page_count() > 0) {
        // Leftover from a compaction that crashed before its rename.
        TS_RETURN_NOT_OK(side->Truncate());
      }
      side_pool = std::make_unique<BufferPool>(side.get(), buffer_pool_pages_);
      TS_RETURN_NOT_OK(WriteHeaderPage(side_pool.get(), new_epoch));
      TS_RETURN_NOT_OK(PersistRange(side_pool.get(), 0, entries_.size()));
      TS_RETURN_NOT_OK(side_pool->FlushAll());
    }
    {
      TraceContext::StageScope stage(trace, "rename");
      TS_RETURN_NOT_OK(side->RenameTo(disk_->path()));
    }
    TS_FLIGHT(FlightCategory::kCompaction, FlightCode::kCompactionRename,
              new_epoch, 0, "");
    // The rename is the commit point: adopt the new generation (the old
    // pool's frames reference the unlinked old file) and discard the WAL.
    pool_ = std::move(side_pool);
    disk_ = std::move(side);
    epoch_ = new_epoch;
    wal_->SetEpoch(new_epoch);
    {
      TraceContext::StageScope stage(trace, "wal_reset");
      TS_RETURN_NOT_OK(wal_->Reset());
    }
    wal_->SetNextLsn(entries_.size());
    persisted_entries_ = entries_.size();
    return Status::OK();
  }();
  if (!st.ok()) io_failed_ = true;
  if (st.ok()) {
    TS_COUNTER_INC("storage.backlog.compactions");
    TS_FLIGHT(FlightCategory::kCompaction, FlightCode::kCompactionEnd,
              entries_.size(), epoch_, "");
  }
  return st;
}

size_t BacklogStore::EncodedBytes() const {
  size_t total = 0;
  for (const auto& e : entries_) total += e.Encode().size();
  return total;
}

}  // namespace tempspec
