// Checkpoint container (checkpoint.h) plus the MarketEngine
// SaveCheckpoint / RestoreFromCheckpoint member functions, kept in this TU
// so the serialization code lives with the format definition.

#include "service/checkpoint.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/market_engine.h"
#include "util/fault_injector.h"
#include "util/serial.h"

namespace maps {

namespace {

// Section ids of container format version 1, in file order. Every section
// appears exactly once; the reader rejects anything else.
enum SectionId : uint32_t {
  kSectionConfig = 1,    // grid/lifecycle/strategy fingerprint
  kSectionCore = 2,      // period counter + rejection counters
  kSectionWorkers = 3,   // lifecycle table: records, idle order, busy heap
  kSectionStages = 4,    // open period's tasks, in its parity slot
  kSectionPending = 5,   // pending acceptance bits
  kSectionRng = 6,       // repositioning RNG position
  kSectionStrategy = 7,  // PricingStrategy::SaveState payload
};

}  // namespace

namespace internal {

size_t BeginCheckpointSection(uint32_t id, StateWriter* out) {
  const size_t header_at = out->size();
  out->PutU32(id);
  out->PutU64(0);  // payload length, patched by EndCheckpointSection
  out->PutU32(0);  // payload CRC-32, likewise
  return header_at;
}

void EndCheckpointSection(size_t header_at, StateWriter* out) {
  const size_t payload_at = header_at + 16;
  const size_t len = out->size() - payload_at;
  out->OverwriteU64(header_at + 4, len);
  out->OverwriteU32(header_at + 12,
                    Crc32(out->data().data() + payload_at, len));
}

Status ParseCheckpointContainer(const std::string& data, const char* magic,
                                uint32_t version, uint32_t num_sections,
                                const char* what,
                                std::vector<std::string>* payloads) {
  const std::string name(what);
  StateReader r(data);
  char got_magic[8];
  MAPS_RETURN_NOT_OK(
      r.GetBytes(got_magic, sizeof(got_magic), "checkpoint magic"));
  if (std::memcmp(got_magic, magic, sizeof(got_magic)) != 0) {
    return Status::InvalidArgument("bad magic at offset 0: not a " + name);
  }
  uint32_t got_version;
  MAPS_RETURN_NOT_OK(r.GetU32(&got_version, "checkpoint format version"));
  if (got_version != version) {
    return Status::InvalidArgument(
        "unsupported " + name + " format version " +
        std::to_string(got_version) + " (this build reads version " +
        std::to_string(version) + ")");
  }
  uint32_t count;
  MAPS_RETURN_NOT_OK(r.GetU32(&count, "checkpoint section count"));
  if (count != num_sections) {
    return Status::InvalidArgument(
        name + " has " + std::to_string(count) + " sections, expected " +
        std::to_string(num_sections));
  }
  payloads->assign(num_sections, std::string());
  for (uint32_t i = 0; i < count; ++i) {
    const size_t header_at = r.offset();
    uint32_t id, crc;
    uint64_t len;
    MAPS_RETURN_NOT_OK(r.GetU32(&id, "section id"));
    MAPS_RETURN_NOT_OK(r.GetU64(&len, "section length"));
    MAPS_RETURN_NOT_OK(r.GetU32(&crc, "section checksum"));
    if (id != i + 1) {
      return Status::InvalidArgument(
          "unexpected section id " + std::to_string(id) + " at offset " +
          std::to_string(header_at) + ", expected " + std::to_string(i + 1));
    }
    if (len > r.remaining()) {
      return Status::InvalidArgument(
          "section " + std::to_string(id) + " at offset " +
          std::to_string(header_at) + " claims " + std::to_string(len) +
          " byte(s), file has " + std::to_string(r.remaining()));
    }
    std::string payload(static_cast<size_t>(len), '\0');
    if (len > 0) {
      MAPS_RETURN_NOT_OK(
          r.GetBytes(&payload[0], payload.size(), "section payload"));
    }
    const uint32_t actual = Crc32(payload.data(), payload.size());
    if (actual != crc) {
      return Status::InvalidArgument(
          "section " + std::to_string(id) + " at offset " +
          std::to_string(header_at) + " failed its checksum");
    }
    (*payloads)[i] = std::move(payload);
  }
  return r.ExpectEnd((name + " container").c_str());
}

void PutGridFingerprint(const GridPartition& grid, StateWriter* w) {
  w->PutI32(grid.rows());
  w->PutI32(grid.cols());
  const Rect& region = grid.region();
  w->PutDouble(region.min_x);
  w->PutDouble(region.min_y);
  w->PutDouble(region.max_x);
  w->PutDouble(region.max_y);
}

Status CheckGridFingerprint(const GridPartition& grid, StateReader* r) {
  int32_t rows, cols;
  double min_x, min_y, max_x, max_y;
  MAPS_RETURN_NOT_OK(r->GetI32(&rows, "grid rows"));
  MAPS_RETURN_NOT_OK(r->GetI32(&cols, "grid cols"));
  MAPS_RETURN_NOT_OK(r->GetDouble(&min_x, "region min_x"));
  MAPS_RETURN_NOT_OK(r->GetDouble(&min_y, "region min_y"));
  MAPS_RETURN_NOT_OK(r->GetDouble(&max_x, "region max_x"));
  MAPS_RETURN_NOT_OK(r->GetDouble(&max_y, "region max_y"));
  const Rect& region = grid.region();
  if (rows != grid.rows() || cols != grid.cols() || min_x != region.min_x ||
      min_y != region.min_y || max_x != region.max_x ||
      max_y != region.max_y) {
    return Status::FailedPrecondition(
        "checkpoint grid fingerprint (" + std::to_string(rows) + "x" +
        std::to_string(cols) + ") does not match this engine's partition (" +
        std::to_string(grid.rows()) + "x" + std::to_string(grid.cols()) +
        ")");
  }
  return Status::OK();
}

void PutLifecycleFingerprint(const WorkerLifecycle& lifecycle,
                             StateWriter* w) {
  w->PutBool(lifecycle.single_use);
  w->PutDouble(lifecycle.speed);
  w->PutDouble(lifecycle.reposition_prob);
  w->PutU64(lifecycle.reposition_seed);
}

Status CheckLifecycleFingerprint(const WorkerLifecycle& lifecycle,
                                 StateReader* r) {
  bool single_use;
  double speed, reposition_prob;
  uint64_t reposition_seed;
  MAPS_RETURN_NOT_OK(r->GetBool(&single_use, "lifecycle single_use"));
  MAPS_RETURN_NOT_OK(r->GetDouble(&speed, "lifecycle speed"));
  MAPS_RETURN_NOT_OK(
      r->GetDouble(&reposition_prob, "lifecycle reposition_prob"));
  MAPS_RETURN_NOT_OK(r->GetU64(&reposition_seed, "lifecycle reposition_seed"));
  if (single_use != lifecycle.single_use || speed != lifecycle.speed ||
      reposition_prob != lifecycle.reposition_prob ||
      reposition_seed != lifecycle.reposition_seed) {
    return Status::FailedPrecondition(
        "checkpoint worker-lifecycle fingerprint does not match this "
        "engine's options");
  }
  return Status::OK();
}

void PutTask(const Task& task, StateWriter* w) {
  w->PutI64(task.id);
  w->PutI32(task.period);
  w->PutDouble(task.origin.x);
  w->PutDouble(task.origin.y);
  w->PutDouble(task.destination.x);
  w->PutDouble(task.destination.y);
  w->PutDouble(task.distance);
  w->PutI32(task.grid);
}

Status GetTask(const GridPartition& grid, StateReader* r, Task* task) {
  MAPS_RETURN_NOT_OK(r->GetI64(&task->id, "task id"));
  MAPS_RETURN_NOT_OK(r->GetI32(&task->period, "task period"));
  MAPS_RETURN_NOT_OK(r->GetDouble(&task->origin.x, "task origin x"));
  MAPS_RETURN_NOT_OK(r->GetDouble(&task->origin.y, "task origin y"));
  MAPS_RETURN_NOT_OK(
      r->GetDouble(&task->destination.x, "task destination x"));
  MAPS_RETURN_NOT_OK(
      r->GetDouble(&task->destination.y, "task destination y"));
  MAPS_RETURN_NOT_OK(r->GetDouble(&task->distance, "task distance"));
  MAPS_RETURN_NOT_OK(r->GetI32(&task->grid, "task grid"));
  if (task->grid < 0 || task->grid >= grid.num_cells()) {
    return Status::InvalidArgument(
        "task " + std::to_string(task->id) + " has grid " +
        std::to_string(task->grid) + " outside the partition");
  }
  return Status::OK();
}

void PutAcceptanceBits(const std::unordered_map<TaskId, bool>& bits,
                       StateWriter* w) {
  std::vector<std::pair<TaskId, bool>> sorted(bits.begin(), bits.end());
  std::sort(sorted.begin(), sorted.end());
  w->PutU64(sorted.size());
  for (const auto& [task, accepted] : sorted) {
    w->PutI64(task);
    w->PutBool(accepted);
  }
}

Status GetAcceptanceBits(StateReader* r,
                         std::unordered_map<TaskId, bool>* bits) {
  uint64_t n;
  MAPS_RETURN_NOT_OK(r->GetU64(&n, "pending bit count"));
  MAPS_RETURN_NOT_OK(CheckDecodedCount(*r, n, 9, "pending bits"));
  bits->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    TaskId task;
    bool accepted;
    MAPS_RETURN_NOT_OK(r->GetI64(&task, "pending task id"));
    MAPS_RETURN_NOT_OK(r->GetBool(&accepted, "pending accepted bit"));
    if (!bits->emplace(task, accepted).second) {
      return Status::InvalidArgument("pending bit for task " +
                                     std::to_string(task) + " appears twice");
    }
  }
  return Status::OK();
}

void PutRejectionCounters(const EngineRejectionCounters& counters,
                          StateWriter* w) {
  w->PutI64(counters.duplicate_tasks);
  w->PutI64(counters.unknown_worker_removals);
  w->PutI64(counters.busy_worker_removals);
  w->PutI64(counters.orphan_acceptances);
}

Status GetRejectionCounters(StateReader* r,
                            EngineRejectionCounters* counters) {
  MAPS_RETURN_NOT_OK(r->GetI64(&counters->duplicate_tasks, "duplicate_tasks"));
  MAPS_RETURN_NOT_OK(r->GetI64(&counters->unknown_worker_removals,
                               "unknown_worker_removals"));
  MAPS_RETURN_NOT_OK(
      r->GetI64(&counters->busy_worker_removals, "busy_worker_removals"));
  MAPS_RETURN_NOT_OK(
      r->GetI64(&counters->orphan_acceptances, "orphan_acceptances"));
  if (counters->duplicate_tasks < 0 || counters->unknown_worker_removals < 0 ||
      counters->busy_worker_removals < 0 || counters->orphan_acceptances < 0) {
    return Status::InvalidArgument("negative rejection counter");
  }
  return Status::OK();
}

}  // namespace internal

namespace {

/// One atomic-replace attempt; `attempt` and `write_call` name the fault
/// site so a FaultPlan can fail attempt 0 of write call 2 and let the
/// retry through.
Status WriteCheckpointFileOnce(const std::string& path,
                               const std::string& data, int attempt,
                               int32_t write_call) {
  FaultInjector& faults = FaultInjector::Global();
  if (faults.ShouldFire(FaultRule::Kind::kCheckpointWriteError, attempt,
                        write_call)) {
    return Status::Internal("injected I/O error writing " + path +
                            " (attempt " + std::to_string(attempt) + ")");
  }
  // A torn write models a lying disk: the write "succeeds" but only a
  // prefix of the payload lands under the final name. Readers must reject
  // it through the container CRCs — that is the point of the fault.
  const size_t write_bytes =
      faults.ShouldFire(FaultRule::Kind::kCheckpointTornWrite, attempt,
                        write_call)
          ? data.size() / 2
          : data.size();

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open " + tmp +
                            " for writing: " + std::strerror(errno));
  }
  bool ok = write_bytes == 0 ||
            std::fwrite(data.data(), 1, write_bytes, f) == write_bytes;
  ok = ok && std::fflush(f) == 0;
  // fsync before the rename: the atomic-replace guarantee is only as good
  // as the data being on disk when the new name appears.
  ok = ok && fsync(fileno(f)) == 0;
  const std::string io_error = ok ? "" : std::strerror(errno);
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::Internal("failed writing " + tmp + ": " + io_error);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string rename_error = std::strerror(errno);
    std::remove(tmp.c_str());
    return Status::Internal("failed renaming " + tmp + " to " + path + ": " +
                            rename_error);
  }
  // Make the rename itself durable: fsync the containing directory so a
  // crash right after this call cannot roll the directory entry back.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = open(dir.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    // Best-effort: some filesystems refuse directory fsync; the file data
    // itself is already synced above.
    fsync(dir_fd);
    close(dir_fd);
  }
  return Status::OK();
}

}  // namespace

Status WriteCheckpointFile(const std::string& path, const std::string& data) {
  const int32_t write_call = FaultInjector::Global().NextWriteSite();
  Status last;
  for (int attempt = 0; attempt < kCheckpointWriteAttempts; ++attempt) {
    last = WriteCheckpointFileOnce(path, data, attempt, write_call);
    if (last.ok()) return last;
  }
  return Status::Internal("checkpoint write to " + path + " failed after " +
                          std::to_string(kCheckpointWriteAttempts) +
                          " attempts: " + last.message());
}

Status ReadCheckpointFile(const std::string& path, std::string* data) {
  if (data == nullptr) return Status::InvalidArgument("null output string");
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open checkpoint file " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return Status::Internal("read error on checkpoint file " + path);
  }
  *data = buf.str();
  return Status::OK();
}

Status PruneCheckpointFiles(const std::string& dir, const std::string& prefix,
                            int keep, std::vector<std::string>* removed) {
  if (keep < 1) {
    return Status::InvalidArgument("checkpoint rotation needs keep >= 1, got " +
                                   std::to_string(keep));
  }
  if (removed != nullptr) removed->clear();

  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    return Status::NotFound("cannot open checkpoint directory " + dir + ": " +
                            std::strerror(errno));
  }
  const std::string suffix = ".ckpt";
  // (sequence number, file name) for every name shaped prefix<number>.ckpt.
  std::vector<std::pair<long long, std::string>> found;
  while (dirent* ent = readdir(d)) {
    const std::string name = ent->d_name;
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    const std::string middle =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    bool digits = !middle.empty();
    for (const char c : middle) {
      if (c < '0' || c > '9') digits = false;
    }
    if (!digits) continue;
    errno = 0;
    const long long seq = std::strtoll(middle.c_str(), nullptr, 10);
    if (errno == ERANGE) continue;
    found.emplace_back(seq, name);
  }
  closedir(d);

  if (static_cast<int>(found.size()) <= keep) return Status::OK();
  std::sort(found.begin(), found.end());
  const size_t prune = found.size() - static_cast<size_t>(keep);
  for (size_t i = 0; i < prune; ++i) {
    const std::string full = dir + "/" + found[i].second;
    if (std::remove(full.c_str()) != 0) {
      return Status::Internal("failed pruning checkpoint " + full + ": " +
                              std::strerror(errno));
    }
    if (removed != nullptr) removed->push_back(full);
  }
  return Status::OK();
}

Status MarketEngine::SaveCheckpoint(std::string* out) {
  if (out == nullptr) return Status::InvalidArgument("null output string");
  StateWriter blob;
  MAPS_RETURN_NOT_OK(AppendCheckpoint(&blob));
  *out = blob.Release();
  return Status::OK();
}

Status MarketEngine::AppendCheckpoint(StateWriter* out) {
  if (out == nullptr) return Status::InvalidArgument("null output writer");
  obs::ScopedTimer save_timer(m_ckpt_save_ns_);
  const size_t blob_at = out->size();
  out->Reserve(blob_at + internal::CheckpointReserveBytes(
                             checkpoint_bytes_hint_));
  // Every section is encoded straight into `out`; see
  // internal::BeginCheckpointSection.
  out->PutBytes(kCheckpointMagic, sizeof(kCheckpointMagic));
  out->PutU32(kCheckpointFormatVersion);
  out->PutU32(kCheckpointNumSections);

  size_t section = internal::BeginCheckpointSection(kSectionConfig, out);
  internal::PutGridFingerprint(*grid_, out);
  internal::PutLifecycleFingerprint(options_.lifecycle, out);
  out->PutString(strategy_->name());
  internal::EndCheckpointSection(section, out);

  section = internal::BeginCheckpointSection(kSectionCore, out);
  out->PutI32(period_);
  internal::PutRejectionCounters(rejections_, out);
  internal::EndCheckpointSection(section, out);

  section = internal::BeginCheckpointSection(kSectionWorkers, out);
  // indexed: the id still resolves to this record. False only for the
  // tombstones ExtractIdleWorker leaves behind (the id may meanwhile
  // belong to a newer record of this same engine). One pass over the
  // index, which holds only the live ids, instead of a lookup per record.
  std::vector<char> indexed(workers_.size(), 0);
  for (const auto& [id, idx] : worker_index_) indexed[idx] = 1;
  out->PutU64(workers_.size());
  for (size_t i = 0; i < workers_.size(); ++i) {
    const WorkerRecord& rec = workers_[i];
    out->PutI64(rec.base.id);
    out->PutI32(rec.base.period);
    out->PutDouble(rec.base.location.x);
    out->PutDouble(rec.base.location.y);
    out->PutDouble(rec.base.radius);
    out->PutI32(rec.base.duration);
    out->PutI32(rec.base.grid);
    out->PutI32(rec.next_free);
    out->PutI32(rec.retire_at);
    out->PutBool(rec.consumed);
    out->PutBool(indexed[i] != 0);
  }
  out->PutU64(idle_.size());
  for (int idx : idle_) out->PutI32(idx);
  // The busy heap is drained in its deterministic pop order — ascending
  // (next_free, index) — which is the only property ClosePeriod observes;
  // the restore re-pushes the entries.
  auto busy_copy = busy_;
  out->PutU64(busy_copy.size());
  while (!busy_copy.empty()) {
    out->PutI32(busy_copy.top().first);
    out->PutI32(busy_copy.top().second);
    busy_copy.pop();
  }
  internal::EndCheckpointSection(section, out);

  section = internal::BeginCheckpointSection(kSectionStages, out);
  // Two slots ordered by period parity: the open period's tasks sit in
  // slot period_ & 1, the other slot is empty, and each slot's leading
  // flag byte is 0 (docs/checkpoint_format.md, Section 4).
  for (int slot = 0; slot < 2; ++slot) {
    const bool open = slot == (period_ & 1);
    out->PutBool(false);
    out->PutU64(open ? stage_.tasks.size() : 0);
    if (!open) continue;
    for (const Task& task : stage_.tasks) internal::PutTask(task, out);
    for (double v : stage_.valuations) out->PutDouble(v);
  }
  internal::EndCheckpointSection(section, out);

  section = internal::BeginCheckpointSection(kSectionPending, out);
  internal::PutAcceptanceBits(pending_accept_, out);
  internal::EndCheckpointSection(section, out);

  section = internal::BeginCheckpointSection(kSectionRng, out);
  for (uint64_t word : reposition_rng_.SaveState()) out->PutU64(word);
  internal::EndCheckpointSection(section, out);

  section = internal::BeginCheckpointSection(kSectionStrategy, out);
  MAPS_RETURN_NOT_OK(strategy_->SaveState(out));
  internal::EndCheckpointSection(section, out);

  const size_t blob_bytes = out->size() - blob_at;
  checkpoint_bytes_hint_ = blob_bytes;
  if (m_ckpt_bytes_ != nullptr) {
    m_ckpt_bytes_->Record(static_cast<int64_t>(blob_bytes));
  }
  if (options_.trace != nullptr) {
    options_.trace->Emit(obs::TraceEvent::Kind::kCheckpointWritten, period_,
                         /*region=*/-1, static_cast<int64_t>(blob_bytes), "");
  }
  return Status::OK();
}

Status MarketEngine::RestoreFromCheckpoint(const std::string& data) {
  obs::ScopedTimer restore_timer(m_ckpt_restore_ns_);
  std::vector<std::string> sections;
  MAPS_RETURN_NOT_OK(internal::ParseCheckpointContainer(
      data, kCheckpointMagic, kCheckpointFormatVersion, kCheckpointNumSections,
      "MAPS checkpoint", &sections));

  // Every section is decoded and validated into temporaries first; the
  // engine commits only after all of them (and the strategy) succeeded, so
  // a corrupt tail can never leave this engine half-restored.

  {  // Config fingerprint: the target must be configured like the saver.
    StateReader r(sections[kSectionConfig - 1]);
    MAPS_RETURN_NOT_OK(internal::CheckGridFingerprint(*grid_, &r));
    MAPS_RETURN_NOT_OK(
        internal::CheckLifecycleFingerprint(options_.lifecycle, &r));
    std::string name;
    MAPS_RETURN_NOT_OK(r.GetString(&name, "strategy name"));
    if (name != strategy_->name()) {
      return Status::FailedPrecondition(
          "checkpoint was saved with strategy '" + name +
          "', this engine prices with '" + strategy_->name() + "'");
    }
    MAPS_RETURN_NOT_OK(r.ExpectEnd("config section"));
  }

  int32_t period;
  EngineRejectionCounters rej;
  {  // Engine core.
    StateReader r(sections[kSectionCore - 1]);
    MAPS_RETURN_NOT_OK(r.GetI32(&period, "period counter"));
    if (period < 0) {
      return Status::InvalidArgument("engine core section has a negative "
                                     "period counter");
    }
    MAPS_RETURN_NOT_OK(internal::GetRejectionCounters(&r, &rej));
    MAPS_RETURN_NOT_OK(r.ExpectEnd("engine core section"));
  }

  std::vector<WorkerRecord> workers;
  std::unordered_map<WorkerId, int> worker_index;
  std::vector<int> idle;
  std::vector<BusyEntry> busy_entries;
  {  // Worker lifecycle table.
    StateReader r(sections[kSectionWorkers - 1]);
    uint64_t n;
    MAPS_RETURN_NOT_OK(r.GetU64(&n, "worker count"));
    // One record is 54 encoded bytes; a count beyond that is corruption.
    MAPS_RETURN_NOT_OK(CheckDecodedCount(r, n, 54, "worker records"));
    workers.resize(static_cast<size_t>(n));
    worker_index.reserve(workers.size());
    for (size_t i = 0; i < workers.size(); ++i) {
      WorkerRecord& rec = workers[i];
      MAPS_RETURN_NOT_OK(r.GetI64(&rec.base.id, "worker id"));
      MAPS_RETURN_NOT_OK(r.GetI32(&rec.base.period, "worker period"));
      MAPS_RETURN_NOT_OK(r.GetDouble(&rec.base.location.x, "worker x"));
      MAPS_RETURN_NOT_OK(r.GetDouble(&rec.base.location.y, "worker y"));
      MAPS_RETURN_NOT_OK(r.GetDouble(&rec.base.radius, "worker radius"));
      MAPS_RETURN_NOT_OK(r.GetI32(&rec.base.duration, "worker duration"));
      MAPS_RETURN_NOT_OK(r.GetI32(&rec.base.grid, "worker grid"));
      MAPS_RETURN_NOT_OK(r.GetI32(&rec.next_free, "worker next_free"));
      MAPS_RETURN_NOT_OK(r.GetI32(&rec.retire_at, "worker retire_at"));
      MAPS_RETURN_NOT_OK(r.GetBool(&rec.consumed, "worker consumed"));
      bool indexed;
      MAPS_RETURN_NOT_OK(r.GetBool(&indexed, "worker indexed"));
      if (rec.base.grid < 0 || rec.base.grid >= grid_->num_cells()) {
        return Status::InvalidArgument(
            "worker record " + std::to_string(i) + " has grid " +
            std::to_string(rec.base.grid) + " outside the partition");
      }
      // Only extraction tombstones lose their index entry, and they are
      // always consumed; a live-but-unindexed record is corruption.
      if (!indexed && !rec.consumed) {
        return Status::InvalidArgument(
            "worker record " + std::to_string(i) +
            " is unindexed but not consumed");
      }
      if (indexed &&
          !worker_index.emplace(rec.base.id, static_cast<int>(i)).second) {
        return Status::InvalidArgument(
            "worker id " + std::to_string(rec.base.id) +
            " appears twice in the checkpoint");
      }
    }
    uint64_t idle_n;
    MAPS_RETURN_NOT_OK(r.GetU64(&idle_n, "idle count"));
    MAPS_RETURN_NOT_OK(CheckDecodedCount(r, idle_n, 4, "idle indices"));
    idle.resize(static_cast<size_t>(idle_n));
    std::vector<char> in_idle(workers.size(), 0);
    for (auto& idx : idle) {
      MAPS_RETURN_NOT_OK(r.GetI32(&idx, "idle index"));
      if (idx < 0 || static_cast<size_t>(idx) >= workers.size()) {
        return Status::InvalidArgument("idle index " + std::to_string(idx) +
                                       " out of range");
      }
      if (in_idle[idx]) {
        return Status::InvalidArgument("idle index " + std::to_string(idx) +
                                       " appears twice");
      }
      in_idle[idx] = 1;
    }
    uint64_t busy_n;
    MAPS_RETURN_NOT_OK(r.GetU64(&busy_n, "busy count"));
    MAPS_RETURN_NOT_OK(CheckDecodedCount(r, busy_n, 8, "busy entries"));
    busy_entries.resize(static_cast<size_t>(busy_n));
    for (auto& entry : busy_entries) {
      MAPS_RETURN_NOT_OK(r.GetI32(&entry.first, "busy next_free"));
      MAPS_RETURN_NOT_OK(r.GetI32(&entry.second, "busy index"));
      if (entry.second < 0 ||
          static_cast<size_t>(entry.second) >= workers.size()) {
        return Status::InvalidArgument(
            "busy index " + std::to_string(entry.second) + " out of range");
      }
    }
    MAPS_RETURN_NOT_OK(r.ExpectEnd("worker section"));
  }

  Stage stage;
  {  // The open period's tasks, in the slot of its parity.
    StateReader r(sections[kSectionStages - 1]);
    for (int slot = 0; slot < 2; ++slot) {
      bool sealed;
      MAPS_RETURN_NOT_OK(r.GetBool(&sealed, "stage sealed"));
      if (sealed) {
        return Status::InvalidArgument(
            "stage slot " + std::to_string(slot) +
            " is sealed; this engine has no bulk-staged periods");
      }
      uint64_t n;
      MAPS_RETURN_NOT_OK(r.GetU64(&n, "staged task count"));
      if (slot != (period & 1)) {
        if (n != 0) {
          return Status::InvalidArgument(
              "stage slot " + std::to_string(slot) + " holds " +
              std::to_string(n) + " tasks, but only the open period " +
              std::to_string(period) + "'s slot may hold any");
        }
        continue;
      }
      // One task is 56 encoded bytes (plus its valuation after the list).
      MAPS_RETURN_NOT_OK(CheckDecodedCount(r, n, 56, "staged tasks"));
      stage.tasks.resize(static_cast<size_t>(n));
      stage.ids.reserve(stage.tasks.size());
      for (Task& task : stage.tasks) {
        MAPS_RETURN_NOT_OK(internal::GetTask(*grid_, &r, &task));
        if (!stage.ids.insert(task.id).second) {
          return Status::InvalidArgument(
              "staged task id " + std::to_string(task.id) +
              " appears twice in one period");
        }
      }
      stage.valuations.resize(stage.tasks.size());
      for (double& v : stage.valuations) {
        MAPS_RETURN_NOT_OK(r.GetDouble(&v, "staged valuation"));
      }
    }
    MAPS_RETURN_NOT_OK(r.ExpectEnd("stage section"));
  }

  std::unordered_map<TaskId, bool> pending;
  {  // Pending acceptance bits.
    StateReader r(sections[kSectionPending - 1]);
    MAPS_RETURN_NOT_OK(internal::GetAcceptanceBits(&r, &pending));
    MAPS_RETURN_NOT_OK(r.ExpectEnd("pending section"));
  }

  std::array<uint64_t, 4> rng_state;
  {  // Repositioning RNG position.
    StateReader r(sections[kSectionRng - 1]);
    for (auto& word : rng_state) {
      MAPS_RETURN_NOT_OK(r.GetU64(&word, "rng state word"));
    }
    MAPS_RETURN_NOT_OK(r.ExpectEnd("rng section"));
  }

  {  // Strategy learned state. This is the last fallible step and the only
    // one that mutates anything. Per-strategy LoadState is all-or-nothing,
    // but the trailing-bytes check runs after it has replaced the state, so
    // the strategy's own state is saved first and loaded back on either
    // failure: neither the strategy nor the engine changes.
    StateWriter prior;
    MAPS_RETURN_NOT_OK(strategy_->SaveState(&prior));
    StateReader r(sections[kSectionStrategy - 1]);
    Status loaded = strategy_->LoadState(&r);
    if (loaded.ok()) loaded = r.ExpectEnd("strategy section");
    if (!loaded.ok()) {
      StateReader undo(prior.data());
      const Status undone = strategy_->LoadState(&undo);
      if (!undone.ok()) {
        return Status::Internal("reloading the strategy's prior state: " +
                                undone.message());
      }
      return loaded;
    }
  }

  // Commit. Nothing below can fail. The mirrored registry counters absorb
  // the jump between pre-restore and checkpoint values so the registry
  // keeps equal to the (possibly multi-engine) sum of the struct counters
  // after a rewind (DESIGN.md §16).
  m_reject_.Resync(rejections_, rej);
  period_ = period;
  rejections_ = rej;
  workers_ = std::move(workers);
  worker_index_ = std::move(worker_index);
  idle_ = std::move(idle);
  busy_ = decltype(busy_)();
  for (const BusyEntry& entry : busy_entries) busy_.push(entry);
  matched_flag_.assign(workers_.size(), 0);
  stage_ = std::move(stage);
  pending_accept_ = std::move(pending);
  reposition_rng_.LoadState(rng_state);
  // The snapshot is derived state that every ClosePeriod rebuilds before
  // reading it, so stale contents are never observed.
  // Wall-clock and footprint diagnostics describe this process, not the
  // run; they restart at zero (documented in DESIGN.md §12).
  strategy_seconds_ = 0.0;
  peak_platform_bytes_ = 0;
  peak_strategy_bytes_ = 0;
  if (options_.trace != nullptr) {
    options_.trace->Emit(obs::TraceEvent::Kind::kCheckpointRestored, period_,
                         /*region=*/-1, static_cast<int64_t>(data.size()), "");
  }
  return Status::OK();
}

}  // namespace maps
