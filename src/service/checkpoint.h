// Checkpoint container format and file helpers for MarketEngine
// (DESIGN.md §12; field-by-field spec in docs/checkpoint_format.md).
//
// A checkpoint is a self-describing binary blob:
//
//   magic "MAPSCKPT" (8 bytes)
//   u32 format version
//   u32 section count
//   section*: u32 section id, u64 payload length, u32 CRC-32(payload),
//             payload bytes
//
// Sections appear in ascending id order, each exactly once; payloads are
// the little-endian StateWriter encodings of util/serial.h. Readers verify
// the magic, version, section structure, and every CRC before decoding a
// single field, and every decode failure carries a byte offset — corrupt
// or truncated files are rejected with a Status, never undefined behavior.
// MarketEngine::SaveCheckpoint / RestoreFromCheckpoint (implemented here,
// declared in market_engine.h) produce and consume this format; the
// restore commits all-or-nothing.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "geo/grid.h"
#include "market/task.h"
#include "market/worker.h"
#include "util/serial.h"
#include "util/status.h"

namespace maps {

struct EngineRejectionCounters;

/// First bytes of every single-engine checkpoint file.
inline constexpr char kCheckpointMagic[8] = {'M', 'A', 'P', 'S',
                                             'C', 'K', 'P', 'T'};

/// Container format version produced by SaveCheckpoint. Readers reject
/// other versions (no cross-version migration yet; see DESIGN.md §12 for
/// the compatibility policy). Version 2 added the per-worker-record
/// `indexed` flag (sharded extraction tombstones).
inline constexpr uint32_t kCheckpointFormatVersion = 2;

/// Number of sections in a single-engine checkpoint container (config,
/// core counters, workers, open-period tasks, pending bits, RNG, strategy).
inline constexpr uint32_t kCheckpointNumSections = 7;

/// First bytes of a ShardedMarketEngine checkpoint file (its container
/// embeds one kCheckpointMagic blob per region; see
/// docs/checkpoint_format.md).
inline constexpr char kShardedCheckpointMagic[8] = {'M', 'A', 'P', 'S',
                                                    'S', 'H', 'R', 'D'};

/// Container format version produced by ShardedMarketEngine::SaveCheckpoint.
/// Version 2 added the per-route hidden valuation and the routing layer's
/// deferred_tasks counter (failure domains, DESIGN.md §15).
inline constexpr uint32_t kShardedCheckpointFormatVersion = 2;

namespace internal {

/// Opens one container section — u32 id, u64 payload length, u32
/// CRC-32(payload), payload bytes — in place at the end of a blob under
/// construction: writes the header with a zero length and checksum and
/// returns its offset. The caller then appends the payload to `out`
/// directly, and EndCheckpointSection patches both fields over it, so no
/// payload is ever copied.
size_t BeginCheckpointSection(uint32_t id, StateWriter* out);
void EndCheckpointSection(size_t header_at, StateWriter* out);

/// Reserve size for a blob whose previous save was `last_bytes` long:
/// a little slack, so a blob that grows between saves is not reallocated.
inline size_t CheckpointReserveBytes(size_t last_bytes) {
  return last_bytes + last_bytes / 16;
}

/// Validates a container's structure — `magic` (8 bytes), `version`,
/// exactly `num_sections` sections in ascending id order 1..N, every
/// length and CRC — and extracts the payloads. No payload field is decoded
/// here, so structural corruption is caught (with a byte offset) before any
/// interpretation. `what` names the container in error messages.
Status ParseCheckpointContainer(const std::string& data, const char* magic,
                                uint32_t version, uint32_t num_sections,
                                const char* what,
                                std::vector<std::string>* payloads);

// Record codecs shared by MarketEngine and ShardedMarketEngine, so each
// record's layout (docs/checkpoint_format.md) and checks exist once.
// Decoders reject corrupt bytes with InvalidArgument; the Check* functions
// reject a differently configured engine with FailedPrecondition.

/// Grid rows, cols and region rectangle.
void PutGridFingerprint(const GridPartition& grid, StateWriter* w);
Status CheckGridFingerprint(const GridPartition& grid, StateReader* r);

/// Worker lifecycle: single_use, speed, reposition prob and seed.
void PutLifecycleFingerprint(const WorkerLifecycle& lifecycle,
                             StateWriter* w);
Status CheckLifecycleFingerprint(const WorkerLifecycle& lifecycle,
                                 StateReader* r);

/// One 56-byte task; GetTask rejects a grid cell outside `grid`.
void PutTask(const Task& task, StateWriter* w);
Status GetTask(const GridPartition& grid, StateReader* r, Task* task);

/// Acceptance bits in ascending task id order; the decoder rejects a
/// repeated id.
void PutAcceptanceBits(const std::unordered_map<TaskId, bool>& bits,
                       StateWriter* w);
Status GetAcceptanceBits(StateReader* r,
                         std::unordered_map<TaskId, bool>* bits);

/// The four format-1 rejection counters (deferred_tasks is stored only by
/// the sharded routing section, right after them); the decoder rejects
/// negative values.
void PutRejectionCounters(const EngineRejectionCounters& counters,
                          StateWriter* w);
Status GetRejectionCounters(StateReader* r,
                            EngineRejectionCounters* counters);

}  // namespace internal

/// Write attempts per WriteCheckpointFile call before giving up: transient
/// I/O errors (and injected kCheckpointWriteError faults at specific
/// attempts) are retried from scratch, each attempt a fresh tmp write.
inline constexpr int kCheckpointWriteAttempts = 3;

/// \brief Atomically replaces `path` with `data`: writes `path`.tmp,
/// flushes and fsyncs it, renames over `path`, then fsyncs the containing
/// directory so the rename itself is durable. A crash mid-write leaves
/// either the previous checkpoint or a stray .tmp — never a half-written
/// file under the final name. I/O failures are retried up to
/// kCheckpointWriteAttempts times before the last error is returned.
/// Honors injected faults: kCheckpointWriteError fails one attempt;
/// kCheckpointTornWrite truncates the payload mid-write and "succeeds",
/// modeling a lying disk — readers reject the torn file via its CRCs.
Status WriteCheckpointFile(const std::string& path, const std::string& data);

/// \brief Reads the whole file at `path` into `data`.
Status ReadCheckpointFile(const std::string& path, std::string* data);

/// \brief Keep-last-N checkpoint rotation: scans `dir` for files named
/// `prefix<number>.ckpt`, keeps the `keep` highest-numbered ones, and
/// removes the rest (prune AFTER the newest file was atomically renamed
/// into place, so the retained set never passes through a state with
/// fewer than `keep` good checkpoints). Files whose name does not parse
/// as `prefix<number>.ckpt` are left alone. `removed`, when non-null, is
/// cleared and receives the full paths pruned, oldest first. `keep` must
/// be >= 1.
Status PruneCheckpointFiles(const std::string& dir, const std::string& prefix,
                            int keep, std::vector<std::string>* removed);

}  // namespace maps
