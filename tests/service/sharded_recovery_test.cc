// Kill/restore drills for the sharded deployment: one MAPSSHRD container
// must bring back all K regions plus the routing layer bit-identically, and
// anything that does not describe THIS deployment — different K, a
// monolithic blob, corrupted bytes — must be rejected before any region
// engine is touched.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "geo/region_partition.h"
#include "rng/random.h"
#include "service/checkpoint.h"
#include "service/sharded_engine.h"
#include "sharded_test_util.h"

namespace maps {
namespace {

using testing_util::CellLocalStrategy;
using testing_util::MakeTask;
using testing_util::MakeWorker;

// The engine keeps non-owning pointers into the deployment, so everything
// it points at is heap-allocated (moving the struct must not invalidate
// them).
struct Deployment {
  std::unique_ptr<GridPartition> grid;
  std::unique_ptr<RegionPartition> partition;
  std::vector<std::unique_ptr<CellLocalStrategy>> strategies;
  std::unique_ptr<ShardedMarketEngine> engine;
};

EngineOptions TurnaroundOptions() {
  EngineOptions options;
  options.lifecycle.single_use = false;
  options.lifecycle.speed = 40.0;
  return options;
}

template <typename Strategy = CellLocalStrategy>
Deployment MakeDeployment(int rows, int k, const EngineOptions& options) {
  Deployment d;
  d.grid = std::make_unique<GridPartition>(
      GridPartition::Make(Rect{0, 0, 100, 100}, rows, rows).ValueOrDie());
  d.partition = std::make_unique<RegionPartition>(
      RegionPartition::Make(*d.grid, k).ValueOrDie());
  std::vector<PricingStrategy*> raw;
  for (int i = 0; i < k; ++i) {
    d.strategies.push_back(std::make_unique<Strategy>());
    raw.push_back(d.strategies.back().get());
  }
  d.engine = std::make_unique<ShardedMarketEngine>(
      d.grid.get(), d.partition.get(), std::move(raw), options);
  return d;
}

/// Drives one scripted period of churn across the seam of a 4x4 K=2
/// deployment: region-skewed tasks, boundary workers, periodic explicit
/// bits. Deterministic in (engine state, t) so a restored engine replaying
/// the same tail sees identical events.
Status DriveScriptedPeriod(const GridPartition& grid,
                           ShardedMarketEngine* engine, int32_t t,
                           PeriodOutcome* out) {
  Rng rng(8000 + static_cast<uint64_t>(t));
  if (t % 3 == 0) {
    const Point loc{rng.NextDouble(5.0, 95.0), rng.NextDouble(40.0, 60.0)};
    MAPS_RETURN_NOT_OK(
        engine->AddWorker(MakeWorker(grid, 100 + t, loc, 30.0)));
  }
  for (int i = 0; i < 4; ++i) {
    Task task = MakeTask(grid, t * 100 + i,
                         Point{rng.NextDouble(0.0, 100.0),
                               rng.NextDouble(0.0, 100.0)},
                         rng.NextDouble(1.0, 4.0), t);
    task.destination = Point{rng.NextDouble(0.0, 100.0),
                             rng.NextDouble(0.0, 100.0)};
    MAPS_RETURN_NOT_OK(engine->SubmitTask(task, rng.NextDouble(1.0, 6.0)));
  }
  MAPS_RETURN_NOT_OK(engine->ObserveAcceptance(t * 100 + 1, t % 2 == 0));
  return engine->ClosePeriod(out);
}

void ExpectSamePeriod(const PeriodOutcome& a, const PeriodOutcome& b) {
  EXPECT_EQ(a.period, b.period);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.prices, b.prices);
  EXPECT_EQ(a.accepted, b.accepted);
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].task, b.matches[i].task);
    EXPECT_EQ(a.matches[i].worker, b.matches[i].worker);
    EXPECT_EQ(a.matches[i].revenue, b.matches[i].revenue);
  }
  EXPECT_EQ(a.revenue, b.revenue);
  EXPECT_TRUE(a.rejections == b.rejections);
}

TEST(ShardedRecoveryTest, KillAndRestoreContinuesBitIdentically) {
  const EngineOptions options = TurnaroundOptions();
  Deployment original = MakeDeployment(4, 2, options);

  PeriodOutcome out;
  for (int32_t t = 0; t < 6; ++t) {
    ASSERT_TRUE(DriveScriptedPeriod(*original.grid, original.engine.get(), t,
                                    &out)
                    .ok());
  }
  std::string checkpoint;
  ASSERT_TRUE(original.engine->SaveCheckpoint(&checkpoint).ok());

  // The uninterrupted run is the reference for the tail.
  std::vector<PeriodOutcome> reference;
  for (int32_t t = 6; t < 12; ++t) {
    ASSERT_TRUE(DriveScriptedPeriod(*original.grid, original.engine.get(), t,
                                    &out)
                    .ok());
    reference.push_back(out);
  }

  // "Crash": a brand-new process restores the container and replays the
  // same tail of events.
  Deployment restored = MakeDeployment(4, 2, options);
  const Status restore = restored.engine->RestoreFromCheckpoint(checkpoint);
  ASSERT_TRUE(restore.ok()) << restore.ToString();
  EXPECT_EQ(restored.engine->current_period(), 6);
  for (int32_t t = 6; t < 12; ++t) {
    ASSERT_TRUE(DriveScriptedPeriod(*restored.grid, restored.engine.get(), t,
                                    &out)
                    .ok());
    SCOPED_TRACE("period " + std::to_string(t));
    ExpectSamePeriod(reference[t - 6], out);
  }
}

TEST(ShardedRecoveryTest, MidPeriodStateRoundTrips) {
  // Save with an open period in flight: routed tasks, buffered bits, and
  // the submission sequence must all come back.
  const EngineOptions options = TurnaroundOptions();
  Deployment original = MakeDeployment(4, 2, options);
  ShardedMarketEngine& engine = *original.engine;

  ASSERT_TRUE(engine.AddWorker(MakeWorker(*original.grid, 1, {20, 20}, 30)).ok());
  ASSERT_TRUE(engine.AddWorker(MakeWorker(*original.grid, 2, {80, 80}, 30)).ok());
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(*original.grid, 10, {25, 25}, 2.0), 100.0)
          .ok());
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(*original.grid, 11, {75, 75}, 2.0), 0.01)
          .ok());
  ASSERT_TRUE(engine.ObserveAcceptance(11, true).ok());  // overrides the 0.01

  std::string checkpoint;
  ASSERT_TRUE(engine.SaveCheckpoint(&checkpoint).ok());

  PeriodOutcome expected;
  ASSERT_TRUE(engine.ClosePeriod(&expected).ok());

  Deployment restored = MakeDeployment(4, 2, options);
  ASSERT_TRUE(restored.engine->RestoreFromCheckpoint(checkpoint).ok());
  // A duplicate of an in-flight task is still rejected after the restore.
  EXPECT_EQ(restored.engine
                ->SubmitTask(MakeTask(*restored.grid, 10, {25, 25}, 2.0), 1.0)
                .code(),
            StatusCode::kAlreadyExists);
  PeriodOutcome got;
  ASSERT_TRUE(restored.engine->ClosePeriod(&got).ok());
  // The duplicate rejection above is the one allowed counter difference.
  EXPECT_EQ(got.rejections.duplicate_tasks,
            expected.rejections.duplicate_tasks + 1);
  got.rejections = expected.rejections;
  ExpectSamePeriod(expected, got);
}

TEST(ShardedRecoveryTest, DifferentRegionCountIsFailedPrecondition) {
  const EngineOptions options = TurnaroundOptions();
  Deployment original = MakeDeployment(4, 2, options);
  PeriodOutcome out;
  for (int32_t t = 0; t < 3; ++t) {
    ASSERT_TRUE(DriveScriptedPeriod(*original.grid, original.engine.get(), t,
                                    &out)
                    .ok());
  }
  std::string checkpoint;
  ASSERT_TRUE(original.engine->SaveCheckpoint(&checkpoint).ok());

  Deployment wrong_k = MakeDeployment(4, 4, options);
  const Status restore = wrong_k.engine->RestoreFromCheckpoint(checkpoint);
  EXPECT_EQ(restore.code(), StatusCode::kFailedPrecondition);
  // Untouched: still the fresh deployment.
  EXPECT_EQ(wrong_k.engine->current_period(), 0);
  EXPECT_EQ(wrong_k.engine->num_live_workers(), 0);
}

TEST(ShardedRecoveryTest, DifferentLifecycleIsFailedPrecondition) {
  Deployment original = MakeDeployment(4, 2, TurnaroundOptions());
  std::string checkpoint;
  ASSERT_TRUE(original.engine->SaveCheckpoint(&checkpoint).ok());

  EngineOptions single_use;
  single_use.lifecycle.single_use = true;
  Deployment other = MakeDeployment(4, 2, single_use);
  EXPECT_EQ(other.engine->RestoreFromCheckpoint(checkpoint).code(),
            StatusCode::kFailedPrecondition);
}

/// CellLocalStrategy under another name: a deployment configured like the
/// saver in everything but its per-region strategy type.
class OtherNameStrategy : public CellLocalStrategy {
 public:
  std::string name() const override { return "OtherTest"; }
};

TEST(ShardedRecoveryTest, DifferentStrategyTypeIsFailedPrecondition) {
  const EngineOptions options = TurnaroundOptions();
  Deployment original = MakeDeployment(4, 2, options);
  PeriodOutcome out;
  for (int32_t t = 0; t < 3; ++t) {
    ASSERT_TRUE(DriveScriptedPeriod(*original.grid, original.engine.get(), t,
                                    &out)
                    .ok());
  }
  std::string checkpoint;
  ASSERT_TRUE(original.engine->SaveCheckpoint(&checkpoint).ok());

  Deployment other = MakeDeployment<OtherNameStrategy>(4, 2, options);
  for (int32_t t = 0; t < 2; ++t) {  // non-trivial state of its own
    ASSERT_TRUE(
        DriveScriptedPeriod(*other.grid, other.engine.get(), t, &out).ok());
  }
  std::string before;
  ASSERT_TRUE(other.engine->SaveCheckpoint(&before).ok());

  const Status restore = other.engine->RestoreFromCheckpoint(checkpoint);
  EXPECT_EQ(restore.code(), StatusCode::kFailedPrecondition)
      << restore.ToString();
  EXPECT_EQ(restore.message().rfind("restoring region 0: ", 0), 0u)
      << restore.ToString();
  std::string after;
  ASSERT_TRUE(other.engine->SaveCheckpoint(&after).ok());
  EXPECT_TRUE(after == before) << "a rejected restore changed the state";
}

TEST(ShardedRecoveryTest, MonolithicCheckpointIsRejected) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 100, 100}, 4, 4).ValueOrDie();
  CellLocalStrategy strategy;
  EngineOptions options = TurnaroundOptions();
  MarketEngine monolith(&grid, &strategy, options);
  std::string monolith_blob;
  ASSERT_TRUE(monolith.SaveCheckpoint(&monolith_blob).ok());

  Deployment sharded = MakeDeployment(4, 2, options);
  const Status restore = sharded.engine->RestoreFromCheckpoint(monolith_blob);
  EXPECT_FALSE(restore.ok());  // wrong magic: not a MAPSSHRD container
  EXPECT_EQ(sharded.engine->current_period(), 0);
}

/// A checkpoint of a 4x4 K=2 deployment driven for four periods, with its
/// sections edited by `tamper` and every section CRC resealed, so only a
/// decoder that looks past the container can reject it.
std::string TamperedCheckpoint(
    const EngineOptions& options,
    const std::function<void(std::vector<std::string>*)>& tamper) {
  Deployment original = MakeDeployment(4, 2, options);
  PeriodOutcome out;
  for (int32_t t = 0; t < 4; ++t) {
    EXPECT_TRUE(DriveScriptedPeriod(*original.grid, original.engine.get(), t,
                                    &out)
                    .ok());
  }
  std::string checkpoint;
  EXPECT_TRUE(original.engine->SaveCheckpoint(&checkpoint).ok());

  std::vector<std::string> sections;
  EXPECT_TRUE(internal::ParseCheckpointContainer(
                  checkpoint, kShardedCheckpointMagic,
                  kShardedCheckpointFormatVersion, 3, "sharded", &sections)
                  .ok());
  tamper(&sections);

  StateWriter resealed;
  resealed.PutBytes(kShardedCheckpointMagic, sizeof(kShardedCheckpointMagic));
  resealed.PutU32(kShardedCheckpointFormatVersion);
  resealed.PutU32(static_cast<uint32_t>(sections.size()));
  for (size_t i = 0; i < sections.size(); ++i) {
    const size_t header_at = internal::BeginCheckpointSection(
        static_cast<uint32_t>(i + 1), &resealed);
    resealed.PutBytes(sections[i].data(), sections[i].size());
    internal::EndCheckpointSection(header_at, &resealed);
  }
  return resealed.data();
}

/// Names the wrong region for the first worker in the owner table.
void FlipFirstOwner(std::vector<std::string>* sections) {
  // Routing section: period, five counters, next seq, then the owner
  // table's count and its (i64 id, i32 region) entries.
  std::string& routing = (*sections)[1];
  StateReader r(routing);
  int32_t i32;
  int64_t i64;
  uint64_t owners;
  EXPECT_TRUE(r.GetI32(&i32, "period").ok());
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(r.GetI64(&i64, "counter").ok());
  EXPECT_TRUE(r.GetU64(&owners, "owner count").ok());
  EXPECT_GT(owners, 0u);
  const size_t region_at = r.offset() + 8;  // first entry's region field
  EXPECT_TRUE(routing[region_at] == 0 || routing[region_at] == 1);
  routing[region_at] = static_cast<char>(1 - routing[region_at]);
}

/// Damages the last byte of the regions section, which lies in the last
/// region's embedded blob: region 0 restores, region 1 rejects its blob.
void CorruptLastRegionBlob(std::vector<std::string>* sections) {
  std::string& regions = (*sections)[2];
  regions.back() = static_cast<char>(regions.back() ^ 0x5a);
}

TEST(ShardedRecoveryTest, OwnerTableDisagreeingWithRegionsIsRejected) {
  // The routing section's worker owner table is derived from the regions'
  // worker indices. A well-formed container (valid CRCs, in-range regions)
  // whose table names the wrong holder of a worker must not be accepted.
  const EngineOptions options = TurnaroundOptions();
  const std::string tampered = TamperedCheckpoint(options, FlipFirstOwner);
  ASSERT_FALSE(::testing::Test::HasFailure());
  Deployment target = MakeDeployment(4, 2, options);
  EXPECT_EQ(target.engine->RestoreFromCheckpoint(tampered).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedRecoveryTest, RejectedRestoreRollsEveryRegionBack) {
  // Both failures are found only after regions restored the blob's
  // period-4 state. A live deployment at period 2 must come out of the
  // failed restore exactly as it went in — same checkpoint bytes — and
  // keep serving in lockstep with a twin that never tried the restore.
  const EngineOptions options = TurnaroundOptions();
  for (const auto& tamper : {FlipFirstOwner, CorruptLastRegionBlob}) {
    const std::string tampered = TamperedCheckpoint(options, tamper);
    ASSERT_FALSE(::testing::Test::HasFailure());
    Deployment live = MakeDeployment(4, 2, options);
    Deployment twin = MakeDeployment(4, 2, options);
    PeriodOutcome live_out;
    PeriodOutcome twin_out;
    for (int32_t t = 0; t < 2; ++t) {
      ASSERT_TRUE(DriveScriptedPeriod(*live.grid, live.engine.get(), t,
                                      &live_out)
                      .ok());
      ASSERT_TRUE(DriveScriptedPeriod(*twin.grid, twin.engine.get(), t,
                                      &twin_out)
                      .ok());
    }
    std::string before;
    ASSERT_TRUE(live.engine->SaveCheckpoint(&before).ok());

    EXPECT_EQ(live.engine->RestoreFromCheckpoint(tampered).code(),
              StatusCode::kInvalidArgument);
    std::string after;
    ASSERT_TRUE(live.engine->SaveCheckpoint(&after).ok());
    EXPECT_TRUE(after == before) << "a rejected restore changed the state";

    for (int32_t t = 2; t < 5; ++t) {
      ASSERT_TRUE(DriveScriptedPeriod(*live.grid, live.engine.get(), t,
                                      &live_out)
                      .ok());
      ASSERT_TRUE(DriveScriptedPeriod(*twin.grid, twin.engine.get(), t,
                                      &twin_out)
                      .ok());
      ExpectSamePeriod(live_out, twin_out);
    }
  }
}

TEST(ShardedRecoveryTest, CorruptionIsRejectedWithoutTouchingRegions) {
  const EngineOptions options = TurnaroundOptions();
  Deployment original = MakeDeployment(4, 2, options);
  PeriodOutcome out;
  for (int32_t t = 0; t < 3; ++t) {
    ASSERT_TRUE(DriveScriptedPeriod(*original.grid, original.engine.get(), t,
                                    &out)
                    .ok());
  }
  std::string checkpoint;
  ASSERT_TRUE(original.engine->SaveCheckpoint(&checkpoint).ok());

  // Flip one byte deep inside the container (in the embedded region blobs'
  // territory) and at a few other offsets; every variant must be rejected
  // and must leave the engine fully usable.
  for (size_t offset :
       {checkpoint.size() / 2, checkpoint.size() - 9, size_t{20}}) {
    std::string corrupt = checkpoint;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x5a);
    Deployment target = MakeDeployment(4, 2, options);
    EXPECT_FALSE(target.engine->RestoreFromCheckpoint(corrupt).ok())
        << "offset " << offset;
    EXPECT_EQ(target.engine->current_period(), 0);
    // The rejected restore left a working engine behind.
    ASSERT_TRUE(
        DriveScriptedPeriod(*target.grid, target.engine.get(), 0, &out).ok());
  }

  // Truncations anywhere are rejected too.
  for (size_t len : {size_t{0}, size_t{4}, checkpoint.size() / 3,
                     checkpoint.size() - 1}) {
    Deployment target = MakeDeployment(4, 2, options);
    EXPECT_FALSE(
        target.engine->RestoreFromCheckpoint(checkpoint.substr(0, len)).ok())
        << "len " << len;
    EXPECT_EQ(target.engine->current_period(), 0);
  }
}

/// The seeded corruption fuzzer, extended to the MAPSSHRD container: every
/// truncation or bit flip must fail with a clean Status and leave the
/// target deployment bit-unchanged (its own checkpoint bytes are the
/// witness). The sharded container has more structure to damage than the
/// monolith's — the outer section table, the routing tables, the embedded
/// per-region MAPSCKPT blobs and their CRCs — and every layer must hold.
TEST(ShardedRecoveryTest, FuzzedCorruptionAlwaysFailsCleanly) {
  const EngineOptions options = TurnaroundOptions();
  Deployment original = MakeDeployment(4, 2, options);
  PeriodOutcome out;
  for (int32_t t = 0; t < 4; ++t) {
    ASSERT_TRUE(DriveScriptedPeriod(*original.grid, original.engine.get(), t,
                                    &out)
                    .ok());
  }
  std::string blob;
  ASSERT_TRUE(original.engine->SaveCheckpoint(&blob).ok());

  Deployment target = MakeDeployment(4, 2, options);
  for (int32_t t = 0; t < 2; ++t) {  // non-trivial state of its own
    ASSERT_TRUE(
        DriveScriptedPeriod(*target.grid, target.engine.get(), t, &out).ok());
  }
  std::string reference;
  ASSERT_TRUE(target.engine->SaveCheckpoint(&reference).ok());

  Rng rng(20260808);
  int failures = 0;
  for (int iter = 0; iter < 200; ++iter) {
    std::string mutated = blob;
    if (iter % 2 == 0) {
      mutated.resize(rng.NextBounded(blob.size()));  // strict truncation
    } else {
      const int flips = 1 + static_cast<int>(rng.NextBounded(4));
      for (int k = 0; k < flips; ++k) {
        const size_t pos = rng.NextBounded(mutated.size());
        mutated[pos] =
            static_cast<char>(mutated[pos] ^ (1u << rng.NextBounded(8)));
      }
    }
    if (mutated == blob) continue;  // the flips can cancel out
    const Status st = target.engine->RestoreFromCheckpoint(mutated);
    if (!st.ok()) {
      ++failures;
      EXPECT_FALSE(st.message().empty());
      // All-or-nothing: the failed restore left no partial mutation in any
      // region or in the routing layer.
      std::string after;
      ASSERT_TRUE(target.engine->SaveCheckpoint(&after).ok());
      ASSERT_EQ(after, reference) << "iteration " << iter;
    } else {
      // A mutation that still decodes must be a valid deployment state;
      // adopt it as the new reference.
      ASSERT_TRUE(target.engine->SaveCheckpoint(&reference).ok());
    }
  }
  // Single-bit damage and truncation virtually never decode cleanly.
  EXPECT_GT(failures, 180);
}

TEST(ShardedRecoveryTest, MigratedAndReturnedWorkerRoundTrips) {
  // A worker that migrates region 0 -> 1 and later back to 0 leaves an
  // extracted (tombstoned) record with ITS OWN id behind in each engine it
  // left, alongside the re-adopted live record. The v2 worker-record format
  // tags records as indexed/non-indexed, so the checkpoint still
  // round-trips.
  EngineOptions options;
  options.lifecycle.single_use = false;
  options.lifecycle.speed = 1000.0;  // one-period rides
  Deployment original = MakeDeployment(4, 2, options);
  ShardedMarketEngine& engine = *original.engine;
  const GridPartition& grid = *original.grid;

  // Home: region 0, on the boundary row just below the y = 50 seam.
  ASSERT_TRUE(engine.AddWorker(MakeWorker(grid, 7, {50, 45}, 20)).ok());

  auto stitch_ride = [&](TaskId id, Point origin, Point dest) {
    Task task;
    task.id = id;
    task.origin = origin;
    task.destination = dest;
    task.distance = 10.0;
    task.grid = grid.CellOf(origin);
    ASSERT_TRUE(engine.SubmitTask(task, 100.0).ok());
    PeriodOutcome out;
    ASSERT_TRUE(engine.ClosePeriod(&out).ok());
    ASSERT_EQ(out.matches.size(), 1u);
    ASSERT_EQ(out.matches[0].worker, 7);
  };

  // Ride A (t=0): task across the seam, ride ending just above it — the
  // worker migrates 0 -> 1 and parks on region 1's boundary row.
  stitch_ride(10, {50, 55}, {50, 55});
  EXPECT_EQ(engine.region_engine(1)->num_live_workers(), 1);
  EXPECT_EQ(engine.region_engine(0)->num_live_workers(), 0);

  // t=1: an idle tick so the worker is offerable to the next stitch.
  PeriodOutcome out;
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());

  // Ride B (t=2): stitched back across the seam, ride ending deep in
  // region 0 — the worker migrates home, and region 0 now holds both its
  // old tombstone and the re-adopted live record under the same id.
  stitch_ride(11, {50, 45}, {50, 20});
  EXPECT_EQ(engine.region_engine(0)->num_live_workers(), 1);
  EXPECT_EQ(engine.region_engine(1)->num_live_workers(), 0);

  std::string checkpoint;
  ASSERT_TRUE(engine.SaveCheckpoint(&checkpoint).ok());

  Deployment restored = MakeDeployment(4, 2, options);
  const Status restore = restored.engine->RestoreFromCheckpoint(checkpoint);
  ASSERT_TRUE(restore.ok()) << restore.ToString();
  EXPECT_EQ(restored.engine->num_live_workers(), 1);

  // Both twins keep serving identically after the round trip.
  PeriodOutcome expected, got;
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(grid, 12, {50, 20}, 2.0), 100.0).ok());
  ASSERT_TRUE(engine.ClosePeriod(&expected).ok());
  ASSERT_TRUE(restored.engine
                  ->SubmitTask(MakeTask(*restored.grid, 12, {50, 20}, 2.0),
                               100.0)
                  .ok());
  ASSERT_TRUE(restored.engine->ClosePeriod(&got).ok());
  ExpectSamePeriod(expected, got);
}

}  // namespace
}  // namespace maps
