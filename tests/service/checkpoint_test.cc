// Checkpoint format tests: serialization primitives, per-strategy learned
// state round trips, engine save/restore equivalence, rejection of corrupt
// input, file-level atomicity, and a seeded truncation/bit-flip fuzzer
// asserting that every damaged checkpoint fails cleanly (offset-bearing
// Status, engine bit-unchanged). The period-boundary resume matrix lives in
// recovery_harness_test.cc.

#include "service/checkpoint.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "util/fault_injector.h"
#include "pricing/base_pricing.h"
#include "pricing/maps.h"
#include "pricing/price_postprocess.h"
#include "rng/random.h"
#include "service/market_engine.h"
#include "sim/metrics.h"
#include "util/serial.h"

namespace maps {
namespace {

using testing_util::MakeTask;
using testing_util::MakeWorker;
using testing_util::RandomSnapshot;
using testing_util::TableOneOracle;

// ---------------------------------------------------------------------------
// Serialization primitives.
// ---------------------------------------------------------------------------

TEST(SerialTest, PrimitivesRoundTripBitExactly) {
  StateWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI32(-7);
  w.PutI64(-1234567890123456789LL);
  w.PutBool(true);
  w.PutBool(false);
  const double nan_payload = std::numeric_limits<double>::quiet_NaN();
  w.PutDouble(nan_payload);
  w.PutDouble(-0.0);
  w.PutString("checkpoint");
  w.PutString("");

  StateReader r(w.data());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  int64_t i64;
  bool b;
  double d;
  std::string s;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  EXPECT_EQ(u8, 0xAB);
  ASSERT_TRUE(r.GetU32(&u32).ok());
  EXPECT_EQ(u32, 0xDEADBEEFu);
  ASSERT_TRUE(r.GetU64(&u64).ok());
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  ASSERT_TRUE(r.GetI32(&i32).ok());
  EXPECT_EQ(i32, -7);
  ASSERT_TRUE(r.GetI64(&i64).ok());
  EXPECT_EQ(i64, -1234567890123456789LL);
  ASSERT_TRUE(r.GetBool(&b).ok());
  EXPECT_TRUE(b);
  ASSERT_TRUE(r.GetBool(&b).ok());
  EXPECT_FALSE(b);
  ASSERT_TRUE(r.GetDouble(&d).ok());
  EXPECT_TRUE(std::isnan(d));  // NaN survives by bit pattern
  ASSERT_TRUE(r.GetDouble(&d).ok());
  EXPECT_EQ(std::signbit(d), true);  // -0.0 keeps its sign
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(s, "checkpoint");
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(SerialTest, ReaderFailuresCarryOffsetsAndDoNotAdvance) {
  StateWriter w;
  w.PutU32(5);
  StateReader r(w.data());
  uint64_t u64;
  const Status truncated = r.GetU64(&u64, "field_x");
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.message().find("field_x"), std::string::npos);
  EXPECT_NE(truncated.message().find("offset 0"), std::string::npos);
  // The cursor did not move: the u32 is still readable.
  uint32_t u32;
  ASSERT_TRUE(r.GetU32(&u32).ok());
  EXPECT_EQ(u32, 5u);

  // A bool byte other than 0/1 is invalid, and the cursor stays put.
  StateWriter wb;
  wb.PutU8(2);
  StateReader rb(wb.data());
  bool b;
  EXPECT_FALSE(rb.GetBool(&b).ok());
  EXPECT_EQ(rb.offset(), 0u);

  // A string whose claimed length exceeds the payload is rejected.
  StateWriter ws;
  ws.PutU64(1000);
  ws.PutBytes("abc", 3);
  StateReader rs(ws.data());
  std::string s;
  EXPECT_FALSE(rs.GetString(&s).ok());

  // Trailing bytes are an error, and impossible element counts are caught
  // before any allocation.
  StateWriter wt;
  wt.PutU32(1);
  StateReader rt(wt.data());
  EXPECT_FALSE(rt.ExpectEnd("section").ok());
  EXPECT_FALSE(CheckDecodedCount(rt, 1u << 30, 8, "records").ok());
  EXPECT_TRUE(CheckDecodedCount(rt, 0, 8, "records").ok());
}

TEST(SerialTest, Crc32MatchesKnownVector) {
  // IEEE CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

// ---------------------------------------------------------------------------
// Strategy learned-state round trips.
// ---------------------------------------------------------------------------

/// Drives `s` for `rounds` priced rounds over deterministic snapshots and
/// feedback, returning every price vector produced.
std::vector<std::vector<double>> Drive(PricingStrategy* s,
                                       const GridPartition& grid, int rounds,
                                       uint64_t seed) {
  std::vector<std::vector<double>> out;
  Rng rng(seed);
  for (int t = 0; t < rounds; ++t) {
    MarketSnapshot snap = RandomSnapshot(grid, rng, 12, 8, 2.0, 6.0);
    std::vector<double> prices;
    EXPECT_TRUE(s->PriceRound(snap, &prices).ok());
    out.push_back(prices);
    std::vector<bool> accepted(snap.tasks().size());
    for (size_t i = 0; i < accepted.size(); ++i) {
      // Deterministic accept rule so learned state evolves.
      accepted[i] = prices[static_cast<size_t>(snap.tasks()[i].grid)] <= 2.5;
    }
    s->ObserveFeedback(snap, prices, accepted);
  }
  return out;
}

/// The learned-state contract: drive A, save; load into a fresh B of the
/// same config (no Warmup); afterwards A and B price identically.
TEST(StrategyStateTest, EveryStrategyRoundTripsLearnedState) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 10, 10}, 2, 2).ValueOrDie();
  DemandOracle oracle = TableOneOracle(grid.num_cells());
  const PricingConfig config;

  for (const StrategyFactory& factory : DefaultStrategies(config)) {
    SCOPED_TRACE(factory.name);
    std::unique_ptr<PricingStrategy> a = factory.make();
    ASSERT_TRUE(a->Warmup(grid, &oracle).ok());
    Drive(a.get(), grid, 5, 91);

    StateWriter w;
    ASSERT_TRUE(a->SaveState(&w).ok());
    std::unique_ptr<PricingStrategy> b = factory.make();
    StateReader r(w.data());
    ASSERT_TRUE(b->LoadState(&r).ok());
    EXPECT_TRUE(r.ExpectEnd().ok());

    EXPECT_EQ(Drive(a.get(), grid, 5, 17), Drive(b.get(), grid, 5, 17));
  }

  // The postprocess decorator forwards state to its inner strategy.
  PostprocessOptions post;
  post.price_cap = 2.9;
  post.smoothing_lambda = 0.5;
  const auto make_wrapped = [&] {
    auto inner = DefaultStrategies(config).back().make();
    return std::make_unique<PostprocessedStrategy>(std::move(inner), post);
  };
  auto a = make_wrapped();
  ASSERT_TRUE(a->Warmup(grid, &oracle).ok());
  Drive(a.get(), grid, 5, 91);
  StateWriter w;
  ASSERT_TRUE(a->SaveState(&w).ok());
  auto b = make_wrapped();
  StateReader r(w.data());
  ASSERT_TRUE(b->LoadState(&r).ok());
  EXPECT_EQ(Drive(a.get(), grid, 5, 17), Drive(b.get(), grid, 5, 17));
}

TEST(StrategyStateTest, LoadRejectsMismatchedConfig) {
  const GridPartition grid =
      GridPartition::Make(Rect{0, 0, 10, 10}, 2, 2).ValueOrDie();
  DemandOracle oracle = TableOneOracle(grid.num_cells());
  PricingConfig config;
  // BasePricing fingerprints every ladder price bitwise, so even a
  // same-size ladder from a different alpha is refused.
  BasePricing a(config);
  ASSERT_TRUE(a.Warmup(grid, &oracle).ok());
  StateWriter w;
  ASSERT_TRUE(a.SaveState(&w).ok());

  PricingConfig other = config;
  other.alpha = 1.0;
  BasePricing b(other);
  StateReader r(w.data());
  EXPECT_FALSE(b.LoadState(&r).ok());
}

// ---------------------------------------------------------------------------
// Engine checkpoint round trip and rejection of damaged input.
// ---------------------------------------------------------------------------

GridPartition TestGrid() {
  return GridPartition::Make(Rect{0, 0, 30, 30}, 3, 3).ValueOrDie();
}

/// Builds an engine with a warmed MAPS strategy and runs a few eventful
/// periods (idle + busy workers, staged tasks, pending acceptance bits,
/// rejections) so the checkpoint covers non-trivial state.
struct EngineFixture {
  GridPartition grid = TestGrid();
  DemandOracle oracle = TableOneOracle(grid.num_cells(), 5);
  std::unique_ptr<Maps> strategy;
  std::unique_ptr<MarketEngine> engine;

  explicit EngineFixture(bool advance = true) {
    strategy = std::make_unique<Maps>(MapsOptions{});
    EngineOptions options;
    options.lifecycle.single_use = false;
    options.lifecycle.speed = 4.0;
    options.lifecycle.reposition_prob = 0.4;
    engine = std::make_unique<MarketEngine>(&grid, strategy.get(), options);
    if (!advance) return;
    EXPECT_TRUE(strategy->Warmup(grid, &oracle).ok());
    PeriodOutcome outcome;
    for (int t = 0; t < 4; ++t) {
      for (int i = 0; i < 3; ++i) {
        const WorkerId id = t * 3 + i;
        Worker w = MakeWorker(grid, id, {5.0 + 7 * i, 5.0 + 3 * t}, 20.0);
        w.duration = 6;
        EXPECT_TRUE(engine->AddWorker(w).ok());
      }
      for (int i = 0; i < 4; ++i) {
        const TaskId id = t * 4 + i;
        EXPECT_TRUE(
            engine
                ->SubmitTask(MakeTask(grid, id, {4.0 + 6 * i, 20.0}, 9.0), 3.0)
                .ok());
      }
      EXPECT_TRUE(engine->ObserveAcceptance(t * 4, true).ok());
      EXPECT_TRUE(engine->ObserveAcceptance(9999 + t, false).ok());  // orphan
      EXPECT_TRUE(engine->ClosePeriod(&outcome).ok());
    }
    // Leave some open-period state in flight: a pending bit and a removal.
    EXPECT_TRUE(engine->SubmitTask(MakeTask(grid, 100, {15, 15}, 5.0)).ok());
    EXPECT_TRUE(engine->ObserveAcceptance(100, true).ok());
    EXPECT_TRUE(engine->RemoveWorker(1).ok());
    EXPECT_TRUE(engine->RemoveWorker(424242).IsNotFound());
  }
};

/// Closes out a few more identical periods on both engines and compares
/// every outcome field — the behavioral definition of "same state".
void ExpectSameFuture(MarketEngine* a, MarketEngine* b,
                      const GridPartition& grid) {
  PeriodOutcome oa, ob;
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < 2; ++i) {
      const TaskId id = 500 + t * 2 + i;
      const Task task = MakeTask(grid, id, {3.0 + 9 * i, 12.0}, 7.0);
      EXPECT_TRUE(a->SubmitTask(task, 2.4).ok());
      EXPECT_TRUE(b->SubmitTask(task, 2.4).ok());
    }
    ASSERT_TRUE(a->ClosePeriod(&oa).ok());
    ASSERT_TRUE(b->ClosePeriod(&ob).ok());
    EXPECT_EQ(oa.period, ob.period);
    EXPECT_EQ(oa.skipped, ob.skipped);
    EXPECT_EQ(oa.prices, ob.prices);
    EXPECT_EQ(oa.accepted, ob.accepted);
    ASSERT_EQ(oa.matches.size(), ob.matches.size());
    for (size_t i = 0; i < oa.matches.size(); ++i) {
      EXPECT_EQ(oa.matches[i].task, ob.matches[i].task);
      EXPECT_EQ(oa.matches[i].worker, ob.matches[i].worker);
      EXPECT_EQ(oa.matches[i].revenue, ob.matches[i].revenue);
    }
    EXPECT_EQ(oa.revenue, ob.revenue);
    EXPECT_TRUE(oa.rejections == ob.rejections);
    EXPECT_EQ(oa.num_available_workers, ob.num_available_workers);
  }
}

TEST(EngineCheckpointTest, SaveRestoreIntoFreshEngineIsBehaviorPreserving) {
  EngineFixture saved;
  std::string blob;
  ASSERT_TRUE(saved.engine->SaveCheckpoint(&blob).ok());
  ASSERT_GT(blob.size(), 16u);
  EXPECT_EQ(blob.compare(0, 8, "MAPSCKPT"), 0);

  // Fresh strategy (never warmed) + fresh engine, same configuration.
  EngineFixture fresh(/*advance=*/false);
  ASSERT_TRUE(fresh.engine->RestoreFromCheckpoint(blob).ok());
  EXPECT_EQ(fresh.engine->current_period(), saved.engine->current_period());
  EXPECT_EQ(fresh.engine->num_live_workers(),
            saved.engine->num_live_workers());
  EXPECT_TRUE(fresh.engine->rejections() == saved.engine->rejections());
  EXPECT_GT(fresh.engine->rejections().orphan_acceptances, 0);
  EXPECT_GT(fresh.engine->rejections().unknown_worker_removals, 0);

  ExpectSameFuture(saved.engine.get(), fresh.engine.get(), saved.grid);
}

TEST(EngineCheckpointTest, SaveIsDeterministic) {
  EngineFixture fixture;
  std::string a, b;
  ASSERT_TRUE(fixture.engine->SaveCheckpoint(&a).ok());
  ASSERT_TRUE(fixture.engine->SaveCheckpoint(&b).ok());
  EXPECT_EQ(a, b);
}

TEST(EngineCheckpointTest, RejectsStructuralDamageWithOffsets) {
  EngineFixture fixture;
  std::string blob;
  ASSERT_TRUE(fixture.engine->SaveCheckpoint(&blob).ok());
  EngineFixture target(/*advance=*/false);

  // Wrong magic.
  std::string bad = blob;
  bad[0] = 'X';
  EXPECT_FALSE(target.engine->RestoreFromCheckpoint(bad).ok());

  // Unsupported format version.
  bad = blob;
  bad[8] = 99;
  Status st = target.engine->RestoreFromCheckpoint(bad);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("version"), std::string::npos);

  // Truncations at the header, mid-section-table, and mid-payload.
  for (const size_t keep : {size_t{0}, size_t{7}, size_t{15}, size_t{40},
                            blob.size() / 2, blob.size() - 1}) {
    st = target.engine->RestoreFromCheckpoint(blob.substr(0, keep));
    EXPECT_FALSE(st.ok()) << "kept " << keep << " bytes";
  }

  // Payload corruption is caught by the section CRC before any decode.
  bad = blob;
  bad[blob.size() - 3] = static_cast<char>(bad[blob.size() - 3] ^ 0x10);
  EXPECT_FALSE(target.engine->RestoreFromCheckpoint(bad).ok());

  // Appended trailing garbage is rejected.
  EXPECT_FALSE(target.engine->RestoreFromCheckpoint(blob + "zz").ok());

  // And the target is still pristine: it accepts the intact blob.
  EXPECT_TRUE(target.engine->RestoreFromCheckpoint(blob).ok());
}

TEST(EngineCheckpointTest, RejectsConfigurationMismatch) {
  EngineFixture fixture;
  std::string blob;
  ASSERT_TRUE(fixture.engine->SaveCheckpoint(&blob).ok());

  // Different grid geometry.
  GridPartition grid2 =
      GridPartition::Make(Rect{0, 0, 30, 30}, 2, 2).ValueOrDie();
  Maps maps2{MapsOptions{}};
  MarketEngine wrong_grid(&grid2, &maps2, EngineOptions{});
  Status st = wrong_grid.RestoreFromCheckpoint(blob);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsFailedPrecondition());

  // Different strategy under the same grid (the fixture saves "MAPS").
  GridPartition grid = TestGrid();
  std::unique_ptr<PricingStrategy> sdr;
  for (const StrategyFactory& f : DefaultStrategies(PricingConfig{})) {
    if (f.name == "SDR") sdr = f.make();
  }
  ASSERT_NE(sdr, nullptr);
  EngineOptions options;
  options.lifecycle.single_use = false;
  options.lifecycle.speed = 4.0;
  options.lifecycle.reposition_prob = 0.4;
  MarketEngine wrong_strategy(&grid, sdr.get(), options);
  st = wrong_strategy.RestoreFromCheckpoint(blob);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsFailedPrecondition());

  // Different lifecycle configuration.
  Maps maps3{MapsOptions{}};
  EngineOptions other = options;
  other.lifecycle.speed = 9.0;
  MarketEngine wrong_lifecycle(&grid, &maps3, other);
  st = wrong_lifecycle.RestoreFromCheckpoint(blob);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsFailedPrecondition());
}

/// A monolith blob built from `sections` with every section CRC resealed,
/// so only the payload decoders can catch an edit.
std::string Reseal(const std::vector<std::string>& sections) {
  StateWriter resealed;
  resealed.PutBytes(kCheckpointMagic, sizeof(kCheckpointMagic));
  resealed.PutU32(kCheckpointFormatVersion);
  resealed.PutU32(kCheckpointNumSections);
  for (size_t i = 0; i < sections.size(); ++i) {
    const size_t header_at = internal::BeginCheckpointSection(
        static_cast<uint32_t>(i + 1), &resealed);
    resealed.PutBytes(sections[i].data(), sections[i].size());
    internal::EndCheckpointSection(header_at, &resealed);
  }
  return resealed.data();
}

/// The strategy section is decoded last, and its trailing-bytes check runs
/// after LoadState has replaced the strategy's state. A payload with one
/// extra byte (CRC resealed, so only that check can catch it) must leave
/// the whole engine — its strategy included — exactly as it was.
TEST(EngineCheckpointTest, StrategySectionTrailingByteLeavesEngineUnchanged) {
  EngineFixture fixture(/*advance=*/false);
  ASSERT_TRUE(fixture.strategy->Warmup(fixture.grid, &fixture.oracle).ok());
  MarketEngine& engine = *fixture.engine;
  PeriodOutcome outcome;
  const auto drive_to = [&](int32_t end) {
    for (int32_t t = engine.current_period(); t < end; ++t) {
      for (int i = 0; i < 3; ++i) {
        Worker w = MakeWorker(fixture.grid, t * 3 + i,
                              {5.0 + 7 * i, 5.0 + 2 * t}, 20.0);
        w.duration = 6;
        ASSERT_TRUE(engine.AddWorker(w).ok());
      }
      for (int i = 0; i < 4; ++i) {
        const Task task =
            MakeTask(fixture.grid, t * 4 + i, {4.0 + 6 * i, 20.0}, 9.0);
        ASSERT_TRUE(engine.SubmitTask(task, 3.0).ok());
      }
      ASSERT_TRUE(engine.ClosePeriod(&outcome).ok());
    }
  };
  drive_to(3);
  std::string blob;
  ASSERT_TRUE(engine.SaveCheckpoint(&blob).ok());
  drive_to(10);
  std::string before;
  ASSERT_TRUE(engine.SaveCheckpoint(&before).ok());

  std::vector<std::string> sections;
  ASSERT_TRUE(internal::ParseCheckpointContainer(
                  blob, kCheckpointMagic, kCheckpointFormatVersion,
                  kCheckpointNumSections, "MAPS checkpoint", &sections)
                  .ok());
  sections.back().push_back('\0');  // the strategy section

  const Status st = engine.RestoreFromCheckpoint(Reseal(sections));
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("trailing"), std::string::npos)
      << st.ToString();
  std::string after;
  ASSERT_TRUE(engine.SaveCheckpoint(&after).ok());
  EXPECT_TRUE(after == before) << "a rejected restore changed the state";
}

/// The Stages section keeps one slot per period parity, only the open
/// period's slot holds tasks, and no slot is ever sealed. A blob breaking
/// either rule (CRCs resealed) is rejected and leaves the engine unchanged.
TEST(EngineCheckpointTest, StageOutsideTheOpenSlotIsRejected) {
  EngineFixture fixture;  // period 4 open, holding one submitted task
  MarketEngine& engine = *fixture.engine;
  ASSERT_EQ(engine.current_period() & 1, 0);
  std::string blob;
  ASSERT_TRUE(engine.SaveCheckpoint(&blob).ok());
  std::vector<std::string> sections;
  ASSERT_TRUE(internal::ParseCheckpointContainer(
                  blob, kCheckpointMagic, kCheckpointFormatVersion,
                  kCheckpointNumSections, "MAPS checkpoint", &sections)
                  .ok());
  const std::string stages = sections[3];
  // Slot 0 holds the open period's task; slot 1 is a false flag byte and a
  // zero u64 count.
  constexpr size_t kEmptySlot = 1 + 8;
  ASSERT_GT(stages.size(), 2 * kEmptySlot);
  ASSERT_EQ(stages.substr(stages.size() - kEmptySlot),
            std::string(kEmptySlot, '\0'));

  PeriodOutcome outcome;
  ASSERT_TRUE(engine.ClosePeriod(&outcome).ok());
  std::string before;
  ASSERT_TRUE(engine.SaveCheckpoint(&before).ok());

  StateWriter other_slot;
  other_slot.PutBytes(stages.data(), stages.size() - kEmptySlot);
  other_slot.PutBool(false);
  other_slot.PutU64(1);
  internal::PutTask(MakeTask(fixture.grid, 200, {15, 15}, 5.0, 5),
                    &other_slot);
  other_slot.PutDouble(3.0);
  std::string sealed = stages;
  sealed[0] = 1;

  for (const std::string& tampered : {other_slot.data(), sealed}) {
    sections[3] = tampered;
    const Status st = engine.RestoreFromCheckpoint(Reseal(sections));
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    std::string after;
    ASSERT_TRUE(engine.SaveCheckpoint(&after).ok());
    EXPECT_TRUE(after == before) << "a rejected restore changed the state";
  }

  // The untouched section, resealed the same way, restores to the blob.
  sections[3] = stages;
  ASSERT_TRUE(engine.RestoreFromCheckpoint(Reseal(sections)).ok());
  std::string restored;
  ASSERT_TRUE(engine.SaveCheckpoint(&restored).ok());
  EXPECT_TRUE(restored == blob);
}

/// Satellite 3: the seeded corruption fuzzer. Every truncation or bit flip
/// must fail with a clean Status and leave the target engine bit-unchanged,
/// verified by comparing its own checkpoint bytes before and after.
TEST(EngineCheckpointTest, FuzzedCorruptionAlwaysFailsCleanly) {
  EngineFixture fixture;
  std::string blob;
  ASSERT_TRUE(fixture.engine->SaveCheckpoint(&blob).ok());

  EngineFixture target;  // non-trivial state of its own
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
    if (mutated == blob) continue;  // the flip can cancel itself out
    const Status st = target.engine->RestoreFromCheckpoint(mutated);
    if (!st.ok()) {
      ++failures;
      EXPECT_FALSE(st.message().empty());
      // All-or-nothing: the failed restore left no partial mutation.
      std::string after;
      ASSERT_TRUE(target.engine->SaveCheckpoint(&after).ok());
      ASSERT_EQ(after, reference) << "iteration " << iter;
    } else {
      // A mutation that still decodes cleanly must have produced a valid
      // state; adopt it as the new reference.
      ASSERT_TRUE(target.engine->SaveCheckpoint(&reference).ok());
    }
  }
  // Single-bit damage and truncation virtually never decode: expect the
  // overwhelming majority of iterations to be rejected.
  EXPECT_GT(failures, 180);
}

// ---------------------------------------------------------------------------
// File-level helpers.
// ---------------------------------------------------------------------------

TEST(CheckpointFileTest, WriteThenReadRoundTripsAndLeavesNoTemp) {
  EngineFixture fixture;
  std::string blob;
  ASSERT_TRUE(fixture.engine->SaveCheckpoint(&blob).ok());

  const std::string path = ::testing::TempDir() + "/ckpt_roundtrip.ckpt";
  ASSERT_TRUE(WriteCheckpointFile(path, blob).ok());
  std::string back;
  ASSERT_TRUE(ReadCheckpointFile(path, &back).ok());
  EXPECT_EQ(back, blob);
  // The temp staging file was renamed away.
  std::string tmp;
  EXPECT_FALSE(ReadCheckpointFile(path + ".tmp", &tmp).ok());

  // Overwrite replaces the previous contents whole.
  ASSERT_TRUE(WriteCheckpointFile(path, "short").ok());
  ASSERT_TRUE(ReadCheckpointFile(path, &back).ok());
  EXPECT_EQ(back, "short");
  std::remove(path.c_str());

  EXPECT_FALSE(ReadCheckpointFile("/nonexistent/dir/x.ckpt", &back).ok());
  EXPECT_FALSE(WriteCheckpointFile("/nonexistent/dir/x.ckpt", blob).ok());
}

TEST(CheckpointFileTest, InjectedWriteErrorIsRetriedAndSucceeds) {
  const std::string path = ::testing::TempDir() + "/ckpt_retry.ckpt";
  std::remove(path.c_str());
  // Attempt 0 of every write call errors; the retry (attempt 1) goes
  // through.
  ScopedFaultPlan scope("ckpt_io@r0");
  ASSERT_TRUE(WriteCheckpointFile(path, "payload").ok());
  EXPECT_EQ(FaultInjector::Global().fires(
                FaultRule::Kind::kCheckpointWriteError),
            1);
  std::string back;
  ASSERT_TRUE(ReadCheckpointFile(path, &back).ok());
  EXPECT_EQ(back, "payload");
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, PersistentWriteErrorFailsAndKeepsTheOldFile) {
  const std::string path = ::testing::TempDir() + "/ckpt_priorfile.ckpt";
  ASSERT_TRUE(WriteCheckpointFile(path, "previous").ok());
  {
    // Every attempt of every write call errors: the write fails after
    // kCheckpointWriteAttempts tries and the previous file is untouched.
    ScopedFaultPlan scope("ckpt_io");
    const Status s = WriteCheckpointFile(path, "next");
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("attempts"), std::string::npos);
    EXPECT_EQ(
        FaultInjector::Global().fires(FaultRule::Kind::kCheckpointWriteError),
        kCheckpointWriteAttempts);
  }
  std::string back;
  ASSERT_TRUE(ReadCheckpointFile(path, &back).ok());
  EXPECT_EQ(back, "previous");
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, TornWriteIsRejectedByTheRestore) {
  EngineFixture fixture;
  std::string blob;
  ASSERT_TRUE(fixture.engine->SaveCheckpoint(&blob).ok());

  const std::string path = ::testing::TempDir() + "/ckpt_torn.ckpt";
  {
    // The torn write "succeeds" — a lying disk — leaving half the payload
    // under the final name.
    ScopedFaultPlan scope("ckpt_torn@r0");
    ASSERT_TRUE(WriteCheckpointFile(path, blob).ok());
  }
  std::string back;
  ASSERT_TRUE(ReadCheckpointFile(path, &back).ok());
  ASSERT_EQ(back.size(), blob.size() / 2);
  // The reader catches the tear through the container structure/CRCs and
  // the engine is left bit-unchanged.
  const Status s = fixture.engine->RestoreFromCheckpoint(back);
  EXPECT_FALSE(s.ok());
  std::string after;
  ASSERT_TRUE(fixture.engine->SaveCheckpoint(&after).ok());
  EXPECT_EQ(after, blob);
  std::remove(path.c_str());
}

TEST(CheckpointRotationTest, KeepsTheNewestNByNumber) {
  const std::string dir = ::testing::TempDir() + "/ckpt_rotation";
  mkdir(dir.c_str(), 0755);
  // Periods out of lexicographic order on purpose: 9 < 10 numerically.
  for (const int period : {2, 9, 10, 11, 3}) {
    ASSERT_TRUE(WriteCheckpointFile(
                    dir + "/checkpoint_" + std::to_string(period) + ".ckpt",
                    std::string("p") + std::to_string(period))
                    .ok());
  }
  // A non-matching bystander survives any pruning.
  ASSERT_TRUE(WriteCheckpointFile(dir + "/notes.ckpt", "keep me").ok());

  std::vector<std::string> removed;
  ASSERT_TRUE(PruneCheckpointFiles(dir, "checkpoint_", 2, &removed).ok());
  ASSERT_EQ(removed.size(), 3u);
  // Pruned oldest first by sequence number.
  EXPECT_NE(removed[0].find("checkpoint_2.ckpt"), std::string::npos);
  EXPECT_NE(removed[1].find("checkpoint_3.ckpt"), std::string::npos);
  EXPECT_NE(removed[2].find("checkpoint_9.ckpt"), std::string::npos);

  std::string back;
  EXPECT_TRUE(ReadCheckpointFile(dir + "/checkpoint_10.ckpt", &back).ok());
  EXPECT_TRUE(ReadCheckpointFile(dir + "/checkpoint_11.ckpt", &back).ok());
  EXPECT_FALSE(ReadCheckpointFile(dir + "/checkpoint_2.ckpt", &back).ok());
  EXPECT_TRUE(ReadCheckpointFile(dir + "/notes.ckpt", &back).ok());

  // Already within budget: a second prune removes nothing.
  ASSERT_TRUE(PruneCheckpointFiles(dir, "checkpoint_", 2, &removed).ok());
  EXPECT_TRUE(removed.empty());

  EXPECT_FALSE(PruneCheckpointFiles(dir, "checkpoint_", 0, nullptr).ok());
  EXPECT_FALSE(
      PruneCheckpointFiles("/nonexistent/dir", "checkpoint_", 2, nullptr)
          .ok());

  for (const char* name : {"checkpoint_10.ckpt", "checkpoint_11.ckpt",
                           "notes.ckpt"}) {
    std::remove((dir + "/" + name).c_str());
  }
  rmdir(dir.c_str());
}

}  // namespace
}  // namespace maps
