// Golden checkpoint fixtures: one MAPSCKPT v2 blob (MarketEngine) and one
// MAPSSHRD v2 blob (ShardedMarketEngine, K=2), each saved mid-period from a
// small CellLocalStrategy deployment on a 4x4 grid and checked in below as
// hex. Every other checkpoint test round-trips within one build, so an
// on-disk format drift would pass them; these blobs pin the bytes across
// builds. Each test restores its blob into a fresh engine, requires the
// re-save to be byte-identical, and requires the next close to match a
// pinned outcome digest.
//
// A deliberate format change must regenerate the fixtures (and bump the
// format version, docs/checkpoint_format.md): with the environment variable
// MAPS_DUMP_GOLDEN_CHECKPOINTS set, `maps_tests
// --gtest_filter='CheckpointGoldenTest.*'` prints the hex of each fixture
// scenario as the current build saves it.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "geo/region_partition.h"
#include "rng/random.h"
#include "service/checkpoint.h"
#include "service/market_engine.h"
#include "service/sharded_engine.h"
#include "sharded_test_util.h"
#include "util/fault_injector.h"
#include "util/serial.h"

namespace maps {
namespace {

using testing_util::CellLocalStrategy;
using testing_util::MakeTask;
using testing_util::MakeWorker;
using testing_util::OutcomeDigest;

// MarketEngine scenario below, saved after 3 closes with period 3 open.
constexpr char kMonolithHex[] =
    "4d415053434b50540200000007000000010000005600000000000000a9675fc8"
    "0400000004000000000000000000000000000000000000000000000000005940"
    "000000000000594000000000000000444000000000000000004d000000000000"
    "000d0000000000000043656c6c4c6f63616c5465737402000000240000000000"
    "00002bc9560e0300000000000000000000000000000000000000000000000000"
    "00000000000000000000030000008001000000000000dc4b7db9060000000000"
    "0000010000000000000000000000c0eb99a54e434340021300c43d4655405202"
    "de1ecbcd4140ffffff7f0d00000003000000ffffff7f00010200000000000000"
    "0000000096ce9e408b2c32401f5910d8b91e1740fbac8522d80b3f40ffffff7f"
    "0000000002000000ffffff7f000103000000000000000000000091f9989959c6"
    "2d40bbed4d90cfe958402330ca80e7ad3940ffffff7f0c00000003000000ffff"
    "ff7f00011500000000000000000000006df928d8dff251400048e8300c60b93f"
    "8b1467bb54654040ffffff7f0200000003000000ffffff7f0001160000000000"
    "000000000000c3c1ca2ccd3a5440c0a17e4094fe4b40afd33b43ce7e3740ffff"
    "ff7f0b00000002000000ffffff7f0001170000000000000000000000698ba786"
    "34364f408e65f782c7301b40b1333bdc9f7d3e40ffffff7f0200000002000000"
    "ffffff7f00010300000000000000040000000500000001000000030000000000"
    "0000030000000000000003000000020000000300000003000000040000001201"
    "000000000000f0f487290000000000000000000004000000000000002c010000"
    "00000000030000003ec16b6dd0ee504019a14015f3b7424094fea7c648a54540"
    "e1c6cea615665440040f345b60350740060000002d0100000000000003000000"
    "f87880c7ce7229408ded0905a5a14040d3d579a7b2cc584077b35d2fd2af5740"
    "7bc58ac7f9a00e40040000002e0100000000000003000000a624696039c15640"
    "30219522b5dbc53fe2f22ea1fc1a3a40e454848cadb05140e60944c0c0380f40"
    "030000002f0100000000000003000000a07103202a853f405c252e46dcae3840"
    "344a19682bee3d40621293b1c3de3a40bdd5c662ccc7f33f0100000092ef51c9"
    "ff531340e4eda4e02ec802405d5ad86385c8164079a69461f191124005000000"
    "1100000000000000945f5df101000000000000002d0100000000000000060000"
    "002000000000000000f0abf1f281f01f7ce0cb5862549e963a88a4547eec4675"
    "2820b64a8cbb69026917b06b32070000008c00000000000000e21c5d77010000"
    "0010000000000000000000000000000000010000000000000000000000000000"
    "0000000000000000000200000000000000010000000000000000000000000000"
    "0000000000000000000000000000000000010000000000000001000000000000"
    "0000000000000000000000000000000000020000000000000000000000000000"
    "000100000000000000";

// ShardedMarketEngine (K=2) scenario below, saved the same way.
constexpr char kShardedHex[] =
    "4d415053534852440200000003000000010000004d00000000000000832cbbc9"
    "0400000004000000000000000000000000000000000000000000000000005940"
    "0000000000005940020000000000000002000000000000000000004440000000"
    "00000000004d0000000000000002000000dd0200000000000097c69542030000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000001000000000000000060000000000000001000000000000"
    "0001000000020000000000000000000000030000000000000000000000150000"
    "0000000000000000001600000000000000010000001700000000000000000000"
    "0004000000000000000c00000000000000000000002c01000000000000030000"
    "003ec16b6dd0ee504019a14015f3b7424094fea7c648a54540e1c6cea6156654"
    "40040f345b603507400600000092ef51c9ff5313400d00000000000000000000"
    "002d0100000000000003000000f87880c7ce7229408ded0905a5a14040d3d579"
    "a7b2cc584077b35d2fd2af57407bc58ac7f9a00e4004000000e4eda4e02ec802"
    "400e00000000000000000000002e0100000000000003000000a624696039c156"
    "4030219522b5dbc53fe2f22ea1fc1a3a40e454848cadb05140e60944c0c0380f"
    "40030000005d5ad86385c816400f00000000000000000000002f010000000000"
    "0003000000a07103202a853f405c252e46dcae3840344a19682bee3d40621293"
    "b1c3de3a40bdd5c662ccc7f33f0100000079a69461f191124001000000000000"
    "002d010000000000000010000000000000000000000000000040cdcccccccccc"
    "004000000000000000400000000000000040cdcccccccccc0040000000000000"
    "0040000000000000004000000000000000400000000000000040000000000000"
    "0040000000000000004000000000000000400000000000000040000000000000"
    "0040000000000000004000000000000000401000000000000000000000000000"
    "0040000000000000004000000000000000400000000000000040000000000000"
    "0040000000000000004000000000000000400000000000000040000000000000"
    "0040cdcccccccccc0040cdcccccccccc00400000000000000040000000000000"
    "0040cdcccccccccc00400000000000000040cdcccccccccc0040030000009406"
    "000000000000bf13845f02000000fe030000000000004d415053434b50540200"
    "000007000000010000005600000000000000a9675fc804000000040000000000"
    "0000000000000000000000000000000000000000594000000000000059400000"
    "0000000000444000000000000000004d000000000000000d0000000000000043"
    "656c6c4c6f63616c546573740200000024000000000000002bc9560e03000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "030000003e01000000000000b79e03a305000000000000000100000000000000"
    "000000000d3094dbd0223b400e9343a69b7950405202de1ecbcd4140ffffff7f"
    "0900000002000000ffffff7f010002000000000000000000000096ce9e408b2c"
    "32401f5910d8b91e1740fbac8522d80b3f40ffffff7f0000000002000000ffff"
    "ff7f000103000000000000000000000091f9989959c62d40bbed4d90cfe95840"
    "2330ca80e7ad3940ffffff7f0c00000003000000ffffff7f0001150000000000"
    "0000000000006df928d8dff251400048e8300c60b93f8b1467bb54654040ffff"
    "ff7f0200000003000000ffffff7f0001170000000000000000000000698ba786"
    "34364f408e65f782c7301b40b1333bdc9f7d3e40ffffff7f0200000002000000"
    "ffffff7f00010200000000000000040000000100000002000000000000000300"
    "0000020000000300000003000000040000001201000000000000f0f487290000"
    "000000000000000004000000000000002c01000000000000030000003ec16b6d"
    "d0ee504019a14015f3b7424094fea7c648a54540e1c6cea615665440040f345b"
    "60350740060000002d0100000000000003000000f87880c7ce7229408ded0905"
    "a5a14040d3d579a7b2cc584077b35d2fd2af57407bc58ac7f9a00e4004000000"
    "2e0100000000000003000000a624696039c1564030219522b5dbc53fe2f22ea1"
    "fc1a3a40e454848cadb05140e60944c0c0380f40030000002f01000000000000"
    "03000000a07103202a853f405c252e46dcae3840344a19682bee3d40621293b1"
    "c3de3a40bdd5c662ccc7f33f0100000092ef51c9ff531340e4eda4e02ec80240"
    "5d5ad86385c8164079a69461f191124005000000080000000000000069df2265"
    "0000000000000000060000002000000000000000f0abf1f281f01f7ce0cb5862"
    "549e963a88a4547eec46752820b64a8cbb69026917b06b32070000008c000000"
    "00000000782fe842010000001000000000000000000000000000000001000000"
    "0000000000000000000000000000000000000000020000000000000001000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000082020000000000004d415053"
    "434b505402000000070000000100000056000000000000003ff5cb8004000000"
    "0400000000000000000000000000000000000000000000000000594000000000"
    "000059400000000000000044400000000000000000587c4a7fb979379e0d0000"
    "000000000043656c6c4c6f63616c546573740200000024000000000000002bc9"
    "560e030000000000000000000000000000000000000000000000000000000000"
    "00000000000003000000c2000000000000006644419c03000000000000000300"
    "000000000000000000004eb0028e3cef2f403c27bf7c117b48402330ca80e7ad"
    "3940ffffff7f0400000001000000ffffff7f0100160000000000000000000000"
    "c3c1ca2ccd3a5440c0a17e4094fe4b40afd33b43ce7e3740ffffff7f0b000000"
    "02000000ffffff7f00010100000000000000000000000d3094dbd0223b400e93"
    "43a69b7950405202de1ecbcd4140ffffff7f0900000002000000ffffff7f0001"
    "0200000000000000010000000200000000000000000000000400000012000000"
    "000000004dcf1b67000000000000000000000000000000000000050000000800"
    "00000000000069df226500000000000000000600000020000000000000006233"
    "4b6b118f8334ba0fd3c49f1b28741e13e0c1c402dde08a9362c0a49067e975a7"
    "f02a070000008c00000000000000ffa7ead40100000010000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000100000000000000010000000000000000000000000000000000"
    "000000000000020000000000000000000000000000000100000000000000";

// OutcomeDigest of the close that follows either restore. One value serves
// both because this scenario stitches nothing across the seam, where a
// sharded close is bit-identical to the monolith (DESIGN.md §13).
constexpr uint64_t kNextCloseDigest = 0x327cf22632e338c5ULL;

std::string FromHex(const char* hex) {
  std::string out;
  for (const char* p = hex; p[0] != '\0' && p[1] != '\0'; p += 2) {
    const auto nibble = [](char c) {
      return c <= '9' ? c - '0' : c - 'a' + 10;
    };
    out.push_back(static_cast<char>(nibble(p[0]) << 4 | nibble(p[1])));
  }
  return out;
}

std::string ToHex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

bool DumpRequested() {
  return std::getenv("MAPS_DUMP_GOLDEN_CHECKPOINTS") != nullptr;
}

/// Prints `blob` as a C string literal, 64 hex digits per line.
void Dump(const char* name, const std::string& blob) {
  const std::string hex = ToHex(blob);
  std::cout << "constexpr char " << name << "[] =\n";
  for (size_t i = 0; i < hex.size(); i += 64) {
    std::cout << "    \"" << hex.substr(i, 64) << "\"\n";
  }
  std::cout << "    ;\n";
}

GridPartition FixtureGrid() {
  return GridPartition::Make(Rect{0, 0, 100, 100}, 4, 4).ValueOrDie();
}

EngineOptions FixtureOptions() {
  EngineOptions options;
  options.lifecycle.single_use = false;
  options.lifecycle.speed = 40.0;
  return options;
}

/// One period of the fixture scenario: a worker every other period, four
/// tasks with hidden valuations and ride destinations, one explicit bit.
/// Works on either engine type (same event surface).
template <typename Engine>
Status DriveFixtureEvents(const GridPartition& grid, Engine* engine,
                          int32_t t) {
  Rng rng(4400 + static_cast<uint64_t>(t));
  if (t % 2 == 0) {
    for (int i = 0; i < 3; ++i) {
      const Point loc{rng.NextDouble(5.0, 95.0), rng.NextDouble(5.0, 95.0)};
      MAPS_RETURN_NOT_OK(engine->AddWorker(
          MakeWorker(grid, 10 * t + i + 1, loc, rng.NextDouble(20.0, 40.0))));
    }
  }
  for (int i = 0; i < 4; ++i) {
    Task task = MakeTask(grid, t * 100 + i,
                         Point{rng.NextDouble(0.0, 100.0),
                               rng.NextDouble(0.0, 100.0)},
                         rng.NextDouble(1.0, 4.0), t);
    task.destination =
        Point{rng.NextDouble(0.0, 100.0), rng.NextDouble(0.0, 100.0)};
    MAPS_RETURN_NOT_OK(engine->SubmitTask(task, rng.NextDouble(1.0, 6.0)));
  }
  return engine->ObserveAcceptance(t * 100 + 1, t % 2 == 0);
}

/// Three closed periods, then period 3's events staged but not closed.
template <typename Engine>
Status DriveFixtureScenario(const GridPartition& grid, Engine* engine) {
  PeriodOutcome out;
  for (int32_t t = 0; t < 3; ++t) {
    MAPS_RETURN_NOT_OK(DriveFixtureEvents(grid, engine, t));
    MAPS_RETURN_NOT_OK(engine->ClosePeriod(&out));
  }
  return DriveFixtureEvents(grid, engine, 3);
}

/// Restores `golden` into `restored`, then checks the byte-identical
/// re-save and the pinned digest of the next close.
template <typename Engine>
void ExpectGoldenRoundTrip(Engine* restored, const std::string& golden) {
  ASSERT_FALSE(golden.empty());
  const Status restore = restored->RestoreFromCheckpoint(golden);
  ASSERT_TRUE(restore.ok()) << restore.ToString();
  std::string resaved;
  ASSERT_TRUE(restored->SaveCheckpoint(&resaved).ok());
  EXPECT_TRUE(resaved == golden) << "re-save differs from the fixture";

  PeriodOutcome out;
  ASSERT_TRUE(restored->ClosePeriod(&out).ok());
  EXPECT_EQ(out.period, 3);
  EXPECT_FALSE(out.matches.empty());
  OutcomeDigest digest;
  digest.AddOutcome(out);
  EXPECT_EQ(digest.value(), kNextCloseDigest)
      << "actual 0x" << std::hex << digest.value();
}

TEST(CheckpointGoldenTest, MonolithBlobRestoresAndResavesIdentically) {
  const GridPartition grid = FixtureGrid();
  if (DumpRequested()) {
    CellLocalStrategy strategy;
    MarketEngine engine(&grid, &strategy, FixtureOptions());
    ASSERT_TRUE(DriveFixtureScenario(grid, &engine).ok());
    std::string blob;
    ASSERT_TRUE(engine.SaveCheckpoint(&blob).ok());
    Dump("kMonolithHex", blob);
  }
  CellLocalStrategy strategy;
  MarketEngine restored(&grid, &strategy, FixtureOptions());
  ExpectGoldenRoundTrip(&restored, FromHex(kMonolithHex));
}

TEST(CheckpointGoldenTest, ShardedBlobRestoresAndResavesIdentically) {
  const GridPartition grid = FixtureGrid();
  const RegionPartition partition =
      RegionPartition::Make(grid, 2).ValueOrDie();
  const auto make_engine = [&](std::vector<CellLocalStrategy>* strategies) {
    strategies->resize(2);
    return std::make_unique<ShardedMarketEngine>(
        &grid, &partition,
        std::vector<PricingStrategy*>{&(*strategies)[0], &(*strategies)[1]},
        FixtureOptions());
  };
  if (DumpRequested()) {
    std::vector<CellLocalStrategy> strategies;
    auto engine = make_engine(&strategies);
    ASSERT_TRUE(DriveFixtureScenario(grid, engine.get()).ok());
    std::string blob;
    ASSERT_TRUE(engine->SaveCheckpoint(&blob).ok());
    Dump("kShardedHex", blob);
  }
  std::vector<CellLocalStrategy> strategies;
  auto restored = make_engine(&strategies);
  ExpectGoldenRoundTrip(restored.get(), FromHex(kShardedHex));
}


// --- Failure-domain restore points -----------------------------------------
//
// The two fixtures above pin one small blob each. The engine save path also
// runs once per region per close as the failure-domain restore point, over
// record tables with tombstones, ride heaps and open-period stages. This test
// pins those bytes as one FNV-1a digest over every region save (and every
// sharded container) of a seeded K=2 run with a close-fail plan, so an
// encoder change that alters any byte of any section fails here. The scenario's coverage is checked by decoding
// the blobs, so a scenario edit cannot silently drop a case.

constexpr uint64_t kFailureDomainSavesDigest = 0xe5123ddc987cdfeeULL;

/// What the decoded region blobs showed, accumulated over the run.
struct SaveCoverage {
  bool tombstone_shares_live_id = false;  // unindexed record, id also live
  bool busy_equal_next_free = false;      // two busy entries, same period
  bool pending_bits = false;              // explicit acceptance bits
};

void NoteCoverage(const std::string& blob, SaveCoverage* cov) {
  std::vector<std::string> sections;
  ASSERT_TRUE(internal::ParseCheckpointContainer(
                  blob, kCheckpointMagic, kCheckpointFormatVersion,
                  kCheckpointNumSections, "region blob", &sections)
                  .ok());
  {  // Worker section: records, idle list, busy heap in pop order.
    StateReader r(sections[2]);
    uint64_t n = 0;
    ASSERT_TRUE(r.GetU64(&n).ok());
    std::set<int64_t> live, tombstones;
    for (uint64_t i = 0; i < n; ++i) {
      int64_t id = 0;
      std::string skip(44, '\0');
      bool consumed = false, indexed = false;
      ASSERT_TRUE(r.GetI64(&id).ok());
      ASSERT_TRUE(r.GetBytes(&skip[0], skip.size()).ok());
      ASSERT_TRUE(r.GetBool(&consumed).ok());
      ASSERT_TRUE(r.GetBool(&indexed).ok());
      (indexed ? live : tombstones).insert(id);
    }
    for (int64_t id : tombstones) {
      if (live.count(id) > 0) cov->tombstone_shares_live_id = true;
    }
    uint64_t idle_n = 0, busy_n = 0;
    ASSERT_TRUE(r.GetU64(&idle_n).ok());
    for (uint64_t i = 0; i < idle_n; ++i) {
      int32_t idx = 0;
      ASSERT_TRUE(r.GetI32(&idx).ok());
    }
    ASSERT_TRUE(r.GetU64(&busy_n).ok());
    int32_t prev = -1;
    for (uint64_t i = 0; i < busy_n; ++i) {
      int32_t next_free = 0, idx = 0;
      ASSERT_TRUE(r.GetI32(&next_free).ok());
      ASSERT_TRUE(r.GetI32(&idx).ok());
      if (i > 0 && next_free == prev) cov->busy_equal_next_free = true;
      prev = next_free;
    }
    ASSERT_TRUE(r.ExpectEnd().ok());
  }
  {  // Pending section: bit count first.
    StateReader r(sections[4]);
    uint64_t n = 0;
    ASSERT_TRUE(r.GetU64(&n).ok());
    if (n > 0) cov->pending_bits = true;
  }
}

TEST(CheckpointGoldenTest, FailureDomainRegionSavesMatchPinnedDigest) {
  const GridPartition grid = FixtureGrid();
  const RegionPartition partition =
      RegionPartition::Make(grid, 2).ValueOrDie();
  EngineOptions options = FixtureOptions();
  options.failure_domains.enabled = true;
  // Rides long enough to span several closes, so workers cross the seam
  // mid-ride, get repatriated, and some come home to a band that still
  // holds their tombstone.
  options.lifecycle.speed = 12.0;
  std::vector<CellLocalStrategy> strategies(2);
  ShardedMarketEngine engine(
      &grid, &partition,
      std::vector<PricingStrategy*>{&strategies[0], &strategies[1]}, options);

  OutcomeDigest digest;
  SaveCoverage cov;
  const auto fold = [&](MarketEngine* region) {
    std::string blob;
    ASSERT_TRUE(region->SaveCheckpoint(&blob).ok());
    digest.AddBytes(blob);
    NoteCoverage(blob, &cov);
  };

  constexpr int kPeriods = 24;
  int containers = 0;
  Rng rng(9100);
  WorkerId next_worker = 1;
  {
    ScopedFaultPlan plan("close_fail@r1p4;close_fail@r0p9;close_fail@r1p15");
    PeriodOutcome out;
    for (int32_t t = 0; t < kPeriods; ++t) {
      const int joins = t == 0 ? 16 : (t % 3 == 0 ? 2 : 0);
      for (int i = 0; i < joins; ++i) {
        const Point loc{rng.NextDouble(5.0, 95.0), rng.NextDouble(5.0, 95.0)};
        ASSERT_TRUE(engine
                        .AddWorker(MakeWorker(grid, next_worker++, loc,
                                              rng.NextDouble(25.0, 45.0)))
                        .ok());
      }
      for (int i = 0; i < 8; ++i) {
        Task task = MakeTask(grid, t * 100 + i,
                             Point{rng.NextDouble(0.0, 100.0),
                                   rng.NextDouble(0.0, 100.0)},
                             rng.NextDouble(1.0, 4.0), t);
        task.destination =
            Point{rng.NextDouble(0.0, 100.0), rng.NextDouble(0.0, 100.0)};
        ASSERT_TRUE(engine.SubmitTask(task, rng.NextDouble(1.0, 6.0)).ok());
      }
      ASSERT_TRUE(engine.ObserveAcceptance(t * 100 + 1, t % 2 == 0).ok());
      ASSERT_TRUE(engine.ObserveAcceptance(t * 100 + 2, true).ok());
      ASSERT_TRUE(engine.ClosePeriod(&out).ok());
      for (int k = 0; k < 2; ++k) fold(engine.region_engine(k));
      // The whole-deployment container too, whenever it may be taken (not
      // while a region is quarantined or holds deferred tasks).
      std::string container;
      if (engine.SaveCheckpoint(&container).ok()) {
        digest.AddBytes(container);
        ++containers;
      }
    }
  }
  EXPECT_GT(engine.rejections().deferred_tasks, 0);
  EXPECT_GT(containers, kPeriods / 2);

  // Last, each region engine is driven directly (the deployment closes no
  // more): it holds submitted tasks and acceptance bits of its open period,
  // which a sharded region otherwise only carries inside a restore point.
  for (int k = 0; k < 2; ++k) {
    MarketEngine* region = engine.region_engine(k);
    for (int i = 0; i < 5; ++i) {
      Task task = MakeTask(grid, 9000 + 10 * k + i,
                           Point{rng.NextDouble(0.0, 100.0),
                                 rng.NextDouble(0.0, 100.0)},
                           rng.NextDouble(1.0, 4.0), kPeriods);
      ASSERT_TRUE(region->SubmitTask(task, rng.NextDouble(1.0, 6.0)).ok());
    }
    ASSERT_TRUE(region->ObserveAcceptance(9000 + 10 * k, true).ok());
    ASSERT_TRUE(region->ObserveAcceptance(9001 + 10 * k, false).ok());
    fold(region);
  }

  EXPECT_TRUE(cov.tombstone_shares_live_id);
  EXPECT_TRUE(cov.busy_equal_next_free);
  EXPECT_TRUE(cov.pending_bits);
  EXPECT_EQ(digest.value(), kFailureDomainSavesDigest)
      << "actual 0x" << std::hex << digest.value();
}

}  // namespace
}  // namespace maps
