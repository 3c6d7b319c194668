// Byte-level checks of the checkpoint encoder primitives (util/serial.h):
// the slicing-by-8 CRC-32 against a byte-at-a-time reference, and every
// StateWriter field against its explicit little-endian bytes. Checkpoint
// files are only portable if both hold on every build.

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rng/random.h"
#include "util/serial.h"

namespace maps {
namespace {

/// The reference CRC-32: IEEE polynomial 0xEDB88320 (reflected), one table
/// lookup per byte. Crc32 must return exactly this for every input.
uint32_t BytewiseCrc32(const uint8_t* p, size_t len, uint32_t seed) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> SeededBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextUint64());
  return bytes;
}

TEST(SerialTest, Crc32MatchesBytewiseReference) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);

  // Every length 0..4100 at every start offset 0..7, so each tail length
  // and each alignment of the eight-byte steps is covered. The reference
  // walks each offset's prefix once, chaining byte by byte.
  constexpr size_t kMaxLen = 4100;
  const std::vector<uint8_t> buf = SeededBytes(kMaxLen + 8, 2024);
  for (size_t offset = 0; offset < 8; ++offset) {
    const uint8_t* p = buf.data() + offset;
    uint32_t expected = 0;
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(Crc32(p, len), expected)
          << "offset " << offset << " length " << len;
      if (len < kMaxLen) expected = BytewiseCrc32(p + len, 1, expected);
    }
  }

  // Chained seeds: a checksum continued across any split point equals the
  // one-shot value, and arbitrary seeds agree with the reference.
  const std::vector<uint8_t> data = SeededBytes(1000, 77);
  const uint32_t whole = Crc32(data.data(), data.size());
  EXPECT_EQ(whole, BytewiseCrc32(data.data(), data.size(), 0));
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t head = Crc32(data.data(), split);
    ASSERT_EQ(Crc32(data.data() + split, data.size() - split, head), whole)
        << "split " << split;
  }
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const uint32_t seed = static_cast<uint32_t>(rng.NextUint64());
    const size_t offset = static_cast<size_t>(rng.NextUint64() % 8);
    const size_t len = static_cast<size_t>(rng.NextUint64() % 300);
    ASSERT_EQ(Crc32(data.data() + offset, len, seed),
              BytewiseCrc32(data.data() + offset, len, seed))
        << "seed " << seed << " offset " << offset << " length " << len;
  }
}

/// The bytes of `hex` ("0a ff ..."; spaces ignored).
std::string Bytes(const char* hex) {
  std::string out;
  int hi = -1;
  for (const char* p = hex; *p != '\0'; ++p) {
    if (*p == ' ') continue;
    const int v = *p <= '9' ? *p - '0' : *p - 'a' + 10;
    if (hi < 0) {
      hi = v;
    } else {
      out.push_back(static_cast<char>(hi << 4 | v));
      hi = -1;
    }
  }
  return out;
}

TEST(SerialTest, WriterLayoutIsLittleEndian) {
  const auto encoded = [](auto put) {
    StateWriter w;
    put(&w);
    return w.data();
  };
  EXPECT_EQ(encoded([](StateWriter* w) { w->PutU8(0xAB); }), Bytes("ab"));
  EXPECT_EQ(encoded([](StateWriter* w) { w->PutU32(0x01020304u); }),
            Bytes("04 03 02 01"));
  EXPECT_EQ(encoded([](StateWriter* w) {
              w->PutU64(0x0102030405060708ull);
            }),
            Bytes("08 07 06 05 04 03 02 01"));
  EXPECT_EQ(encoded([](StateWriter* w) {
              w->PutU64(std::numeric_limits<uint64_t>::max());
            }),
            Bytes("ff ff ff ff ff ff ff ff"));
  EXPECT_EQ(encoded([](StateWriter* w) { w->PutI32(-2); }),
            Bytes("fe ff ff ff"));
  EXPECT_EQ(encoded([](StateWriter* w) {
              w->PutI32(std::numeric_limits<int32_t>::min());
            }),
            Bytes("00 00 00 80"));
  EXPECT_EQ(encoded([](StateWriter* w) {
              w->PutI64(std::numeric_limits<int64_t>::min());
            }),
            Bytes("00 00 00 00 00 00 00 80"));
  EXPECT_EQ(encoded([](StateWriter* w) {
              w->PutBool(true);
              w->PutBool(false);
            }),
            Bytes("01 00"));
  EXPECT_EQ(encoded([](StateWriter* w) { w->PutDouble(1.0); }),
            Bytes("00 00 00 00 00 00 f0 3f"));
  EXPECT_EQ(encoded([](StateWriter* w) { w->PutDouble(-0.0); }),
            Bytes("00 00 00 00 00 00 00 80"));
  // A NaN with a payload keeps every bit.
  double nan_payload;
  const uint64_t nan_bits = 0x7ff8000000abcdefull;
  std::memcpy(&nan_payload, &nan_bits, sizeof(nan_payload));
  EXPECT_EQ(encoded([&](StateWriter* w) { w->PutDouble(nan_payload); }),
            Bytes("ef cd ab 00 00 00 f8 7f"));
  EXPECT_EQ(encoded([](StateWriter* w) { w->PutString("ab"); }),
            Bytes("02 00 00 00 00 00 00 00 61 62"));
  EXPECT_EQ(encoded([](StateWriter* w) { w->PutBytes("xyz", 3); }),
            Bytes("78 79 7a"));

  // Overwrites patch a field in place and leave its neighbours alone.
  StateWriter w;
  w.PutU8(0x11);
  w.PutU32(0);
  w.PutU64(0);
  w.PutU8(0x22);
  w.OverwriteU32(1, 0xA1B2C3D4u);
  w.OverwriteU64(5, 0x0102030405060708ull);
  EXPECT_EQ(w.data(), Bytes("11 d4 c3 b2 a1 08 07 06 05 04 03 02 01 22"));

  // Release hands the bytes over and leaves the writer empty and usable.
  const std::string released = w.Release();
  EXPECT_EQ(released.size(), 14u);
  EXPECT_EQ(w.size(), 0u);
  w.PutU8(0x33);
  EXPECT_EQ(w.data(), Bytes("33"));
}

}  // namespace
}  // namespace maps
