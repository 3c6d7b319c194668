// Byte-level serialization primitives for checkpoint payloads.
//
// StateWriter appends fixed-width little-endian fields to a growable
// buffer; StateReader walks the same encoding with bounds checks and
// returns an offset-bearing Status instead of reading out of range.
// Doubles round-trip by bit pattern (NaN payloads included), so decoded
// state is bit-identical to what was saved — the property the
// checkpoint/restore determinism contract rests on (DESIGN.md §12).

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "util/status.h"

namespace maps {

/// \brief CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `len`
/// bytes. Pass a previous result as `seed` to checksum incrementally.
/// Computed eight bytes per step (slicing-by-8); the value is the classic
/// byte-at-a-time one.
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

/// \brief Appends little-endian fields to an in-memory buffer. Writing is
/// infallible; the buffer grows as needed. Each field is one append of its
/// assembled bytes.
class StateWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutLittleEndian(v); }
  void PutU64(uint64_t v) { PutLittleEndian(v); }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  /// Bit-pattern encoding: every double (NaN payloads included) survives a
  /// round trip exactly.
  void PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }
  /// u64 byte length followed by the raw bytes.
  void PutString(const std::string& s);
  void PutBytes(const void* data, size_t len);

  /// Rewrites the u32 / u64 field already written at byte `offset` (a
  /// length or checksum known only once what follows it is written).
  void OverwriteU32(size_t offset, uint32_t v);
  void OverwriteU64(size_t offset, uint64_t v);

  /// Grows the buffer's capacity to at least `bytes` up front.
  void Reserve(size_t bytes) { buf_.reserve(bytes); }

  const std::string& data() const { return buf_; }
  size_t size() const { return buf_.size(); }
  /// Hands the encoded bytes over without copying; the writer is left
  /// empty.
  std::string Release() {
    std::string out = std::move(buf_);
    buf_.clear();
    return out;
  }

 private:
  template <typename U>
  void PutLittleEndian(U v) {
    char bytes[sizeof(U)];
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(bytes, &v, sizeof(U));
    } else {
      for (size_t i = 0; i < sizeof(U); ++i) {
        bytes[i] = static_cast<char>(v >> (8 * i));
      }
    }
    buf_.append(bytes, sizeof(U));
  }

  std::string buf_;
};

/// \brief Bounds-checked reader over a StateWriter encoding.
///
/// Every getter fails with an InvalidArgument Status naming the byte
/// offset and the field being decoded; the cursor does not advance on
/// failure. The referenced buffer must outlive the reader.
class StateReader {
 public:
  StateReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit StateReader(const std::string& buf)
      : StateReader(buf.data(), buf.size()) {}

  Status GetU8(uint8_t* out, const char* what = "u8");
  Status GetU32(uint32_t* out, const char* what = "u32");
  Status GetU64(uint64_t* out, const char* what = "u64");
  Status GetI32(int32_t* out, const char* what = "i32");
  Status GetI64(int64_t* out, const char* what = "i64");
  Status GetDouble(double* out, const char* what = "double");
  /// Requires the encoded byte to be exactly 0 or 1.
  Status GetBool(bool* out, const char* what = "bool");
  Status GetString(std::string* out, const char* what = "string");
  /// Copies `n` raw bytes (no length prefix) into `out`.
  Status GetBytes(void* out, size_t n, const char* what = "bytes");

  /// Bytes consumed so far.
  size_t offset() const { return off_; }
  /// Bytes left to consume.
  size_t remaining() const { return size_ - off_; }

  /// Fails unless the payload was consumed exactly — trailing bytes mean
  /// a corrupt or mismatched encoding.
  Status ExpectEnd(const char* what = "payload");

 private:
  Status Need(size_t n, const char* what);
  uint64_t TakeLittleEndian(int bytes);

  const uint8_t* data_;
  size_t size_;
  size_t off_ = 0;
};

/// \brief Guards a u64 element count decoded from untrusted bytes before
/// any container resize: a count that cannot possibly fit in the reader's
/// remaining payload is corruption, and resizing to it first would
/// allocate gigabytes.
Status CheckDecodedCount(const StateReader& r, uint64_t n, size_t elem_bytes,
                         const char* what);

}  // namespace maps
