#include "util/serial.h"

#include <cstring>

namespace maps {

namespace {

// Slicing-by-8 tables: kCrc32.t[0] is the classic byte-at-a-time table, and
// kCrc32.t[k][b] is the CRC contribution of byte b followed by k zero
// bytes, so one step folds eight input bytes with eight lookups.
struct Crc32Tables {
  uint32_t t[8][256];
};

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    tables.t[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = (prev >> 8) ^ tables.t[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32 = MakeCrc32Tables();

// Byte-order independent; compilers fuse it into one load on
// little-endian targets.
inline uint32_t LoadLittleEndian32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

template <typename U>
void OverwriteLittleEndian(std::string* buf, size_t offset, U v) {
  for (size_t i = 0; i < sizeof(U); ++i) {
    (*buf)[offset + i] = static_cast<char>(v >> (8 * i));
  }
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const auto& t = kCrc32.t;
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = c ^ LoadLittleEndian32(p);
    const uint32_t hi = LoadLittleEndian32(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void StateWriter::OverwriteU32(size_t offset, uint32_t v) {
  OverwriteLittleEndian(&buf_, offset, v);
}

void StateWriter::OverwriteU64(size_t offset, uint64_t v) {
  OverwriteLittleEndian(&buf_, offset, v);
}

void StateWriter::PutString(const std::string& s) {
  PutU64(s.size());
  buf_.append(s);
}

void StateWriter::PutBytes(const void* data, size_t len) {
  buf_.append(static_cast<const char*>(data), len);
}

Status StateReader::Need(size_t n, const char* what) {
  if (size_ - off_ < n) {
    return Status::InvalidArgument(
        "truncated payload: need " + std::to_string(n) + " byte(s) for " +
        what + " at offset " + std::to_string(off_) + ", have " +
        std::to_string(size_ - off_));
  }
  return Status::OK();
}

uint64_t StateReader::TakeLittleEndian(int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(data_[off_ + i]) << (8 * i);
  }
  off_ += bytes;
  return v;
}

Status StateReader::GetU8(uint8_t* out, const char* what) {
  MAPS_RETURN_NOT_OK(Need(1, what));
  *out = data_[off_++];
  return Status::OK();
}

Status StateReader::GetU32(uint32_t* out, const char* what) {
  MAPS_RETURN_NOT_OK(Need(4, what));
  *out = static_cast<uint32_t>(TakeLittleEndian(4));
  return Status::OK();
}

Status StateReader::GetU64(uint64_t* out, const char* what) {
  MAPS_RETURN_NOT_OK(Need(8, what));
  *out = TakeLittleEndian(8);
  return Status::OK();
}

Status StateReader::GetI32(int32_t* out, const char* what) {
  uint32_t v;
  MAPS_RETURN_NOT_OK(GetU32(&v, what));
  *out = static_cast<int32_t>(v);
  return Status::OK();
}

Status StateReader::GetI64(int64_t* out, const char* what) {
  uint64_t v;
  MAPS_RETURN_NOT_OK(GetU64(&v, what));
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status StateReader::GetDouble(double* out, const char* what) {
  uint64_t bits;
  MAPS_RETURN_NOT_OK(GetU64(&bits, what));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
}

Status StateReader::GetBool(bool* out, const char* what) {
  const size_t at = off_;
  uint8_t v;
  MAPS_RETURN_NOT_OK(GetU8(&v, what));
  if (v > 1) {
    off_ = at;
    return Status::InvalidArgument(
        "invalid bool value " + std::to_string(v) + " for " + what +
        " at offset " + std::to_string(at));
  }
  *out = v != 0;
  return Status::OK();
}

Status StateReader::GetString(std::string* out, const char* what) {
  const size_t at = off_;
  uint64_t len;
  MAPS_RETURN_NOT_OK(GetU64(&len, what));
  if (len > size_ - off_) {
    off_ = at;
    return Status::InvalidArgument(
        "truncated payload: string " + std::string(what) + " at offset " +
        std::to_string(at) + " claims " + std::to_string(len) +
        " byte(s), have " + std::to_string(size_ - at - 8));
  }
  out->assign(reinterpret_cast<const char*>(data_ + off_),
              static_cast<size_t>(len));
  off_ += static_cast<size_t>(len);
  return Status::OK();
}

Status StateReader::GetBytes(void* out, size_t n, const char* what) {
  MAPS_RETURN_NOT_OK(Need(n, what));
  std::memcpy(out, data_ + off_, n);
  off_ += n;
  return Status::OK();
}

Status StateReader::ExpectEnd(const char* what) {
  if (off_ != size_) {
    return Status::InvalidArgument(
        std::string(what) + " has " + std::to_string(size_ - off_) +
        " trailing byte(s) at offset " + std::to_string(off_));
  }
  return Status::OK();
}

Status CheckDecodedCount(const StateReader& r, uint64_t n, size_t elem_bytes,
                         const char* what) {
  if (elem_bytes > 0 && n > r.remaining() / elem_bytes) {
    return Status::InvalidArgument(
        std::string(what) + " count " + std::to_string(n) +
        " exceeds remaining payload at offset " + std::to_string(r.offset()));
  }
  return Status::OK();
}

}  // namespace maps
