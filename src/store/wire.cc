#include "store/wire.h"

#include <cstring>
#include <vector>

namespace gem::store {
namespace {

uint64_t F64Bits(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsF64(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

void WireWriter::PutU8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }

void WireWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void WireWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void WireWriter::PutF64(double v) { PutU64(F64Bits(v)); }

void WireWriter::PutString(std::string_view s) {
  PutU64(s.size());
  bytes_.append(s.data(), s.size());
}

Status WireReader::Need(size_t n) {
  if (bytes_.size() - pos_ < n) {
    return Status::DataLoss("wire: truncated (need " + std::to_string(n) +
                            " bytes, have " +
                            std::to_string(bytes_.size() - pos_) + ")");
  }
  return Status::Ok();
}

Status WireReader::GetU8(uint8_t* out) {
  Status status = Need(1);
  if (!status.ok()) return status;
  *out = static_cast<uint8_t>(bytes_[pos_++]);
  return Status::Ok();
}

Status WireReader::GetU32(uint32_t* out) {
  Status status = Need(4);
  if (!status.ok()) return status;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::Ok();
}

Status WireReader::GetU64(uint64_t* out) {
  Status status = Need(8);
  if (!status.ok()) return status;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return Status::Ok();
}

Status WireReader::GetI32(int32_t* out) {
  uint32_t v;
  Status status = GetU32(&v);
  if (!status.ok()) return status;
  *out = static_cast<int32_t>(v);
  return Status::Ok();
}

Status WireReader::GetI64(int64_t* out) {
  uint64_t v;
  Status status = GetU64(&v);
  if (!status.ok()) return status;
  *out = static_cast<int64_t>(v);
  return Status::Ok();
}

Status WireReader::GetF64(double* out) {
  uint64_t bits;
  Status status = GetU64(&bits);
  if (!status.ok()) return status;
  *out = BitsF64(bits);
  return Status::Ok();
}

Status WireReader::GetString(std::string* out) {
  uint64_t n;
  Status status = GetU64(&n);
  if (!status.ok()) return status;
  // Bounds the declared length by the remaining payload before any
  // allocation, so a bit-flipped length fails fast with kDataLoss.
  status = Need(n);
  if (!status.ok()) return status;
  out->assign(bytes_.data() + pos_, n);
  pos_ += n;
  return Status::Ok();
}

uint32_t Crc32(std::string_view bytes, uint32_t crc) {
  // Table-driven CRC-32 (reflected 0xEDB88320); table built on first use.
  static const auto table = [] {
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
  crc ^= 0xFFFFFFFFu;
  for (const char ch : bytes) {
    crc = table[(crc ^ static_cast<uint8_t>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32(std::string_view bytes) { return Crc32(bytes, 0); }

}  // namespace gem::store
