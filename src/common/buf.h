// Bounds-checked binary writer/reader used for every wire format in the
// repository (QUIC packets and frames, TCP segments, handshake messages).
//
// Integers are encoded big-endian (network order). Variable-length integers
// use the QUIC-style 2-bit-prefix varint (RFC 9000 §16): the two most
// significant bits of the first byte give the total length (1/2/4/8 bytes)
// and the remaining bits the value, so values up to 2^62-1 are encodable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace mpq {

/// Maximum value representable by the 2-bit-prefix varint.
inline constexpr std::uint64_t kVarintMax = (1ULL << 62) - 1;

/// Number of bytes the varint encoding of `v` occupies (1, 2, 4 or 8).
/// Precondition: v <= kVarintMax.
constexpr std::size_t VarintSize(std::uint64_t v) {
  if (v < (1ULL << 6)) return 1;
  if (v < (1ULL << 14)) return 2;
  if (v < (1ULL << 30)) return 4;
  return 8;
}

/// Append-only binary writer over an owned byte vector.
class BufWriter {
 public:
  BufWriter() = default;
  explicit BufWriter(std::size_t reserve) { buf_.reserve(reserve); }
  /// Write into `buffer`'s storage (a recycled datagram buffer); its old
  /// contents are discarded.
  BufWriter(std::vector<std::uint8_t> buffer, std::size_t reserve)
      : buf_(std::move(buffer)) {
    buf_.clear();
    buf_.reserve(reserve);
  }

  void WriteU8(std::uint8_t v) { buf_.push_back(v); }
  void WriteU16(std::uint16_t v) {
    std::uint8_t* p = Grow(2);
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
  }
  void WriteU32(std::uint32_t v) {
    std::uint8_t* p = Grow(4);
    for (int i = 0; i < 4; ++i)
      p[i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
  }
  void WriteU64(std::uint64_t v) {
    std::uint8_t* p = Grow(8);
    for (int i = 0; i < 8; ++i)
      p[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  }

  /// QUIC 2-bit-prefix varint. Returns false (writing nothing) if the value
  /// exceeds kVarintMax; callers on the datapath treat that as a bug.
  bool WriteVarint(std::uint64_t v) {
    if (v > kVarintMax) return false;
    switch (VarintSize(v)) {
      case 1:
        WriteU8(static_cast<std::uint8_t>(v));
        break;
      case 2:
        WriteU16(static_cast<std::uint16_t>(v) | 0x4000);
        break;
      case 4:
        WriteU32(static_cast<std::uint32_t>(v) | 0x8000'0000U);
        break;
      default:
        WriteU64(v | 0xC000'0000'0000'0000ULL);
        break;
    }
    return true;
  }

  void WriteBytes(std::span<const std::uint8_t> bytes) {
    if (bytes.empty()) return;
    std::memcpy(Grow(bytes.size()), bytes.data(), bytes.size());
  }
  void WriteBytes(const void* data, std::size_t len) {
    if (len == 0) return;
    std::memcpy(Grow(len), data, len);
  }
  /// Append `len` zero bytes (PADDING frames, payload placeholders).
  void WriteZeroes(std::size_t len) { buf_.resize(buf_.size() + len, 0); }
  /// Append `len` bytes for the caller to fill in place (a STREAM payload,
  /// straight from its source); the span is valid until the next write.
  std::span<std::uint8_t> AppendSpan(std::size_t len) {
    return {Grow(len), len};
  }

  std::size_t size() const { return buf_.size(); }
  bool empty() const { return buf_.empty(); }
  std::span<const std::uint8_t> span() const { return buf_; }
  /// Mutable view of the accumulated bytes — used for in-place packet
  /// protection (the AEAD encrypts the assembled payload where it lies).
  std::span<std::uint8_t> mutable_span() { return buf_; }
  const std::vector<std::uint8_t>& data() const { return buf_; }

  /// Move the accumulated bytes out; the writer is empty afterwards.
  std::vector<std::uint8_t> Take() { return std::move(buf_); }

  /// Drop the contents but keep the allocation — for reuse as scratch.
  void Clear() { buf_.clear(); }

 private:
  /// Extend by `n` bytes and return a pointer to the fresh region (single
  /// resize instead of byte-wise push_back — this is the hot path of every
  /// packet assembly).
  std::uint8_t* Grow(std::size_t n) {
    const std::size_t old = buf_.size();
    buf_.resize(old + n);
    return buf_.data() + old;
  }

  std::vector<std::uint8_t> buf_;
};

/// Non-owning bounds-checked reader. All Read* methods return false on
/// underrun and leave the output untouched; the cursor only advances on
/// success. A malformed packet therefore fails cleanly instead of reading
/// out of bounds — the caller drops it, as a real stack would.
class BufReader {
 public:
  explicit BufReader(std::span<const std::uint8_t> data) : data_(data) {}
  BufReader(const void* data, std::size_t len)
      : data_(static_cast<const std::uint8_t*>(data), len) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  std::size_t position() const { return pos_; }

  bool ReadU8(std::uint8_t& out) {
    if (remaining() < 1) return false;
    out = data_[pos_++];
    return true;
  }
  bool ReadU16(std::uint16_t& out) {
    if (remaining() < 2) return false;
    out = static_cast<std::uint16_t>(std::uint16_t{data_[pos_]} << 8 |
                                     std::uint16_t{data_[pos_ + 1]});
    pos_ += 2;
    return true;
  }
  bool ReadU32(std::uint32_t& out) {
    if (remaining() < 4) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) out = out << 8 | data_[pos_ + i];
    pos_ += 4;
    return true;
  }
  bool ReadU64(std::uint64_t& out) {
    if (remaining() < 8) return false;
    out = 0;
    for (int i = 0; i < 8; ++i) out = out << 8 | data_[pos_ + i];
    pos_ += 8;
    return true;
  }

  bool ReadVarint(std::uint64_t& out) {
    if (remaining() < 1) return false;
    const std::uint8_t first = data_[pos_];
    const std::size_t len = std::size_t{1} << (first >> 6);
    if (remaining() < len) return false;
    std::uint64_t v = first & 0x3F;
    for (std::size_t i = 1; i < len; ++i) v = v << 8 | data_[pos_ + i];
    pos_ += len;
    out = v;
    return true;
  }

  /// View `len` bytes without copying; the span aliases the packet buffer
  /// and is only valid while the underlying buffer lives.
  bool ReadSpan(std::size_t len, std::span<const std::uint8_t>& out) {
    if (remaining() < len) return false;
    out = data_.subspan(pos_, len);
    pos_ += len;
    return true;
  }

  bool ReadBytes(std::size_t len, std::vector<std::uint8_t>& out) {
    std::span<const std::uint8_t> s;
    if (!ReadSpan(len, s)) return false;
    out.assign(s.begin(), s.end());
    return true;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Hex dump (lowercase, no separators) — used by tests and trace logging.
std::string ToHex(std::span<const std::uint8_t> bytes);

}  // namespace mpq
