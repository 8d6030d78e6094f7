// Abstract byte sources for transmit streams, shared by the QUIC and TCP
// stacks. Large benchmark transfers synthesize data on the fly (O(window)
// memory for a 20 MB download) while applications can send real buffers.
// A source is immutable: QUIC keeps only STREAM frame descriptors and
// re-reads the range into the packet for every (re)transmission.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"

namespace mpq {

class SendSource {
 public:
  virtual ~SendSource() = default;
  virtual ByteCount size() const = 0;
  /// Fill `out` with the bytes at [offset, offset+out.size()), which is
  /// guaranteed to lie within [0, size()).
  virtual void Read(ByteCount offset, std::span<std::uint8_t> out) const = 0;
};

/// Deterministic pseudo-data: the byte at `offset` of stream `id` is
/// PatternByte(id, offset). Receivers can verify payload integrity
/// without the sender storing the file.
std::uint8_t PatternByte(std::uint32_t id, ByteCount offset);

/// How many bytes of `data` differ from the pattern of stream `id` at
/// [offset, offset + data.size()): exactly what comparing each byte with
/// PatternByte counts, at the cost of a bulk fill and a memcmp.
std::size_t CountPatternMismatches(std::uint32_t id, ByteCount offset,
                                   std::span<const std::uint8_t> data);

class PatternSource final : public SendSource {
 public:
  PatternSource(std::uint32_t id, ByteCount size) : id_(id), size_(size) {}
  PatternSource(StreamId id, ByteCount size)
      : PatternSource(id.value(), size) {}
  ByteCount size() const override { return size_; }
  /// Bulk fill: byte-for-byte PatternByte(id, offset + i).
  void Read(ByteCount offset, std::span<std::uint8_t> out) const override;

 private:
  std::uint32_t id_;
  ByteCount size_;
};

class BufferSource final : public SendSource {
 public:
  explicit BufferSource(std::vector<std::uint8_t> data)
      : data_(std::move(data)) {}
  ByteCount size() const override { return ByteCount{data_.size()}; }
  void Read(ByteCount offset, std::span<std::uint8_t> out) const override;

 private:
  std::vector<std::uint8_t> data_;
};

}  // namespace mpq
