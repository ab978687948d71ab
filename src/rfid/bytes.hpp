// Bounds-checked big-endian byte stream primitives for the LLRP-lite
// codec. Network byte order throughout (LLRP is a big-endian TLV
// protocol). A short or corrupt buffer raises DecodeError rather than
// reading out of bounds.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace dwatch::rfid {

/// Raised by ByteReader on truncated/invalid input.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only big-endian byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Overwrite a previously written u32 at `offset` (for back-patching
  /// message/parameter lengths). Throws std::out_of_range.
  void patch_u32(std::size_t offset, std::uint32_t v);
  /// Overwrite a previously written u16 at `offset`.
  void patch_u16(std::size_t offset, std::uint16_t v);

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Sequential big-endian reader over a borrowed buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

  [[nodiscard]] std::uint8_t u8() {
    require(1);
    return data_[pos_++];
  }
  [[nodiscard]] std::uint16_t u16() {
    require(2);
    const auto v =
        static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  [[nodiscard]] std::uint32_t u32() {
    require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 8;
    return v;
  }
  [[nodiscard]] std::int16_t i16() { return static_cast<std::int16_t>(u16()); }

  /// Read exactly n bytes; throws DecodeError if fewer remain.
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n) {
    require(n);
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// Skip n bytes; throws DecodeError if fewer remain.
  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) [[unlikely]] truncated(n);
  }
  /// Throws the DecodeError for a read of n bytes past the end.
  [[noreturn]] void truncated(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace dwatch::rfid
