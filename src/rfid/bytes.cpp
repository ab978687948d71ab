#include "rfid/bytes.hpp"

namespace dwatch::rfid {

void ByteWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  if (offset + 4 > buf_.size()) {
    throw std::out_of_range("ByteWriter::patch_u32: offset out of range");
  }
  buf_[offset] = static_cast<std::uint8_t>(v >> 24);
  buf_[offset + 1] = static_cast<std::uint8_t>(v >> 16);
  buf_[offset + 2] = static_cast<std::uint8_t>(v >> 8);
  buf_[offset + 3] = static_cast<std::uint8_t>(v);
}

void ByteWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > buf_.size()) {
    throw std::out_of_range("ByteWriter::patch_u16: offset out of range");
  }
  buf_[offset] = static_cast<std::uint8_t>(v >> 8);
  buf_[offset + 1] = static_cast<std::uint8_t>(v);
}

void ByteReader::truncated(std::size_t n) const {
  throw DecodeError("ByteReader: truncated input (need " + std::to_string(n) +
                    " bytes, have " + std::to_string(remaining()) + ")");
}

}  // namespace dwatch::rfid
