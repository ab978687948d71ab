#include "rfid/llrp.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>

#include "obs/trace.hpp"
#include "rf/constants.hpp"
#include "rf/geometry.hpp"

namespace dwatch::rfid {

namespace {

constexpr std::size_t kHeaderBytes = 10;  // ver/type u16, length u32, id u32

void write_header(ByteWriter& w, MessageType type, std::uint32_t message_id) {
  // 3 reserved bits, 3 version bits, 10 type bits.
  const auto type_val = static_cast<std::uint16_t>(type);
  const std::uint16_t first =
      static_cast<std::uint16_t>((kLlrpVersion & 0x7) << 10) |
      (type_val & 0x3FF);
  w.u16(first);
  w.u32(0);  // length, patched later
  w.u32(message_id);
}

void finish_message(ByteWriter& w) {
  w.patch_u32(2, static_cast<std::uint32_t>(w.size()));
}

/// Begin a TLV parameter; returns the offset of its length field.
std::size_t begin_param(ByteWriter& w, ParameterType type) {
  w.u16(static_cast<std::uint16_t>(type));
  const std::size_t len_at = w.size();
  w.u16(0);
  return len_at;
}

void end_param(ByteWriter& w, std::size_t len_at) {
  // Length counts from the type field (len_at - 2).
  w.patch_u16(len_at, static_cast<std::uint16_t>(w.size() - (len_at - 2)));
}

struct ParamView {
  ParameterType type;
  std::span<const std::uint8_t> body;
};

/// Read one TLV parameter from `r`.
ParamView read_param(ByteReader& r) {
  const std::uint16_t type = r.u16();
  const std::uint16_t len = r.u16();
  if (len < 4) throw DecodeError("llrp: parameter length < 4");
  auto body = r.bytes(len - 4);
  return {static_cast<ParameterType>(type), body};
}

}  // namespace

std::uint16_t quantize_phase(double phase_rad) noexcept {
  const double wrapped = rf::wrap_two_pi(phase_rad);
  const double scaled = wrapped / rf::kTwoPi * 65536.0;
  const auto q = static_cast<std::uint32_t>(std::lround(scaled)) & 0xFFFF;
  return static_cast<std::uint16_t>(q);
}

double dequantize_phase(std::uint16_t q) noexcept {
  return static_cast<double>(q) / 65536.0 * rf::kTwoPi;
}

std::int16_t quantize_rssi(double amplitude) noexcept {
  if (!(amplitude > 0.0)) return std::numeric_limits<std::int16_t>::min();
  const double centi_db = 100.0 * 20.0 * std::log10(amplitude);
  const double clamped =
      std::clamp(centi_db, -32767.0, 32767.0);
  return static_cast<std::int16_t>(std::lround(clamped));
}

double dequantize_rssi(std::int16_t centi_db) noexcept {
  if (centi_db == std::numeric_limits<std::int16_t>::min()) return 0.0;
  return std::pow(10.0, static_cast<double>(centi_db) / 100.0 / 20.0);
}

std::pair<std::uint16_t, std::int16_t> quantize_sample(
    linalg::Complex x) noexcept {
  return {quantize_phase(std::arg(x)), quantize_rssi(std::abs(x))};
}

namespace {

/// A process-wide table of doubles filled on first use, one slot per
/// code. A slot holds the complement of the value's bits, so the
/// zero-initialized static storage reads as "not filled yet": no value
/// stored here has all 64 bits set (that pattern is a NaN). Each slot
/// is read and written with one relaxed atomic access; a thread that
/// finds it empty computes the value itself, and every thread computes
/// the same bits. Only the pages of codes actually seen become
/// resident.
template <std::size_t N>
class LazyTable {
 public:
  template <typename Compute>
  [[nodiscard]] double get(std::size_t i, Compute compute) noexcept {
    std::uint64_t v = slots_[i].load(std::memory_order_relaxed);
    if (v == 0) [[unlikely]] {
      v = ~std::bit_cast<std::uint64_t>(compute());
      slots_[i].store(v, std::memory_order_relaxed);
    }
    return std::bit_cast<double>(~v);
  }

 private:
  std::atomic<std::uint64_t> slots_[N];
};

/// cos and sin of dequantize_phase(q) at slots 2q and 2q + 1 (1 MiB).
constinit LazyTable<2 * 65536> g_phase_table;
/// dequantize_rssi(c) at slot c - INT16_MIN (512 KiB).
constinit LazyTable<65536> g_rssi_table;

}  // namespace

linalg::Complex dequantize_sample(std::uint16_t phase_q,
                                  std::int16_t rssi_q) noexcept {
  // Exactly std::polar(dequantize_rssi(rssi_q), dequantize_phase(phase_q)),
  // which libstdc++ computes as {rho * cos(theta), rho * sin(theta)}: the
  // tables hold those three factors, so every sample is bit-identical.
  const std::size_t p = 2 * std::size_t{phase_q};
  const double cos_theta = g_phase_table.get(
      p, [phase_q] { return std::cos(dequantize_phase(phase_q)); });
  const double sin_theta = g_phase_table.get(
      p + 1, [phase_q] { return std::sin(dequantize_phase(phase_q)); });
  const double rho = g_rssi_table.get(
      static_cast<std::size_t>(rssi_q - std::numeric_limits<std::int16_t>::min()),
      [rssi_q] { return dequantize_rssi(rssi_q); });
  return {rho * cos_theta, rho * sin_theta};
}

std::vector<std::uint8_t> encode(const RoAccessReport& msg) {
  ByteWriter w;
  write_header(w, MessageType::kRoAccessReport, msg.message_id);
  for (const auto& obs : msg.observations) {
    const std::size_t trd = begin_param(w, ParameterType::kTagReportData);

    const std::size_t epc = begin_param(w, ParameterType::kEpcData);
    w.bytes(obs.epc.bytes());
    end_param(w, epc);

    const std::size_t ant = begin_param(w, ParameterType::kAntennaId);
    w.u16(obs.antenna_port);
    end_param(w, ant);

    const std::size_t ts =
        begin_param(w, ParameterType::kFirstSeenTimestampUtc);
    w.u64(obs.first_seen_us);
    end_param(w, ts);

    for (const auto& s : obs.samples) {
      const std::size_t ph = begin_param(w, ParameterType::kCustomPhaseReport);
      w.u16(s.element_id);
      w.u32(s.round);
      w.u16(s.phase_q);
      w.i16(s.rssi_q);
      end_param(w, ph);
    }

    end_param(w, trd);
  }
  finish_message(w);
  return std::move(w).take();
}

std::vector<std::uint8_t> encode(const Keepalive& msg) {
  ByteWriter w;
  write_header(w, MessageType::kKeepalive, msg.message_id);
  finish_message(w);
  return std::move(w).take();
}

std::vector<std::uint8_t> encode(const ReaderEventNotification& msg) {
  ByteWriter w;
  write_header(w, MessageType::kReaderEventNotification, msg.message_id);
  w.u64(msg.timestamp_us);
  w.u16(msg.event_code);
  finish_message(w);
  return std::move(w).take();
}

std::optional<MessageHeader> peek_header(
    std::span<const std::uint8_t> buffer) {
  if (buffer.size() < kHeaderBytes) return std::nullopt;
  ByteReader r(buffer);
  const std::uint16_t first = r.u16();
  const std::uint8_t version = (first >> 10) & 0x7;
  if (version != kLlrpVersion) {
    throw DecodeError("llrp: unsupported protocol version");
  }
  MessageHeader h;
  h.type = static_cast<MessageType>(first & 0x3FF);
  h.length = r.u32();
  h.message_id = r.u32();
  if (h.length < kHeaderBytes) {
    throw DecodeError("llrp: message length smaller than header");
  }
  return h;
}

namespace {

/// How many parameters of `type` the TLV sequence `body` holds, read
/// from the headers alone so a decode can reserve exactly. Stops at the
/// first malformed header without throwing: the decode that follows
/// reports it with the usual error.
std::size_t count_params(std::span<const std::uint8_t> body,
                         ParameterType type) noexcept {
  const auto want = static_cast<std::uint16_t>(type);
  std::size_t count = 0;
  std::size_t at = 0;
  while (body.size() - at >= 4) {
    const auto t = static_cast<std::uint16_t>((body[at] << 8) | body[at + 1]);
    const auto len =
        static_cast<std::uint16_t>((body[at + 2] << 8) | body[at + 3]);
    if (len < 4 || len > body.size() - at) break;
    if (t == want) ++count;
    at += len;
  }
  return count;
}

TagObservation decode_tag_report_data(std::span<const std::uint8_t> body) {
  TagObservation obs;
  obs.samples.reserve(count_params(body, ParameterType::kCustomPhaseReport));
  ByteReader r(body);
  bool have_epc = false;
  while (!r.done()) {
    const ParamView p = read_param(r);
    ByteReader pr(p.body);
    switch (p.type) {
      case ParameterType::kEpcData: {
        if (p.body.size() != Epc96::kBytes) {
          throw DecodeError("llrp: bad EPCData length");
        }
        std::array<std::uint8_t, Epc96::kBytes> raw{};
        const auto span = pr.bytes(Epc96::kBytes);
        std::copy(span.begin(), span.end(), raw.begin());
        obs.epc = Epc96(raw);
        have_epc = true;
        break;
      }
      case ParameterType::kAntennaId:
        obs.antenna_port = pr.u16();
        break;
      case ParameterType::kFirstSeenTimestampUtc:
        obs.first_seen_us = pr.u64();
        break;
      case ParameterType::kCustomPhaseReport: {
        PhaseSample s;
        s.element_id = pr.u16();
        s.round = pr.u32();
        s.phase_q = pr.u16();
        s.rssi_q = pr.i16();
        obs.samples.push_back(s);
        break;
      }
      default:
        // Unknown parameter: skip (forward compatibility).
        break;
    }
  }
  if (!have_epc) throw DecodeError("llrp: TagReportData without EPCData");
  return obs;
}

void check_type(const MessageHeader& h, MessageType expect,
                std::size_t buffer_size) {
  if (h.type != expect) throw DecodeError("llrp: unexpected message type");
  if (h.length != buffer_size) {
    throw DecodeError("llrp: message length mismatch");
  }
}

}  // namespace

RoAccessReport decode_ro_access_report(std::span<const std::uint8_t> buffer) {
  DWATCH_SPAN("llrp.decode_report");
  const auto h = peek_header(buffer);
  if (!h) throw DecodeError("llrp: truncated header");
  check_type(*h, MessageType::kRoAccessReport, buffer.size());
  RoAccessReport msg;
  msg.message_id = h->message_id;
  const auto body = buffer.subspan(kHeaderBytes);
  msg.observations.reserve(count_params(body, ParameterType::kTagReportData));
  ByteReader r(body);
  while (!r.done()) {
    const ParamView p = read_param(r);
    if (p.type == ParameterType::kTagReportData) {
      msg.observations.push_back(decode_tag_report_data(p.body));
    }
  }
  return msg;
}

Keepalive decode_keepalive(std::span<const std::uint8_t> buffer) {
  const auto h = peek_header(buffer);
  if (!h) throw DecodeError("llrp: truncated header");
  check_type(*h, MessageType::kKeepalive, buffer.size());
  return Keepalive{h->message_id};
}

ReaderEventNotification decode_reader_event_notification(
    std::span<const std::uint8_t> buffer) {
  const auto h = peek_header(buffer);
  if (!h) throw DecodeError("llrp: truncated header");
  check_type(*h, MessageType::kReaderEventNotification, buffer.size());
  ReaderEventNotification msg;
  msg.message_id = h->message_id;
  ByteReader r(buffer.subspan(kHeaderBytes));
  msg.timestamp_us = r.u64();
  msg.event_code = r.u16();
  return msg;
}

void LlrpStreamDecoder::feed(std::span<const std::uint8_t> bytes) {
  // Compact the consumed prefix once per feed, not once per frame.
  if (head_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::span<const std::uint8_t> LlrpStreamDecoder::pending() const noexcept {
  return std::span<const std::uint8_t>(buffer_).subspan(head_);
}

void LlrpStreamDecoder::consume(std::size_t n) noexcept {
  head_ += n;
  if (head_ == buffer_.size()) {
    buffer_.clear();
    head_ = 0;
  }
}

std::optional<RoAccessReport> LlrpStreamDecoder::next_report() {
  while (true) {
    const auto h = peek_header(pending());
    if (!h || buffered_bytes() < h->length) return std::nullopt;
    const auto frame = pending().first(h->length);
    std::optional<RoAccessReport> out;
    switch (h->type) {
      case MessageType::kRoAccessReport:
        out = decode_ro_access_report(frame);
        break;
      case MessageType::kKeepalive:
        ++keepalives_;
        break;
      case MessageType::kReaderEventNotification:
        ++events_;
        break;
    }
    consume(h->length);
    if (out) return out;
    if (buffered_bytes() == 0) return std::nullopt;
  }
}

std::optional<RoAccessReport> LlrpStreamDecoder::next_report_tolerant() {
  // Largest frame a reader could plausibly emit. A misaligned stream can
  // read a stale length field as gigabytes; without this bound the
  // decoder would wait forever for a tail that never arrives instead of
  // quarantining and resynchronizing.
  constexpr std::uint32_t kMaxFrameBytes = 1 << 20;
  while (true) {
    try {
      const auto h = peek_header(pending());  // throws on a bad version
      if (h) {
        const bool known_type = h->type == MessageType::kRoAccessReport ||
                                h->type == MessageType::kKeepalive ||
                                h->type == MessageType::kReaderEventNotification;
        if (!known_type || h->length > kMaxFrameBytes) {
          throw DecodeError("llrp: implausible frame header");
        }
      }
      return next_report();
    } catch (const DecodeError&) {
      // The frame at the head of the buffer is corrupt (truncated, or
      // its declared length swallowed the start of the next message).
      // Quarantine it: skip one byte, then scan forward to the next
      // plausible header and try again.
      ++quarantined_;
      if (buffered_bytes() > 0) consume(1);
      resync();
      if (buffered_bytes() == 0) return std::nullopt;
    }
  }
}

void LlrpStreamDecoder::resync() {
  const std::span<const std::uint8_t> bytes = pending();
  for (std::size_t at = 0; bytes.size() - at >= 2; ++at) {
    const auto first = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(bytes[at]) << 8) | bytes[at + 1]);
    const std::uint8_t version = (first >> 10) & 0x7;
    const std::uint16_t type = first & 0x3FF;
    const bool known_type =
        type == static_cast<std::uint16_t>(MessageType::kRoAccessReport) ||
        type == static_cast<std::uint16_t>(MessageType::kKeepalive) ||
        type == static_cast<std::uint16_t>(
                    MessageType::kReaderEventNotification);
    if (version == kLlrpVersion && known_type) {
      consume(at);
      return;
    }
  }
  consume(bytes.size());
}

void LlrpStreamDecoder::flush_incomplete() {
  if (buffered_bytes() == 0) return;
  // The frame at the head is dead — the caller knows its tail will
  // never arrive. A misaligned head can masquerade as a plausible
  // header whose bogus length swallows real messages behind it, so do
  // not just clear: drop the head and salvage the next COMPLETE frame
  // if the remaining bytes hold one. Heads that stay incomplete under
  // the no-more-bytes assumption are dead too, and so are heads whose
  // length field is shorter than a header.
  ++quarantined_;
  while (buffered_bytes() > 0) {
    consume(1);
    resync();  // leaves an empty buffer or a plausible 2-byte header
    if (buffered_bytes() == 0) return;
    std::optional<MessageHeader> h;
    try {
      h = peek_header(pending());
    } catch (const DecodeError&) {
      continue;  // resync() vetted the version: the length is too short
    }
    if (!h) {
      // Fewer than header-size bytes: can never complete. Discard.
      consume(buffered_bytes());
      return;
    }
    if (buffered_bytes() >= h->length) return;  // complete frame salvaged
  }
}

}  // namespace dwatch::rfid
