// LLRP-lite: the wire protocol between readers and the localization
// server.
//
// The paper's server talks to the Impinj readers over the Low Level
// Reader Protocol (LLRP, EPCglobal) and consumes per-read phase/RSSI
// measurements from the reader's custom extensions. We reproduce that
// decoupling: the simulator produces TagObservation values, the reader
// side ENCODES them into big-endian LLRP-style RO_ACCESS_REPORT messages,
// and the server side DECODES bytes back before any algorithm runs — so
// the D-Watch pipeline genuinely operates on what crossed the wire
// (including phase/RSSI quantization).
//
// Deviations from full LLRP v1.1, documented here on purpose:
//  * all parameters are TLV-encoded (no TV shorthand);
//  * only the message/parameter types below are implemented;
//  * the Impinj-style phase report is folded into one custom parameter
//    carrying {element id, round, phase u16, rssi i16}.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "linalg/complex_matrix.hpp"
#include "rfid/bytes.hpp"
#include "rfid/epc.hpp"

namespace dwatch::rfid {

/// LLRP message types (subset; values follow LLRP v1.1 where they exist).
enum class MessageType : std::uint16_t {
  kRoAccessReport = 61,
  kKeepalive = 62,
  kReaderEventNotification = 63,
};

/// LLRP parameter types used inside RO_ACCESS_REPORT.
enum class ParameterType : std::uint16_t {
  kTagReportData = 240,
  kEpcData = 241,
  kAntennaId = 222,
  kFirstSeenTimestampUtc = 2,
  kCustomPhaseReport = 1023,  ///< Custom: per-element phase/RSSI sample
};

/// LLRP protocol version we emit (LLRP v1.1 wire value).
inline constexpr std::uint8_t kLlrpVersion = 2;

/// Phase quantization: u16 full-scale maps [0, 2*pi). Impinj readers
/// report 12-bit phase; we keep 16 bits and note the difference.
[[nodiscard]] std::uint16_t quantize_phase(double phase_rad) noexcept;
[[nodiscard]] double dequantize_phase(std::uint16_t q) noexcept;

/// RSSI quantization: signed centi-dB of amplitude^2 relative to unit
/// amplitude, i.e. round(100 * 20*log10(|x|)). Clamped to i16 range;
/// |x| = 0 encodes as INT16_MIN.
[[nodiscard]] std::int16_t quantize_rssi(double amplitude) noexcept;
[[nodiscard]] double dequantize_rssi(std::int16_t centi_db) noexcept;

/// Quantize a complex sample to (phase, rssi) and back — the round trip
/// the wire imposes on every measurement.
[[nodiscard]] std::pair<std::uint16_t, std::int16_t> quantize_sample(
    linalg::Complex x) noexcept;
[[nodiscard]] linalg::Complex dequantize_sample(std::uint16_t phase_q,
                                                std::int16_t rssi_q) noexcept;

/// One per-element measurement of one tag read.
struct PhaseSample {
  std::uint16_t element_id = 0;  ///< 1-based ULA element index
  std::uint32_t round = 0;       ///< inventory round (snapshot column)
  std::uint16_t phase_q = 0;
  std::int16_t rssi_q = 0;

  [[nodiscard]] linalg::Complex as_complex() const noexcept {
    return dequantize_sample(phase_q, rssi_q);
  }
};

/// A tag read whose samples live in storage owned elsewhere (a decoded
/// TagObservation, a serving epoch's sample arena).
struct ObservationView {
  Epc96 epc;
  std::uint16_t antenna_port = 1;
  std::uint64_t first_seen_us = 0;
  std::span<const PhaseSample> samples;
};

/// One TagReportData parameter: a tag read plus its per-element samples.
struct TagObservation {
  Epc96 epc;
  std::uint16_t antenna_port = 1;   ///< reader RF port the hub hangs off
  std::uint64_t first_seen_us = 0;  ///< reader clock
  std::vector<PhaseSample> samples;

  [[nodiscard]] ObservationView view() const noexcept {
    return {epc, antenna_port, first_seen_us, samples};
  }
};

/// A decoded LLRP message.
struct RoAccessReport {
  std::uint32_t message_id = 0;
  std::vector<TagObservation> observations;
};

struct Keepalive {
  std::uint32_t message_id = 0;
};

struct ReaderEventNotification {
  std::uint32_t message_id = 0;
  std::uint64_t timestamp_us = 0;
  std::uint16_t event_code = 0;  ///< 0 = connection attempt accepted
};

/// Encoders. Message length fields are back-patched; output is a complete
/// framed message ready for a TCP stream.
[[nodiscard]] std::vector<std::uint8_t> encode(const RoAccessReport& msg);
[[nodiscard]] std::vector<std::uint8_t> encode(const Keepalive& msg);
[[nodiscard]] std::vector<std::uint8_t> encode(
    const ReaderEventNotification& msg);

/// Peek at a buffer's message header. Returns nullopt if fewer than 10
/// bytes are available; throws DecodeError on a bad version.
struct MessageHeader {
  MessageType type;
  std::uint32_t length = 0;  ///< total message length incl. header
  std::uint32_t message_id = 0;
};
[[nodiscard]] std::optional<MessageHeader> peek_header(
    std::span<const std::uint8_t> buffer);

/// Decode one complete message of the corresponding type; throws
/// DecodeError on malformed input (wrong type/length/truncation).
[[nodiscard]] RoAccessReport decode_ro_access_report(
    std::span<const std::uint8_t> buffer);
[[nodiscard]] Keepalive decode_keepalive(std::span<const std::uint8_t> buffer);
[[nodiscard]] ReaderEventNotification decode_reader_event_notification(
    std::span<const std::uint8_t> buffer);

/// Incremental stream decoder: feed arbitrary byte chunks (as a TCP
/// receive loop would), pop complete RO_ACCESS_REPORTs. Non-report
/// messages are counted and skipped.
class LlrpStreamDecoder {
 public:
  /// Append received bytes.
  void feed(std::span<const std::uint8_t> bytes);

  /// Pop the next complete report, if any. Throws DecodeError on corrupt
  /// framing (the connection would be torn down in a real deployment).
  [[nodiscard]] std::optional<RoAccessReport> next_report();

  /// Quarantining variant: corrupt framing (truncated frames, garbage
  /// between messages) is counted and skipped instead of thrown — the
  /// decoder resynchronizes on the next plausible message header and
  /// keeps going, as a production server must when a reader misbehaves.
  [[nodiscard]] std::optional<RoAccessReport> next_report_tolerant();

  /// Discard the dead frame at the head of the buffer (a truncated or
  /// misframed message whose tail will never arrive), salvaging any
  /// complete frame buffered behind it — pop that with next_report().
  /// Call at an epoch boundary / read timeout, alternating with the
  /// drain loop until buffered_bytes() reaches 0; counts into
  /// frames_quarantined().
  void flush_incomplete();

  [[nodiscard]] std::size_t keepalives_seen() const noexcept {
    return keepalives_;
  }
  [[nodiscard]] std::size_t events_seen() const noexcept { return events_; }
  [[nodiscard]] std::size_t frames_quarantined() const noexcept {
    return quarantined_;
  }
  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buffer_.size() - head_;
  }

 private:
  /// The received bytes not consumed yet.
  [[nodiscard]] std::span<const std::uint8_t> pending() const noexcept;
  /// Advance the read offset past n pending bytes.
  void consume(std::size_t n) noexcept;
  /// Drop bytes until the buffer starts at a plausible message header.
  void resync();

  /// Received bytes; those before head_ are consumed and are compacted
  /// away by the next feed().
  std::vector<std::uint8_t> buffer_;
  std::size_t head_ = 0;
  std::size_t keepalives_ = 0;
  std::size_t events_ = 0;
  std::size_t quarantined_ = 0;
};

}  // namespace dwatch::rfid
