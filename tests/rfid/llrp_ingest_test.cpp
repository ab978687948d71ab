// Oracles for the flat ingest path:
//
//  * the dequantization tables: every phase code and every RSSI code
//    (INT16_MIN included) dequantizes bit-equal to the direct
//    std::polar(dequantize_rssi, dequantize_phase) expression;
//  * the sized decode: decoded vectors are reserved exactly
//    (capacity() == size()) and still round-trip;
//  * the offset-based stream decoder against a frozen copy of the
//    erase-from-the-front decoder it replaced, on seeded corrupt,
//    randomly chunked streams: same reports, counters, buffered bytes
//    and exceptions.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "rfid/llrp.hpp"

namespace dwatch::rfid {
namespace {

bool same_bits(linalg::Complex a, linalg::Complex b) {
  return std::memcmp(&a, &b, sizeof(linalg::Complex)) == 0;
}

/// The definition the tables must reproduce.
linalg::Complex direct(std::uint16_t phase_q, std::int16_t rssi_q) {
  return std::polar(dequantize_rssi(rssi_q), dequantize_phase(phase_q));
}

constexpr std::int16_t kRssiMin = std::numeric_limits<std::int16_t>::min();
constexpr std::int16_t kRssiMax = std::numeric_limits<std::int16_t>::max();

// ------------------------------------------------- dequantization tables

TEST(DequantizeTable, EveryPhaseCodeMatchesPolar) {
  for (const std::int16_t rssi : {std::int16_t{-4000}, std::int16_t{0},
                                  kRssiMin, kRssiMax, std::int16_t{-32767}}) {
    std::size_t mismatches = 0;
    for (std::uint32_t q = 0; q <= 0xFFFF; ++q) {
      const auto phase = static_cast<std::uint16_t>(q);
      if (!same_bits(dequantize_sample(phase, rssi), direct(phase, rssi))) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "rssi " << rssi;
  }
}

TEST(DequantizeTable, EveryRssiCodeMatchesPolar) {
  for (const std::uint16_t phase :
       {std::uint16_t{0}, std::uint16_t{1}, std::uint16_t{16384},
        std::uint16_t{40000}, std::uint16_t{65535}}) {
    std::size_t mismatches = 0;
    for (std::int32_t c = kRssiMin; c <= kRssiMax; ++c) {
      const auto rssi = static_cast<std::int16_t>(c);
      if (!same_bits(dequantize_sample(phase, rssi), direct(phase, rssi))) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "phase " << phase;
  }
}

TEST(DequantizeTable, SeededPairsMatchPolar) {
  std::mt19937_64 rng(26);
  std::uniform_int_distribution<std::uint32_t> code(0, 0xFFFF);
  for (int i = 0; i < 200000; ++i) {
    const auto phase = static_cast<std::uint16_t>(code(rng));
    const auto rssi = static_cast<std::int16_t>(
        static_cast<std::int32_t>(code(rng)) + kRssiMin);
    ASSERT_TRUE(same_bits(dequantize_sample(phase, rssi), direct(phase, rssi)))
        << "phase " << phase << " rssi " << rssi;
    const PhaseSample s{1, 0, phase, rssi};
    ASSERT_TRUE(same_bits(s.as_complex(), direct(phase, rssi)));
  }
}

// ---------------------------------------------------------- sized decode

TagObservation random_observation(std::mt19937_64& rng,
                                   std::size_t max_samples) {
  TagObservation obs;
  obs.epc = Epc96::for_tag_index(static_cast<std::uint32_t>(rng()));
  obs.antenna_port = static_cast<std::uint16_t>(1 + rng() % 4);
  obs.first_seen_us = rng() % 1000000007ULL;
  const std::size_t n = rng() % (max_samples + 1);
  for (std::size_t i = 0; i < n; ++i) {
    obs.samples.push_back(PhaseSample{
        static_cast<std::uint16_t>(1 + rng() % 16),
        static_cast<std::uint32_t>(rng() % 64),
        static_cast<std::uint16_t>(rng()),
        static_cast<std::int16_t>(static_cast<std::uint16_t>(rng())),
    });
  }
  return obs;
}

RoAccessReport random_report(std::mt19937_64& rng, std::size_t max_obs,
                             std::size_t max_samples) {
  RoAccessReport msg;
  msg.message_id = static_cast<std::uint32_t>(rng());
  const std::size_t n = rng() % (max_obs + 1);
  for (std::size_t i = 0; i < n; ++i) {
    msg.observations.push_back(random_observation(rng, max_samples));
  }
  return msg;
}

bool same_sample(const PhaseSample& a, const PhaseSample& b) {
  return a.element_id == b.element_id && a.round == b.round &&
         a.phase_q == b.phase_q && a.rssi_q == b.rssi_q;
}

bool same_report(const RoAccessReport& a, const RoAccessReport& b) {
  if (a.message_id != b.message_id ||
      a.observations.size() != b.observations.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.observations.size(); ++i) {
    const TagObservation& x = a.observations[i];
    const TagObservation& y = b.observations[i];
    if (!(x.epc == y.epc) || x.antenna_port != y.antenna_port ||
        x.first_seen_us != y.first_seen_us ||
        x.samples.size() != y.samples.size()) {
      return false;
    }
    for (std::size_t s = 0; s < x.samples.size(); ++s) {
      if (!same_sample(x.samples[s], y.samples[s])) return false;
    }
  }
  return true;
}

TEST(DecodeSizing, VectorsAreReservedExactly) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const RoAccessReport msg = random_report(rng, 40, 300);
    const RoAccessReport decoded = decode_ro_access_report(encode(msg));
    ASSERT_TRUE(same_report(decoded, msg)) << "trial " << trial;
    EXPECT_EQ(decoded.observations.capacity(), decoded.observations.size());
    for (const TagObservation& obs : decoded.observations) {
      EXPECT_EQ(obs.samples.capacity(), obs.samples.size());
    }
  }
}

// ---------------------------------------------------- stream decoder

/// The stream decoder as it stood before the read offset: every
/// consumed byte is erased from the front of the buffer. Its
/// flush_incomplete() carries the later rule that a head whose length
/// field is shorter than a header is dead, so the oracle keeps checking
/// the offset bookkeeping alone.
class FrozenStreamDecoder {
 public:
  void feed(std::span<const std::uint8_t> bytes) {
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  }

  std::optional<RoAccessReport> next_report() {
    while (true) {
      const auto h = peek_header(buffer_);
      if (!h || buffer_.size() < h->length) return std::nullopt;
      const std::span<const std::uint8_t> frame(buffer_.data(), h->length);
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
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(h->length));
      if (out) return out;
      if (buffer_.empty()) return std::nullopt;
    }
  }

  std::optional<RoAccessReport> next_report_tolerant() {
    constexpr std::uint32_t kMaxFrameBytes = 1 << 20;
    while (true) {
      try {
        const auto h = peek_header(buffer_);
        if (h) {
          const bool known_type =
              h->type == MessageType::kRoAccessReport ||
              h->type == MessageType::kKeepalive ||
              h->type == MessageType::kReaderEventNotification;
          if (!known_type || h->length > kMaxFrameBytes) {
            throw DecodeError("llrp: implausible frame header");
          }
        }
        return next_report();
      } catch (const DecodeError&) {
        ++quarantined_;
        if (!buffer_.empty()) buffer_.erase(buffer_.begin());
        resync();
        if (buffer_.empty()) return std::nullopt;
      }
    }
  }

  void flush_incomplete() {
    if (buffer_.empty()) return;
    ++quarantined_;
    while (!buffer_.empty()) {
      buffer_.erase(buffer_.begin());
      resync();
      if (buffer_.empty()) return;
      std::optional<MessageHeader> h;
      try {
        h = peek_header(buffer_);
      } catch (const DecodeError&) {
        continue;  // a length field shorter than a header: dead too
      }
      if (!h) {
        buffer_.clear();
        return;
      }
      if (buffer_.size() >= h->length) return;
    }
  }

  std::size_t keepalives_seen() const { return keepalives_; }
  std::size_t events_seen() const { return events_; }
  std::size_t frames_quarantined() const { return quarantined_; }
  std::size_t buffered_bytes() const { return buffer_.size(); }

 private:
  void resync() {
    while (buffer_.size() >= 2) {
      const auto first = static_cast<std::uint16_t>(
          (static_cast<std::uint16_t>(buffer_[0]) << 8) | buffer_[1]);
      const std::uint8_t version = (first >> 10) & 0x7;
      const std::uint16_t type = first & 0x3FF;
      const bool known_type =
          type == static_cast<std::uint16_t>(MessageType::kRoAccessReport) ||
          type == static_cast<std::uint16_t>(MessageType::kKeepalive) ||
          type == static_cast<std::uint16_t>(
                      MessageType::kReaderEventNotification);
      if (version == kLlrpVersion && known_type) return;
      buffer_.erase(buffer_.begin());
    }
    buffer_.clear();
  }

  std::vector<std::uint8_t> buffer_;
  std::size_t keepalives_ = 0;
  std::size_t events_ = 0;
  std::size_t quarantined_ = 0;
};

/// A seeded stream of reports, keepalives and event notifications with
/// corruption spliced in: random and 0xFF garbage runs, truncated
/// frames, frames missing their head, and flipped bytes (which can
/// forge headers with bogus lengths).
std::vector<std::uint8_t> corrupt_stream(std::uint64_t seed,
                                         std::size_t frames) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out;
  for (std::size_t f = 0; f < frames; ++f) {
    std::vector<std::uint8_t> frame;
    switch (rng() % 4) {
      case 0:
        frame = encode(Keepalive{static_cast<std::uint32_t>(rng())});
        break;
      case 1:
        frame = encode(ReaderEventNotification{
            static_cast<std::uint32_t>(rng()), rng(),
            static_cast<std::uint16_t>(rng() % 4)});
        break;
      default:
        frame = encode(random_report(rng, 4, 40));
        break;
    }
    switch (rng() % 8) {
      case 0:  // truncated: the tail never arrives
        frame.resize(rng() % frame.size());
        break;
      case 1:  // the head was lost
        frame.erase(frame.begin(),
                    frame.begin() +
                        static_cast<std::ptrdiff_t>(rng() % frame.size()));
        break;
      case 2:  // one flipped byte
        frame[rng() % frame.size()] ^=
            static_cast<std::uint8_t>(1 + rng() % 255);
        break;
      default:
        break;
    }
    if (rng() % 6 == 0) {
      const std::size_t n = 1 + rng() % 64;
      const bool ff = rng() % 2 == 0;
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(ff ? std::uint8_t{0xFF}
                         : static_cast<std::uint8_t>(rng()));
      }
    }
    out.insert(out.end(), frame.begin(), frame.end());
  }
  return out;
}

/// Drain both decoders in lockstep; every pop must agree, thrown or not.
template <typename Pop>
void drain_both(LlrpStreamDecoder& got, FrozenStreamDecoder& want, Pop pop,
                const std::string& where) {
  while (true) {
    std::optional<RoAccessReport> a;
    std::optional<RoAccessReport> b;
    std::string a_error;
    std::string b_error;
    try {
      a = pop(got);
    } catch (const DecodeError& e) {
      a_error = e.what();
    }
    try {
      b = pop(want);
    } catch (const DecodeError& e) {
      b_error = e.what();
    }
    ASSERT_EQ(a_error, b_error) << where;
    ASSERT_EQ(a.has_value(), b.has_value()) << where;
    if (a) ASSERT_TRUE(same_report(*a, *b)) << where;
    ASSERT_EQ(got.buffered_bytes(), want.buffered_bytes()) << where;
    if (!a || !a_error.empty()) return;
  }
}

/// flush_incomplete() on both; it quarantines and never throws.
void flush_both(LlrpStreamDecoder& got, FrozenStreamDecoder& want,
                const std::string& where) {
  got.flush_incomplete();
  want.flush_incomplete();
  ASSERT_EQ(got.buffered_bytes(), want.buffered_bytes()) << where;
}

void expect_same_counters(const LlrpStreamDecoder& got,
                          const FrozenStreamDecoder& want,
                          const std::string& where) {
  EXPECT_EQ(got.keepalives_seen(), want.keepalives_seen()) << where;
  EXPECT_EQ(got.events_seen(), want.events_seen()) << where;
  EXPECT_EQ(got.frames_quarantined(), want.frames_quarantined()) << where;
  EXPECT_EQ(got.buffered_bytes(), want.buffered_bytes()) << where;
}

TEST(StreamDecoderOracle, TolerantDrainMatchesTheFrozenDecoder) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::string where = "seed " + std::to_string(seed);
    const std::vector<std::uint8_t> stream = corrupt_stream(seed, 60);
    std::mt19937_64 rng(1000 + seed);
    LlrpStreamDecoder got;
    FrozenStreamDecoder want;
    const auto tolerant = [](auto& d) { return d.next_report_tolerant(); };
    for (std::size_t at = 0; at < stream.size();) {
      const std::size_t n = std::min<std::size_t>(
          stream.size() - at, 1 + rng() % 400);
      const auto chunk = std::span(stream).subspan(at, n);
      at += n;
      got.feed(chunk);
      want.feed(chunk);
      drain_both(got, want, tolerant, where);
      if (rng() % 5 == 0) flush_both(got, want, where);  // a read timeout
      if (::testing::Test::HasFatalFailure()) return;
    }
    // End of stream: alternate draining with flushing until empty.
    while (want.buffered_bytes() > 0) {
      flush_both(got, want, where);
      drain_both(got, want, tolerant, where);
      if (::testing::Test::HasFatalFailure()) return;
    }
    expect_same_counters(got, want, where);
  }
}

TEST(StreamDecoderOracle, StrictDrainMatchesTheFrozenDecoder) {
  // Clean streams decode alike; corrupt ones throw at the same frame
  // with the same message and leave the same bytes behind.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::string where = "seed " + std::to_string(seed);
    std::mt19937_64 rng(2000 + seed);
    std::vector<std::uint8_t> stream;
    for (int f = 0; f < 30; ++f) {
      const auto frame =
          rng() % 3 == 0 ? encode(Keepalive{static_cast<std::uint32_t>(f)})
                         : encode(random_report(rng, 3, 30));
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
    if (seed % 2 == 0) {
      stream = corrupt_stream(seed, 30);
    }
    LlrpStreamDecoder got;
    FrozenStreamDecoder want;
    const auto strict = [](auto& d) { return d.next_report(); };
    for (std::size_t at = 0; at < stream.size();) {
      const std::size_t n = std::min<std::size_t>(
          stream.size() - at, 1 + rng() % 300);
      const auto chunk = std::span(stream).subspan(at, n);
      at += n;
      got.feed(chunk);
      want.feed(chunk);
      drain_both(got, want, strict, where);
      if (::testing::Test::HasFatalFailure()) return;
    }
    expect_same_counters(got, want, where);
  }
}

TEST(LlrpStream, MegabyteOfJunkBeforeAFrameIsSkipped) {
  // 0xFF never reads as a plausible header (its version bits are 7), so
  // the whole megabyte is one quarantined run.
  RoAccessReport msg;
  msg.message_id = 77;
  const auto frame = encode(msg);
  const std::vector<std::uint8_t> junk(std::size_t{1} << 20, 0xFF);
  LlrpStreamDecoder decoder;
  decoder.feed(junk);
  decoder.feed(frame);
  const auto report = decoder.next_report_tolerant();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->message_id, 77u);
  EXPECT_EQ(decoder.frames_quarantined(), 1u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(LlrpStream, OneFeedOfManyFramesDrainsThemAll) {
  std::vector<std::uint8_t> stream;
  constexpr std::uint32_t kFrames = 16000;
  for (std::uint32_t f = 0; f < kFrames; ++f) {
    const auto frame = f % 2 == 0 ? encode(Keepalive{f})
                                  : encode(RoAccessReport{f, {}});
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  LlrpStreamDecoder decoder;
  decoder.feed(stream);
  std::uint32_t reports = 0;
  while (const auto report = decoder.next_report()) {
    EXPECT_EQ(report->message_id, 2 * reports + 1);
    ++reports;
  }
  EXPECT_EQ(reports, kFrames / 2);
  EXPECT_EQ(decoder.keepalives_seen(), kFrames / 2);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

}  // namespace
}  // namespace dwatch::rfid
