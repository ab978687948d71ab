// Tests for the LLRP-lite wire codec: quantization, framing, stream
// reassembly, and malformed-input rejection.
#include "rfid/llrp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "rf/constants.hpp"

namespace dwatch::rfid {
namespace {

TEST(Quantize, PhaseRoundTripResolution) {
  for (double phase = 0.0; phase < rf::kTwoPi; phase += 0.013) {
    const std::uint16_t q = quantize_phase(phase);
    EXPECT_NEAR(dequantize_phase(q), phase, rf::kTwoPi / 65536.0 + 1e-12);
  }
}

TEST(Quantize, PhaseWrapsNegative) {
  const std::uint16_t q = quantize_phase(-rf::kPi / 2);
  EXPECT_NEAR(dequantize_phase(q), 3.0 * rf::kPi / 2, 1e-3);
}

TEST(Quantize, RssiRoundTrip) {
  for (double amp : {1.0, 0.5, 1e-3, 1e-6, 42.0}) {
    const std::int16_t q = quantize_rssi(amp);
    EXPECT_NEAR(dequantize_rssi(q) / amp, 1.0, 1e-3);
  }
}

TEST(Quantize, ZeroAmplitudeSentinel) {
  EXPECT_EQ(dequantize_rssi(quantize_rssi(0.0)), 0.0);
  EXPECT_EQ(dequantize_rssi(quantize_rssi(-1.0)), 0.0);
}

class SampleQuantizeTest : public ::testing::TestWithParam<double> {};

TEST_P(SampleQuantizeTest, ComplexSampleRoundTrip) {
  const double angle = GetParam();
  const linalg::Complex x = std::polar(0.0123, angle);
  const auto [pq, rq] = quantize_sample(x);
  const linalg::Complex y = dequantize_sample(pq, rq);
  EXPECT_NEAR(std::abs(y - x) / std::abs(x), 0.0, 2e-3);
}

INSTANTIATE_TEST_SUITE_P(Angles, SampleQuantizeTest,
                         ::testing::Values(0.0, 0.5, 1.5, 3.1, -2.0, 6.2));

RoAccessReport sample_report() {
  RoAccessReport msg;
  msg.message_id = 1234;
  TagObservation obs;
  obs.epc = Epc96::for_tag_index(5);
  obs.antenna_port = 2;
  obs.first_seen_us = 999888777ULL;
  for (std::uint16_t e = 1; e <= 8; ++e) {
    for (std::uint32_t round = 0; round < 3; ++round) {
      obs.samples.push_back(PhaseSample{
          .element_id = e,
          .round = round,
          .phase_q = static_cast<std::uint16_t>(e * 1000 + round),
          .rssi_q = static_cast<std::int16_t>(-4000 - e),
      });
    }
  }
  msg.observations.push_back(obs);
  TagObservation obs2;
  obs2.epc = Epc96::for_tag_index(9);
  obs2.antenna_port = 1;
  msg.observations.push_back(obs2);
  return msg;
}

TEST(Llrp, ReportRoundTrip) {
  const RoAccessReport msg = sample_report();
  const auto bytes = encode(msg);
  const RoAccessReport decoded = decode_ro_access_report(bytes);
  EXPECT_EQ(decoded.message_id, 1234u);
  ASSERT_EQ(decoded.observations.size(), 2u);
  const TagObservation& obs = decoded.observations[0];
  EXPECT_EQ(obs.epc, Epc96::for_tag_index(5));
  EXPECT_EQ(obs.antenna_port, 2);
  EXPECT_EQ(obs.first_seen_us, 999888777ULL);
  ASSERT_EQ(obs.samples.size(), 24u);
  EXPECT_EQ(obs.samples[0].element_id, 1);
  EXPECT_EQ(obs.samples[23].phase_q, 8002);
  EXPECT_EQ(obs.samples[23].rssi_q, -4008);
  EXPECT_TRUE(decoded.observations[1].samples.empty());
}

TEST(Llrp, HeaderPeek) {
  const auto bytes = encode(Keepalive{77});
  const auto header = peek_header(bytes);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->type, MessageType::kKeepalive);
  EXPECT_EQ(header->message_id, 77u);
  EXPECT_EQ(header->length, bytes.size());
  // Too-short buffer: no header yet.
  EXPECT_FALSE(
      peek_header(std::span(bytes).subspan(0, 5)).has_value());
}

TEST(Llrp, HeaderRejectsBadVersion) {
  auto bytes = encode(Keepalive{1});
  bytes[0] = static_cast<std::uint8_t>(bytes[0] ^ 0x1C);  // clobber version
  EXPECT_THROW((void)peek_header(bytes), DecodeError);
}

TEST(Llrp, DecodeRejectsWrongType) {
  const auto bytes = encode(Keepalive{1});
  EXPECT_THROW((void)decode_ro_access_report(bytes), DecodeError);
}

TEST(Llrp, DecodeRejectsTruncation) {
  auto bytes = encode(sample_report());
  bytes.pop_back();
  EXPECT_THROW((void)decode_ro_access_report(bytes), DecodeError);
}

TEST(Llrp, EventNotificationRoundTrip) {
  ReaderEventNotification ev;
  ev.message_id = 42;
  ev.timestamp_us = 123456;
  ev.event_code = 0;
  const auto bytes = encode(ev);
  const auto decoded = decode_reader_event_notification(bytes);
  EXPECT_EQ(decoded.message_id, 42u);
  EXPECT_EQ(decoded.timestamp_us, 123456u);
}

TEST(LlrpStream, ReassemblesChunkedMessages) {
  const auto r1 = encode(sample_report());
  const auto ka = encode(Keepalive{5});
  const auto r2 = encode(sample_report());
  std::vector<std::uint8_t> stream;
  stream.insert(stream.end(), r1.begin(), r1.end());
  stream.insert(stream.end(), ka.begin(), ka.end());
  stream.insert(stream.end(), r2.begin(), r2.end());

  LlrpStreamDecoder decoder;
  std::size_t reports = 0;
  // Feed in awkward 7-byte chunks, as TCP might deliver.
  for (std::size_t pos = 0; pos < stream.size(); pos += 7) {
    const std::size_t n = std::min<std::size_t>(7, stream.size() - pos);
    decoder.feed(std::span(stream).subspan(pos, n));
    while (decoder.next_report()) ++reports;
  }
  EXPECT_EQ(reports, 2u);
  EXPECT_EQ(decoder.keepalives_seen(), 1u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(LlrpStream, PartialMessageStaysBuffered) {
  const auto r1 = encode(sample_report());
  LlrpStreamDecoder decoder;
  decoder.feed(std::span(r1).subspan(0, r1.size() - 3));
  EXPECT_FALSE(decoder.next_report().has_value());
  EXPECT_EQ(decoder.buffered_bytes(), r1.size() - 3);
  decoder.feed(std::span(r1).subspan(r1.size() - 3));
  EXPECT_TRUE(decoder.next_report().has_value());
}

TEST(Llrp, DecodeRejectsTruncationAtEveryPrefix) {
  // No prefix of a valid report may decode: shorter than the header it
  // is "truncated header", longer it is a length mismatch or a
  // mid-parameter cut. Every cut point must throw, never crash or
  // return a partial report.
  const auto bytes = encode(sample_report());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(
        (void)decode_ro_access_report(std::span(bytes).subspan(0, cut)),
        DecodeError)
        << "prefix of " << cut << " bytes";
  }
}

TEST(Llrp, TruncatedAuxMessagesThrow) {
  const auto ka = encode(Keepalive{3});
  EXPECT_THROW(
      (void)decode_keepalive(std::span(ka).subspan(0, ka.size() - 1)),
      DecodeError);
  ReaderEventNotification ev;
  ev.message_id = 4;
  const auto evb = encode(ev);
  EXPECT_THROW((void)decode_reader_event_notification(
                   std::span(evb).subspan(0, evb.size() - 2)),
               DecodeError);
}

TEST(LlrpStream, PartialFrameSwallowingTheNextThrows) {
  // A reader dies mid-frame and reconnects: the stream holds half a
  // report followed by a complete one. The strict decoder frames by the
  // stale length field, swallows the start of the next message, and
  // must throw rather than emit garbage.
  const auto r1 = encode(sample_report());
  const auto r2 = encode(sample_report());
  LlrpStreamDecoder decoder;
  decoder.feed(std::span(r1).subspan(0, r1.size() / 2));
  decoder.feed(r2);
  EXPECT_THROW((void)decoder.next_report(), DecodeError);
}

TEST(LlrpStream, TolerantDecoderResyncsAfterPartialFrame) {
  // Same stream as above, tolerant path: the corrupt frame is
  // quarantined, the decoder resynchronizes on the second report's
  // header, and delivery continues.
  RoAccessReport second = sample_report();
  second.message_id = 4321;
  const auto r1 = encode(sample_report());
  const auto r2 = encode(second);
  LlrpStreamDecoder decoder;
  decoder.feed(std::span(r1).subspan(0, r1.size() / 2));
  decoder.feed(r2);
  const auto report = decoder.next_report_tolerant();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->message_id, 4321u);
  EXPECT_GE(decoder.frames_quarantined(), 1u);
  EXPECT_FALSE(decoder.next_report_tolerant().has_value());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(LlrpStream, TolerantDecoderRecoversFromEveryCutPoint) {
  // Exhaustive: whatever prefix of the first report survives, exactly
  // the second report comes out the other side. Some cut points leave a
  // misaligned head whose bogus length field claims bytes that will
  // never arrive — only the end-of-stream flush can resolve those, so
  // the receive loop alternates draining with flushing, as a server
  // does at a read timeout.
  RoAccessReport second = sample_report();
  second.message_id = 99;
  const auto r1 = encode(sample_report());
  const auto r2 = encode(second);
  for (std::size_t cut = 1; cut < r1.size(); ++cut) {
    LlrpStreamDecoder decoder;
    decoder.feed(std::span(r1).subspan(0, cut));
    decoder.feed(r2);
    std::vector<RoAccessReport> out;
    while (true) {
      while (auto report = decoder.next_report_tolerant()) {
        out.push_back(std::move(*report));
      }
      if (decoder.buffered_bytes() == 0) break;
      decoder.flush_incomplete();
    }
    ASSERT_EQ(out.size(), 1u) << "cut at " << cut;
    const std::size_t missing = r1.size() - cut;
    if (missing >= 10) {  // at least a full header's worth of bytes lost
      EXPECT_EQ(out[0].message_id, 99u) << "cut at " << cut;
    } else {
      // Fewer than a header's worth of bytes vanished: the stale length
      // field frames a chimera of r1's prefix and r2's head. When the
      // splice lands inside opaque sample payload the chimera decodes
      // cleanly — a length-framed protocol without checksums cannot
      // tell (real LLRP leans on TCP for integrity). Either the second
      // report survives or the chimera is delivered in its place;
      // silence (no report at all) is the only wrong answer.
      EXPECT_TRUE(out[0].message_id == 99u || out[0].message_id == 1234u)
          << "cut at " << cut << " got id " << out[0].message_id;
    }
  }
}

TEST(LlrpStream, TolerantDecoderSkipsInterFrameGarbage) {
  const auto r1 = encode(sample_report());
  const std::vector<std::uint8_t> garbage(23, 0xFF);  // bad version bits
  LlrpStreamDecoder decoder;
  decoder.feed(garbage);
  decoder.feed(r1);
  const auto report = decoder.next_report_tolerant();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->message_id, 1234u);
  EXPECT_GE(decoder.frames_quarantined(), 1u);
}

TEST(LlrpStream, FlushIncompleteDiscardsAndCounts) {
  const auto r1 = encode(sample_report());
  LlrpStreamDecoder decoder;
  decoder.flush_incomplete();  // empty buffer: nothing to quarantine
  EXPECT_EQ(decoder.frames_quarantined(), 0u);
  decoder.feed(std::span(r1).subspan(0, r1.size() - 3));
  EXPECT_FALSE(decoder.next_report().has_value());
  decoder.flush_incomplete();
  EXPECT_EQ(decoder.frames_quarantined(), 1u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  // A fresh, complete frame still decodes afterwards.
  decoder.feed(r1);
  EXPECT_TRUE(decoder.next_report().has_value());
}

TEST(LlrpStream, FlushIncompleteSalvagesPastAShortLengthHead) {
  // A dead head (length 1000, tail never arrives), then a plausible
  // type word whose length field (4) is shorter than a header. Both are
  // quarantined; the drain/flush loop neither throws nor stalls, and a
  // complete report behind them is still salvaged.
  const std::vector<std::uint8_t> stream{
      0x08, 0x3E, 0x00, 0x00, 0x03, 0xE8, 0x00, 0x00, 0x00, 0x01,
      0x08, 0x3E, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x02};
  const auto drain = [](LlrpStreamDecoder& decoder) {
    std::vector<RoAccessReport> out;
    while (true) {
      while (auto report = decoder.next_report_tolerant()) {
        out.push_back(std::move(*report));
      }
      if (decoder.buffered_bytes() == 0) return out;
      decoder.flush_incomplete();
    }
  };

  LlrpStreamDecoder bare;
  bare.feed(stream);
  std::vector<RoAccessReport> out;
  ASSERT_NO_THROW(out = drain(bare));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(bare.frames_quarantined(), 1u);
  EXPECT_EQ(bare.buffered_bytes(), 0u);

  LlrpStreamDecoder with_report;
  with_report.feed(stream);
  with_report.feed(encode(sample_report()));
  ASSERT_NO_THROW(out = drain(with_report));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].message_id, 1234u);
  EXPECT_EQ(with_report.buffered_bytes(), 0u);
}

TEST(ByteReader, TruncationThrows) {
  const std::vector<std::uint8_t> buf{1, 2, 3};
  ByteReader r(buf);
  EXPECT_EQ(r.u16(), 0x0102);
  EXPECT_THROW((void)r.u16(), DecodeError);
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_THROW(r.skip(2), DecodeError);
}

TEST(ByteWriter, BigEndianLayoutAndPatch) {
  ByteWriter w;
  w.u32(0xA1B2C3D4);
  w.u64(0x1122334455667788ULL);
  EXPECT_EQ(w.data()[0], 0xA1);
  EXPECT_EQ(w.data()[3], 0xD4);
  EXPECT_EQ(w.data()[4], 0x11);
  EXPECT_EQ(w.data()[11], 0x88);
  w.patch_u32(0, 0xDEADBEEF);
  EXPECT_EQ(w.data()[0], 0xDE);
  EXPECT_THROW(w.patch_u32(9, 0), std::out_of_range);
  EXPECT_THROW(w.patch_u16(11, 0), std::out_of_range);
}

}  // namespace
}  // namespace dwatch::rfid
