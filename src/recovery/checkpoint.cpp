#include "recovery/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <utility>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "rfid/crc16.hpp"

namespace dwatch::recovery {

namespace {

// ---------------------------------------------------------------------
// Wire primitives. Everything is little-endian except the section CRC,
// which is appended big-endian so rfid::crc16_gen2_check() validates a
// whole section slice directly (Gen2 convention).
// ---------------------------------------------------------------------

constexpr std::uint8_t kMagic[4] = {'D', 'W', 'C', 'P'};
constexpr std::uint16_t kEndSection = 0xFFFF;

enum SectionId : std::uint16_t {
  kSectionPipeline = 1,
  kSectionTrackers = 2,
  kSectionQuarantine = 3,
  kSectionRecovery = 4,
};

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked sequential reader over one section's payload. Any
/// overrun latches `ok = false`; values read after that are zeros.
struct Reader {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;
  bool ok = true;

  std::uint8_t u8() {
    if (pos + 1 > data.size()) {
      ok = false;
      return 0;
    }
    return data[pos++];
  }
  std::uint32_t u32() {
    if (pos + 4 > data.size()) {
      ok = false;
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data[pos + i]) << (8 * i);
    }
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (pos + 8 > data.size()) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
    }
    pos += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] bool done() const { return ok && pos == data.size(); }
};

// ---------------------------------------------------------------------
// Section payload encoders.
// ---------------------------------------------------------------------

void encode_pipeline(std::vector<std::uint8_t>& p,
                     const core::PipelineState& s) {
  put_u64(p, s.watermark_us);
  put_u32(p, static_cast<std::uint32_t>(s.calibration.size()));
  for (std::size_t a = 0; a < s.calibration.size(); ++a) {
    const auto& cal = s.calibration[a];
    p.push_back(cal.has_value() ? 1 : 0);
    if (cal.has_value()) {
      put_u32(p, static_cast<std::uint32_t>(cal->size()));
      for (const double v : *cal) put_f64(p, v);
    }
    const auto& refs = s.baselines[a];
    put_u32(p, static_cast<std::uint32_t>(refs.size()));
    for (const auto& [epc, spectrum] : refs) {
      for (const std::uint8_t b : epc.bytes()) p.push_back(b);
      put_u32(p, static_cast<std::uint32_t>(spectrum.size()));
      for (const double v : spectrum.values()) put_f64(p, v);
    }
    p.push_back(s.excluded[a]);
  }
  const core::PipelineStats& st = s.stats;
  for (const std::size_t v :
       {st.baselines, st.epochs, st.observations, st.observations_skipped,
        st.drops_detected, st.stale_observations,
        st.low_snapshot_observations, st.malformed_observations,
        st.reports_dropped, st.transport_retries, st.transport_timeouts}) {
    put_u64(p, v);
  }
}

void encode_axis(std::vector<std::uint8_t>& p, const core::KalmanAxis& a) {
  put_f64(p, a.pos);
  put_f64(p, a.vel);
  put_f64(p, a.p_pp);
  put_f64(p, a.p_pv);
  put_f64(p, a.p_vv);
}

void encode_trackers(std::vector<std::uint8_t>& p, const Snapshot& snap) {
  p.push_back(snap.kalman.has_value() ? 1 : 0);
  if (snap.kalman) {
    encode_axis(p, snap.kalman->x);
    encode_axis(p, snap.kalman->y);
    p.push_back(snap.kalman->initialized ? 1 : 0);
    put_u64(p, snap.kalman->misses);
  }
  p.push_back(snap.alpha_beta.has_value() ? 1 : 0);
  if (snap.alpha_beta) {
    put_f64(p, snap.alpha_beta->position.x);
    put_f64(p, snap.alpha_beta->position.y);
    put_f64(p, snap.alpha_beta->velocity.x);
    put_f64(p, snap.alpha_beta->velocity.y);
    p.push_back(snap.alpha_beta->initialized ? 1 : 0);
    put_u64(p, snap.alpha_beta->misses);
  }
}

void encode_quarantine(std::vector<std::uint8_t>& p,
                       const std::vector<rfid::QuarantineEntry>& entries) {
  put_u32(p, static_cast<std::uint32_t>(entries.size()));
  for (const rfid::QuarantineEntry& e : entries) {
    for (const std::uint8_t b : e.epc.bytes()) p.push_back(b);
    put_u32(p, static_cast<std::uint32_t>(e.fingerprints.size()));
    for (const std::uint64_t f : e.fingerprints) put_u64(p, f);
  }
}

void encode_recovery(std::vector<std::uint8_t>& p, const Snapshot& snap) {
  put_u64(p, snap.epoch);
  const RecoveryStats& st = snap.stats;
  for (const std::uint64_t v :
       {st.checkpoints_written, st.checkpoint_crashes, st.restores,
        st.recalibrations_triggered, st.recalibrations_accepted,
        st.recalibrations_rolled_back, st.baselines_invalidated,
        st.drift_epochs, st.epochs_aborted}) {
    put_u64(p, v);
  }
}

/// Frame one section: [id u16][len u32][payload][crc16 over all of the
/// preceding, big-endian] — the Gen2 check convention.
void append_section(std::vector<std::uint8_t>& out, std::uint16_t id,
                    const std::vector<std::uint8_t>& payload) {
  const std::size_t start = out.size();
  put_u16(out, id);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint16_t crc = rfid::crc16_gen2(
      std::span<const std::uint8_t>(out.data() + start, out.size() - start));
  out.push_back(static_cast<std::uint8_t>(crc >> 8));
  out.push_back(static_cast<std::uint8_t>(crc & 0xFF));
}

// ---------------------------------------------------------------------
// Section payload decoders. Return false on inconsistency (the section
// CRC already passed, so false means kMalformed, not corruption).
// ---------------------------------------------------------------------

bool read_epc(Reader& r, rfid::Epc96& out) {
  std::array<std::uint8_t, rfid::Epc96::kBytes> bytes{};
  for (std::uint8_t& b : bytes) b = r.u8();
  if (!r.ok) return false;
  out = rfid::Epc96(bytes);
  return true;
}

bool decode_pipeline(Reader& r, core::PipelineState& s) {
  s.watermark_us = r.u64();
  const std::uint32_t num_arrays = r.u32();
  if (!r.ok || num_arrays > 4096) return false;
  s.calibration.resize(num_arrays);
  s.baselines.resize(num_arrays);
  s.excluded.resize(num_arrays);
  for (std::uint32_t a = 0; a < num_arrays; ++a) {
    if (r.u8() != 0) {
      const std::uint32_t m = r.u32();
      if (!r.ok || m == 0 || m > 4096) return false;
      std::vector<double> offsets(m);
      for (double& v : offsets) v = r.f64();
      s.calibration[a] = std::move(offsets);
    }
    const std::uint32_t num_refs = r.u32();
    if (!r.ok) return false;
    for (std::uint32_t i = 0; i < num_refs; ++i) {
      rfid::Epc96 epc;
      if (!read_epc(r, epc)) return false;
      const std::uint32_t n = r.u32();
      if (!r.ok || n < 2 || n > 1u << 20) return false;
      std::vector<double> values(n);
      for (double& v : values) v = r.f64();
      if (!r.ok) return false;
      s.baselines[a].insert_or_assign(epc,
                                      core::AngularSpectrum(std::move(values)));
    }
    s.excluded[a] = r.u8();
    if (!r.ok || s.excluded[a] > 1) return false;
  }
  core::PipelineStats& st = s.stats;
  for (std::size_t* v :
       {&st.baselines, &st.epochs, &st.observations, &st.observations_skipped,
        &st.drops_detected, &st.stale_observations,
        &st.low_snapshot_observations, &st.malformed_observations,
        &st.reports_dropped, &st.transport_retries, &st.transport_timeouts}) {
    *v = static_cast<std::size_t>(r.u64());
  }
  return r.done();
}

void decode_axis(Reader& r, core::KalmanAxis& a) {
  a.pos = r.f64();
  a.vel = r.f64();
  a.p_pp = r.f64();
  a.p_pv = r.f64();
  a.p_vv = r.f64();
}

bool decode_trackers(Reader& r, Snapshot& snap) {
  const std::uint8_t has_kalman = r.u8();
  if (has_kalman > 1) return false;
  if (has_kalman != 0) {
    core::KalmanState k;
    decode_axis(r, k.x);
    decode_axis(r, k.y);
    const std::uint8_t init = r.u8();
    if (init > 1) return false;
    k.initialized = init != 0;
    k.misses = static_cast<std::size_t>(r.u64());
    snap.kalman = k;
  }
  const std::uint8_t has_ab = r.u8();
  if (has_ab > 1) return false;
  if (has_ab != 0) {
    core::AlphaBetaState ab;
    ab.position.x = r.f64();
    ab.position.y = r.f64();
    ab.velocity.x = r.f64();
    ab.velocity.y = r.f64();
    const std::uint8_t init = r.u8();
    if (init > 1) return false;
    ab.initialized = init != 0;
    ab.misses = static_cast<std::size_t>(r.u64());
    snap.alpha_beta = ab;
  }
  return r.done();
}

bool decode_quarantine(Reader& r, std::vector<rfid::QuarantineEntry>& out) {
  const std::uint32_t num = r.u32();
  if (!r.ok) return false;
  for (std::uint32_t i = 0; i < num; ++i) {
    rfid::QuarantineEntry e;
    if (!read_epc(r, e.epc)) return false;
    const std::uint32_t n = r.u32();
    if (!r.ok) return false;
    e.fingerprints.resize(n);
    for (std::uint64_t& f : e.fingerprints) f = r.u64();
    if (!r.ok) return false;
    out.push_back(std::move(e));
  }
  return r.done();
}

bool decode_recovery(Reader& r, Snapshot& snap) {
  snap.epoch = r.u64();
  RecoveryStats& st = snap.stats;
  for (std::uint64_t* v :
       {&st.checkpoints_written, &st.checkpoint_crashes, &st.restores,
        &st.recalibrations_triggered, &st.recalibrations_accepted,
        &st.recalibrations_rolled_back, &st.baselines_invalidated,
        &st.drift_epochs, &st.epochs_aborted}) {
    *v = r.u64();
  }
  return r.done();
}

}  // namespace

std::string_view to_string(RestoreError error) noexcept {
  switch (error) {
    case RestoreError::kNone:
      return "none";
    case RestoreError::kMissing:
      return "missing";
    case RestoreError::kBadMagic:
      return "bad_magic";
    case RestoreError::kBadVersion:
      return "bad_version";
    case RestoreError::kTruncated:
      return "truncated";
    case RestoreError::kBadCrc:
      return "bad_crc";
    case RestoreError::kMalformed:
      return "malformed";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_snapshot(const Snapshot& snap) {
  std::vector<std::uint8_t> out(std::begin(kMagic), std::end(kMagic));
  put_u16(out, kCheckpointVersion);
  put_u16(out, 0);  // flags, reserved

  std::vector<std::uint8_t> payload;
  encode_pipeline(payload, snap.pipeline);
  append_section(out, kSectionPipeline, payload);

  payload.clear();
  encode_trackers(payload, snap);
  append_section(out, kSectionTrackers, payload);

  payload.clear();
  encode_quarantine(payload, snap.quarantine);
  append_section(out, kSectionQuarantine, payload);

  payload.clear();
  encode_recovery(payload, snap);
  append_section(out, kSectionRecovery, payload);

  // End marker: proves the image was written to completion. A snapshot
  // cut anywhere before this line decodes as kTruncated.
  append_section(out, kEndSection, {});
  return out;
}

RestoreError decode_snapshot(std::span<const std::uint8_t> bytes,
                             Snapshot& out) {
  if (bytes.size() < 8) return RestoreError::kTruncated;
  for (std::size_t i = 0; i < 4; ++i) {
    if (bytes[i] != kMagic[i]) return RestoreError::kBadMagic;
  }
  const std::uint16_t version =
      static_cast<std::uint16_t>(bytes[4] | (bytes[5] << 8));
  if (version != kCheckpointVersion) return RestoreError::kBadVersion;
  const std::uint16_t flags =
      static_cast<std::uint16_t>(bytes[6] | (bytes[7] << 8));
  // The header carries no CRC of its own, so strictness here is what
  // catches corruption in it: v1 defines no flags, any set bit is rot.
  if (flags != 0) return RestoreError::kMalformed;

  Snapshot snap;
  bool seen[5] = {};  // indexed by SectionId; [0] unused
  bool end_seen = false;
  std::size_t pos = 8;
  while (pos < bytes.size()) {
    if (end_seen) return RestoreError::kMalformed;  // trailing junk
    if (bytes.size() - pos < 8) return RestoreError::kTruncated;
    const std::uint16_t id =
        static_cast<std::uint16_t>(bytes[pos] | (bytes[pos + 1] << 8));
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(bytes[pos + 2 + i]) << (8 * i);
    }
    const std::size_t section_size = 2 + 4 + static_cast<std::size_t>(len) + 2;
    if (bytes.size() - pos < section_size) return RestoreError::kTruncated;
    const auto section = bytes.subspan(pos, section_size);
    if (!rfid::crc16_gen2_check(section)) return RestoreError::kBadCrc;
    Reader r{section.subspan(6, len)};
    switch (id) {
      case kSectionPipeline:
        if (seen[kSectionPipeline] || !decode_pipeline(r, snap.pipeline)) {
          return RestoreError::kMalformed;
        }
        seen[kSectionPipeline] = true;
        break;
      case kSectionTrackers:
        if (seen[kSectionTrackers] || !decode_trackers(r, snap)) {
          return RestoreError::kMalformed;
        }
        seen[kSectionTrackers] = true;
        break;
      case kSectionQuarantine:
        if (seen[kSectionQuarantine] ||
            !decode_quarantine(r, snap.quarantine)) {
          return RestoreError::kMalformed;
        }
        seen[kSectionQuarantine] = true;
        break;
      case kSectionRecovery:
        if (seen[kSectionRecovery] || !decode_recovery(r, snap)) {
          return RestoreError::kMalformed;
        }
        seen[kSectionRecovery] = true;
        break;
      case kEndSection:
        if (len != 0) return RestoreError::kMalformed;
        end_seen = true;
        break;
      default:
        // v1 is a closed format: an id we don't know means the image
        // was not written by this codec (CRC collisions aside).
        return RestoreError::kMalformed;
    }
    pos += section_size;
  }
  if (!end_seen) return RestoreError::kTruncated;
  for (const int id : {kSectionPipeline, kSectionTrackers, kSectionQuarantine,
                       kSectionRecovery}) {
    if (!seen[id]) return RestoreError::kMalformed;
  }
  out = std::move(snap);
  return RestoreError::kNone;
}

bool CheckpointStore::write(const Snapshot& snap, const CrashFilter& crash) {
  const std::vector<std::uint8_t> image = encode_snapshot(snap);
  std::size_t bytes_to_disk = image.size();
  bool crashed = false;
  if (crash) {
    if (const auto survived = crash(image.size())) {
      bytes_to_disk = std::min(*survived, image.size());
      crashed = true;
    }
  }
  const std::string tmp = path_ + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written =
      bytes_to_disk == 0
          ? 0
          : std::fwrite(image.data(), 1, bytes_to_disk, f);
  const bool flushed = std::fclose(f) == 0 && written == bytes_to_disk;
  if (crashed || !flushed) {
    // Process "died" mid-write (or the filesystem failed us): the temp
    // wreckage stays behind exactly as a real crash would leave it, and
    // the previous committed snapshot at path_ is untouched.
    if (obs::enabled()) {
      obs::EventLog::global().emit(obs::Event("recovery.checkpoint_crashed")
                                       .field("bytes", bytes_to_disk)
                                       .field("of", image.size()));
    }
    return false;
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) return false;
  if (obs::enabled()) {
    obs::MetricsRegistry::global()
        .counter("dwatch_recovery_checkpoints_written_total")
        .inc();
    obs::EventLog::global().emit(obs::Event("recovery.checkpoint_written")
                                     .field("bytes", image.size())
                                     .field("epoch", snap.epoch));
  }
  return true;
}

RestoreError CheckpointStore::load(Snapshot& out) const {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return RestoreError::kMissing;
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  const RestoreError err = decode_snapshot(bytes, out);
  if (obs::enabled()) {
    if (err == RestoreError::kNone) {
      obs::MetricsRegistry::global()
          .counter("dwatch_recovery_checkpoint_restores_total")
          .inc();
      obs::EventLog::global().emit(obs::Event("recovery.checkpoint_restored")
                                       .field("bytes", bytes.size())
                                       .field("epoch", out.epoch));
    } else {
      obs::EventLog::global().emit(
          obs::Event("recovery.checkpoint_rejected")
              .field("reason", to_string(err))
              .field("bytes", bytes.size()));
    }
  }
  return err;
}

}  // namespace dwatch::recovery
