// Workload inputs: everything the serving loop sends, generated from the
// workload seed before any clock starts.
//
// Generation covers scenario compile, sim capture and LLRP encoding. The
// program under test only ever sees the encoded bytes: the serving loop
// feeds them through an LlrpStreamDecoder per reader connection, and the
// service is built from a ZoneConfig plus its baseline bytes. Each zone
// replays a short rotation of pre-captured frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "rf/geometry.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace core = ::dwatch::core;
namespace rf = ::dwatch::rf;
namespace rfid = ::dwatch::rfid;
namespace serve = ::dwatch::serve;

enum class Kind : std::uint8_t { kRoomsBatch, kRoomsStreaming, kFleetOverload };

/// One workload's shape, as its "why" line in BENCHMARK.json states it,
/// plus the run's seed.
struct WorkloadParams {
  std::string name;
  Kind kind = Kind::kRoomsBatch;
  std::size_t zones = 0;
  double tick_ms = 0.0;
  std::size_t workers = 0;
  double rmse_ceiling_m = 0.0;
  std::uint64_t seed = 0;
};

/// The shape of workload `name`; throws on an unknown name.
[[nodiscard]] WorkloadParams workload_params(const std::string& name,
                                             std::uint64_t seed);

/// One reader's bytes for one frame.
struct Wire {
  std::size_t array = 0;
  std::vector<std::uint8_t> bytes;
};

/// One pre-captured epoch of one zone.
struct FrameInput {
  std::uint64_t watermark_us = 0;
  rf::Vec2 truth;
  std::vector<Wire> wires;  ///< in feed order
};

struct ZoneInput {
  serve::ZoneConfig config;         ///< copied into every set-up
  std::vector<Wire> baselines;      ///< empty-scene report per array
  std::vector<FrameInput> frames;   ///< the rotation
  /// Per-array anchor measurements; empty for zones that never carry
  /// calibration traffic.
  std::vector<std::vector<core::CalibrationMeasurement>> anchors;
};

struct Workload {
  WorkloadParams params;
  serve::ServiceOptions service;
  /// Attach a TelemetryPlane as the admission BudgetProvider.
  bool telemetry = false;
  /// Epochs offered per zone per tick (begin_epoch calls).
  std::size_t epochs_per_tick = 1;
  std::vector<ZoneInput> zones;
};

/// Reader identity of (zone, array) on the router.
[[nodiscard]] inline std::uint64_t reader_id(std::size_t zone,
                                             std::size_t array) {
  return 100 * (zone + 1) + array;
}

/// Frame offered to `zone` as epoch `e` of tick `tick`.
[[nodiscard]] std::size_t frame_index(const Workload& w, std::size_t zone,
                                      std::size_t tick, std::size_t e);

/// True when epoch `e` of `tick` carries anchors for `zone`.
[[nodiscard]] bool carries_anchors(const Workload& w, std::size_t zone,
                                   std::size_t tick, std::size_t e);

/// Generate every input of the workload from params.seed.
[[nodiscard]] Workload make_workload(const WorkloadParams& params);

/// The timed set-up: service construction, add_zone, reader binding and
/// baseline ingest (decode + add_baseline) for every zone.
[[nodiscard]] std::unique_ptr<serve::LocalizationService>
build_service(const Workload& w);

/// A standalone pipeline built exactly like zone `zone`'s, baselines
/// included (the serve determinism contract makes its fixes bit-identical
/// to the zone's when fed the same reports).
[[nodiscard]] std::unique_ptr<core::DWatchPipeline> build_pipeline(
    const Workload& w, std::size_t zone);

}  // namespace perfbench
