#include "workload.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "rf/noise.hpp"
#include "rf/path.hpp"
#include "rf/snapshot.hpp"
#include "rfid/llrp.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

namespace perfbench {

namespace scenario = ::dwatch::scenario;
namespace linalg = ::dwatch::linalg;

namespace {

/// Rooms shape: 16 zones over 3 pool workers, one epoch per zone every
/// tick, a tick long enough that the pool is about half busy.
constexpr std::size_t kRoomsZones = 16;
constexpr double kRoomsTickMs = 250.0;
constexpr double kRoomsRmseCeilingM = 0.45;
/// Fleet shape: 256 tiny zones, the same pool, a short tick.
constexpr std::size_t kFleetZones = 256;
constexpr double kFleetTickMs = 50.0;
constexpr double kFleetRmseCeilingM = 0.55;
/// Pool workers: with the generator thread, the 4 CPUs of the reference
/// host.
constexpr std::size_t kWorkers = 3;
/// Frames each rooms zone rotates through.
constexpr std::size_t kRoomsRotation = 16;
/// Frames each fleet zone rotates through.
constexpr std::size_t kFleetRotation = 8;
/// Fleet shape (bench_fleet): drain capacity per zone per tick equals
/// the queue cap, and twice that is offered.
constexpr std::size_t kFleetCapacityPerTick = 2;
constexpr std::size_t kFleetOffered = 2 * kFleetCapacityPerTick;

[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

[[nodiscard]] Wire encode_wire(std::size_t array,
                               const rfid::RoAccessReport& report) {
  return Wire{array, rfid::encode(report)};
}

// ---- rooms: the single-target, phase-path registry scenarios -----------

/// The registry cases a rooms zone may run: one target, phase path (no
/// RSS mode, no phase fault) and at least 10 tags.
[[nodiscard]] std::vector<const scenario::ScenarioSpec*> rooms_catalogue() {
  std::vector<const scenario::ScenarioSpec*> out;
  for (const scenario::ScenarioSpec& s : scenario::all_scenarios()) {
    const bool phase_path = !s.rss.force && s.rss.auto_health_threshold <= 0.0 &&
                            s.phase_fault == scenario::PhaseFault::kNone;
    if (s.targets.size() == 1 && phase_path && s.num_tags >= 10) {
      out.push_back(&s);
    }
  }
  return out;
}

/// One array-interleaved single-tag report per observation: the
/// streaming shape, in which evidence from every array arrives early.
[[nodiscard]] std::vector<Wire> split_interleaved(
    const std::vector<rfid::RoAccessReport>& reports,
    std::uint32_t& message_id) {
  std::size_t rounds = 0;
  for (const auto& r : reports) rounds = std::max(rounds, r.observations.size());
  std::vector<Wire> wires;
  for (std::size_t i = 0; i < rounds; ++i) {
    for (std::size_t a = 0; a < reports.size(); ++a) {
      if (i >= reports[a].observations.size()) continue;
      rfid::RoAccessReport single;
      single.message_id = ++message_id;
      single.observations.push_back(reports[a].observations[i]);
      wires.push_back(encode_wire(a, single));
    }
  }
  return wires;
}

ZoneInput make_room_zone(const WorkloadParams& p, std::size_t zone,
                         const scenario::ScenarioSpec& base) {
  // The deployment (tags, reader phase offsets, the empty-room baseline
  // survey) stays the registry case's own, a geometry the compliance
  // suite vouches for; the workload seed re-seeds the online captures.
  const scenario::ScenarioSpec& spec = base;
  const scenario::CompiledScenario compiled = scenario::compile(spec);
  const dwatch::sim::Scene& scene = compiled.scene;
  rf::Rng baseline_rng(spec.seed * 7919u + 17);
  rf::Rng capture_rng(mix(p.seed, zone));

  ZoneInput in;
  serve::ZoneConfig& zc = in.config;
  zc.name = "zone" + std::to_string(zone);
  zc.arrays = scene.deployment().arrays;
  zc.bounds = core::SearchBounds{
      {0.0, 0.0},
      {scene.deployment().env.width, scene.deployment().env.depth}};
  zc.pipeline.localizer.grid_step =
      spec.room == scenario::RoomPreset::kTable ? 0.02 : 0.05;
  zc.pipeline.streaming.enabled = p.kind == Kind::kRoomsStreaming;
  zc.pipeline.streaming.early_seal = p.kind == Kind::kRoomsStreaming;
  for (std::size_t a = 0; a < scene.num_arrays(); ++a) {
    zc.calibration.push_back(scene.reader(a).phase_offsets());
  }
  zc.best_effort = true;

  for (std::size_t a = 0; a < scene.num_arrays(); ++a) {
    in.baselines.push_back(encode_wire(
        a, scene.capture_report(a, {}, baseline_rng,
                                static_cast<std::uint32_t>(a + 1))));
  }

  // Evenly spaced frames so a walk's rotation spans the whole walk; a
  // short (static) case repeats its frames under fresh capture noise.
  const std::size_t total = compiled.frames.size();
  std::uint32_t message_id = 1000;
  for (std::size_t k = 0; k < kRoomsRotation; ++k) {
    const scenario::Frame& frame = compiled.frames[k * total / kRoomsRotation];
    FrameInput f;
    f.watermark_us = frame.watermark_us;
    f.truth = frame.truth.front();
    std::vector<rfid::RoAccessReport> reports;
    for (std::size_t a = 0; a < scene.num_arrays(); ++a) {
      reports.push_back(scene.capture_report(a, frame.targets, capture_rng,
                                             ++message_id,
                                             frame.watermark_us));
    }
    if (p.kind == Kind::kRoomsStreaming) {
      f.wires = split_interleaved(reports, message_id);
    } else {
      for (std::size_t a = 0; a < reports.size(); ++a) {
        f.wires.push_back(encode_wire(a, reports[a]));
      }
    }
    in.frames.push_back(std::move(f));
  }
  return in;
}

// ---- fleet: many small zones in the bench_fleet shape -------------------

[[nodiscard]] std::vector<rf::UniformLinearArray> fleet_arrays() {
  return {
      rf::UniformLinearArray({2.0, 0.1, 1.2}, {1, 0}, 4),
      rf::UniformLinearArray({0.1, 3.0, 1.2}, {0, 1}, 4),
  };
}

[[nodiscard]] linalg::CMatrix fleet_synth(const rf::UniformLinearArray& array,
                                          double angle_rad, double scale,
                                          std::uint64_t seed) {
  rf::PropagationPath path;
  path.kind = rf::PathKind::kDirect;
  path.vertices = {{-10, 0, 1.2}, array.center()};
  path.length = 10.0;
  path.aoa = angle_rad;
  path.gain = {0.01, 0.0};
  const std::vector<rf::PropagationPath> paths{path};
  rf::SnapshotOptions opts;
  opts.num_snapshots = 8;
  opts.noise_sigma = rf::noise_sigma_for_snr(paths, 1.0, 35.0);
  rf::Rng rng(seed);
  const std::vector<double> path_scale{scale};
  return rf::synthesize_snapshots(array, paths, path_scale, opts, rng);
}

[[nodiscard]] rfid::TagObservation wire_observation(const linalg::CMatrix& x,
                                                    const rfid::Epc96& epc) {
  rfid::TagObservation obs;
  obs.epc = epc;
  for (std::size_t n = 0; n < x.cols(); ++n) {
    for (std::size_t m = 0; m < x.rows(); ++m) {
      const auto [pq, rq] = rfid::quantize_sample(x(m, n));
      obs.samples.push_back(rfid::PhaseSample{
          static_cast<std::uint16_t>(m + 1), static_cast<std::uint32_t>(n),
          pq, rq});
    }
  }
  return obs;
}

ZoneInput make_fleet_zone(const WorkloadParams& p, std::size_t zone) {
  const auto arrays = fleet_arrays();
  // Each zone's target sits where the zone index puts it (the fleet's
  // geometry); the workload seed draws every capture's noise.
  rf::Rng geometry(zone + 1);
  const rf::Vec2 target{geometry.uniform(0.8, 3.2), geometry.uniform(0.8, 3.2)};
  const std::uint64_t zone_seed = mix(p.seed, zone);

  ZoneInput in;
  serve::ZoneConfig& zc = in.config;
  zc.name = "zone" + std::to_string(zone);
  zc.arrays = arrays;
  zc.bounds = {{0.0, 0.0}, {4.0, 4.0}};
  zc.pipeline.localizer.grid_step = 0.5;
  // Every 4th zone is bulk (replay/analytics); anchor class is earned per
  // epoch by carrying anchors.
  zc.traffic_class = zone % 4 == 3 ? serve::TrafficClass::kBulk
                                   : serve::TrafficClass::kTracking;

  std::uint32_t message_id = 0;
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    const double angle = arrays[a].arrival_angle_planar(target);
    const auto epc =
        rfid::Epc96::for_tag_index(static_cast<std::uint32_t>(4 * zone + a + 1));
    rfid::RoAccessReport report;
    report.message_id = ++message_id;
    report.observations.push_back(wire_observation(
        fleet_synth(arrays[a], angle, 1.0, mix(zone_seed, 100 + a)), epc));
    in.baselines.push_back(encode_wire(a, report));
  }
  for (std::size_t k = 0; k < kFleetRotation; ++k) {
    FrameInput f;
    f.truth = target;
    for (std::size_t a = 0; a < arrays.size(); ++a) {
      const double angle = arrays[a].arrival_angle_planar(target);
      const auto epc = rfid::Epc96::for_tag_index(
          static_cast<std::uint32_t>(4 * zone + a + 1));
      rfid::RoAccessReport report;
      report.message_id = ++message_id;
      report.observations.push_back(wire_observation(
          fleet_synth(arrays[a], angle, 0.2, mix(zone_seed, 200 + 10 * k + a)),
          epc));
      f.wires.push_back(encode_wire(a, report));
    }
    in.frames.push_back(std::move(f));
  }
  if (zone % 16 == 0) {
    in.anchors.resize(arrays.size());
    for (std::size_t a = 0; a < arrays.size(); ++a) {
      core::CalibrationMeasurement m;
      m.los_angle = arrays[a].arrival_angle_planar(target);
      m.snapshots =
          fleet_synth(arrays[a], m.los_angle, 1.0, mix(zone_seed, 300 + a));
      in.anchors[a].push_back(std::move(m));
    }
  }
  return in;
}

void ingest_baselines(core::DWatchPipeline& pipeline,
                      const std::vector<Wire>& baselines) {
  for (const Wire& wire : baselines) {
    rfid::LlrpStreamDecoder decoder;
    decoder.feed(wire.bytes);
    const auto report = decoder.next_report();
    if (!report) throw std::runtime_error("perfbench: baseline did not decode");
    for (const rfid::TagObservation& obs : report->observations) {
      pipeline.add_baseline(wire.array, obs);
    }
  }
}

}  // namespace

WorkloadParams workload_params(const std::string& name, std::uint64_t seed) {
  WorkloadParams p;
  p.name = name;
  p.seed = seed;
  p.workers = kWorkers;
  if (name == "rooms_batch" || name == "rooms_streaming") {
    p.kind = name == "rooms_batch" ? Kind::kRoomsBatch : Kind::kRoomsStreaming;
    p.zones = kRoomsZones;
    p.tick_ms = kRoomsTickMs;
    p.rmse_ceiling_m = kRoomsRmseCeilingM;
  } else if (name == "fleet_overload") {
    p.kind = Kind::kFleetOverload;
    p.zones = kFleetZones;
    p.tick_ms = kFleetTickMs;
    p.rmse_ceiling_m = kFleetRmseCeilingM;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return p;
}

std::size_t frame_index(const Workload& w, std::size_t zone,
                        std::size_t tick, std::size_t e) {
  const std::size_t rotation = w.zones[zone].frames.size();
  return (tick * w.epochs_per_tick + e) % rotation;
}

bool carries_anchors(const Workload& w, std::size_t zone, std::size_t tick,
                     std::size_t e) {
  // Calibration cadence (bench_fleet): an anchor zone's first epoch of
  // every third tick.
  return !w.zones[zone].anchors.empty() && e == 0 && tick % 3 == 0;
}

Workload make_workload(const WorkloadParams& params) {
  Workload w;
  w.params = params;
  w.service.num_workers = params.workers;
  if (params.kind == Kind::kFleetOverload) {
    w.service.max_queue_per_zone = kFleetCapacityPerTick;
    w.telemetry = true;
    w.epochs_per_tick = kFleetOffered;
    for (std::size_t z = 0; z < params.zones; ++z) {
      w.zones.push_back(make_fleet_zone(params, z));
    }
  } else {
    const auto catalogue = rooms_catalogue();
    if (catalogue.empty()) throw std::runtime_error("perfbench: no rooms");
    for (std::size_t z = 0; z < params.zones; ++z) {
      w.zones.push_back(
          make_room_zone(params, z, *catalogue[z % catalogue.size()]));
    }
  }
  return w;
}

std::unique_ptr<serve::LocalizationService> build_service(const Workload& w) {
  auto service = std::make_unique<serve::LocalizationService>(w.service);
  for (std::size_t z = 0; z < w.zones.size(); ++z) {
    const ZoneInput& in = w.zones[z];
    const std::size_t id = service->add_zone(in.config);
    for (std::size_t a = 0; a < in.config.arrays.size(); ++a) {
      service->bind_reader(reader_id(z, a), id, a);
    }
    ingest_baselines(service->zone(id).pipeline(), in.baselines);
  }
  return service;
}

std::unique_ptr<core::DWatchPipeline> build_pipeline(const Workload& w,
                                                     std::size_t zone) {
  const serve::ZoneConfig& cfg = w.zones[zone].config;
  core::PipelineOptions options = cfg.pipeline;
  options.num_workers = 1;
  auto pipeline =
      std::make_unique<core::DWatchPipeline>(cfg.arrays, cfg.bounds, options);
  for (std::size_t a = 0; a < cfg.calibration.size(); ++a) {
    if (!cfg.calibration[a].empty()) {
      pipeline->set_calibration(a, cfg.calibration[a]);
    }
  }
  ingest_baselines(*pipeline, w.zones[zone].baselines);
  return pipeline;
}

}  // namespace perfbench
