// The open-loop serving loop: the main thread is the load generator and
// the service's pool does the fixing.
//
// Ticks are due on a fixed wall-clock period whatever the service is
// doing. On each tick, for every zone, the loop begins the epoch(s) it
// offers, feeds that tick's bytes through the zone's per-reader
// LlrpStreamDecoder into SessionRouter::route, then seals every zone and
// calls run_pending(). Every fix is timed from its tick's due time to
// its landing, read from the public epoch observer, and then fed to the
// zone's TrackBank. A stall therefore delays every later tick, and the
// generator's lateness is recorded per tick.
//
// A traced run additionally times each call into rfid / serve /
// tracking from here and records which frames went into which sealed
// epoch, so the replay can re-run each zone's epochs standalone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct RunConfig {
  std::size_t warmup_ticks = 0;
  std::size_t ticks = 0;  ///< timed ticks after the warm-up
  bool traced = false;
};

struct TickRecord {
  std::int64_t due_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t seal_end_ns = 0;
  std::int64_t drain_end_ns = 0;
  /// Tier the admission controller applied to this tick's drain.
  serve::BrownoutTier tier = serve::BrownoutTier::kNormal;
  // Traced runs only: the tick's total time in each layer's calls.
  std::int64_t decode_ns = 0;
  std::int64_t route_ns = 0;
  std::int64_t admit_ns = 0;  ///< begin_epoch + add_anchors + seal_epoch
  std::int64_t track_ns = 0;
};

/// One processed epoch, aligned with service.fixes(zone).
struct FixRecord {
  std::size_t tick = 0;
  std::int64_t landing_ns = 0;
  std::uint64_t epoch_us = 0;  ///< EpochObservation::fix_latency_us
};

/// Service counters over the timed ticks.
struct Counts {
  std::uint64_t offered = 0;    ///< begin_epoch calls
  std::uint64_t submitted = 0;  ///< admitted into the scheduler
  std::uint64_t processed = 0;  ///< fixes produced
  std::uint64_t valid = 0;      ///< consensus fixes
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t widened = 0;
  std::uint64_t unroutable = 0;
  std::uint64_t decode_failed = 0;
};

/// Streaming-path counters summed over zones, over the timed ticks.
struct StreamCounts {
  std::uint64_t rank1_updates = 0;
  std::uint64_t streamed_spectra = 0;
  std::uint64_t tracker_resets = 0;
  std::uint64_t convergence_checks = 0;
  std::uint64_t early_sealed = 0;
  std::uint64_t reports_skipped = 0;
  std::uint64_t reports_routed = 0;
};

struct RunResult {
  std::vector<TickRecord> ticks;  ///< warm-up then timed
  std::size_t warmup_ticks = 0;
  std::vector<std::vector<FixRecord>> fixes;  ///< per zone, whole run
  Counts counts;
  StreamCounts stream;
  serve::BrownoutTier tier_max = serve::BrownoutTier::kNormal;
  std::uint64_t anchor_shed = 0;  ///< whole run
  double cpu_s = 0.0;             ///< process user+sys over timed ticks
  double wall_s = 0.0;            ///< timed ticks
  // Accuracy over the timed ticks. A fix is on target when it lies
  // within the scenario runner's match gate of its frame's truth; the
  // rest (ghost peaks metres away) count as misses, not as errors.
  double sq_error_sum = 0.0;           ///< over on-target fixes
  std::uint64_t on_target = 0;
  std::uint64_t on_target_valid = 0;   ///< ... that are also consensus fixes

  // Traced runs only.
  std::vector<double> decode_us;  ///< per report
  std::vector<double> route_us;   ///< per report
  std::vector<double> seal_us;    ///< per seal_epoch call
  std::vector<double> track_us;   ///< per TrackBank::step
  std::uint64_t decode_bytes = 0;
  /// Frames fed into each submitted epoch: contents[zone][seq].
  std::vector<std::map<std::uint64_t, std::vector<std::size_t>>> contents;
};

/// Drive `service` (freshly built from `w`) through the schedule.
[[nodiscard]] RunResult serve_run(const Workload& w,
                                  serve::LocalizationService& service,
                                  const RunConfig& config);

}  // namespace perfbench
