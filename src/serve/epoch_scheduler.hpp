// EpochScheduler: cross-zone epoch batching with bounded backpressure.
//
// Zones produce sealed epochs faster than the fix path can drain them
// when the fleet is overloaded (16 zones sharing one pool, each epoch
// a multi-tag P-MUSIC + likelihood-search bill). The scheduler sits
// between sealing and fixing:
//
//  * per-zone FIFO queues with a hard depth cap — admission control is
//    per zone, so one hot zone cannot starve the others' memory;
//  * when a zone's queue is full a victim is shed to admit the new
//    epoch, chosen class-aware: anchor/calibration epochs are NEVER
//    victims, the lowest-priority class present goes first, and within
//    a class the OLDEST epoch goes (fresh fixes are worth more than
//    stale ones — the same newest-wins policy as the assembler's
//    dedupe window). The incoming epoch itself is a candidate: a bulk
//    epoch arriving at a queue full of tracking traffic sheds itself.
//    A queue of nothing but anchors admits over the cap rather than
//    drop calibration. Every shed is counted, never silent;
//  * run_pending() drains every queue in one pass: zones fan out
//    across the shared ThreadPool, but ONE zone's epochs always run
//    serially in submission order on a single task — that is what
//    keeps each zone's fixes bit-identical to a standalone pipeline
//    fed the same reports (the tests/serve determinism contract).
//
// Queues and counters are guarded by a mutex (the telemetry scrape
// thread reads pending()/shed_total() while the serving thread
// submits), and the shed hook is ALWAYS invoked outside that lock: a
// hook that scrapes metrics, re-enters the scheduler's accessors, or
// even submits must not deadlock.
//
// The scheduler is intentionally obs-free: it does not know zone
// names, so the LocalizationService (which does) emits the labelled
// metrics/events around it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "core/calibration.hpp"
#include "core/thread_pool.hpp"
#include "rfid/llrp.hpp"
#include "serve/admission.hpp"

namespace dwatch::serve {

/// The reports of one epoch, flattened: every sample in one arena, one
/// record per observation (its header fields and where its samples
/// end) and one per report (its array and where its observations end).
/// add() copies a report in; once the vectors have grown, nothing is
/// allocated per report or per observation.
class EpochReports {
 public:
  /// How much an epoch holds (a capacity hint for the next one).
  struct Extent {
    std::size_t reports = 0;
    std::size_t observations = 0;
    std::size_t samples = 0;
  };

  /// Append one report of array `array`, in arrival order.
  void add(std::size_t array, const rfid::RoAccessReport& report);
  void reserve(const Extent& extent);
  [[nodiscard]] Extent extent() const noexcept {
    return {reports_.size(), observations_.size(), samples_.size()};
  }

  /// Reports held.
  [[nodiscard]] std::size_t size() const noexcept { return reports_.size(); }
  /// The array report r came from.
  [[nodiscard]] std::size_t array(std::size_t r) const {
    return reports_[r].array;
  }
  /// Report r's observations are [first_observation(r),
  /// first_observation(r + 1)); r may be size().
  [[nodiscard]] std::size_t first_observation(std::size_t r) const {
    return r == 0 ? 0 : reports_[r - 1].observations_end;
  }
  /// Observation i, its samples a span over the arena.
  [[nodiscard]] rfid::ObservationView observation(std::size_t i) const;

 private:
  struct Observation {
    rfid::Epc96 epc;
    std::uint16_t antenna_port = 1;
    std::uint64_t first_seen_us = 0;
    std::size_t samples_end = 0;
  };
  struct Report {
    std::size_t array = 0;
    std::size_t observations_end = 0;
  };
  std::vector<rfid::PhaseSample> samples_;
  std::vector<Observation> observations_;
  std::vector<Report> reports_;
};

/// One sealed epoch waiting for its fix.
struct PendingEpoch {
  std::size_t zone = 0;
  /// Service-wide submission sequence number (shed reporting).
  std::uint64_t seq = 0;
  std::uint64_t watermark_us = 0;
  /// Shed/reject priority; kAnchor epochs are never victims.
  TrafficClass traffic_class = TrafficClass::kTracking;
  /// The routed reports, in arrival order.
  EpochReports reports;
  /// Per-array anchor-tag measurements for the recovery coordinator
  /// (empty when the zone has no coordinator or no probe this epoch).
  std::vector<std::vector<core::CalibrationMeasurement>> anchors;
};

class EpochScheduler {
 public:
  /// Runs one epoch to completion on the zone's pipeline. Called with
  /// epochs of a given zone strictly in submission order, exactly once
  /// each, never concurrently for the same zone.
  using Processor = std::function<void(PendingEpoch&&)>;

  /// Called (on the submitting thread, OUTSIDE the scheduler lock) for
  /// every epoch shed by backpressure or purged by brownout, before
  /// submit()/purge_class() returns.
  using ShedHook = std::function<void(const PendingEpoch&)>;

  /// `max_queue_per_zone` is clamped up to 1: a zone must always be
  /// able to hold its newest epoch.
  EpochScheduler(std::size_t num_zones, std::size_t max_queue_per_zone);

  /// Append one (empty) zone queue; returns the new zone's index.
  /// Mirrors ZoneRegistry::add_zone so the service can grow both in
  /// lockstep.
  std::size_t add_zone();

  void set_shed_hook(ShedHook hook);

  /// Admit one sealed epoch (epoch.zone indexes the queues; throws
  /// std::out_of_range on a bad zone). When the zone's queue is at
  /// capacity one victim is shed — class-aware, see the file comment —
  /// counted, and reported through the shed hook. Returns the number
  /// of epochs shed (0 or 1; the victim may be the incoming epoch).
  std::size_t submit(PendingEpoch epoch);

  /// Drop every queued epoch of exactly `cls` across all zones,
  /// oldest-first per zone, reporting each through the shed hook
  /// (outside the lock). The brownout kShedBulk tier calls this with
  /// kBulk before draining. Returns the number purged.
  std::size_t purge_class(TrafficClass cls);

  /// Drain every queue: each zone with pending epochs gets ONE task
  /// that runs its epochs serially in FIFO order; distinct zones run
  /// concurrently on `pool` (serially, in zone order, when pool is
  /// null). Epochs submitted from inside `processor` (it shouldn't)
  /// wait for the next call. Returns the number of epochs processed.
  std::size_t run_pending(core::ThreadPool* pool, const Processor& processor);

  [[nodiscard]] std::size_t num_zones() const;
  [[nodiscard]] std::size_t max_queue_per_zone() const noexcept {
    return max_queue_per_zone_;
  }
  /// Epochs currently queued for one zone / across all zones.
  [[nodiscard]] std::size_t pending(std::size_t zone) const;
  [[nodiscard]] std::size_t total_pending() const;

  [[nodiscard]] std::uint64_t submitted_total() const;
  [[nodiscard]] std::uint64_t processed_total() const;
  [[nodiscard]] std::uint64_t shed_total() const;
  [[nodiscard]] std::uint64_t submitted_by_class(TrafficClass cls) const;
  [[nodiscard]] std::uint64_t shed_by_class(TrafficClass cls) const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::deque<PendingEpoch>> queues_;  // guarded by mutex_
  std::size_t max_queue_per_zone_;
  ShedHook shed_hook_;  // guarded by mutex_ (copied out before invoking)
  std::uint64_t next_seq_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t shed_ = 0;
  std::array<std::uint64_t, kNumTrafficClasses> submitted_by_class_{};
  std::array<std::uint64_t, kNumTrafficClasses> shed_by_class_{};
};

}  // namespace dwatch::serve
