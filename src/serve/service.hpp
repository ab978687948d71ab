// LocalizationService: the zone-sharded serving layer.
//
// Glues the serving pieces into one front door:
//
//   readers ──RobustSessionClient──▶ SessionRouter ──▶ open epochs
//                                                        │ seal
//                                                        ▼
//            ZoneRegistry ◀── EpochScheduler (bounded, shedding)
//                 │                  │ run_pending(shared pool)
//                 ▼                  ▼
//            per-zone DWatchPipeline fix + RecoveryCoordinator heal
//
// The caller (the deployment's serving loop) drives time: it begins
// and seals epochs per zone, then calls run_pending() to batch every
// sealed epoch across zones onto the shared ThreadPool. Everything
// else — routing, admission control, per-zone obs labels — happens in
// here.
//
// Determinism contract (asserted by tests/serve/service_test.cpp):
// each zone's fixes are bit-identical to a standalone DWatchPipeline
// fed the same reports in the same order, for EVERY pool worker count.
// Two ingredients make that hold: a zone's epochs run serially in
// submission order (EpochScheduler), and the pipeline itself is
// bit-identical under any pool size (its own contract).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "core/pipeline.hpp"
#include "core/thread_pool.hpp"
#include "rfid/llrp.hpp"
#include "rfid/robust_client.hpp"
#include "serve/admission.hpp"
#include "serve/epoch_scheduler.hpp"
#include "serve/session_router.hpp"
#include "serve/zone_registry.hpp"

namespace dwatch::serve {

struct ServiceOptions {
  /// Workers in the fleet-shared pool: 0 = one per hardware thread,
  /// 1 = fully serial (no pool — zones then also run serially).
  std::size_t num_workers = 0;
  /// Sealed epochs a zone may have queued before a victim is shed.
  std::size_t max_queue_per_zone = 4;
  /// Consult the AdmissionController each run_pending() and apply its
  /// brownout tier (widening / coarsening / bulk shedding / bulk
  /// rejection). Off = the pre-admission serving loop, byte for byte.
  /// Note that even ON, the controller stays at tier 0 (and every fix
  /// is bit-identical to OFF) until a BudgetProvider reports pressure.
  bool admission_control = true;
  AdmissionOptions admission;
};

/// One completed fix, tagged with the epoch it came from.
struct ZoneFix {
  std::uint64_t seq = 0;           ///< service-wide submission sequence
  std::uint64_t watermark_us = 0;  ///< the epoch's staleness watermark
  core::ConfidentEstimate result;
  // Appended after `result` so existing ZoneFix{seq, wm, fix}
  // aggregate initializations keep compiling.
  /// Streaming mode: the fix was emitted on likelihood convergence
  /// before the epoch's report backlog was exhausted.
  bool early = false;
  /// Wall-clock time from epoch start to the fix being available
  /// (time-to-first-fix; 0 when neither obs nor an observer timed it).
  std::uint64_t ttff_us = 0;
  /// Reports left unprocessed by the early seal (0 on a full epoch).
  std::size_t reports_skipped = 0;
};

/// Everything the telemetry plane needs to know about one processed
/// epoch, captured on the zone's own task thread (so coordinator /
/// stats reads race with nothing). Purely observational: installing an
/// observer can never change a fix.
struct EpochObservation {
  std::size_t zone = 0;
  std::uint64_t seq = 0;
  std::uint64_t watermark_us = 0;
  /// Wall-clock fix latency. The ONLY non-deterministic field — SLO
  /// latency budgets consume it; deterministic consumers (the flight
  /// recorder) must ignore it.
  std::uint64_t fix_latency_us = 0;
  std::size_t reports = 0;  ///< reports folded into this epoch
  bool fix_valid = false;
  bool fix_degraded = false;
  core::ConfidenceReport confidence;
  /// Cumulative serving counters after this epoch.
  ZoneServingStats stats;
  /// Per-array recovery::DriftState (empty when the zone has no
  /// coordinator).
  std::vector<std::uint8_t> drift_states;
  /// Coordinator lifetime stats (zero-initialized when no coordinator).
  recovery::RecoveryStats recovery;
};

/// Service-wide roll-up of the per-zone serving counters.
struct ServiceStats {
  std::size_t zones = 0;
  std::size_t epochs_submitted = 0;
  std::size_t epochs_processed = 0;
  std::size_t epochs_shed = 0;
  std::size_t epochs_widened = 0;   ///< ticks absorbed by brownout widening
  std::size_t epochs_rejected = 0;  ///< refused at ingest (kRejectBulk)
  std::size_t reports_routed = 0;
  std::size_t reports_unroutable = 0;
  std::size_t fixes_valid = 0;
  std::size_t fixes_degraded = 0;
  /// Scheduler per-class admission/shed counters (indexed by
  /// TrafficClass; anchor-class sheds MUST stay 0 — asserted by the
  /// admission suite and the FleetStorm overload test).
  std::array<std::uint64_t, kNumTrafficClasses> submitted_by_class{};
  std::array<std::uint64_t, kNumTrafficClasses> shed_by_class{};
  /// Active brownout tier at roll-up time.
  BrownoutTier brownout_tier = BrownoutTier::kNormal;

  bool operator==(const ServiceStats&) const = default;
};

class LocalizationService {
 public:
  explicit LocalizationService(ServiceOptions options = {});

  /// Provision a zone; returns its id. Call before serving traffic
  /// (zones added mid-flight only see epochs begun after the add).
  std::size_t add_zone(ZoneConfig config);

  [[nodiscard]] std::size_t num_zones() const noexcept {
    return registry_.num_zones();
  }
  [[nodiscard]] Zone& zone(std::size_t id) { return registry_.zone(id); }
  [[nodiscard]] const Zone& zone(std::size_t id) const {
    return registry_.zone(id);
  }
  [[nodiscard]] SessionRouter& router() noexcept { return router_; }
  [[nodiscard]] const EpochScheduler& scheduler() const noexcept {
    return scheduler_;
  }
  [[nodiscard]] AdmissionController& admission() noexcept {
    return admission_;
  }
  [[nodiscard]] const AdmissionController& admission() const noexcept {
    return admission_;
  }
  /// Install the SLO budget source consulted by run_pending()'s
  /// admission evaluation (non-owning; typically the telemetry plane).
  void set_budget_provider(const BudgetProvider* provider) {
    admission_.set_budget_provider(provider);
  }
  /// Null when options.num_workers == 1.
  [[nodiscard]] const std::shared_ptr<core::ThreadPool>& thread_pool()
      const noexcept {
    return pool_;
  }

  /// Bind a reader identity to (zone, array); reports routed through
  /// the router then land in that zone's open epoch. Throws
  /// std::out_of_range / std::invalid_argument on a bad slot.
  void bind_reader(std::uint64_t reader_id, std::size_t zone,
                   std::size_t array);

  /// bind_reader + wire the client's ReportSink through the router.
  void attach_client(rfid::RobustSessionClient& client,
                     std::uint64_t reader_id, std::size_t zone,
                     std::size_t array);

  /// Open a new epoch for one zone. An already-open epoch is sealed
  /// (submitted) first — UNLESS brownout widening is active, in which
  /// case up to widen_factor consecutive ticks are absorbed into the
  /// open epoch (more reports per seal, fewer fixes; the epoch keeps
  /// its FIRST tick's watermark so none of its reports turn stale).
  /// An epoch carrying anchors is never widened: calibration cadence
  /// is part of the anchor-traffic-never-degrades guarantee. A
  /// fixed-cadence serving loop can just call begin_epoch every tick.
  /// `watermark_us` is forwarded to the zone pipeline's staleness
  /// rejection.
  void begin_epoch(std::size_t zone, std::uint64_t watermark_us = 0);

  /// Append one report to a zone's open epoch (throws std::logic_error
  /// when no epoch is open — begin_epoch first). The router's sink
  /// calls this; tests and replay drivers may call it directly.
  void add_report(std::size_t zone, std::size_t array,
                  const rfid::RoAccessReport& report);

  /// Attach this epoch's anchor-tag measurements for the zone's
  /// recovery coordinator (ignored when the zone has none).
  /// `anchors_per_array` must match the zone's array count.
  void add_anchors(
      std::size_t zone,
      std::vector<std::vector<core::CalibrationMeasurement>> anchors);

  /// Seal the zone's open epoch: classify it (anchor presence, then
  /// the zone's configured class), consult admission, and hand it to
  /// the scheduler (possibly shedding a lower-class victim). At
  /// kRejectBulk a bulk epoch is refused here — typed, counted, never
  /// queued. No-op (default decision) when no epoch is open. The
  /// returned decision carries the class, the active tier, and the
  /// number of epochs shed by backpressure (0 or 1).
  AdmissionDecision seal_epoch(std::size_t zone);

  /// One serving tick: evaluate admission (move the brownout tier,
  /// apply/clear pipeline coarsening, purge bulk backlog at
  /// kShedBulk+), seal every open epoch, then drain the scheduler:
  /// zones fan out across the shared pool, each zone's epochs run
  /// serially in order. Completed fixes append to that zone's
  /// fixes(). Returns the number of epochs processed.
  std::size_t run_pending();

  /// Telemetry taps. The epoch observer runs on the zone's scheduler
  /// task (distinct zones may call it CONCURRENTLY — it must be
  /// thread-safe; one zone's calls are always serial, in epoch order).
  /// The shed observer runs on the sealing thread. Both are purely
  /// observational: fixes are bit-identical with or without them.
  using EpochObserver = std::function<void(const EpochObservation&)>;
  using ShedObserver =
      std::function<void(std::size_t zone, std::uint64_t seq)>;
  void set_epoch_observer(EpochObserver observer) {
    epoch_observer_ = std::move(observer);
  }
  void set_shed_observer(ShedObserver observer) {
    shed_observer_ = std::move(observer);
  }
  /// Early-seal tap: fires on the zone's scheduler task the moment a
  /// streaming epoch converges and its fix exists — BEFORE run_pending
  /// returns — so a tracker can consume mid-epoch fixes with epoch
  /// latency out of the loop. Same thread-safety contract as the epoch
  /// observer (distinct zones may call it concurrently). The same fix
  /// still lands in fixes() with early = true.
  using EarlyFixObserver =
      std::function<void(std::size_t zone, const ZoneFix&)>;
  void set_early_fix_observer(EarlyFixObserver observer) {
    early_fix_observer_ = std::move(observer);
  }

  /// Every fix the zone has produced, in epoch order.
  [[nodiscard]] const std::vector<ZoneFix>& fixes(std::size_t zone) const;

  [[nodiscard]] const ZoneServingStats& zone_stats(std::size_t zone) const {
    return registry_.zone(zone).serving_stats();
  }
  [[nodiscard]] ServiceStats stats() const;

 private:
  /// The scheduler's processor: runs one epoch on its zone's pipeline.
  void process_epoch(PendingEpoch&& epoch);
  void note_shed(const PendingEpoch& epoch);
  /// Tier-transition side effects: apply/clear the coarsening profile
  /// on every zone pipeline when crossing the kCoarsen boundary, set
  /// the brownout gauge, emit the tier event.
  void apply_brownout(BrownoutTier from, BrownoutTier to);

  ServiceOptions options_;
  std::shared_ptr<core::ThreadPool> pool_;
  EpochObserver epoch_observer_;
  ShedObserver shed_observer_;
  EarlyFixObserver early_fix_observer_;
  ZoneRegistry registry_;
  SessionRouter router_;
  EpochScheduler scheduler_;
  AdmissionController admission_;
  /// Per-zone epoch under construction (nullopt = none open).
  std::vector<std::optional<PendingEpoch>> open_;
  /// Serving ticks absorbed into each zone's open epoch (brownout
  /// widening); equals 1 right after a fresh begin_epoch.
  std::vector<std::size_t> open_begins_;
  /// Size of each zone's last sealed epoch: the next one reserves as
  /// much, so steady traffic fills its arena without regrowing it.
  std::vector<EpochReports::Extent> last_extent_;
  /// Per-zone completed fixes (each appended only by its own zone's
  /// scheduler task — disjoint writes, no locking needed).
  std::vector<std::vector<ZoneFix>> fixes_;
};

}  // namespace dwatch::serve
