#include "serving.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "rfid/bytes.hpp"
#include "rfid/llrp.hpp"
#include "scenario/runner.hpp"
#include "stats.hpp"
#include "telemetry/plane.hpp"

namespace perfbench {

namespace telemetry = ::dwatch::telemetry;

namespace {

[[nodiscard]] double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// The plane's own quality objective (telemetry/plane.cpp): no usable
/// fix, RSS-only fallback, or collapsed phase coherence.
[[nodiscard]] bool quality_breach(const serve::EpochObservation& o) {
  return !o.fix_valid || o.confidence.rss_mode ||
         o.confidence.phase_health < 0.5;
}

/// A storm of deliberate overload (bench_fleet): shed and burn dumps
/// would only spin the recorder, and the latency objective is out of
/// reach so the tier moves with epochs, never with wall time.
[[nodiscard]] telemetry::TelemetryOptions overload_telemetry() {
  telemetry::TelemetryOptions opts;
  opts.recorder_ring_epochs = 8;
  opts.dump_on_fast_burn = false;
  opts.dump_on_drift = false;
  opts.dump_on_shed = false;
  opts.slo.fix_latency_budget_us = 60'000'000;
  return opts;
}

struct Landing {
  std::int64_t ns = 0;
  std::uint64_t epoch_us = 0;
};

[[nodiscard]] Counts counts_of(const serve::ServiceStats& s,
                               std::uint64_t decode_failed) {
  Counts c;
  c.submitted = s.epochs_submitted;
  c.processed = s.epochs_processed;
  c.valid = s.fixes_valid;
  c.shed = s.epochs_shed;
  c.rejected = s.epochs_rejected;
  c.widened = s.epochs_widened;
  c.unroutable = s.reports_unroutable;
  c.decode_failed = decode_failed;
  return c;
}

[[nodiscard]] Counts minus(const Counts& a, const Counts& b) {
  Counts c;
  c.submitted = a.submitted - b.submitted;
  c.processed = a.processed - b.processed;
  c.valid = a.valid - b.valid;
  c.shed = a.shed - b.shed;
  c.rejected = a.rejected - b.rejected;
  c.widened = a.widened - b.widened;
  c.unroutable = a.unroutable - b.unroutable;
  c.decode_failed = a.decode_failed - b.decode_failed;
  return c;
}

[[nodiscard]] StreamCounts stream_counts(
    const serve::LocalizationService& service) {
  StreamCounts s;
  for (std::size_t z = 0; z < service.num_zones(); ++z) {
    const auto& st = service.zone(z).pipeline().streaming_stats();
    const serve::ZoneServingStats& zs = service.zone_stats(z);
    s.rank1_updates += st.rank1_updates;
    s.streamed_spectra += st.streamed_spectra;
    s.tracker_resets += st.tracker_resets;
    s.convergence_checks += st.convergence_checks;
    s.early_sealed += zs.epochs_early_sealed;
    s.reports_skipped += zs.reports_skipped_early;
    s.reports_routed += zs.reports_routed;
  }
  return s;
}

[[nodiscard]] StreamCounts minus(const StreamCounts& a, const StreamCounts& b) {
  StreamCounts s;
  s.rank1_updates = a.rank1_updates - b.rank1_updates;
  s.streamed_spectra = a.streamed_spectra - b.streamed_spectra;
  s.tracker_resets = a.tracker_resets - b.tracker_resets;
  s.convergence_checks = a.convergence_checks - b.convergence_checks;
  s.early_sealed = a.early_sealed - b.early_sealed;
  s.reports_skipped = a.reports_skipped - b.reports_skipped;
  s.reports_routed = a.reports_routed - b.reports_routed;
  return s;
}

/// Truth of the frame an epoch came from (frames of one zone carry
/// distinct watermarks, or share one truth).
[[nodiscard]] rf::Vec2 truth_of(const ZoneInput& zone,
                                std::uint64_t watermark_us) {
  for (const FrameInput& f : zone.frames) {
    if (f.watermark_us == watermark_us) return f.truth;
  }
  return zone.frames.front().truth;
}

/// Traced-run bookkeeping of which frames each sealed epoch holds. The
/// scheduler numbers epochs in submission order, every submission comes
/// from a seal on this thread, and each seal that submits bumps its
/// zone's epochs_submitted; so counting those bumps names each seq
/// without taking the scheduler's lock per call.
class ContentTracker {
 public:
  ContentTracker(serve::LocalizationService& service, std::size_t zones)
      : service_(service),
        next_seq_(service.scheduler().submitted_total()),
        open_(zones),
        contents_(zones) {}

  template <typename Call>
  void begin(std::size_t zone, std::size_t frame, Call&& call) {
    const serve::ZoneServingStats& stats = service_.zone_stats(zone);
    const std::size_t submitted = stats.epochs_submitted;
    const std::size_t widened = stats.epochs_widened;
    call();
    if (stats.epochs_widened != widened) {
      open_[zone].push_back(frame);  // absorbed into the open epoch
      return;
    }
    close(zone, submitted);
    open_[zone] = {frame};
  }

  template <typename Call>
  void seal(std::size_t zone, Call&& call) {
    const std::size_t submitted = service_.zone_stats(zone).epochs_submitted;
    call();
    close(zone, submitted);
    open_[zone].clear();
  }

  [[nodiscard]] std::vector<std::map<std::uint64_t, std::vector<std::size_t>>>
  take() {
    return std::move(contents_);
  }

 private:
  void close(std::size_t zone, std::size_t submitted_before) {
    if (service_.zone_stats(zone).epochs_submitted != submitted_before) {
      contents_[zone][next_seq_++] = std::move(open_[zone]);
    }
  }

  serve::LocalizationService& service_;
  std::uint64_t next_seq_;
  std::vector<std::vector<std::size_t>> open_;
  std::vector<std::map<std::uint64_t, std::vector<std::size_t>>> contents_;
};

}  // namespace

RunResult serve_run(const Workload& w, serve::LocalizationService& service,
                    const RunConfig& config) {
  const std::size_t zones = w.zones.size();
  const std::size_t total_ticks = config.warmup_ticks + config.ticks;
  const bool traced = config.traced;

  RunResult run;
  run.warmup_ticks = config.warmup_ticks;
  run.ticks.resize(total_ticks);
  run.fixes.resize(zones);

  std::optional<telemetry::TelemetryPlane> plane;
  if (w.telemetry) {
    plane.emplace(overload_telemetry());
    plane->attach(service);
  }

  // Landing times, one vector per zone: a zone's observer calls are
  // serial and distinct zones write distinct vectors, so no lock.
  std::vector<std::vector<Landing>> landings(zones);
  for (auto& l : landings) l.reserve(total_ticks * w.epochs_per_tick + 1);
  telemetry::TelemetryPlane* plane_ptr = plane ? &*plane : nullptr;
  // Replaces the plane's epoch observer, so it also does the plane's
  // SLO and flight-recorder bookkeeping; the plane keeps its shed
  // observer and stays the BudgetProvider.
  service.set_epoch_observer(
      [&landings, plane_ptr](const serve::EpochObservation& o) {
        landings[o.zone].push_back(Landing{now_ns(), o.fix_latency_us});
        if (plane_ptr != nullptr) {
          plane_ptr->recorder().record(o);
          plane_ptr->slo().observe_fix(o.zone, o.fix_latency_us,
                                       quality_breach(o));
        }
      });

  std::vector<std::vector<rfid::LlrpStreamDecoder>> decoders(zones);
  for (std::size_t z = 0; z < zones; ++z) {
    decoders[z].resize(w.zones[z].config.arrays.size());
  }
  std::vector<dwatch::scenario::TrackBank> banks(zones);
  for (auto& bank : banks) {
    dwatch::scenario::RunnerConfig runner;
    dwatch::core::KalmanOptions kopts = runner.kalman;
    kopts.dt = w.params.tick_ms * 1e-3;
    bank.configure(1, kopts);
  }
  std::optional<ContentTracker> tracker;
  if (traced) tracker.emplace(service, zones);

  const double match_gate_m = dwatch::scenario::RunnerConfig{}.match_gate_m;
  std::vector<std::size_t> seen(zones, 0);
  std::uint64_t decode_failed = 0;
  Counts counts_before;
  StreamCounts stream_before;
  double cpu_before = 0.0;

  const auto period_ns = static_cast<std::int64_t>(w.params.tick_ms * 1e6);
  const std::int64_t t0 = now_ns() + 1'000'000;
  for (std::size_t k = 0; k < total_ticks; ++k) {
    TickRecord& rec = run.ticks[k];
    if (k == config.warmup_ticks) {
      // Stage-span histograms cover the timed ticks only.
      if (traced) dwatch::obs::MetricsRegistry::global().reset();
      counts_before = counts_of(service.stats(), decode_failed);
      stream_before = stream_counts(service);
      cpu_before = process_cpu_s();
    }
    rec.due_ns = t0 + static_cast<std::int64_t>(k) * period_ns;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(rec.due_ns)));
    rec.start_ns = now_ns();
    const bool timed = k >= config.warmup_ticks;

    for (std::size_t z = 0; z < zones; ++z) {
      const ZoneInput& zone = w.zones[z];
      for (std::size_t e = 0; e < w.epochs_per_tick; ++e) {
        const std::size_t fi = frame_index(w, z, k, e);
        const FrameInput& frame = zone.frames[fi];
        if (traced) {
          const std::int64_t a = now_ns();
          tracker->begin(z, fi, [&] {
            service.begin_epoch(z, frame.watermark_us);
          });
          rec.admit_ns += now_ns() - a;
        } else {
          service.begin_epoch(z, frame.watermark_us);
        }
        for (const Wire& wire : frame.wires) {
          const std::int64_t d0 = traced ? now_ns() : 0;
          std::optional<rfid::RoAccessReport> report;
          try {
            auto& decoder = decoders[z][wire.array];
            decoder.feed(wire.bytes);
            report = decoder.next_report();
          } catch (const rfid::DecodeError&) {
            decoders[z][wire.array] = rfid::LlrpStreamDecoder{};
          }
          if (!report) {
            ++decode_failed;
            continue;
          }
          if (!traced) {
            (void)service.router().route(reader_id(z, wire.array), *report);
            continue;
          }
          const std::int64_t d1 = now_ns();
          (void)service.router().route(reader_id(z, wire.array), *report);
          const std::int64_t d2 = now_ns();
          rec.decode_ns += d1 - d0;
          rec.route_ns += d2 - d1;
          if (timed) {
            run.decode_us.push_back(1e-3 * static_cast<double>(d1 - d0));
            run.route_us.push_back(1e-3 * static_cast<double>(d2 - d1));
            run.decode_bytes += wire.bytes.size();
          }
        }
        if (carries_anchors(w, z, k, e)) {
          const std::int64_t a = traced ? now_ns() : 0;
          service.add_anchors(z, zone.anchors);
          if (traced) rec.admit_ns += now_ns() - a;
        }
      }
    }
    for (std::size_t z = 0; z < zones; ++z) {
      if (!traced) {
        (void)service.seal_epoch(z);
        continue;
      }
      const std::int64_t s0 = now_ns();
      tracker->seal(z, [&] { (void)service.seal_epoch(z); });
      const std::int64_t s1 = now_ns();
      rec.admit_ns += s1 - s0;
      if (timed) run.seal_us.push_back(1e-3 * static_cast<double>(s1 - s0));
    }
    rec.seal_end_ns = now_ns();
    (void)service.run_pending();
    rec.drain_end_ns = now_ns();
    rec.tier = service.admission().tier();
    run.tier_max = std::max(run.tier_max, rec.tier);

    // Every epoch sealed this tick was drained by this run_pending.
    for (std::size_t z = 0; z < zones; ++z) {
      const auto& fixes = service.fixes(z);
      for (std::size_t i = seen[z]; i < fixes.size(); ++i) {
        run.fixes[z].push_back(
            FixRecord{k, landings[z][i].ns, landings[z][i].epoch_us});
        const auto& est = fixes[i].result.estimate;
        std::vector<rf::Vec2> measurements;
        if (est.likelihood > 0.0) {
          measurements.push_back(est.position);
          if (timed) {
            const double err =
                rf::distance(est.position,
                             truth_of(w.zones[z], fixes[i].watermark_us));
            if (err <= match_gate_m) {
              run.sq_error_sum += err * err;
              ++run.on_target;
              if (est.valid) ++run.on_target_valid;
            }
          }
        }
        const std::int64_t t = traced ? now_ns() : 0;
        (void)banks[z].step(std::move(measurements));
        if (traced) {
          const std::int64_t dt = now_ns() - t;
          rec.track_ns += dt;
          if (timed) run.track_us.push_back(1e-3 * static_cast<double>(dt));
        }
      }
      seen[z] = fixes.size();
    }
  }
  const std::int64_t end_ns = now_ns();

  run.cpu_s = process_cpu_s() - cpu_before;
  run.wall_s =
      1e-9 * static_cast<double>(end_ns - run.ticks[config.warmup_ticks].due_ns);
  const serve::ServiceStats stats = service.stats();
  run.counts = minus(counts_of(stats, decode_failed), counts_before);
  run.counts.offered =
      static_cast<std::uint64_t>(config.ticks) * zones * w.epochs_per_tick;
  run.stream = minus(stream_counts(service), stream_before);
  run.anchor_shed =
      stats.shed_by_class[static_cast<std::size_t>(serve::TrafficClass::kAnchor)];
  if (tracker) run.contents = tracker->take();

  // Detach everything that points at this frame's locals.
  service.set_epoch_observer({});
  if (plane) {
    service.set_shed_observer({});
    service.set_budget_provider(nullptr);
    service.admission().set_tier_change_hook({});
  }
  return run;
}

}  // namespace perfbench
