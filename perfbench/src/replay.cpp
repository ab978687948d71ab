#include "replay.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "rfid/llrp.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using Reports = std::vector<std::pair<std::size_t, rfid::RoAccessReport>>;

[[nodiscard]] Reports decode_frame(const FrameInput& frame) {
  Reports out;
  for (const Wire& wire : frame.wires) {
    rfid::LlrpStreamDecoder decoder;
    decoder.feed(wire.bytes);
    if (auto report = decoder.next_report()) {
      out.emplace_back(wire.array, std::move(*report));
    }
  }
  return out;
}

[[nodiscard]] bool same_fix(const serve::ZoneFix& a, const core::ConfidentEstimate& b,
                            bool early, std::size_t skipped) {
  const core::LocationEstimate& x = a.result.estimate;
  const core::LocationEstimate& y = b.estimate;
  return x.position.x == y.position.x && x.position.y == y.position.y &&
         x.likelihood == y.likelihood && x.consensus == y.consensus &&
         x.valid == y.valid && a.result.confidence == b.confidence &&
         a.early == early && a.reports_skipped == skipped;
}

struct ZoneReplay {
  std::vector<double> observe_us;
  std::vector<double> localize_us;
  std::uint64_t drops = 0;
  std::vector<ReplayFix> per_fix;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
};

ZoneReplay replay_zone(const Workload& w,
                       const serve::LocalizationService& service,
                       const RunResult& run, std::size_t z) {
  ZoneReplay out;
  const auto pipeline = build_pipeline(w, z);
  const ZoneInput& zone = w.zones[z];
  std::vector<Reports> decoded;
  decoded.reserve(zone.frames.size());
  for (const FrameInput& f : zone.frames) decoded.push_back(decode_frame(f));

  core::BrownoutProfile coarse;
  coarse.grid_stride = w.service.admission.coarse_grid_stride;
  coarse.max_signal_rank = w.service.admission.coarse_max_signal_rank;
  bool is_coarse = false;

  const auto& fixes = service.fixes(z);
  out.per_fix.resize(fixes.size());
  std::vector<const rfid::RoAccessReport*> reports;
  std::vector<std::size_t> arrays;
  for (std::size_t i = 0; i < fixes.size(); ++i) {
    const serve::ZoneFix& fix = fixes[i];
    const std::size_t tick = run.fixes[z][i].tick;
    const bool timed = tick >= run.warmup_ticks;
    // The service retunes every pipeline at tier transitions, before
    // the drain that runs at the new tier.
    const bool want_coarse = run.ticks[tick].tier >= serve::BrownoutTier::kCoarsen;
    if (want_coarse != is_coarse) {
      pipeline->set_brownout(want_coarse ? coarse : core::BrownoutProfile{});
      is_coarse = want_coarse;
    }
    const auto content = run.contents[z].find(fix.seq);
    if (content == run.contents[z].end()) {
      throw std::runtime_error("perfbench replay: no content for a fix");
    }
    reports.clear();
    arrays.clear();
    for (const std::size_t f : content->second) {
      for (const auto& [array, report] : decoded[f]) {
        arrays.push_back(array);
        reports.push_back(&report);
      }
    }

    // LocalizationService::process_epoch, call for call.
    ReplayFix& timing = out.per_fix[i];
    pipeline->begin_epoch(fix.watermark_us);
    std::size_t fed = 0;
    for (std::size_t r = 0; r < reports.size(); ++r) {
      if (pipeline->early_fix_ready()) break;
      ++fed;
      for (const rfid::TagObservation& obs : reports[r]->observations) {
        const std::int64_t t0 = now_ns();
        const std::size_t drops = pipeline->observe(arrays[r], obs);
        const std::int64_t dt = now_ns() - t0;
        timing.observe_ns += dt;
        if (timed) {
          out.observe_us.push_back(1e-3 * static_cast<double>(dt));
          out.drops += drops;
        }
        if (pipeline->early_fix_ready()) break;
      }
    }
    const std::int64_t t0 = now_ns();
    const core::ConfidentEstimate result =
        pipeline->localize_with_confidence(zone.config.best_effort);
    timing.localize_ns = now_ns() - t0;
    if (timed) {
      out.localize_us.push_back(1e-3 * static_cast<double>(timing.localize_ns));
    }
    const bool early = pipeline->early_fix_ready();
    const std::size_t skipped = early ? reports.size() - fed : 0;
    if (!same_fix(fix, result, early, skipped)) {
      if (out.mismatches++ == 0) {
        out.first_mismatch = zone.config.name + " seq " +
                             std::to_string(fix.seq) + " (fix " +
                             std::to_string(i) + ")";
      }
    }
  }
  return out;
}

}  // namespace

ReplayResult replay(const Workload& w,
                    const serve::LocalizationService& service,
                    const RunResult& run, std::size_t threads) {
  const std::size_t zones = w.zones.size();
  std::vector<ZoneReplay> per_zone(zones);
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::string error;
  const auto work = [&] {
    for (std::size_t z = next++; z < zones; z = next++) {
      try {
        per_zone[z] = replay_zone(w, service, run, z);
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (error.empty()) error = e.what();
      }
    }
  };
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < std::max<std::size_t>(1, threads); ++t) {
      pool.emplace_back(work);
    }
  }
  if (!error.empty()) throw std::runtime_error(error);

  ReplayResult out;
  out.per_fix.resize(zones);
  for (std::size_t z = 0; z < zones; ++z) {
    ZoneReplay& r = per_zone[z];
    out.observe_us.insert(out.observe_us.end(), r.observe_us.begin(),
                          r.observe_us.end());
    out.localize_us.insert(out.localize_us.end(), r.localize_us.begin(),
                           r.localize_us.end());
    out.drops += r.drops;
    out.compared += r.per_fix.size();
    out.mismatches += r.mismatches;
    if (out.first_mismatch.empty()) out.first_mismatch = r.first_mismatch;
    out.per_fix[z] = std::move(r.per_fix);
  }
  return out;
}

}  // namespace perfbench
