// dwatch_perfbench: the serving benchmark (see ../README.md).
//
//   dwatch_perfbench --workload rooms_batch --seed 1 --seconds 25 --trace 0
//
// Generates the workload from the seed, sets the service up several
// times before and after serving (set-up time is the median), serves
// the timed schedule open loop with tracing off and reports the
// end-to-end metrics. With
// --trace 1 it serves the same schedule again on a fresh service with
// every layer call timed and the obs runtime switch on, replays that
// run standalone, and reports the per-layer ledger instead. The last
// stdout line is one JSON object; the exit code is non-zero when a
// correctness gate fails.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "linalg/simd_kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "replay.hpp"
#include "serving.hpp"
#include "stats.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_LTO
#define PERFBENCH_LTO 0
#endif

namespace perfbench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 16;
/// Most blocks of consecutive ticks fix_latency_p99_ms is the median of.
constexpr std::size_t kTailBlocks = 5;
/// Warm-up before the timed ticks (caches, trackers, the brownout
/// ladder's first climb).
constexpr double kWarmupSeconds = 1.0;

struct Args {
  WorkloadParams params;
  double seconds = 0.0;
  bool trace = false;
};

[[nodiscard]] Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad flag " + key);
    kv[key.substr(2)] = argv[i + 1];
  }
  const auto need = [&kv](const char* key) {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      throw std::invalid_argument(std::string("missing --") + key);
    }
    return it->second;
  };
  Args a;
  a.params = workload_params(need("workload"), std::stoull(need("seed")));
  a.seconds = std::stod(need("seconds"));
  a.trace = need("trace") == "1";
  if (a.seconds <= 0.0) throw std::invalid_argument("seconds must be > 0");
  return a;
}

[[nodiscard]] std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// A "Vm..." line of /proc/self/status, in MiB.
[[nodiscard]] double proc_status_mib(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stod(line.substr(key.size() + 1)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no " + key + " in /proc/self/status");
}

/// Drop the generator's freed heap, then restart the peak resident set
/// (VmHWM) from the current one, so the peak read later is that of
/// set-up and serving on top of the resident inputs.
[[nodiscard]] double reset_peak_rss_mib() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) throw std::runtime_error("cannot reset the peak RSS");
  return proc_status_mib("VmRSS");
}

[[nodiscard]] double ms(std::int64_t ns) { return 1e-6 * static_cast<double>(ns); }

/// Ordered name -> (value, unit) list, printed and serialized as is.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  void print(const char* title) const {
    std::printf("%s\n", title);
    for (const auto& m : items_) {
      std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const double v = std::isfinite(items_[i].value) ? items_[i].value : 0.0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

/// Fix latencies (tick due -> landing) of the timed ticks, in ms, cut
/// into `blocks` runs of consecutive ticks.
[[nodiscard]] std::vector<std::vector<double>> fix_latency_blocks(
    const RunResult& run, std::size_t blocks) {
  const std::size_t timed = run.ticks.size() - run.warmup_ticks;
  std::vector<std::vector<double>> out(blocks);
  for (const auto& zone : run.fixes) {
    for (const FixRecord& f : zone) {
      if (f.tick < run.warmup_ticks) continue;
      out[(f.tick - run.warmup_ticks) * blocks / timed].push_back(
          ms(f.landing_ns - run.ticks[f.tick].due_ns));
    }
  }
  return out;
}

[[nodiscard]] std::vector<double> fix_latencies_ms(const RunResult& run) {
  return fix_latency_blocks(run, 1).front();
}

struct Tail {
  double ms = 0.0;
  std::size_t blocks = 1;
};

/// The reported p99: the median of the per-block p99s over as many
/// consecutive blocks of ticks (up to kTailBlocks) as leave every block
/// kTailSamples beyond its p99. A few seconds of slow host CPU then move
/// one block's tail, not the run's.
[[nodiscard]] Tail fix_latency_p99(const RunResult& run) {
  for (std::size_t blocks = kTailBlocks; blocks > 1; --blocks) {
    const auto parts = fix_latency_blocks(run, blocks);
    if (std::all_of(parts.begin(), parts.end(), [](const auto& p) {
          return tail_supported(p.size(), 0.99);
        })) {
      std::vector<double> p99s;
      for (const auto& p : parts) p99s.push_back(percentile(p, 0.99));
      return {percentile(p99s, 0.5), blocks};
    }
  }
  return {percentile(fix_latencies_ms(run), 0.99), 1};
}

struct Lag {
  double p50_ms = 0.0;
  double max_ms = 0.0;
  bool kept = true;  ///< the generator held its schedule
};

[[nodiscard]] Lag generator_lag(const RunResult& run, double tick_ms) {
  std::vector<double> lag;
  for (std::size_t k = run.warmup_ticks; k < run.ticks.size(); ++k) {
    lag.push_back(ms(run.ticks[k].start_ns - run.ticks[k].due_ns));
  }
  Lag out;
  out.p50_ms = percentile(lag, 0.5);
  out.max_ms = lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end());
  // Kept: a typical tick starts on time and none starts a whole period
  // late (a backlog would push every later tick further out).
  out.kept = out.p50_ms < 0.1 * tick_ms && out.max_ms < tick_ms;
  return out;
}

/// Correctness gates shared by both phases; returns failure messages.
[[nodiscard]] std::vector<std::string> gates(const Args& a, const RunResult& run,
                                             double rmse) {
  // End-to-end runs report p99: it needs enough fixes beyond it.
  const bool need_p99 = !a.trace;
  std::vector<std::string> fail;
  const Counts& c = run.counts;
  if (c.decode_failed != 0) fail.push_back("LLRP decode failures");
  if (c.unroutable != 0) fail.push_back("unroutable reports");
  if (c.offered != c.submitted + c.rejected + c.widened) {
    fail.push_back("offered epochs not conserved (submitted+rejected+widened)");
  }
  if (c.submitted != c.processed + c.shed) {
    fail.push_back("submitted epochs not conserved (processed+shed)");
  }
  // Rooms runs attach no BudgetProvider, so their tier stays 0 by
  // construction and is not gated.
  if (run.anchor_shed != 0) fail.push_back("anchor-class epoch shed");
  if (run.on_target == 0) fail.push_back("no fix on target");
  if (rmse > a.params.rmse_ceiling_m) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "fix RMSE %.4f m above ceiling %.4f m",
                  rmse, a.params.rmse_ceiling_m);
    fail.push_back(buf);
  }
  const std::size_t fixes = fix_latencies_ms(run).size();
  if (need_p99 && !tail_supported(fixes, 0.99)) {
    fail.push_back("too few fixes for p99 (" + std::to_string(fixes) + ")");
  }
  return fail;
}

[[nodiscard]] double rmse_of(const RunResult& run) {
  return run.on_target == 0
             ? 0.0
             : std::sqrt(run.sq_error_sum / static_cast<double>(run.on_target));
}

/// p50 of the DWATCH_SPAN stage histogram `stage` (µs).
[[nodiscard]] double stage_p50_us(const std::string& stage) {
  double p50 = 0.0;
  const std::string labels = "stage=\"" + stage + "\"";
  dwatch::obs::MetricsRegistry::global().for_each_histogram(
      [&](const std::string& name, const std::string& l,
          const dwatch::obs::Histogram& h) {
        if (name == "dwatch_stage_latency_us" && l == labels) {
          p50 = h.percentile(50.0);
        }
      });
  return p50;
}

void print_summary(const char* phase, const RunResult& run,
                   const std::vector<double>& lat, const Lag& lag,
                   double rmse) {
  const Summary s = summarize(lat);
  const Counts& c = run.counts;
  const std::uint64_t misses = c.offered - run.on_target_valid;
  std::printf(
      "%s: %zu timed ticks in %.3f s, %llu fixes (n=%zu), p50 %.3f ms, "
      "p%g %.3f ms\n",
      phase, run.ticks.size() - run.warmup_ticks, run.wall_s,
      static_cast<unsigned long long>(c.processed), s.n, s.p50,
      100.0 * s.tail_q, s.tail);
  std::printf(
      "  offered %llu, valid on target %llu, fix_miss_rate %.6f (shed %llu, "
      "refused %llu, widened %llu, invalid %llu, off target %llu, "
      "decode-failed %llu)\n",
      static_cast<unsigned long long>(c.offered),
      static_cast<unsigned long long>(run.on_target_valid),
      ratio(static_cast<double>(misses), static_cast<double>(c.offered)),
      static_cast<unsigned long long>(c.shed),
      static_cast<unsigned long long>(c.rejected),
      static_cast<unsigned long long>(c.widened),
      static_cast<unsigned long long>(c.processed - c.valid),
      static_cast<unsigned long long>(c.valid - run.on_target_valid),
      static_cast<unsigned long long>(c.decode_failed));
  std::printf(
      "  tier_max %u, anchor sheds %llu, rmse %.4f m over %llu on-target fixes, "
      "generator lag p50 %.3f ms max %.3f ms, schedule %s\n",
      static_cast<unsigned>(run.tier_max),
      static_cast<unsigned long long>(run.anchor_shed), rmse,
      static_cast<unsigned long long>(run.on_target), lag.p50_ms, lag.max_ms,
      lag.kept ? "kept" : "NOT KEPT");
  if (!lag.kept) {
    std::fprintf(stderr,
                 "perfbench: %s: the generator could not keep its schedule "
                 "(lag p50 %.3f ms, max %.3f ms); latencies include the "
                 "backlog\n",
                 phase, lag.p50_ms, lag.max_ms);
  }
}

/// Stage-span p50s of the traced serving phase, read before the replay
/// adds its own spans.
struct StageP50 {
  double pmusic_us = 0.0;
  double change_detect_us = 0.0;
  double localize_grid_us = 0.0;
};

/// The traced phase's per-layer metrics and the ledger table.
void layer_metrics(const Args& a, const RunResult& run, const StageP50& stages,
                   const ReplayResult& rep, double untraced_p50_ms,
                   Metrics& m) {
  const Counts& c = run.counts;
  const Lag lag = generator_lag(run, a.params.tick_ms);
  m.add("gen.lag_ms_p50", lag.p50_ms, "ms");
  m.add("gen.lag_ms_max", lag.max_ms, "ms");
  m.add("rfid.decode.us_p50", percentile(run.decode_us, 0.5), "us");
  m.add("rfid.decode.reports", static_cast<double>(run.decode_us.size()),
        "count");
  m.add("rfid.decode.bytes", static_cast<double>(run.decode_bytes), "bytes");
  m.add("rfid.decode.failed", static_cast<double>(c.decode_failed), "count");
  m.add("serve.route.us_p50", percentile(run.route_us, 0.5), "us");
  m.add("serve.route.unroutable", static_cast<double>(c.unroutable), "count");
  m.add("serve.seal.us_p50", percentile(run.seal_us, 0.5), "us");
  m.add("serve.admit.admitted", static_cast<double>(c.submitted), "count");
  m.add("serve.admit.shed", static_cast<double>(c.shed), "count");
  m.add("serve.admit.rejected", static_cast<double>(c.rejected), "count");
  m.add("serve.admit.widened", static_cast<double>(c.widened), "count");
  m.add("serve.admit.tier_max", static_cast<double>(run.tier_max), "tier");

  // Per-fix ledger: every fix of tick t waits for the tick's lag and all
  // of its decode / route / admit work (the serving thread does them
  // before any zone runs), then for its turn in the drain (queue), then
  // for its zone epoch, whose core calls the replay timed.
  std::vector<double> lat, lag_f, decode, route, admit, queue, zone_epoch,
      observe, localize, residual;
  double busy_ns = 0.0;
  for (std::size_t z = 0; z < run.fixes.size(); ++z) {
    for (std::size_t i = 0; i < run.fixes[z].size(); ++i) {
      const FixRecord& f = run.fixes[z][i];
      if (f.tick < run.warmup_ticks) continue;
      const TickRecord& t = run.ticks[f.tick];
      const std::int64_t epoch_ns = static_cast<std::int64_t>(f.epoch_us) * 1000;
      const std::int64_t l = f.landing_ns - t.due_ns;
      const std::int64_t q = f.landing_ns - epoch_ns - t.seal_end_ns;
      const ReplayFix& r = rep.per_fix[z][i];
      lat.push_back(ms(l));
      lag_f.push_back(ms(t.start_ns - t.due_ns));
      decode.push_back(ms(t.decode_ns));
      route.push_back(ms(t.route_ns));
      admit.push_back(ms(t.admit_ns));
      queue.push_back(ms(q));
      zone_epoch.push_back(ms(epoch_ns));
      observe.push_back(ms(r.observe_ns));
      localize.push_back(ms(r.localize_ns));
      residual.push_back(ms(l - (t.start_ns - t.due_ns) - t.decode_ns -
                            t.route_ns - t.admit_ns - q - r.observe_ns -
                            r.localize_ns));
      busy_ns += static_cast<double>(epoch_ns);
    }
  }
  std::vector<double> drain;
  for (std::size_t k = run.warmup_ticks; k < run.ticks.size(); ++k) {
    drain.push_back(ms(run.ticks[k].drain_end_ns - run.ticks[k].seal_end_ns));
  }
  m.add("serve.queue_wait.ms_p50", percentile(queue, 0.5), "ms");
  m.add("serve.queue_wait.ms_p99", percentile(queue, 0.99), "ms");
  m.add("serve.zone_epoch.ms_p50", percentile(zone_epoch, 0.5), "ms");
  m.add("serve.drain.ms_p50", percentile(drain, 0.5), "ms");
  m.add("serve.pool.busy_share",
        ratio(busy_ns, 1e9 * run.wall_s * static_cast<double>(a.params.workers)),
        "ratio");

  m.add("core.observe.us_p50", percentile(rep.observe_us, 0.5), "us");
  m.add("core.observe.count", static_cast<double>(rep.observe_us.size()),
        "count");
  m.add("core.observe.drops_per_obs",
        ratio(static_cast<double>(rep.drops),
              static_cast<double>(rep.observe_us.size())),
        "ratio");
  m.add("core.localize.us_p50", percentile(rep.localize_us, 0.5), "us");
  m.add("core.localize.count", static_cast<double>(rep.localize_us.size()),
        "count");
  m.add("core.pmusic.us_p50", stages.pmusic_us, "us");
  m.add("core.change_detect.us_p50", stages.change_detect_us, "us");
  m.add("core.localize_grid.us_p50", stages.localize_grid_us, "us");

  const StreamCounts& s = run.stream;
  m.add("core.stream.rank1_updates", static_cast<double>(s.rank1_updates),
        "count");
  m.add("core.stream.convergence_checks",
        static_cast<double>(s.convergence_checks), "count");
  m.add("core.stream.early_seal_share",
        ratio(static_cast<double>(s.early_sealed),
              static_cast<double>(c.processed)),
        "ratio");
  m.add("core.stream.reports_skipped_share",
        ratio(static_cast<double>(s.reports_skipped),
              static_cast<double>(s.reports_routed)),
        "ratio");
  m.add("core.stream.tracker_reset_share",
        ratio(static_cast<double>(s.tracker_resets),
              static_cast<double>(s.streamed_spectra)),
        "ratio");
  m.add("track.step.us_p50", percentile(run.track_us, 0.5), "us");
  m.add("track.steps", static_cast<double>(run.track_us.size()), "count");

  const double lat_p50 = percentile(lat, 0.5);
  m.add("ledger.residual_ms_p50", percentile(residual, 0.5), "ms");
  m.add("trace.overhead_share", ratio(lat_p50, untraced_p50_ms) - 1.0,
        "ratio");

  std::printf("ledger (traced, %zu fixes): p50 per fix and share of "
              "fix_latency_p50_ms %.3f ms\n",
              lat.size(), lat_p50);
  const std::pair<const char*, const std::vector<double>*> rows[] = {
      {"gen.lag", &lag_f},         {"rfid.decode", &decode},
      {"serve.route", &route},     {"serve.admit+seal", &admit},
      {"serve.queue_wait", &queue}, {"core.observe", &observe},
      {"core.localize", &localize}, {"residual", &residual},
      {"(serve.zone_epoch)", &zone_epoch}};
  for (const auto& [name, v] : rows) {
    const double p = percentile(*v, 0.5);
    std::printf("  %-20s %10.4f ms %7.1f%%\n", name, p,
                100.0 * ratio(p, lat_p50));
  }
}

int run_main(const Args& a) {
  const std::size_t cpus = online_cpus();
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing a build without NDEBUG\n");
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) == "Debug") {
    std::fprintf(stderr, "perfbench: refusing a Debug build\n");
    return 2;
  }
  if (a.params.workers + 1 > cpus) {
    std::fprintf(stderr,
                 "perfbench: %zu pool workers plus the generator thread "
                 "exceed the %zu CPUs available\n",
                 a.params.workers, cpus);
    return 2;
  }
  const auto warmup = static_cast<std::size_t>(
      std::ceil(kWarmupSeconds * 1e3 / a.params.tick_ms));
  // A traced run splits its time between the untraced and the traced
  // phase, so both kinds of run take about --seconds.
  const auto ticks = static_cast<std::size_t>(std::max(
      1.0, std::round(a.seconds * 1e3 / a.params.tick_ms / (a.trace ? 2 : 1))));
  std::printf(
      "stamp: workload=%s seed=%llu seconds=%g trace=%d nproc=%zu "
      "workers=%zu build=%s lto=%d simd=%s zones=%zu tick_ms=%g "
      "rmse_ceiling_m=%g warmup_ticks=%zu timed_ticks=%zu\n",
      a.params.name.c_str(), static_cast<unsigned long long>(a.params.seed),
      a.seconds, a.trace ? 1 : 0, cpus, a.params.workers, PERFBENCH_BUILD_TYPE,
      PERFBENCH_LTO ? 1 : 0,
      dwatch::linalg::simd::backend_name(
          dwatch::linalg::simd::active_backend()),
      a.params.zones, a.params.tick_ms, a.params.rmse_ceiling_m, warmup, ticks);

  const std::int64_t g0 = now_ns();
  const Workload w = make_workload(a.params);
  const double inputs_mib = reset_peak_rss_mib();
  std::printf("inputs: generated in %.3f s, %.1f MiB resident after\n",
              1e-9 * static_cast<double>(now_ns() - g0), inputs_mib);

  // The host's CPU speed drifts over seconds, and a set-up is short, so
  // half the set-ups run before serving and half after: their median
  // then spans the run rather than one moment of it.
  std::vector<double> setup_s;
  std::unique_ptr<serve::LocalizationService> service;
  const auto time_setups = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      service.reset();
      const std::int64_t s0 = now_ns();
      service = build_service(w);
      setup_s.push_back(1e-9 * static_cast<double>(now_ns() - s0));
    }
  };
  time_setups(kSetups / 2);

  const RunResult run = serve_run(w, *service, {warmup, ticks, false});
  // The service's own peak: set-up and serving above the inputs.
  const double process_peak_mib = proc_status_mib("VmHWM");
  const double rss_mib = process_peak_mib - inputs_mib;
  std::printf("memory: process peak %.1f MiB, of which inputs %.1f MiB "
              "(%.1f%%) and service %.1f MiB\n",
              process_peak_mib, inputs_mib,
              100.0 * ratio(inputs_mib, process_peak_mib), rss_mib);
  time_setups(kSetups - kSetups / 2);
  std::printf("setup: median %.6f s over %zu set-ups (min %.6f, max %.6f)\n",
              percentile(setup_s, 0.5), setup_s.size(),
              *std::min_element(setup_s.begin(), setup_s.end()),
              *std::max_element(setup_s.begin(), setup_s.end()));

  const std::vector<double> lat = fix_latencies_ms(run);
  const double rmse = rmse_of(run);
  const Lag lag = generator_lag(run, a.params.tick_ms);
  print_summary("untraced", run, lat, lag, rmse);
  const Tail p99 = fix_latency_p99(run);
  std::printf("  fix_latency_p99_ms %.3f: median of %zu block p99s\n",
              p99.ms, p99.blocks);
  std::vector<std::string> fail = gates(a, run, rmse);

  Metrics metrics;
  if (!a.trace) {
    metrics.add("fix_latency_p50_ms", percentile(lat, 0.5), "ms");
    metrics.add("fix_latency_p99_ms", p99.ms, "ms");
    metrics.add("fixes_per_cpu_s",
                ratio(static_cast<double>(run.counts.processed), run.cpu_s),
                "1/s");
    metrics.add("setup_s", percentile(setup_s, 0.5), "s");
    metrics.add("peak_rss_mb", rss_mib, "MiB");
    metrics.add("fix_rmse_m", rmse, "m");
    metrics.add("fix_yield",
                ratio(static_cast<double>(run.on_target_valid),
                      static_cast<double>(run.counts.offered)),
                "ratio");
  } else {
    service.reset();
    service = build_service(w);
    dwatch::obs::set_enabled(true);
    const RunResult traced = serve_run(w, *service, {warmup, ticks, true});
    const StageP50 stages{stage_p50_us("pmusic.power"),
                          stage_p50_us("change.detect"),
                          stage_p50_us("localize.grid")};
    const std::vector<double> traced_lat = fix_latencies_ms(traced);
    const double traced_rmse = rmse_of(traced);
    print_summary("traced", traced, traced_lat,
                  generator_lag(traced, a.params.tick_ms), traced_rmse);
    for (const std::string& f : gates(a, traced, traced_rmse)) {
      fail.push_back("traced: " + f);
    }
    const ReplayResult rep =
        replay(w, *service, traced, a.params.workers + 1);
    dwatch::obs::set_enabled(false);
    std::printf("replay: %llu fixes compared, %llu mismatches\n",
                static_cast<unsigned long long>(rep.compared),
                static_cast<unsigned long long>(rep.mismatches));
    if (rep.mismatches != 0) {
      fail.push_back("replay differs from the service at " +
                     rep.first_mismatch);
    }
    layer_metrics(a, traced, stages, rep, percentile(lat, 0.5), metrics);
  }

  metrics.print(a.trace ? "per-layer metrics:" : "end-to-end metrics:");
  for (const std::string& f : fail) {
    std::fprintf(stderr, "perfbench: GATE FAILED: %s\n", f.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      fail.empty() ? "true" : "false",
      static_cast<unsigned long long>(run.counts.offered),
      static_cast<unsigned long long>(run.counts.decode_failed +
                                      run.counts.unroutable),
      metrics.json().c_str());
  std::fflush(stdout);
  return fail.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
