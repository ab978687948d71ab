// Concurrency suite for the obs layer, driven by the repo's own
// core::ThreadPool (the same pool that runs the likelihood grid, so the
// contention pattern matches production). Runs under the `tsan` ctest
// label: a ThreadSanitizer tree (cmake -DDWATCH_SANITIZE=thread)
// executes exactly these via the top-level tsan_check target.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace dwatch::obs {
namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kTasks = 256;
constexpr std::size_t kPerTask = 64;

TEST(ObsConcurrency, CountersAccumulateAcrossThreads) {
  MetricsRegistry reg;
  Counter& shared = reg.counter("dwatch_shared_total");
  core::ThreadPool pool(kWorkers);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    for (std::size_t k = 0; k < kPerTask; ++k) shared.inc();
    // Per-thread series exercise concurrent lookup of existing keys.
    reg.counter("dwatch_sharded_total",
                "shard=\"" + std::to_string(i % 8) + "\"")
        .inc();
  });
  EXPECT_EQ(shared.value(), kTasks * kPerTask);
  std::uint64_t sharded = 0;
  for (std::size_t s = 0; s < 8; ++s) {
    sharded += reg.counter("dwatch_sharded_total",
                           "shard=\"" + std::to_string(s) + "\"")
                   .value();
  }
  EXPECT_EQ(sharded, kTasks);
}

TEST(ObsConcurrency, ConcurrentSeriesRegistrationIsRaceFree) {
  // Every task insists on a distinct series name: the registry's
  // double-checked shared/unique-lock upgrade path is the target here.
  MetricsRegistry reg;
  core::ThreadPool pool(kWorkers);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    reg.counter("dwatch_unique_" + std::to_string(i) + "_total").inc();
    reg.gauge("dwatch_unique_gauge_" + std::to_string(i))
        .set(static_cast<double>(i));
    reg.histogram("dwatch_unique_hist_" + std::to_string(i),
                  Histogram::default_latency_bounds_us())
        .observe(static_cast<double>(i));
  });
  EXPECT_EQ(reg.size(), 3 * kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(
        reg.counter("dwatch_unique_" + std::to_string(i) + "_total").value(),
        1u);
  }
  // Exporting while nothing else runs must see a consistent registry.
  EXPECT_FALSE(reg.prometheus_text().empty());
}

TEST(ObsConcurrency, HistogramObserveIsLockFreeAndLossless) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("dwatch_lat_us",
                               std::vector<double>{1.0, 2.0, 4.0, 8.0});
  core::ThreadPool pool(kWorkers);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    for (std::size_t k = 0; k < kPerTask; ++k) {
      h.observe(static_cast<double>(i % 10));
    }
  });
  EXPECT_EQ(h.count(), kTasks * kPerTask);
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < h.num_buckets(); ++b) {
    bucket_total += h.bucket_count(b);
  }
  EXPECT_EQ(bucket_total, h.count());
}

TEST(ObsConcurrency, EventLogEmitUnderContention) {
  EventLog log(kTasks / 2);  // force eviction under contention too
  core::ThreadPool pool(kWorkers);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    log.emit(Event("concurrency.test").field("task", i));
  });
  EXPECT_EQ(log.size(), kTasks / 2);
  EXPECT_EQ(log.dropped(), kTasks - kTasks / 2);
  for (const std::string& line : log.snapshot()) {
    EXPECT_NE(line.find("\"type\":\"concurrency.test\""), std::string::npos);
    EXPECT_EQ(line.back(), '}');
  }
}

TEST(ObsConcurrency, TraceRecorderRecordUnderContention) {
  TraceRecorder rec(kTasks);  // half the records will be overwritten
  core::ThreadPool pool(kWorkers);
  pool.parallel_for(2 * kTasks, [&](std::size_t i) {
    SpanRecord s;
    s.name = "concurrency.span";
    s.start_us = i;
    s.duration_us = 1;
    s.thread_id = thread_ordinal();
    rec.record(s);
  });
  EXPECT_EQ(rec.size(), kTasks);
  EXPECT_EQ(rec.dropped(), kTasks);
  for (const SpanRecord& s : rec.snapshot()) {
    EXPECT_STREQ(s.name, "concurrency.span");
  }
}

#if DWATCH_OBS_ENABLED

TEST(ObsConcurrency, LiveSpansFromPoolWorkers) {
  set_enabled(true);
  TraceRecorder::global().clear();
  core::ThreadPool pool(kWorkers);
  pool.parallel_for(kTasks, [&](std::size_t) {
    DWATCH_SPAN("concurrency.live");
  });
  set_enabled(false);
  EXPECT_EQ(TraceRecorder::global().size(), kTasks);
}

#endif  // DWATCH_OBS_ENABLED

}  // namespace
}  // namespace dwatch::obs
