// Incremental-vs-batch parity over the WHOLE scenario registry: every
// registered scenario runs through the streaming spectral path
// (rank-1 covariance + early sealing) AND the batch oracle, and the
// two must agree — same outcome, fix-RMSE deltas within 0.05 m. The
// bit-identical covariance contract lives in
// tests/core/streaming_test.cpp; this suite proves the end-to-end fix
// quality survives the swap on every room, motion, and RSS case.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace dwatch::scenario {
namespace {

constexpr double kRmseDeltaBudget = 0.05;  // metres

std::string describe(const char* tag, const ScenarioResult& r) {
  return std::string(tag) + " " + std::string(to_string(r.outcome)) + ": " +
         r.detail + " (rmse " + std::to_string(r.metrics.rmse) +
         " m, fix_rmse " + std::to_string(r.metrics.fix_rmse) +
         " m, early_seals " + std::to_string(r.metrics.early_seals) + ")";
}

// The parameter is the registry index, not the ScenarioSpec itself:
// gtest prints a struct parameter as its raw bytes, heap pointers
// included, and that text is part of the listed test id.
class StreamingParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StreamingParity, MatchesBatchOracleWithinBudget) {
  const ScenarioSpec& spec = all_scenarios().at(GetParam());

  RunnerConfig batch_config;
  const ScenarioResult batch = ScenarioRunner(batch_config).run(spec);

  RunnerConfig stream_config;
  stream_config.streaming.enabled = true;  // early_seal defaults on
  const ScenarioResult stream = ScenarioRunner(stream_config).run(spec);

  ASSERT_EQ(stream.outcome, batch.outcome)
      << describe("stream", stream) << "\n"
      << describe("batch", batch);
  if (batch.outcome != Outcome::kPass) return;  // both skipped the same way

  EXPECT_GT(stream.metrics.valid_fixes, 0u) << describe("stream", stream);
  EXPECT_LE(std::abs(stream.metrics.rmse - batch.metrics.rmse),
            kRmseDeltaBudget)
      << describe("stream", stream) << "\n"
      << describe("batch", batch);
  EXPECT_LE(std::abs(stream.metrics.fix_rmse - batch.metrics.fix_rmse),
            kRmseDeltaBudget)
      << describe("stream", stream) << "\n"
      << describe("batch", batch);
  // Batch mode cannot seal early, by construction.
  EXPECT_EQ(batch.metrics.early_seals, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, StreamingParity,
    ::testing::Range<std::size_t>(0, all_scenarios().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return all_scenarios()[info.param].name;
    });

// Streaming mode stays deterministic: two runs, byte-equal fixes.
TEST(StreamingRunner, DeterministicUnderAFixedSeed) {
  const ScenarioSpec* spec = find_scenario("hall_sparse_tags");
  ASSERT_NE(spec, nullptr);
  RunnerConfig config;
  config.streaming.enabled = true;
  const ScenarioResult a = ScenarioRunner(config).run(*spec);
  const ScenarioResult b = ScenarioRunner(config).run(*spec);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].fix.result.estimate.position.x,
              b.records[i].fix.result.estimate.position.x);
    EXPECT_EQ(a.records[i].fix.result.estimate.position.y,
              b.records[i].fix.result.estimate.position.y);
    EXPECT_EQ(a.records[i].fix.result.estimate.likelihood,
              b.records[i].fix.result.estimate.likelihood);
    EXPECT_EQ(a.records[i].fix.early, b.records[i].fix.early);
  }
  EXPECT_EQ(a.metrics.rmse, b.metrics.rmse);
  EXPECT_EQ(a.metrics.early_seals, b.metrics.early_seals);
}

// Early seals feed the TrackBank mid-epoch through the early-fix
// observer, and the scenario still scores a PASS: latency is the only
// thing early sealing is allowed to trade away.
TEST(StreamingRunner, EarlySealsStreamIntoTheTrackBank) {
  const ScenarioSpec* spec = find_scenario("library_static_human");
  ASSERT_NE(spec, nullptr);
  RunnerConfig config;
  config.streaming.enabled = true;
  config.streaming.min_reports = 4;
  config.streaming.convergence_window = 2;
  const ScenarioResult result = ScenarioRunner(config).run(*spec);
  EXPECT_EQ(result.outcome, Outcome::kPass)
      << describe("stream", result);
  EXPECT_GT(result.metrics.early_seals, 0u) << describe("stream", result);
  // Early epochs carry the early flag on their recorded fixes too.
  std::size_t flagged = 0;
  for (const EpochRecord& r : result.records) {
    if (r.fix.early) ++flagged;
  }
  EXPECT_EQ(flagged, result.metrics.early_seals);
}

// Multi-target specs force early sealing OFF (the backlog truncation
// would starve secondary peaks) but still run the incremental path.
TEST(StreamingRunner, MultiTargetNeverSealsEarly) {
  const ScenarioSpec* spec = find_scenario("library_two_humans");
  ASSERT_NE(spec, nullptr);
  RunnerConfig config;
  config.streaming.enabled = true;
  const ScenarioResult result = ScenarioRunner(config).run(*spec);
  EXPECT_EQ(result.outcome, Outcome::kPass) << describe("stream", result);
  EXPECT_EQ(result.metrics.early_seals, 0u);
  for (const EpochRecord& r : result.records) {
    EXPECT_FALSE(r.fix.early);
  }
}

}  // namespace
}  // namespace dwatch::scenario
