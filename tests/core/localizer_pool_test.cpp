// The pooled likelihood grid against the frozen oracle: rows computed on
// a 4-worker pool share one read-only kernel table, and the grid and the
// fix must still be byte-equal to the serial oracle at every stride.
// Labelled tsan, so the ThreadSanitizer tree races the shared table.
#include <gtest/gtest.h>

#include <memory>

#include "localizer_oracle.hpp"
#include "core/thread_pool.hpp"

namespace dwatch::core {
namespace {

TEST(LocalizerOraclePool, GridIsByteEqualToOracle) {
  const auto pool = std::make_shared<ThreadPool>(4);
  oracle::for_each_case(3, [&](const oracle::Search& s, const auto& ev) {
    oracle::expect_same_grid(
        oracle::localizer_for(s, pool).likelihood_grid(ev), s.grid(ev));
  });
}

TEST(LocalizerOraclePool, GridSearchMatchesOracle) {
  const auto pool = std::make_shared<ThreadPool>(4);
  oracle::for_each_case(3, [&](const oracle::Search& s, const auto& ev) {
    EXPECT_TRUE(oracle::same_estimate(
        oracle::localizer_for(s, pool).localize(ev), s.localize(ev)));
  });
}

}  // namespace
}  // namespace dwatch::core
