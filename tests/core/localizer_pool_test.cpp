// The pooled localizer against the frozen oracle: heatmap rows computed
// on a 4-worker pool share one read-only kernel table, and the grid must
// still be byte-equal to the serial oracle at every stride. The
// branch-and-bound search never touches the pool and keeps all its state
// inside one call, so searches on one shared localizer from several
// threads must match the oracle too. RSS heatmaps share the same pooled
// rows. Labelled stress-tsan, so the ThreadSanitizer tree races them and
// the AddressSanitizer tree checks their buffers.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "localizer_oracle.hpp"
#include "rss_oracle.hpp"
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

TEST(LocalizerOraclePool, RssGridIsByteEqualToOracle) {
  // RSS heatmaps take the same pooled rows over the link kernel table.
  const auto pool = std::make_shared<ThreadPool>(4);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const rss_oracle::Case c = rss_oracle::random_case(seed);
    rss_oracle::for_each_stride(c, [&](const rss_oracle::Search& s,
                                       const rss_oracle::Case& cc) {
      oracle::expect_same_grid(
          rss_oracle::localizer_for(s, pool).likelihood_grid(cc.links,
                                                             cc.excluded),
          s.grid(cc.links, cc.excluded));
    });
  }
}

TEST(LocalizerOraclePool, GridSearchMatchesOracle) {
  const auto pool = std::make_shared<ThreadPool>(4);
  oracle::for_each_case(3, [&](const oracle::Search& s, const auto& ev) {
    oracle::expect_search_matches(s, oracle::localizer_for(s, pool), ev);
  });
}

TEST(LocalizerOraclePool, ConcurrentSearchesOnOneLocalizer) {
  const auto pool = std::make_shared<ThreadPool>(4);
  for (const std::size_t stride : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "stride " << stride);
    oracle::Search s;
    s.stride = stride;
    const Localizer loc = oracle::localizer_for(s);
    std::vector<std::vector<AngularEvidence>> evidence;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      evidence.push_back(oracle::random_evidence(seed));
    }
    std::vector<LocationEstimate> fixes(evidence.size());
    std::vector<std::vector<LocationEstimate>> multi(evidence.size());
    pool->parallel_for(evidence.size(), [&](std::size_t i) {
      fixes[i] = loc.localize(evidence[i]);
      multi[i] = loc.localize_multi(evidence[i], 4, 0.25, 0.35);
    });
    for (std::size_t i = 0; i < evidence.size(); ++i) {
      EXPECT_TRUE(oracle::same_estimate(fixes[i], s.localize(evidence[i])));
      EXPECT_TRUE(oracle::same_estimates(
          multi[i], s.localize_multi(evidence[i], 4, 0.25, 0.35)));
    }
  }
}

}  // namespace
}  // namespace dwatch::core
