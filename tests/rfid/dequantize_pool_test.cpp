// First use of the process-wide dequantization tables from a pool:
// four workers fill the same entries concurrently, each starting at a
// different code, and every value must still equal the direct
// std::polar expression. Labelled stress-tsan with the other pooled
// cases, so the ThreadSanitizer tree races the lazy fills.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/thread_pool.hpp"
#include "rfid/llrp.hpp"

namespace dwatch::rfid {
namespace {

TEST(DequantizeTablePool, ConcurrentFirstUseMatchesPolar) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::uint32_t kCodes = 1u << 16;
  core::ThreadPool pool(kWorkers);
  std::vector<std::size_t> mismatches(kWorkers, 0);
  pool.parallel_for(kWorkers, [&](std::size_t w) {
    for (std::uint32_t i = 0; i < kCodes; ++i) {
      const std::uint32_t code = (i + static_cast<std::uint32_t>(w) *
                                          (kCodes / kWorkers)) % kCodes;
      const auto phase = static_cast<std::uint16_t>(code);
      const auto rssi = static_cast<std::int16_t>(
          static_cast<std::int32_t>(code) +
          std::numeric_limits<std::int16_t>::min());
      const linalg::Complex got = dequantize_sample(phase, rssi);
      const linalg::Complex want =
          std::polar(dequantize_rssi(rssi), dequantize_phase(phase));
      if (std::memcmp(&got, &want, sizeof got) != 0) ++mismatches[w];
    }
  });
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(mismatches[w], 0u) << "worker " << w;
  }
}

}  // namespace
}  // namespace dwatch::rfid
