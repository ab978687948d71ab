// Standalone replay of a traced run: the core layer's ledger, measured
// from outside the service.
//
// Each zone's epochs are re-run, in processing order, through a
// DWatchPipeline built like the zone's, exactly as
// LocalizationService::process_epoch runs them (same reports, same
// early-seal cut, same brownout profile per tick). The serve contract
// makes that pipeline's fixes bit-identical to the zone's; every fix is
// compared, and a mismatch fails the run because the ledger would then
// be timing a different program. The observe and localize calls are
// timed one by one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serving.hpp"
#include "workload.hpp"

namespace perfbench {

struct ReplayFix {
  std::int64_t observe_ns = 0;  ///< all observe() calls of the epoch
  std::int64_t localize_ns = 0;
};

struct ReplayResult {
  /// Per call, timed ticks only.
  std::vector<double> observe_us;
  std::vector<double> localize_us;
  std::uint64_t drops = 0;  ///< drops detected by those observe calls
  /// Per zone, aligned with service.fixes(zone).
  std::vector<std::vector<ReplayFix>> per_fix;
  std::uint64_t compared = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
};

/// Replay every epoch `service` processed during `run` on `threads`
/// threads (whole zones per thread).
[[nodiscard]] ReplayResult replay(const Workload& w,
                                  const serve::LocalizationService& service,
                                  const RunResult& run, std::size_t threads);

}  // namespace perfbench
