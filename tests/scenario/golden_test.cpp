// Fix golden for the scenario registry: every registered scenario runs
// through the ScenarioRunner in batch and in streaming mode, and a
// hex-float (%a) dump of everything the service decided is compared
// byte for byte with a checked-in file. The dump covers each epoch's
// fix (position, likelihood, consensus, validity, confidence counts,
// early seal, skipped reports), every multi-target estimate and every
// track position. Wall-clock fields (epoch_us, ttff_us) are left out.
//
// This is the standing bit-identity check for performance work on the
// fix path: a change that moves any fix by one ulp shows up here by
// scenario name. It must pass unchanged on every SIMD backend
// (DWATCH_SIMD=off included), since the kernels promise bit-identical
// results.
//
// Regenerating after an INTENDED behaviour change:
//   DWATCH_REGEN_GOLDEN=1 ./scenario_tests --gtest_filter='*ScenarioGolden*'
// then commit the rewritten files under tests/scenario/golden/.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace dwatch::scenario {
namespace {

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void dump_estimate(std::ostream& out, const core::LocationEstimate& e) {
  out << hex(e.position.x) << ' ' << hex(e.position.y) << ' '
      << hex(e.likelihood) << ' ' << e.consensus << ' ' << e.valid;
}

void dump_run(std::ostream& out, const char* mode,
              const ScenarioResult& result) {
  out << "== " << mode << ' ' << to_string(result.outcome) << " epochs "
      << result.records.size() << '\n';
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    const EpochRecord& r = result.records[i];
    const core::ConfidenceReport& c = r.fix.result.confidence;
    out << i << " fix ";
    dump_estimate(out, r.fix.result.estimate);
    out << " early " << r.fix.early << " skipped " << r.fix.reports_skipped
        << '\n';
    out << i << " conf";
#define DWATCH_GOLDEN_COUNTER(name) out << ' ' << c.name;
    DWATCH_EVIDENCE_COUNTERS(DWATCH_GOLDEN_COUNTER)
#undef DWATCH_GOLDEN_COUNTER
    out << ' ' << c.arrays_total << ' ' << c.arrays_with_evidence << ' '
        << c.arrays_excluded << ' ' << c.rss_mode << ' '
        << hex(c.phase_health) << '\n';
    for (const core::LocationEstimate& e : r.estimates) {
      out << i << " est ";
      dump_estimate(out, e);
      out << '\n';
    }
    for (const rf::Vec2& p : r.tracked) {
      out << i << " track " << hex(p.x) << ' ' << hex(p.y) << '\n';
    }
  }
}

std::string golden_path(const std::string& name) {
  return std::string(DWATCH_SCENARIO_GOLDEN_DIR) + "/" + name + ".txt";
}

// The parameter is the registry index, as in the compliance suite.
class ScenarioGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScenarioGolden, FixesMatchCommittedDump) {
  const ScenarioSpec& spec = all_scenarios().at(GetParam());
  std::ostringstream dump;
  dump_run(dump, "batch", ScenarioRunner().run(spec));
  RunnerConfig streaming;
  streaming.streaming.enabled = true;
  dump_run(dump, "streaming", ScenarioRunner(streaming).run(spec));

  const std::string path = golden_path(spec.name);
  if (std::getenv("DWATCH_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path) << dump.str();
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (regenerate with DWATCH_REGEN_GOLDEN=1)";
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  const std::string got = dump.str();
  if (golden == got) return;
  // Name the first differing line rather than printing two whole dumps.
  std::istringstream want_lines(golden);
  std::istringstream got_lines(got);
  std::string want_line;
  std::string got_line;
  for (std::size_t line = 1;; ++line) {
    const bool have_want = static_cast<bool>(std::getline(want_lines, want_line));
    const bool have_got = static_cast<bool>(std::getline(got_lines, got_line));
    if (!have_want && !have_got) break;
    if (have_want != have_got || want_line != got_line) {
      ADD_FAILURE() << path << " line " << line << "\n  golden: "
                    << (have_want ? want_line : "<end>")
                    << "\n  got:    " << (have_got ? got_line : "<end>");
      return;
    }
  }
  ADD_FAILURE() << path << " differs";
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ScenarioGolden,
    ::testing::Range<std::size_t>(0, all_scenarios().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return all_scenarios()[info.param].name;
    });

}  // namespace
}  // namespace dwatch::scenario
