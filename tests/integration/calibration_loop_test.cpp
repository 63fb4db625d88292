// Closed-loop calibration on the checked-in reference trace
// (scenarios/traces/passive_measurement_small.json): the full pipeline
// must fit every peer group, emit a scenario that validates and
// round-trips byte-exactly, pass the closed-loop KS check against a
// re-simulation, and produce identical bytes on every run.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "analysis/calibration.hpp"
#include "common/sim_time.hpp"
#include "scenario/scenario_spec.hpp"

namespace ipfs::analysis::calibrate {
namespace {

constexpr const char* kTracePath =
    IPFS_SOURCE_DIR "/scenarios/traces/passive_measurement_small.json";

std::string read_trace() {
  std::ifstream in(kTracePath, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing reference trace " << kTracePath;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CalibrationLoop, ReferenceTraceCalibratesEndToEnd) {
  const std::string trace = read_trace();
  ASSERT_FALSE(trace.empty());

  const auto result = run(trace);
  ASSERT_TRUE(result.has_value()) << result.error();

  // The trace has a real measurement window, so sessions still open at
  // its end must have been censored rather than fitted as short.
  EXPECT_GT(result->measured.session_count, 100u);
  EXPECT_GT(result->measured.censored_sessions, 0u);
  EXPECT_LT(result->measured.censored_sessions, result->measured.session_count);

  // Every documented peer group fits both distributions.
  for (const std::string group : {"all", "dht_servers", "clients"}) {
    ASSERT_TRUE(result->groups.contains(group)) << group;
    const GroupFit& fit = result->groups.at(group);
    EXPECT_TRUE(fit.session.any_ok()) << group;
    EXPECT_TRUE(fit.gap.any_ok()) << group;
    EXPECT_LE(fit.session.best().ks, 0.2) << group;
  }

  // The closed loop: re-simulating the emitted scenario reproduces the
  // measured session-length CDF within the acceptance threshold.
  EXPECT_TRUE(result->loop.ran);
  EXPECT_GT(result->loop.simulated_sessions, 0u);
  EXPECT_LE(result->loop.ks, result->loop.threshold);
  EXPECT_TRUE(result->loop.pass);
}

TEST(CalibrationLoop, EmittedScenarioValidatesAndRoundTrips) {
  const auto result = run(read_trace());
  ASSERT_TRUE(result.has_value()) << result.error();

  const scenario::ScenarioSpec& spec = result->scenario;
  EXPECT_EQ(spec.name, "calibrated");
  ASSERT_TRUE(spec.churn.has_value());
  EXPECT_FALSE(spec.churn->categories.empty());
  EXPECT_EQ(scenario::ScenarioSpec::validate(spec), std::nullopt);

  // Byte-exact round trip through the strict scenario layer.
  const std::string emitted = spec.to_json_string();
  const auto reparsed = scenario::ScenarioSpec::from_json(emitted);
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error();
  EXPECT_EQ(*reparsed, spec);
  EXPECT_EQ(reparsed->to_json_string(), emitted);
}

TEST(CalibrationLoop, PipelineIsByteDeterministic) {
  const std::string trace = read_trace();
  const auto first = run(trace);
  const auto second = run(trace);
  ASSERT_TRUE(first.has_value()) << first.error();
  ASSERT_TRUE(second.has_value()) << second.error();
  EXPECT_EQ(first->scenario.to_json_string(), second->scenario.to_json_string());
  EXPECT_EQ(first->report_json(), second->report_json());
  EXPECT_EQ(first->loop.ks, second->loop.ks);
}

TEST(CalibrationLoop, GapOptionChangesTheCensoringHorizon) {
  const std::string trace = read_trace();
  Options wide;
  wide.max_gap = 2 * common::kHour;
  wide.verify = false;
  const auto narrow = run(trace, {.verify = false});
  const auto merged = run(trace, wide);
  ASSERT_TRUE(narrow.has_value()) << narrow.error();
  ASSERT_TRUE(merged.has_value()) << merged.error();
  // A wider gap threshold merges sessions: strictly fewer of them.
  EXPECT_LT(merged->measured.session_count, narrow->measured.session_count);
}

TEST(CalibrationLoop, RepeatedKeyInTheReferenceTraceIsRejected) {
  // Malformed-trace corpus: the reference trace with "pid" given twice on
  // peers[0].  First-one-wins would calibrate it silently.
  std::string trace = read_trace();
  const std::size_t first_pid = trace.find("\"pid\":");
  ASSERT_NE(first_pid, std::string::npos);
  trace.insert(first_pid, "\"pid\": \"12D3KooWRepeated\", ");
  const auto result = run(trace, {.verify = false});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error(), "peers[0]: duplicate field 'pid'");
}

}  // namespace
}  // namespace ipfs::analysis::calibrate
