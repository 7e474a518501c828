// The dataset document (measure/dataset.cpp): what Dataset::export_json
// writes, measure::read_dataset reads back to the same bytes, and the
// reader turns damaged input into an error naming `trace` or a field path,
// never a crash.  The malformed-trace corpus lives in
// tests/analysis/calibration_test.cpp.
#include "measure/dataset.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "testing/campaign.hpp"

namespace ipfs::measure {
namespace {

std::string exported(const Dataset& dataset, bool connections, bool pretty) {
  std::ostringstream out;
  dataset.export_json(out, connections, pretty);
  return out.str();
}

/// `text` with every "pid" value replaced by "*": a PID string is identity
/// only, and cannot be parsed back into the PeerId that printed it.
std::string mask_pids(std::string text) {
  static constexpr std::string_view kKey = "\"pid\":";
  for (std::size_t at = text.find(kKey); at != std::string::npos;
       at = text.find(kKey, at)) {
    const std::size_t open = text.find('"', at + kKey.size());
    const std::size_t close = text.find('"', open + 1);
    text.replace(open + 1, close - open - 1, "*");
    at = open + 2;
  }
  return text;
}

TEST(DatasetDocument, ExportReadsBackToTheSameBytes) {
  for (const char* name : {"p4", "churn-baseline"}) {
    scenario::ScenarioSpec spec = *scenario::ScenarioSpec::builtin(name);
    spec.population.scale = 0.002;
    const CollectingSink run = testing::run_campaign(spec.to_campaign_config());
    const Dataset& dataset = testing::vantage(run);
    // Every part of the document is exercised.
    ASSERT_GT(dataset.connection_count(), 0u) << name;
    ASSERT_GT(dataset.agent_count(), 0u) << name;
    ASSERT_GT(dataset.protocol_count(), 0u) << name;
    ASSERT_GT(dataset.ip_count(), 0u) << name;
    for (const bool connections : {true, false}) {
      for (const bool pretty : {true, false}) {
        const std::string text = exported(dataset, connections, pretty);
        const auto read = read_dataset(text);
        ASSERT_TRUE(read.has_value()) << name << ": " << read.error();
        EXPECT_TRUE(testing::same_bytes(mask_pids(text),
                                        mask_pids(exported(*read, connections, pretty))))
            << name << (connections ? ", with" : ", without") << " connections, "
            << (pretty ? "pretty" : "compact");
      }
    }
  }
}

/// Whether `error` starts with "trace" or with a top-level field of the
/// document, followed by ':' or the rest of a path.
bool led_by_trace_or_field_path(std::string_view error) {
  for (const std::string_view lead :
       {"trace", "vantage", "measurement_start_ms", "measurement_end_ms", "peers",
        "connections"}) {
    if (error.starts_with(lead) && error.size() > lead.size() &&
        std::string_view(":[.").contains(error[lead.size()])) {
      return true;
    }
  }
  return false;
}

TEST(DatasetDocument, DamagedTracesFailWithAFieldPath) {
  std::ifstream in(IPFS_SOURCE_DIR "/scenarios/traces/passive_measurement_small.json",
                   std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string trace = buffer.str();
  ASSERT_TRUE(read_dataset(trace).has_value());

  std::size_t errors = 0;
  const auto check = [&errors](const std::string& input, const std::string& damage) {
    const auto result = read_dataset(input);
    if (result) return;
    ++errors;
    EXPECT_TRUE(led_by_trace_or_field_path(result.error()))
        << damage << ": " << result.error();
  };
  // Truncations at 64 fixed offsets, from the empty input on.
  constexpr std::size_t kCuts = 64;
  for (std::size_t cut = 0; cut < kCuts; ++cut) {
    const std::size_t length = trace.size() * cut / kCuts;
    check(trace.substr(0, length), "truncated to " + std::to_string(length) + " bytes");
  }
  // Single-byte damage at seeded offsets: alternately a byte the grammar
  // cares about, and one flipped bit.
  constexpr char kBytes[] = {'"', '{', '}', '[', ']', ',', ':', '-', '.',
                             '0', '9', 'e', 'x', '\\', ' ', '\0', '\xff'};
  common::Rng rng(20211203);
  for (int flip = 0; flip < 256; ++flip) {
    std::string input = trace;
    const std::size_t at = rng.uniform_u64(input.size());
    input[at] = flip % 2 == 0
                    ? kBytes[rng.uniform_u64(sizeof kBytes)]
                    : static_cast<char>(input[at] ^ (1 << rng.uniform_u64(8)));
    check(input, "byte " + std::to_string(at) + " damaged");
  }
  EXPECT_GE(errors, kCuts) << "every truncation fails";
}

}  // namespace
}  // namespace ipfs::measure
