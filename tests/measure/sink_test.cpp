#include "measure/sink.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <cstdlib>
#include <sstream>

namespace ipfs::measure {
namespace {

TEST(JsonExportSink, SplicesStreamedSamplesAfterTheDatasets) {
  std::ostringstream out;
  JsonExportSink sink(out);
  sink.on_fetch({1, 2, true, true, 3});
  sink.on_fetch({4, 5, false, false, 0});
  Dataset dataset;
  dataset.vantage = "go-ipfs";
  sink.on_dataset(DatasetRole::kVantage, dataset);
  sink.on_run_end({});
  const std::string text = out.str();
  const auto vantage = text.find("\"vantage\": \"go-ipfs\"");
  const auto samples = text.find("\"fetch_samples\"");
  ASSERT_NE(vantage, std::string::npos);
  ASSERT_NE(samples, std::string::npos);
  EXPECT_LT(vantage, samples);
  EXPECT_NE(text.find("\"latency_ms\": 3"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
  EXPECT_FALSE(out.fail());
}

TEST(JsonExportSink, DestroyedMidRunWritesNothing) {
  // An aborted run never reaches on_run_end: the spools' buffered samples
  // are dropped with their temporary files, and nothing reaches the output.
  std::ostringstream out;
  {
    JsonExportSink sink(out);
    for (std::uint32_t i = 0; i < 100; ++i) {
      sink.on_provide({static_cast<SimTime>(i), i, i + 1, false});
    }
  }
  EXPECT_EQ(out.str(), "");
  EXPECT_FALSE(out.fail());
}

/// Streams 20,000 fetch samples (about 2 MB of spool) through a sink
/// with the process's file-size limit at 64 KiB.  Exit code 0 when the
/// output stream reports the failure, 1 when it does not.
[[noreturn]] void export_under_file_size_limit() {
  std::signal(SIGXFSZ, SIG_IGN);  // make the refused write fail, not kill
  const rlimit limit{64 * 1024, 64 * 1024};
  if (setrlimit(RLIMIT_FSIZE, &limit) != 0) std::_Exit(2);
  std::ostringstream out;
  {
    JsonExportSink sink(out);
    for (std::uint32_t i = 0; i < 20'000; ++i) {
      sink.on_fetch({static_cast<SimTime>(i), i, true, true, 42});
    }
    sink.on_run_end({});
  }
  std::_Exit(out.fail() ? 0 : 1);
}

TEST(JsonExportSinkDeathTest, RefusedSpoolWriteFailsTheOutput) {
  // A spool the file system cuts short (here RLIMIT_FSIZE; a full disk
  // behaves the same) must fail the output stream, not splice a document
  // truncated mid-object.  Runs in a child so the limit stays there.
  EXPECT_EXIT(export_under_file_size_limit(), ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace ipfs::measure
