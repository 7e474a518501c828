// Intra-trial sharded campaign runner (DESIGN.md §13).
//
// `ParallelTrialRunner` parallelizes *across* trials; this facade
// parallelizes *inside* one: it resolves a `scenario::ShardPlan` —
// shard count and worker budget — injects it into the config and runs
// the engine, whose whole-population sample tallies then fan out across
// a fork-join `ShardPool`.  The export is byte-identical to the
// unsharded engine at any shard count and any worker count (the
// sequential engine is the oracle; `ctest -L shard` enforces it), so
// sharding is purely an execution knob.  Like the engine, the runner
// only streams into a `measure::MeasurementSink`; pass a
// `measure::CollectingSink` to keep the run in memory.
//
// Worker budgeting: an auto plan (workers == 0) resolves through the
// process-wide `WorkerBudget` that `ParallelTrialRunner` shares, so a
// sweep of sharded trials commits trials x shards workers never
// exceeding hardware concurrency.
#pragma once

#include <expected>
#include <string>

#include "measure/sink.hpp"
#include "scenario/campaign.hpp"

namespace ipfs::runtime {

class ShardedCampaignRunner {
 public:
  struct Options {
    /// Population shards; 0 resolves to `WorkerBudget::hardware()` (one
    /// slice per core the machine could give us).
    unsigned shards = 0;
    /// Worker threads; 0 leases from the process `WorkerBudget` at
    /// engine construction, explicit values are honoured as given.
    unsigned workers = 0;
  };

  ShardedCampaignRunner() = default;
  explicit ShardedCampaignRunner(Options options) : options_(options) {}

  /// The plan `run` would inject: the shard default resolved, worker
  /// request passed through (the budget lease happens inside the engine).
  [[nodiscard]] scenario::ShardPlan resolve_plan() const noexcept;

  /// Run one sharded campaign, streaming into `sink`.  Returns the
  /// engine's validation error when the config or plan is invalid, in
  /// which case nothing runs and `sink` receives nothing.
  std::expected<void, std::string> run(scenario::CampaignConfig config,
                                       measure::MeasurementSink& sink) const;

 private:
  Options options_{};
};

}  // namespace ipfs::runtime
