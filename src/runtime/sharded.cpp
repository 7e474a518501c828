#include "runtime/sharded.hpp"

#include <utility>

#include "runtime/worker_budget.hpp"

namespace ipfs::runtime {

scenario::ShardPlan ShardedCampaignRunner::resolve_plan() const noexcept {
  scenario::ShardPlan plan;
  plan.shards = options_.shards == 0 ? WorkerBudget::hardware() : options_.shards;
  plan.workers = options_.workers;
  if (options_.slab > 0) plan.slab = options_.slab;
  return plan;
}

std::optional<std::string> ShardedCampaignRunner::validate(
    const scenario::CampaignConfig& config, const Options& options) {
  if (options.slab < 0) return "sharding.slab must be positive";
  scenario::CampaignConfig sharded = config;
  sharded.sharding = ShardedCampaignRunner(options).resolve_plan();
  return scenario::CampaignEngine::validate(sharded);
}

std::expected<void, std::string> ShardedCampaignRunner::run(
    scenario::CampaignConfig config, measure::MeasurementSink& sink) const {
  config.sharding = resolve_plan();
  auto engine = scenario::CampaignEngine::create(std::move(config));
  if (!engine) return std::unexpected(std::move(engine.error()));
  engine->run(sink);
  return {};
}

}  // namespace ipfs::runtime
