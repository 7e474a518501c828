#include "runtime/sharded.hpp"

#include <utility>

#include "runtime/worker_budget.hpp"

namespace ipfs::runtime {

scenario::ShardPlan ShardedCampaignRunner::resolve_plan() const noexcept {
  scenario::ShardPlan plan;
  plan.shards = options_.shards == 0 ? WorkerBudget::hardware() : options_.shards;
  plan.workers = options_.workers;
  return plan;
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
