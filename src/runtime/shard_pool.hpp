// Fork-join pool for deterministic intra-trial sharding (DESIGN.md §13).
//
// A sharded `CampaignEngine` keeps its event loop single-threaded and
// fans only its pure whole-population sample tallies across population
// shards.
// `ShardPool::run(body)` invokes `body(shard)` once per shard, on up to
// `workers()` threads (the calling thread participates), and returns only
// when every shard finished: a strict barrier, so the engine never
// observes partial fan-out state.
//
// Determinism contract: bodies must write only shard-local state (their
// contiguous slice of per-peer arrays, their slot of a per-shard partial
// buffer).  Shards are claimed from an atomic counter, so *completion*
// order is nondeterministic — the caller merges per-shard results in
// canonical ascending shard order after the barrier, which is what makes
// the merged result independent of both shard count and worker count.
//
// Exceptions thrown by a body are captured per shard and the lowest
// shard's exception is rethrown on the calling thread after the barrier
// (same policy as ParallelTrialRunner's run_pool).
//
// Like worker_budget.hpp this header is a leaf, usable from
// scenario/campaign.cpp without an include cycle.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace ipfs::runtime {

class ShardPool {
 public:
  /// A pool driving `shards` shards on `workers` threads (both clamped to
  /// >= 1; workers additionally clamped to shards — an idle helper could
  /// never claim work).  `workers == 1` spawns no threads at all: run()
  /// degrades to an inline loop, byte-identical by the merge contract.
  ShardPool(unsigned shards, unsigned workers);
  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;
  ~ShardPool();

  [[nodiscard]] unsigned shards() const noexcept { return shards_; }
  [[nodiscard]] unsigned workers() const noexcept { return workers_; }

  /// Invoke `body(shard)` for every shard in [0, shards()) and barrier
  /// until all completed.  Safe to call repeatedly; helpers persist
  /// across calls.  Must only be called from the owning thread.
  void run(const std::function<void(unsigned)>& body);

  /// The contiguous half-open index range [first, last) shard `shard` of
  /// `shards` owns over `count` items.  Slices differ in size by at most
  /// one and concatenate, in ascending shard order, to [0, count) — the
  /// canonical merge order.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> slice(
      std::size_t count, unsigned shards, unsigned shard) noexcept;

 private:
  void helper_loop();
  /// Claim and execute shards until the current job is drained.
  void drain(const std::function<void(unsigned)>& body);

  const unsigned shards_;
  const unsigned workers_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  const std::function<void(unsigned)>* body_ = nullptr;  ///< current job
  std::uint64_t generation_ = 0;  ///< bumps once per run() call
  unsigned next_shard_ = 0;       ///< claim cursor of the current job
  unsigned remaining_ = 0;        ///< shards not yet completed
  bool stopping_ = false;
  std::vector<std::exception_ptr> errors_;  ///< per shard, current job
  std::vector<std::thread> helpers_;
};

}  // namespace ipfs::runtime
