// Input of the lint.flags_unmarked_walks check (tools/lint_hash_walks.py):
// exactly three walks below lack a marker.  Not compiled.
#include <unordered_map>
#include <unordered_set>

#include "common/flat_map.hpp"

struct Table {
  std::unordered_map<int,
                     std::unordered_set<int>>
      groups_;
  ipfs::common::FlatMap<int, int> counts_;
  std::vector<int> order_;

  int unmarked_range_for() const {
    int sum = 0;
    for (const auto& [key, members] : groups_) sum += key;  // flagged
    return sum;
  }

  int unmarked_iterator_walk() {
    int sum = 0;
    for (auto it = counts_.begin(); it != counts_.end(); ++it) sum += it->second;  // flagged
    return sum;
  }

  void unmarked_erase_if() {
    counts_.erase_if([](auto& entry) { return entry.second == 0; });  // flagged
  }

  int marked() {
    int sum = 0;
    // order-free: a sum does not depend on the order.
    for (const auto& [key, members] : groups_) sum += key;
    // A longer comment block above the walk
    // hash-order: ROADMAP item 1
    for (const auto& [key, count] : counts_) order_.push_back(key);
    counts_.erase_if([](auto& entry) { return entry.second < 0; });  // order-free: per entry
    for (const int value : order_) sum += value;  // a vector: not a hash table
    const char* text = "for (auto x : groups_) 1'000";
    return sum + static_cast<int>(text[0]) + 1'000;
  }
};
