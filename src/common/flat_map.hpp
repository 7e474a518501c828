// Open-addressing hash table for the per-peer lookup tables (DESIGN.md §7,
// "Flat peer tables").
//
// One allocation holds the slots and, after them, one tag byte per slot:
// 0 marks an empty slot, otherwise 0x80 and seven hash bits, so a probe
// compares keys only on a tag match.  Linear probing, a power-of-two
// capacity and backward-shift erase (no tombstones).  The home slot is the
// top bits of the hash times the golden-ratio constant, which also spreads
// a weak `Hash`.
//
// An empty table allocates nothing; the first insert allocates 2 slots and
// every growth doubles, at most 7/8 full.  Thousands of short-lived
// per-fetcher tables therefore cost almost nothing, and a large table
// holds an entry in about as many bytes as a node-based map.
//
// Rules for callers:
// - Any insert or erase may move entries: it invalidates every reference,
//   pointer and iterator into the table.  Re-look-up after a call that can
//   re-enter the owner.
// - Walk order is hash order.  It depends on the capacity and the insert and
//   erase history, so no walk may reach output unsorted; each walk in src/
//   carries an `// order-free:` reason (tools/lint_hash_walks.py).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <new>
#include <type_traits>
#include <utility>

namespace ipfs::common {

/// The value type of a FlatSet; it takes no room in an entry.
struct NoValue {};

/// A table entry.  Not std::pair, so a set's entry is just its key.
template <class K, class V>
struct FlatEntry {
  K first;
  [[no_unique_address]] V second;
};

template <class K, class V, class Hash = std::hash<K>>
class FlatMap {
 public:
  /// Callers must not change a key through an iterator.
  using value_type = FlatEntry<K, V>;

  template <bool Const>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = FlatMap::value_type;
    using difference_type = std::ptrdiff_t;
    using Map = std::conditional_t<Const, const FlatMap, FlatMap>;
    using reference = std::conditional_t<Const, const value_type&, value_type&>;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;

    Iter() = default;
    Iter(Map* map, std::size_t index) : map_(map), index_(index) { skip_empty(); }
    /// iterator converts to const_iterator.
    template <bool OtherConst>
      requires(Const && !OtherConst)
    Iter(const Iter<OtherConst>& other) : map_(other.map_), index_(other.index_) {}

    reference operator*() const { return map_->slots_[index_]; }
    pointer operator->() const { return &map_->slots_[index_]; }
    Iter& operator++() {
      ++index_;
      skip_empty();
      return *this;
    }
    friend bool operator==(const Iter& a, const Iter& b) { return a.index_ == b.index_; }

   private:
    friend class FlatMap;
    template <bool>
    friend class Iter;
    void skip_empty() {
      while (index_ < map_->capacity_ && map_->tags_[index_] == 0) ++index_;
    }
    Map* map_ = nullptr;
    std::size_t index_ = 0;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatMap() = default;
  FlatMap(const FlatMap& other) {
    if (other.capacity_ == 0) return;
    allocate(other.capacity_);
    try {
      for (std::size_t i = 0; i < capacity_; ++i) {
        if (other.tags_[i] == 0) continue;
        ::new (static_cast<void*>(slots_ + i)) value_type(other.slots_[i]);
        tags_[i] = other.tags_[i];
        ++size_;
      }
    } catch (...) {
      release();
      throw;
    }
  }
  FlatMap(FlatMap&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        tags_(std::exchange(other.tags_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)),
        shift_(std::exchange(other.shift_, 64)) {}
  FlatMap& operator=(const FlatMap& other) {
    if (this != &other) {
      FlatMap copy(other);
      swap(copy);
    }
    return *this;
  }
  FlatMap& operator=(FlatMap&& other) noexcept {
    FlatMap moved(std::move(other));
    swap(moved);
    return *this;
  }
  ~FlatMap() { release(); }

  void swap(FlatMap& other) noexcept {
    std::swap(slots_, other.slots_);
    std::swap(tags_, other.tags_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
    std::swap(shift_, other.shift_);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, capacity_); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, capacity_); }

  /// Room for `count` entries without growing.
  void reserve(std::size_t count) {
    std::size_t capacity = capacity_ == 0 ? 2 : capacity_;
    while (max_load(capacity) < count) capacity *= 2;
    if (capacity > capacity_) rehash(capacity);
  }

  iterator find(const K& key) { return iterator(this, locate(key)); }
  const_iterator find(const K& key) const { return const_iterator(this, locate(key)); }
  [[nodiscard]] bool contains(const K& key) const { return locate(key) != capacity_; }

  /// The entry for `key`, its value constructed from `args` when absent;
  /// true when it was inserted.
  template <class... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    auto [index, found] = probe(key);
    if (found) return {iterator(this, index), false};
    if (size_ + 1 > max_load(capacity_)) {
      rehash(capacity_ == 0 ? 2 : capacity_ * 2);
      index = probe(key).first;
    }
    ::new (static_cast<void*>(slots_ + index))
        value_type{key, V(std::forward<Args>(args)...)};
    tags_[index] = position(key).second;
    ++size_;
    return {iterator(this, index), true};
  }
  std::pair<iterator, bool> insert(const K& key) { return try_emplace(key); }
  V& operator[](const K& key) { return try_emplace(key).first->second; }

  void erase(const_iterator at) { erase_at(at.index_); }
  std::size_t erase(const K& key) {
    const std::size_t index = locate(key);
    if (index == capacity_) return 0;
    erase_at(index);
    return 1;
  }

  /// Erases every entry for which `pred(entry)` is true; `pred` may modify
  /// the entry's value.  Each entry is visited once.
  template <class Pred>
  std::size_t erase_if(Pred pred) {
    if (size_ == 0) return 0;
    // Start just past an empty slot: no cluster wraps past the walk's
    // start, so a backward shift only moves entries the walk has not
    // reached yet into the slot it just emptied.
    const std::size_t mask = capacity_ - 1;
    std::size_t start = 0;
    while (tags_[start] != 0) ++start;
    std::size_t erased = 0;
    for (std::size_t offset = 1; offset < capacity_;) {
      const std::size_t index = (start + offset) & mask;
      if (tags_[index] != 0 && pred(slots_[index])) {
        erase_at(index);
        ++erased;
      } else {
        ++offset;
      }
    }
    return erased;
  }

 private:
  static_assert(alignof(value_type) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  /// Largest entry count a capacity holds: 7/8 full, and never full, so
  /// every probe ends at an empty slot.
  static constexpr std::size_t max_load(std::size_t capacity) noexcept {
    if (capacity <= 8) return capacity == 0 ? 0 : capacity - 1;
    return capacity / 8 * 7;
  }

  /// Home slot and tag of `key` at the current capacity.
  [[nodiscard]] std::pair<std::size_t, std::uint8_t> position(const K& key) const {
    const std::uint64_t mixed =
        static_cast<std::uint64_t>(Hash{}(key)) * 0x9e3779b97f4a7c15ULL;
    return {static_cast<std::size_t>(mixed >> shift_),
            static_cast<std::uint8_t>(0x80 | ((mixed >> (shift_ - 7)) & 0x7f))};
  }

  /// The slot holding `key` and true, or the empty slot that ends its
  /// probe and false; (0, false) while nothing is allocated.
  [[nodiscard]] std::pair<std::size_t, bool> probe(const K& key) const {
    if (capacity_ == 0) return {0, false};
    const auto [home, tag] = position(key);
    const std::size_t mask = capacity_ - 1;
    std::size_t index = home;
    for (; tags_[index] != 0; index = (index + 1) & mask) {
      if (tags_[index] == tag && slots_[index].first == key) return {index, true};
    }
    return {index, false};
  }

  /// Slot of `key`, or capacity() when absent.
  [[nodiscard]] std::size_t locate(const K& key) const {
    if (size_ == 0) return capacity_;
    const auto [index, found] = probe(key);
    return found ? index : capacity_;
  }

  /// Empty storage for `capacity` slots; the table must own none.
  void allocate(std::size_t capacity) {
    void* storage = ::operator new(capacity * (sizeof(value_type) + 1));
    slots_ = static_cast<value_type*>(storage);
    tags_ = reinterpret_cast<std::uint8_t*>(slots_ + capacity);
    std::memset(tags_, 0, capacity);
    capacity_ = capacity;
    unsigned bits = 0;
    while ((std::size_t{1} << bits) < capacity) ++bits;
    shift_ = 64 - bits;
  }

  /// Destroys every entry and frees the storage.
  void release() noexcept {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (tags_[i] != 0) slots_[i].~value_type();
    }
    ::operator delete(slots_);
    slots_ = nullptr;
    tags_ = nullptr;
    size_ = 0;
    capacity_ = 0;
    shift_ = 64;
  }

  void rehash(std::size_t capacity) {
    FlatMap grown;
    grown.allocate(capacity);
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (tags_[i] != 0) grown.place(std::move(slots_[i]));
    }
    swap(grown);
  }

  /// Moves in an entry whose key the table lacks; there must be room.
  void place(value_type&& entry) {
    const auto [home, tag] = position(entry.first);
    const std::size_t mask = capacity_ - 1;
    std::size_t index = home;
    while (tags_[index] != 0) index = (index + 1) & mask;
    ::new (static_cast<void*>(slots_ + index)) value_type(std::move(entry));
    tags_[index] = tag;
    ++size_;
  }

  /// Backward-shift deletion: pull each later entry of the cluster into
  /// the hole unless its home lies cyclically in (hole, entry].
  void erase_at(std::size_t hole) {
    slots_[hole].~value_type();
    const std::size_t mask = capacity_ - 1;
    for (std::size_t next = (hole + 1) & mask; tags_[next] != 0;
         next = (next + 1) & mask) {
      const std::size_t home = position(slots_[next].first).first;
      const bool stays = hole <= next ? (hole < home && home <= next)
                                      : (hole < home || home <= next);
      if (stays) continue;
      ::new (static_cast<void*>(slots_ + hole)) value_type(std::move(slots_[next]));
      slots_[next].~value_type();
      tags_[hole] = tags_[next];
      hole = next;
    }
    tags_[hole] = 0;
    --size_;
  }

  value_type* slots_ = nullptr;
  /// The capacity_ bytes after the slots: 0 for an empty slot, else 0x80 |
  /// seven hash bits.
  std::uint8_t* tags_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  /// 64 - log2(capacity): the hash bits above it pick the home slot.
  unsigned shift_ = 64;
};

template <class K, class Hash = std::hash<K>>
using FlatSet = FlatMap<K, NoValue, Hash>;

}  // namespace ipfs::common
