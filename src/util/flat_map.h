// FlatMap / FlatSet — deterministic open-addressing hash containers for the
// pipeline's hot lookup paths (measurement folds, schedule load queries,
// registry joins).
//
// Why not std::unordered_map: the node-based layout costs one pointer chase
// per probe plus an allocation per insert, and the ~10^8 MeasurementStore
// folds of a longitudinal run are dominated by exactly those probes. FlatMap
// stores entries inline in a power-of-two slot array with linear probing, so
// a probe is one mix of the key plus a short contiguous scan — the dense
// array discipline that keeps index lookups at memory bandwidth.
//
// Slot placement uses the HIGH bits of the 64-bit hash (slot = hash >>
// (64 - log2 capacity)), not the low bits. The two spread keys equally
// well, but high-bit placement has a property batch ingest exploits: slot
// order equals hash-prefix order at every capacity, so a batch of probes
// sorted by hash prefix walks the slot array monotonically — sequential
// memory traffic the prefetcher can stream — instead of hopping randomly
// through a table much larger than cache (see MeasurementStore::add_batch).
//
// Determinism: iteration order (for_each) depends on the insertion/erase
// history, never on pointer values, so it is reproducible run-to-run; all
// serialization goes through sorted_items()/sorted_keys(), which are
// byte-identical for equal *contents* regardless of operation order.
//
// Deletion is tombstone-free: erase backward-shifts the displaced tail of
// the probe chain into the hole, so lookup cost never degrades as entries
// churn (retire_days_below erases every aggregate of each retired day).
//
// Requirements: K and V default-constructible and move-assignable; K
// equality-comparable, and `<`-comparable for the sorted snapshots.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ddos::util {

namespace detail {

/// 64-bit finalizer (splitmix64 / murmur3 style): full-avalanche, so dense
/// integer keys (window indices, host-order IPs) spread across slots.
constexpr std::uint64_t flat_mix64(std::uint64_t v) {
  v ^= v >> 33;
  v *= 0xFF51AFD7ED558CCDull;
  v ^= v >> 33;
  v *= 0xC4CEB9FE1A85EC53ull;
  v ^= v >> 33;
  return v;
}

}  // namespace detail

/// Default hasher: integral/enum keys and value-types exposing `.value()`
/// (netsim::IPv4Addr) are mixed to a full 64-bit hash.
template <typename K>
struct FlatHash {
  constexpr std::uint64_t operator()(const K& k) const {
    if constexpr (requires { k.value(); }) {
      return detail::flat_mix64(static_cast<std::uint64_t>(k.value()));
    } else {
      return detail::flat_mix64(static_cast<std::uint64_t>(k));
    }
  }
};

template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap {
 public:
  using Item = std::pair<K, V>;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slot-array size (power of two); 0 before the first insert.
  std::size_t capacity() const { return slots_.size(); }

  void clear() {
    slots_.clear();
    used_.clear();
    size_ = 0;
    mask_ = 0;
    shift_ = 0;
  }

  /// The hash a key probes with — exposed so batch callers can pre-sort
  /// probes by hash prefix and hit the table in slot order.
  std::uint64_t hash_of(const K& key) const { return hash_(key); }

  /// Ensure `n` entries fit without a rehash (max load factor 3/4).
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (n * 4 > cap * 3) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  V* find(const K& key) {
    const std::size_t i = index_of(key);
    return i == kNpos ? nullptr : &slots_[i].second;
  }
  const V* find(const K& key) const {
    const std::size_t i = index_of(key);
    return i == kNpos ? nullptr : &slots_[i].second;
  }
  bool contains(const K& key) const { return index_of(key) != kNpos; }

  /// Insert default-or-constructed value if absent; returns (slot, inserted).
  /// The returned pointer is valid until the next rehash (insert past the
  /// load factor) or erase.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(const K& key, Args&&... args) {
    if (slots_.empty()) {
      rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.size() * 2);
    }
    std::size_t i = home_of(key);
    while (used_[i]) {
      if (slots_[i].first == key) return {&slots_[i].second, false};
      i = (i + 1) & mask_;
    }
    slots_[i].first = key;
    slots_[i].second = V(std::forward<Args>(args)...);
    used_[i] = 1;
    ++size_;
    return {&slots_[i].second, true};
  }

  V& operator[](const K& key) { return *try_emplace(key).first; }

  void insert_or_assign(const K& key, V value) {
    *try_emplace(key).first = std::move(value);
  }

  /// Erase by key; backward-shifts the chain so no tombstones remain.
  bool erase(const K& key) {
    const std::size_t i = index_of(key);
    if (i == kNpos) return false;
    erase_at(i);
    return true;
  }

  /// Erase every entry `pred(key, value)` accepts; returns the count.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    // Two passes: backward-shift moves entries across the scan position,
    // so erasing mid-iteration could skip or double-visit survivors.
    std::vector<K> doomed;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i] && pred(slots_[i].first, slots_[i].second))
        doomed.push_back(slots_[i].first);
    }
    for (const K& k : doomed) erase(k);
    return doomed.size();
  }

  /// Visit entries in slot order (reproducible for an identical operation
  /// history, but NOT sorted — serialize via sorted_items()).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) fn(slots_[i].first, slots_[i].second);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) fn(slots_[i].first, slots_[i].second);
    }
  }

  /// Snapshot ascending by key — identical bytes for identical contents,
  /// whatever the insertion/erase order. All persistence goes through here.
  std::vector<Item> sorted_items() const {
    std::vector<Item> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) out.push_back(slots_[i]);
    }
    std::sort(out.begin(), out.end(),
              [](const Item& a, const Item& b) { return a.first < b.first; });
    return out;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  /// Home slot: hash high bits, so slot order tracks hash-prefix order.
  std::size_t home_of(const K& key) const {
    return static_cast<std::size_t>(hash_(key) >> shift_);
  }

  std::size_t index_of(const K& key) const {
    if (size_ == 0) return kNpos;
    std::size_t i = home_of(key);
    while (used_[i]) {
      if (slots_[i].first == key) return i;
      i = (i + 1) & mask_;
    }
    return kNpos;
  }

  void erase_at(std::size_t i) {
    // Backward-shift deletion (Knuth 6.4 R): walk the chain after the hole
    // and move back every entry whose home slot lies cyclically outside
    // (i, j] — exactly those a lookup would no longer reach past the hole.
    std::size_t j = i;
    while (true) {
      used_[i] = 0;
      slots_[i] = Item{};
      while (true) {
        j = (j + 1) & mask_;
        if (!used_[j]) {
          --size_;
          return;
        }
        const std::size_t home = home_of(slots_[j].first);
        const bool in_chain =
            (i < j) ? (home > i && home <= j) : (home > i || home <= j);
        if (!in_chain) break;
      }
      slots_[i] = std::move(slots_[j]);
      used_[i] = 1;
      i = j;
    }
  }

  void rehash(std::size_t new_cap) {
    assert((new_cap & (new_cap - 1)) == 0 && new_cap >= kMinCapacity);
    std::vector<Item> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    slots_.assign(new_cap, Item{});
    used_.assign(new_cap, 0);
    mask_ = new_cap - 1;
    shift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(new_cap));
    for (std::size_t s = 0; s < old_slots.size(); ++s) {
      if (!old_used[s]) continue;
      std::size_t i = home_of(old_slots[s].first);
      while (used_[i]) i = (i + 1) & mask_;
      slots_[i] = std::move(old_slots[s]);
      used_[i] = 1;
    }
  }

  std::vector<Item> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  std::uint32_t shift_ = 0;  // 64 - log2(capacity); set by rehash
  [[no_unique_address]] Hash hash_;
};

/// FlatSet — FlatMap with no payload; same probing and erase discipline.
template <typename K, typename Hash = FlatHash<K>>
class FlatSet {
 public:
  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  std::size_t capacity() const { return map_.capacity(); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }

  /// True when newly inserted.
  bool insert(const K& key) { return map_.try_emplace(key).second; }
  bool contains(const K& key) const { return map_.contains(key); }
  bool erase(const K& key) { return map_.erase(key); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    map_.for_each([&fn](const K& k, const Unit&) { fn(k); });
  }

  /// Keys ascending — deterministic for identical contents.
  std::vector<K> sorted_keys() const {
    std::vector<K> out;
    out.reserve(map_.size());
    map_.for_each([&out](const K& k, const Unit&) { out.push_back(k); });
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  struct Unit {};
  FlatMap<K, Unit, Hash> map_;
};

}  // namespace ddos::util
