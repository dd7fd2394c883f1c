// FlatSetMemo: a concurrent memo table keyed by a sorted id set.
//
// The general-DAG miner reduces each execution's induced subgraph once per
// distinct activity set and shares that knowledge across every worker and
// every window of a run. The table is open addressing over one flat slot
// array; keys (and the optional value lists) sit inline in one arena pool
// whose blocks never move, so an entry costs its ids plus one slot, with no
// per-entry heap allocation, and the spans handed out stay valid for the
// table's lifetime however much it grows.
//
// Correctness contract: a value must be a PURE function of its key. The
// first writer wins and a racing second insert is discarded, so every
// thread either created an entry or sees an identical one, and sharing the
// table cannot perturb results. Which thread creates an entry does depend
// on the schedule; callers that act once per distinct key act in the thread
// whose Insert returned true.
//
// One mutex guards the table. The critical sections are a hash probe and,
// on insert, a copy of the key into the pool: the expensive work keyed by
// the set (the reduction) runs outside the lock, between Find and Insert.

#ifndef PROCMINE_UTIL_FLAT_SET_MEMO_H_
#define PROCMINE_UTIL_FLAT_SET_MEMO_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "util/arena.h"
#include "util/hash.h"

namespace procmine {

template <typename Value>
class FlatSetMemo {
  static_assert(std::is_trivially_copyable_v<Value>,
                "values are copied into the arena pool byte-wise");

 public:
  using Key = std::span<const int32_t>;

  FlatSetMemo() = default;
  FlatSetMemo(const FlatSetMemo&) = delete;
  FlatSetMemo& operator=(const FlatSetMemo&) = delete;

  /// True when `key` has an entry; then `*value` (when non-null) receives
  /// its stored value list.
  bool Find(Key key, std::span<const Value>* value = nullptr) const {
    const uint64_t hash = HashKey(key);
    std::lock_guard<std::mutex> lock(mu_);
    const Slot& slot = slots_[ProbeIndex(key, hash)];
    if (slot.key == nullptr) return false;
    if (value != nullptr) *value = {slot.value, slot.value_size};
    return true;
  }

  /// Inserts `key` with a copy of `value` unless the key has an entry.
  /// Returns true when this call created the entry; false when another
  /// writer got there first (its value is kept, `value` is dropped).
  bool Insert(Key key, std::span<const Value> value = {}) {
    const uint64_t hash = HashKey(key);
    std::lock_guard<std::mutex> lock(mu_);
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    Slot& slot = slots_[ProbeIndex(key, hash)];
    if (slot.key != nullptr) return false;
    int32_t* ids = pool_.AllocateArray<int32_t>(key.size());
    std::copy(key.begin(), key.end(), ids);
    Value* values = nullptr;
    if (!value.empty()) {
      values = pool_.AllocateArray<Value>(value.size());
      std::memcpy(values, value.data(), value.size_bytes());
    }
    // An empty key still needs a non-null marker of "occupied".
    slot = Slot{hash, key.empty() ? &kEmptyKey : ids, values,
                 static_cast<uint32_t>(key.size()),
                 static_cast<uint32_t>(value.size())};
    ++size_;
    return true;
  }

  /// Number of entries.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    const int32_t* key = nullptr;  ///< null: the slot is empty
    const Value* value = nullptr;
    uint32_t key_size = 0;
    uint32_t value_size = 0;
  };

  static constexpr size_t kInitialSlots = 1024;
  static constexpr int32_t kEmptyKey = 0;

  static uint64_t HashKey(Key key) {
    return HashBytes(key.data(), key.size_bytes());
  }

  /// The slot holding `key`, or the empty slot where it belongs (linear
  /// probing; the load factor stays at most 3/4, so an empty slot exists).
  size_t ProbeIndex(Key key, uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.key == nullptr ||
          (slot.hash == hash && slot.key_size == key.size() &&
           std::equal(key.begin(), key.end(), slot.key))) {
        return i;
      }
    }
  }

  /// Doubles the slot array and re-places every entry; the pool (the keys
  /// and values the slots point at) does not move.
  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.key == nullptr) continue;
      size_t i = s.hash & mask;
      while (slots_[i].key != nullptr) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  mutable std::mutex mu_;
  std::vector<Slot> slots_ = std::vector<Slot>(kInitialSlots);  ///< 2^k
  size_t size_ = 0;
  Arena pool_;
};

}  // namespace procmine

#endif  // PROCMINE_UTIL_FLAT_SET_MEMO_H_
