// A membership-only hash set in two flat arrays: open addressing with linear probing,
// backward-shift deletion (no tombstones), power-of-two capacity and load at most 3/4.
// Occupancy lives in a bitmap beside the keys, so every key value is storable (ids
// come off the wire; no value is free to serve as an empty marker). It offers no
// iteration: nothing can observe its slot order, so swapping it in for a node-based
// set cannot change what a simulation does. clear() keeps the capacity, so a warm set
// allocates nothing.
#ifndef SRC_COMMON_FLAT_SET_H_
#define SRC_COMMON_FLAT_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace lazylog {

template <class Key, class Hash = std::hash<Key>>
class FlatSet {
 public:
  bool contains(const Key& key) const { return size_ > 0 && Find(key) != kNone; }

  // Returns true if `key` was not present.
  bool insert(const Key& key) {
    if (4 * (size_ + 1) > 3 * keys_.size()) {
      Rehash(std::max<size_t>(16, 2 * keys_.size()));
    }
    size_t i = Home(key);
    while (Used(i)) {
      if (keys_[i] == key) {
        return false;
      }
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    SetUsed(i, true);
    ++size_;
    return true;
  }

  // Returns true if `key` was present. The entries after it in its probe run shift
  // back, so every remaining key stays reachable from its home slot.
  bool erase(const Key& key) {
    if (size_ == 0) {
      return false;
    }
    size_t hole = Find(key);
    if (hole == kNone) {
      return false;
    }
    for (size_t j = (hole + 1) & mask_; Used(j); j = (j + 1) & mask_) {
      // keys_[j] may fill the hole unless its home lies cyclically in (hole, j].
      const size_t home = Home(keys_[j]);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        keys_[hole] = keys_[j];
        hole = j;
      }
    }
    SetUsed(hole, false);
    --size_;
    return true;
  }

  void clear() {
    std::fill(used_.begin(), used_.end(), 0);
    size_ = 0;
  }
  size_t size() const { return size_; }

 private:
  static constexpr size_t kNone = ~size_t{0};

  size_t Home(const Key& key) const { return Hash{}(key) & mask_; }
  bool Used(size_t i) const { return (used_[i >> 6] >> (i & 63)) & 1; }
  void SetUsed(size_t i, bool on) {
    const uint64_t bit = uint64_t{1} << (i & 63);
    used_[i >> 6] = on ? used_[i >> 6] | bit : used_[i >> 6] & ~bit;
  }

  size_t Find(const Key& key) const {
    for (size_t i = Home(key); Used(i); i = (i + 1) & mask_) {
      if (keys_[i] == key) {
        return i;
      }
    }
    return kNone;
  }

  void Rehash(size_t capacity) {
    std::vector<Key> old_keys(capacity);
    std::vector<uint64_t> old_used((capacity + 63) / 64, 0);
    old_keys.swap(keys_);
    old_used.swap(used_);
    mask_ = capacity - 1;
    size_ = 0;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if ((old_used[i >> 6] >> (i & 63)) & 1) {
        insert(old_keys[i]);
      }
    }
  }

  std::vector<Key> keys_;
  std::vector<uint64_t> used_;  // bit i set = keys_[i] holds a key
  size_t size_ = 0;
  size_t mask_ = 0;
};

}  // namespace lazylog

#endif  // SRC_COMMON_FLAT_SET_H_
