// A vector of reusable entries addressed by index. Acquire hands out a free index,
// growing the vector only when none is free; Release returns one. A released entry
// keeps its contents (and the capacity of any containers in it) for its next user, so
// a warm slab allocates nothing. Indices stay valid across growth; references do not.
#ifndef SRC_COMMON_SLAB_H_
#define SRC_COMMON_SLAB_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lazylog {

template <class T>
class Slab {
 public:
  uint32_t Acquire() {
    if (free_.empty()) {
      items_.emplace_back();
      return static_cast<uint32_t>(items_.size() - 1);
    }
    const uint32_t i = free_.back();
    free_.pop_back();
    return i;
  }
  void Release(uint32_t i) { free_.push_back(i); }

  T& operator[](size_t i) { return items_[i]; }
  const T& operator[](size_t i) const { return items_[i]; }
  // Entries ever acquired, free ones included.
  size_t size() const { return items_.size(); }

 private:
  std::vector<T> items_;
  std::vector<uint32_t> free_;
};

}  // namespace lazylog

#endif  // SRC_COMMON_SLAB_H_
