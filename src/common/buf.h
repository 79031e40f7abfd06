// Refcounted immutable payload buffer. A Buf is a cheap handle (pointer + length +
// shared backing) over a block of bytes; copying or slicing a Buf never touches the
// bytes, it only bumps a refcount. The whole record path — client encode, RPC
// attachments, the sequencing replica's ring buffer, the orderer's push windows, the
// segmented log, read replies — shares one backing allocation per payload, so after the
// 1-RTT durable write no record byte is memcpy'd again (the simulated NIC still charges
// the full wire size via NetMessage::wire_bytes).
//
// Global copy/allocation accounting (BufStats) makes the zero-copy claim observable:
// every byte that crosses an alias point is counted as aliased, every byte that crosses
// a copy point as copied. bench/sim_throughput.cc asserts copied == 0 on the Erwin-st
// append path. SetBufForceCopy(true) turns every alias point into a real memcpy with an
// identical wire format — the A/B baseline the bench compares against.
#ifndef SRC_COMMON_BUF_H_
#define SRC_COMMON_BUF_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lazylog {

// Flattened (name, value) pairs emitted by component stats snapshots and consumed by
// the bench JSON dump helper (bench_util.h). Keeping the shape here lets every
// component expose Fields() without depending on the bench code. Declared in this
// lowest header (types.h includes it) so BufStats can emit them too.
using StatsFields = std::vector<std::pair<std::string, double>>;

// Global byte/allocation counters for the record path. The simulator is
// single-threaded, so plain fields suffice. Counted at the codec's payload operations
// (PutAttached / GetAttached / GetBufView) and at Buf's backing factories, not at
// handle copies (those are the point).
struct BufStats {
  uint64_t payload_bytes_copied = 0;   // bytes memcpy'd through a copy point
  uint64_t payload_bytes_aliased = 0;  // bytes that crossed a hop as a refcount bump
  uint64_t allocations = 0;            // backing buffers created

  void Reset() { *this = BufStats{}; }
  StatsFields Fields() const {
    return {{"payload_bytes_copied", static_cast<double>(payload_bytes_copied)},
            {"payload_bytes_aliased", static_cast<double>(payload_bytes_aliased)},
            {"buf_allocations", static_cast<double>(allocations)}};
  }
};

BufStats& GlobalBufStats();

// When set, every alias point in the codec performs a real memcpy into a fresh backing
// (counted as copied) instead of sharing the existing one. Wire format, charged wire
// bytes, and event order are identical — only wall-clock work and the counters differ —
// so benches can measure the old copy-per-hop behaviour without a second build.
void SetBufForceCopy(bool on);
bool BufForceCopy();

class Buf {
 public:
  Buf() = default;

  // Implicit from std::string: takes ownership of the bytes (a move, not a copy, when
  // the caller passes an rvalue). This keeps `client->Append(payload, cb)` and
  // `Record{id, "x", false}` call sites compiling unchanged.
  Buf(std::string s) {  // NOLINT(google-explicit-constructor)
    if (s.empty()) {
      return;
    }
    auto owner = std::make_shared<std::string>(std::move(s));
    GlobalBufStats().allocations++;
    data_ = owner->data();
    len_ = owner->size();
    backing_ = std::shared_ptr<const char>(std::move(owner), data_);
  }
  // Implicit from a C string literal: copies (counted). Test/call-site convenience.
  Buf(const char* s) : Buf(Copy(s, s == nullptr ? 0 : std::strlen(s))) {}  // NOLINT

  // Handle copies share the backing (refcount bump). A moved-from Buf is empty — the
  // default move would keep data_/len_ pointing into a backing it no longer owns.
  Buf(const Buf&) = default;
  Buf& operator=(const Buf&) = default;
  Buf(Buf&& o) noexcept : backing_(std::move(o.backing_)), data_(o.data_), len_(o.len_) {
    o.data_ = nullptr;
    o.len_ = 0;
  }
  Buf& operator=(Buf&& o) noexcept {
    backing_ = std::move(o.backing_);
    data_ = o.data_;
    len_ = o.len_;
    if (this != &o) {
      o.data_ = nullptr;
      o.len_ = 0;
    }
    return *this;
  }

  // Takes ownership of `s` (moves; one allocation, zero byte copies for rvalues).
  static Buf FromString(std::string s) { return Buf(std::move(s)); }

  // Takes ownership of the first `n` bytes of `owner` (an encoder's backing).
  static Buf Adopt(std::shared_ptr<char[]> owner, size_t n) {
    Buf b;
    GlobalBufStats().allocations++;
    b.data_ = owner.get();
    b.len_ = n;
    b.backing_ = std::shared_ptr<const char>(std::move(owner), b.data_);
    return b;
  }

  // Copies `n` bytes into a fresh backing. The only Buf factory that memcpy's.
  static Buf Copy(const char* p, size_t n) {
    Buf b;
    if (n == 0) {
      return b;
    }
    auto owner = std::shared_ptr<char[]>(new char[n]);
    std::memcpy(owner.get(), p, n);
    auto& stats = GlobalBufStats();
    stats.allocations++;
    stats.payload_bytes_copied += n;
    b.data_ = owner.get();
    b.len_ = n;
    b.backing_ = std::shared_ptr<const char>(std::move(owner), b.data_);
    return b;
  }
  static Buf Copy(std::string_view sv) { return Copy(sv.data(), sv.size()); }
  // Deep copy of this Buf's bytes (used by force-copy mode).
  Buf DeepCopy() const { return Copy(data_, len_); }

  // A sub-range sharing this Buf's backing. Slicing a slice composes offsets. Clamped
  // to the valid range, so malformed-length decode paths cannot read out of bounds.
  Buf Slice(size_t off, size_t len) const {
    Buf b;
    if (off >= len_) {
      return b;
    }
    b.backing_ = backing_;
    b.data_ = data_ + off;
    b.len_ = std::min(len, len_ - off);
    return b;
  }

  const char* data() const { return data_; }
  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::string_view view() const { return {data_, len_}; }
  std::string ToString() const { return std::string(data_, len_); }
  // True if this handle shares its backing with `other` (same refcounted block).
  bool SharesBackingWith(const Buf& other) const {
    return backing_ != nullptr && backing_ == other.backing_;
  }
  // Outstanding handles on this backing (1 == sole owner); 0 for the empty Buf.
  long use_count() const { return backing_.use_count(); }

  friend bool operator==(const Buf& a, const Buf& b) { return a.view() == b.view(); }

 private:
  std::shared_ptr<const char> backing_;  // aliased owner; keeps the block alive
  const char* data_ = nullptr;
  size_t len_ = 0;
};

}  // namespace lazylog

#endif  // SRC_COMMON_BUF_H_
