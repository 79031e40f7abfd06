// Wire codec used by the RPC layer. Little-endian fixed-width scalars plus
// length-prefixed strings and vectors.
//
// Every message lists its fields once, in wire order, as a member
//   template <class Ar> void Wire(Ar& ar) { ar(view, overwrite, truncate_from); }
// Two archives walk that list: WireWriter appends each field to an Encoder, and
// WireReader reads it back from a Decoder, stopping at the first malformed field
// (decoding returns false instead of aborting, so fuzz-style tests can exercise it).
// A derived message walks its base's Wire first. The messages' Encode/Decode members
// forward to WireEncode/WireDecode, and a vector's minimum element size (the clamp on
// its reserve) is the encoded size of a default-constructed element. The Record,
// SeqAppendReq and ShardPutDataReq flags byte is one field adapter, TagLogFlags.
//
// Record payloads travel as *attachments* (eRPC/RDMA-style scatter-gather segments):
// PutAttached writes only the 4-byte length marker inline and hands the Buf to the
// message's attachment list; GetAttached pops the matching Buf on decode. The inline
// byte layout is identical to the old PutBytes framing (marker + bytes appear at the
// same offsets on the simulated wire, and NetMessage charges attachment bytes to the
// NIC), but no payload byte is memcpy'd — the decoded message aliases the sender's
// backing buffer. PutBuf/GetBufView are the inline variants for blobs that must stay
// in the frame: GetBufView aliases the decoder's backing when it has one.
#ifndef SRC_COMMON_CODEC_H_
#define SRC_COMMON_CODEC_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/buf.h"
#include "src/common/types.h"

namespace lazylog {

// How much a message puts on the wire: its inline bytes and its attachment count.
struct WireExtent {
  size_t bytes = 0;
  size_t atts = 0;
};

// Append-only byte sink for message serialization. The bytes go straight into a Buf
// backing, so TakeBuf hands them over without a copy or a second allocation; Reserve
// on an empty encoder sizes that backing exactly (the RPC layer sizes each frame with
// WireSize first, so a frame costs one allocation).
class Encoder {
 public:
  // Makes room for `ext` more inline bytes and attachments. On an empty encoder the
  // backing is allocated at exactly that size; otherwise it grows geometrically.
  void Reserve(WireExtent ext) {
    if (size_ + ext.bytes > cap_) {
      Grow(ext.bytes);
    }
    atts_.reserve(atts_.size() + ext.atts);
  }

  void PutU8(uint8_t v) { PutRaw(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutBytes(const std::string& s) { PutBytes(s.data(), s.size()); }
  void PutBytes(const char* p, size_t n) {
    PutU32(static_cast<uint32_t>(n));
    PutRaw(p, n);
  }

  // Inline Buf: length prefix + bytes copied into the frame (counted). Use only for
  // blobs that must stay in the frame; record payloads go through PutAttached.
  void PutBuf(const Buf& b) {
    GlobalBufStats().payload_bytes_copied += b.size();
    PutBytes(b.data(), b.size());
  }

  // Zero-copy Buf: writes the 4-byte length marker inline and appends the handle to
  // the attachment list (the bytes ride the message as a separate segment). In
  // force-copy mode the segment is deep-copied instead, modelling the old
  // copy-per-hop path with an identical wire format.
  void PutAttached(const Buf& b) {
    PutU32(static_cast<uint32_t>(b.size()));
    if (b.empty()) {
      return;
    }
    if (BufForceCopy()) {
      atts_.push_back(b.DeepCopy());  // Copy() counts the bytes
    } else {
      GlobalBufStats().payload_bytes_aliased += b.size();
      atts_.push_back(b);
    }
  }

  std::string_view view() const { return {backing_.get(), size_}; }
  // A copy of the bytes written so far, kept in the encoder (tests and cold paths).
  const std::string& data() const {
    flat_.assign(view());
    return flat_;
  }
  std::string Take() {
    std::string s(view());
    TakeBuf();
    return s;
  }
  // Hands the frame bytes over as a Buf over the encoder's backing (no byte copy) and
  // leaves the encoder empty.
  Buf TakeBuf() {
    const size_t n = size_;
    size_ = 0;
    cap_ = 0;
    if (n == 0) {
      backing_.reset();
      return Buf();
    }
    return Buf::Adopt(std::move(backing_), n);
  }
  std::vector<Buf> TakeAtts() { return std::move(atts_); }
  size_t size() const { return size_; }
  // Total attachment bytes. size() + atts_size() equals the old inline encoding size,
  // so CPU/disk charges based on encoded size stay byte-identical.
  size_t atts_size() const {
    size_t n = 0;
    for (const Buf& a : atts_) {
      n += a.size();
    }
    return n;
  }

  // Appends `n` bytes with no length prefix. Scalars go through here too: host order
  // is little-endian on every supported target, and memcpy keeps it alignment-safe.
  void PutRaw(const void* p, size_t n) {
    if (size_ + n > cap_) {
      Grow(n);
    }
    if (n > 0) {
      std::memcpy(backing_.get() + size_, p, n);
      size_ += n;
    }
  }

 private:
  void Grow(size_t n) {
    const size_t cap = cap_ == 0 ? size_ + n : std::max(size_ + n, 2 * cap_);
    auto grown = std::make_shared_for_overwrite<char[]>(cap);
    if (size_ > 0) {
      std::memcpy(grown.get(), backing_.get(), size_);
    }
    backing_ = std::move(grown);
    cap_ = cap;
  }

  std::shared_ptr<char[]> backing_;
  size_t size_ = 0;
  size_t cap_ = 0;
  std::vector<Buf> atts_;
  mutable std::string flat_;  // data()'s copy
};

// Counting sink: the WireExtent an Encoder would receive from the same Puts.
class WireSizer {
 public:
  void PutU8(uint8_t) { ext_.bytes += 1; }
  void PutU32(uint32_t) { ext_.bytes += 4; }
  void PutU64(uint64_t) { ext_.bytes += 8; }
  void PutBool(bool) { ext_.bytes += 1; }
  void PutBytes(const std::string& s) { ext_.bytes += 4 + s.size(); }
  void PutAttached(const Buf& b) {
    ext_.bytes += 4;
    ext_.atts += b.empty() ? 0 : 1;
  }
  WireExtent extent() const { return ext_; }

 private:
  WireExtent ext_;
};

// Cursor over an encoded buffer. All getters return false (and leave the output untouched)
// once the buffer is exhausted or a length prefix is inconsistent.
//
// A Decoder built from a Buf *owns* its backing (and the message's attachments): it and
// any Buf it hands out stay valid after the original message is destroyed. The
// string/pointer constructors are unowned views for local decode; GetBufView falls back
// to copying there, and GetAttached fails (no attachment list).
class Decoder {
 public:
  Decoder() = default;
  explicit Decoder(const std::string& data) : data_(data.data()), size_(data.size()) {}
  Decoder(const char* data, size_t size) : data_(data), size_(size) {}
  explicit Decoder(Buf body, std::vector<Buf> atts = {})
      : body_(std::move(body)), atts_(std::move(atts)) {
    data_ = body_.data();
    size_ = body_.size();
  }

  bool GetU8(uint8_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetU32(uint32_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetBool(bool* v) {
    uint8_t b = 0;
    if (!GetU8(&b)) {
      return false;
    }
    *v = b != 0;
    return true;
  }
  bool GetBytes(std::string* s) {
    uint32_t n = 0;
    if (!GetU32(&n) || n > Remaining()) {
      return false;
    }
    s->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

  // Inline Buf: when this decoder owns a backing, the result is a slice of it (no
  // copy, keeps the backing alive past the decoder); otherwise the bytes are copied.
  bool GetBufView(Buf* out) {
    uint32_t n = 0;
    if (!GetU32(&n) || n > Remaining()) {
      return false;
    }
    if (body_.empty() || BufForceCopy()) {
      *out = Buf::Copy(data_ + pos_, n);  // counted
    } else {
      GlobalBufStats().payload_bytes_aliased += n;
      *out = body_.Slice(pos_, n);
    }
    pos_ += n;
    return true;
  }

  // Counterpart of Encoder::PutAttached: reads the inline length marker and pops the
  // next attachment, which must match it exactly. Returns false on a marker with no
  // matching attachment (malformed or non-attachment input).
  bool GetAttached(Buf* out) {
    uint32_t n = 0;
    if (!GetU32(&n)) {
      return false;
    }
    if (n == 0) {
      *out = Buf();
      return true;
    }
    if (att_pos_ >= atts_.size() || atts_[att_pos_].size() != n) {
      return false;
    }
    if (BufForceCopy()) {
      *out = atts_[att_pos_++].DeepCopy();  // counted
    } else {
      GlobalBufStats().payload_bytes_aliased += n;
      *out = atts_[att_pos_++];
    }
    return true;
  }

  size_t Remaining() const { return size_ - pos_; }
  // Raw remaining bytes, copied out as a string (opaque passthrough / tests).
  std::string RemainingString() const {
    return Remaining() ? std::string(data_ + pos_, Remaining()) : std::string();
  }
  bool Done() const { return pos_ == size_; }

 private:
  bool GetFixed(void* p, size_t n) {
    if (Remaining() < n) {
      return false;
    }
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  Buf body_;                // owned backing (empty for the unowned-view constructors)
  std::vector<Buf> atts_;   // message attachments, consumed in encode order
  size_t att_pos_ = 0;
  const char* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
};

// Record flags byte, shared by Record, SeqAppendReq and ShardPutDataReq. Bit 0 is the
// struct's own boolean (Record::no_op, SeqAppendReq::is_meta; ShardPutDataReq has none,
// so there it must be zero), which keeps a legacy encoder's trailing PutBool byte
// decoding unchanged; bit 1 says a u64 stream tag follows; bit 2 says a u64 phylog id
// follows. Untagged default-log frames therefore stay byte-identical to the pre-tag,
// pre-virtual-log format. Unknown bits are malformed input.
inline constexpr uint8_t kRecordFlagNoOp = 0x1;
inline constexpr uint8_t kRecordFlagHasTag = 0x2;
inline constexpr uint8_t kRecordFlagHasLog = 0x4;

// Field adapter for that byte and the optional u64s behind it.
struct TagLogFlags {
  bool* bit0;  // nullptr: the struct has no bit-0 flag
  StreamTag& tag;
  LogId& log;
};

// A u8 whose bit 0 is the flag; decoding ignores the other bits.
struct LowBit {
  bool& v;
};

// A u64 that may end the body: written only when `present`, and read as absent when
// the body ends before it.
struct TrailingU64 {
  bool& present;
  uint64_t& v;
};

// Field lists of the shared record types, which live in types.h without a Wire member.
template <class Ar>
inline void WireFields(Ar& ar, RecordId& id) {
  ar(id.client_id, id.request_id);
}
template <class Ar>
inline void WireFields(Ar& ar, Record& r) {
  ar(r.id, r.payload, TagLogFlags{&r.no_op, r.tag, r.log});
}

template <class Ar, class T>
inline void WireOf(Ar& ar, T& m) {
  if constexpr (requires { m.Wire(ar); }) {
    m.Wire(ar);
  } else {
    WireFields(ar, m);
  }
}

// Writer archive: appends each field in list order to a sink (an Encoder, or the
// WireSizer that measures the same walk).
template <class Sink>
class BasicWireWriter {
 public:
  explicit BasicWireWriter(Sink& e) : e_(e) {}

  template <class... Fs>
  void operator()(const Fs&... fs) {
    (Put(fs), ...);
  }

 private:
  void Put(uint8_t v) { e_.PutU8(v); }
  void Put(uint32_t v) { e_.PutU32(v); }
  void Put(uint64_t v) { e_.PutU64(v); }
  void Put(bool v) { e_.PutBool(v); }
  void Put(const std::string& s) { e_.PutBytes(s); }
  void Put(const Buf& b) { e_.PutAttached(b); }
  void Put(const LowBit& f) { e_.PutU8(f.v ? 1 : 0); }
  void Put(const TrailingU64& f) {
    if (f.present) {
      e_.PutU64(f.v);
    }
  }
  void Put(const TagLogFlags& f) {
    const bool has_tag = f.tag != kNoTag;
    const bool has_log = f.log != kDefaultLog;
    e_.PutU8((f.bit0 != nullptr && *f.bit0 ? kRecordFlagNoOp : 0) |
             (has_tag ? kRecordFlagHasTag : 0) | (has_log ? kRecordFlagHasLog : 0));
    if (has_tag) {
      e_.PutU64(f.tag);
    }
    if (has_log) {
      e_.PutU64(f.log);
    }
  }
  template <class T>
  void Put(const std::vector<T>& v) {
    e_.PutU32(static_cast<uint32_t>(v.size()));
    for (const T& x : v) {
      Put(x);
    }
  }
  // A struct: walk its field list. The archive only reads through the reference.
  template <class T>
  void Put(const T& m) {
    WireOf(*this, const_cast<T&>(m));
  }

  Sink& e_;
};
using WireWriter = BasicWireWriter<Encoder>;

// What encoding `v` appends: its inline bytes and attachment count.
template <class T>
inline WireExtent WireSize(const T& v) {
  WireSizer sizer;
  BasicWireWriter<WireSizer> ar(sizer);
  ar(v);
  return sizer.extent();
}

// Appends `v` after reserving room for it.
template <class T>
inline void WireEncode(Encoder& e, const T& v) {
  e.Reserve(WireSize(v));
  WireWriter ar(e);
  ar(v);
}

// Smallest inline encoding of a T: every variable-length part of a default-constructed
// value is empty and every optional part absent. Computed once per type.
template <class T>
size_t MinEncodedSize() {
  static const size_t n = WireSize(T{}).bytes;
  return n;
}

// Decoder archive: reads each field in list order; after the first failure it reads
// nothing more and ok() stays false.
class WireReader {
 public:
  explicit WireReader(Decoder& d) : d_(d) {}

  template <class... Fs>
  void operator()(Fs&&... fs) {
    ((ok_ = ok_ && Get(fs)), ...);
  }
  bool ok() const { return ok_; }

 private:
  bool Get(uint8_t& v) { return d_.GetU8(&v); }
  bool Get(uint32_t& v) { return d_.GetU32(&v); }
  bool Get(uint64_t& v) { return d_.GetU64(&v); }
  bool Get(bool& v) { return d_.GetBool(&v); }
  bool Get(std::string& s) { return d_.GetBytes(&s); }
  bool Get(Buf& b) { return d_.GetAttached(&b); }
  bool Get(LowBit& f) {
    uint8_t b = 0;
    if (!d_.GetU8(&b)) {
      return false;
    }
    f.v = (b & 1) != 0;
    return true;
  }
  bool Get(TrailingU64& f) {
    f.present = d_.Remaining() > 0;
    return !f.present || d_.GetU64(&f.v);
  }
  bool Get(TagLogFlags& f) {
    const uint8_t allowed =
        (f.bit0 != nullptr ? kRecordFlagNoOp : 0) | kRecordFlagHasTag | kRecordFlagHasLog;
    uint8_t flags = 0;
    if (!d_.GetU8(&flags) || (flags & ~allowed) != 0) {
      return false;
    }
    if (f.bit0 != nullptr) {
      *f.bit0 = (flags & kRecordFlagNoOp) != 0;
    }
    f.tag = kNoTag;
    if ((flags & kRecordFlagHasTag) != 0 && !d_.GetU64(&f.tag)) {
      return false;
    }
    f.log = kDefaultLog;
    return (flags & kRecordFlagHasLog) == 0 || d_.GetU64(&f.log);
  }
  // Scalar elements are fixed-width, so a count the remaining bytes cannot hold fails
  // before allocating. Struct elements clamp the reserve by their smallest encoding (n
  // is still trusted for the loop; decoding fails fast when the bytes run out).
  template <class T>
  bool Get(std::vector<T>& v) {
    uint32_t n = 0;
    if (!d_.GetU32(&n)) {
      return false;
    }
    v.clear();
    if constexpr (std::is_arithmetic_v<T>) {
      if (static_cast<size_t>(n) * sizeof(T) > d_.Remaining()) {
        return false;
      }
      v.resize(n);
      for (T& x : v) {
        if (!Get(x)) {
          return false;
        }
      }
    } else {
      v.reserve(std::min<size_t>(n, d_.Remaining() / MinEncodedSize<T>()));
      for (uint32_t i = 0; i < n; ++i) {
        T x;
        if (!Get(x)) {
          return false;
        }
        v.push_back(std::move(x));
      }
    }
    return true;
  }
  template <class T>
  bool Get(T& m) {
    WireOf(*this, m);
    return ok_;
  }

  Decoder& d_;
  bool ok_ = true;
};

template <class T>
inline bool WireDecode(Decoder& d, T& v) {
  WireReader ar(d);
  ar(v);
  return ar.ok();
}

}  // namespace lazylog

#endif  // SRC_COMMON_CODEC_H_
