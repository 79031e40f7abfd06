// Core identifier and record types shared across the LazyLog codebase.
#ifndef SRC_COMMON_TYPES_H_
#define SRC_COMMON_TYPES_H_

#include <cstdint>

#include "src/common/buf.h"

namespace lazylog {

// Simulated-cluster node identifier. Node ids are dense small integers assigned by the
// cluster assembly code; the special value kInvalidNode means "no node".
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = UINT32_MAX;

// Global log position (index into the shared log). Positions start at 0.
using LogPos = uint64_t;
inline constexpr LogPos kInvalidLogPos = UINT64_MAX;

// Client identifier, unique per client library instance.
using ClientId = uint64_t;

// Per-client monotonically increasing request identifier; (client_id, request_id) uniquely
// names an append and is used for duplicate filtering and for Erwin-st record ids.
using RequestId = uint64_t;

// Sequencing-layer view number. Views are strictly monotone; a new view starts after every
// sequencing-layer reconfiguration.
using ViewId = uint64_t;

// Shard index within a cluster (dense, 0-based).
using ShardId = uint32_t;

// Simulated time in nanoseconds since simulation start.
using SimTime = uint64_t;

// Stream tag: names the logical stream a record belongs to. The shared log stays a
// single totally-ordered sequence; tags are an access path layered on top (the index
// tier maintains tag -> sorted global-position lists). kNoTag marks untagged records
// (the legacy default) and is also used for no-op filler records.
using StreamTag = uint64_t;
inline constexpr StreamTag kNoTag = 0;

// Virtual-log ("phylog") identifier. Many named logs multiplex over one physical
// sequencing/storage fleet; each phylog projects its own dense position space out of
// the shared total order. kDefaultLog is the physical log itself: records appended to
// it carry no log field on the wire and single-log deployments behave exactly as
// before the virtual-log layer existed.
using LogId = uint64_t;
inline constexpr LogId kDefaultLog = 0;

// Identity of a record as chosen by the appending client. Used directly as the Erwin-st
// metadata identifier (the paper's <record-id> = <client-id, request-id>).
struct RecordId {
  ClientId client_id = 0;
  RequestId request_id = 0;

  friend bool operator==(const RecordId&, const RecordId&) = default;
  friend auto operator<=>(const RecordId&, const RecordId&) = default;
};

// A record as stored in the shared log. `no_op` records are produced by Erwin-st's
// client-failure resolution (§5.4) and are skipped by readers. The payload is a
// refcounted handle: every layer that stores or forwards a Record shares the backing
// bytes the client allocated at append time (see buf.h).
struct Record {
  RecordId id;
  Buf payload;
  bool no_op = false;
  StreamTag tag = kNoTag;
  LogId log = kDefaultLog;  // owning phylog; kDefaultLog = the physical log

  friend bool operator==(const Record&, const Record&) = default;
};

// Hash support for RecordId so it can key unordered containers.
struct RecordIdHash {
  size_t operator()(const RecordId& r) const {
    // splitmix-style mix of the two halves.
    uint64_t x = r.client_id * 0x9e3779b97f4a7c15ULL ^ (r.request_id + 0xbf58476d1ce4e5b9ULL);
    x ^= x >> 30;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

}  // namespace lazylog

#endif  // SRC_COMMON_TYPES_H_
