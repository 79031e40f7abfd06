// Wire messages for the sequencing layer: client appends, leader->follower GC, and the
// control-plane reconfiguration protocol (seal / flush / start-view, §4.5).
#ifndef SRC_SEQ_SEQ_MESSAGES_H_
#define SRC_SEQ_SEQ_MESSAGES_H_

#include <string>
#include <vector>

#include "src/common/codec.h"
#include "src/common/types.h"

namespace lazylog {

// RecordId as a message struct (the element type of id lists).
struct WireRecordId {
  RecordId id;
  template <class Ar> void Wire(Ar& ar) { ar(id); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Client -> every sequencing replica, in parallel, no coordination (§4.1 / §5.1).
// Erwin-m carries the record payload (is_meta=false); Erwin-st carries only the metadata
// identifier <record-id, shard-id> (is_meta=true, empty payload).
struct SeqAppendReq {
  ViewId view = 0;
  RecordId id;
  Buf payload;  // rides as an attachment; the replica's ring buffer aliases it
  ShardId target_shard = 0;
  bool is_meta = false;  // bit 0 of the record flags byte (the legacy PutBool byte)
  StreamTag tag = kNoTag;  // logical stream this record belongs to (index tier)
  LogId log = kDefaultLog;  // phylog this record belongs to (virtual-log layer)

  template <class Ar>
  void Wire(Ar& ar) { ar(view, id, payload, target_shard, TagLogFlags{&is_meta, tag, log}); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Leader -> follower: garbage-collect the listed (now ordered) entries and advance
// last-ordered-gp (§4.3). Entry identity, not position, because followers may hold
// concurrent entries in a different order.
struct SeqGcReq {
  ViewId view = 0;
  LogPos new_ordered_gp = 0;
  std::vector<WireRecordId> ids;

  template <class Ar> void Wire(Ar& ar) { ar(view, new_ordered_gp, ids); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Controller -> replica: seal the view; the replica rejects all later appends in it.
struct SeqSealReq {
  ViewId view = 0;

  template <class Ar> void Wire(Ar& ar) { ar(view); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

struct SeqSealResp {
  LogPos ordered_gp = 0;
  uint64_t unordered = 0;  // entries still in the local log

  template <class Ar> void Wire(Ar& ar) { ar(ordered_gp, unordered); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Controller -> recovery replica: flush your unordered log to the shards, assigning
// positions from your last-ordered-gp, stamped with the new view (§4.5).
struct SeqFlushReq {
  ViewId new_view = 0;

  template <class Ar> void Wire(Ar& ar) { ar(new_view); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

struct SeqFlushResp {
  LogPos new_ordered_gp = 0;
  std::vector<WireRecordId> flushed_ids;

  template <class Ar> void Wire(Ar& ar) { ar(new_ordered_gp, flushed_ids); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Controller -> replicas of the new configuration: adopt the new view. Flushed ids seed
// the duplicate filter so client retries of already-ordered records are rejected.
struct SeqStartViewReq {
  ViewId view = 0;
  std::vector<uint64_t> config;  // replica node ids; config[0] is the leader
  LogPos ordered_gp = 0;
  LogPos stable_gp = 0;
  std::vector<WireRecordId> flushed_ids;

  template <class Ar> void Wire(Ar& ar) { ar(view, config, ordered_gp, stable_gp, flushed_ids); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

struct SeqCheckTailResp {
  LogPos durable = 0;  // number of durable records (ordered + not-yet-ordered)
  LogPos stable = 0;   // number of stable (readable) records
  ViewId view = 0;     // view that served the tail (durable may shrink across views)

  template <class Ar> void Wire(Ar& ar) { ar(durable, stable, view); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Controller -> sequencing replica: a shard replica was replaced; rewire orderer pushes
// and stable-gp broadcasts from the failed server to its replacement.
struct SeqUpdateShardsReq {
  NodeId old_node = kInvalidNode;
  NodeId new_node = kInvalidNode;

  template <class Ar> void Wire(Ar& ar) { ar(old_node, new_node); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Controller -> sequencing replica: a shard backup was promoted to primary. Beyond the
// node swap of kSeqUpdateShards, the leader resets that shard's ordering cursor to the
// new primary's contiguous applied frontier (`reset_upto`) and re-pushes metadata from
// there — the reconciliation handoff for acked-but-unordered Erwin-st ids the promoted
// replica never saw. Safe because a window is acked to the orderer only after every
// backup replicated it, so ordered_gp <= any survivor's frontier and everything above
// `reset_upto` is still resendable from the leader's ring.
struct SeqShardFailoverReq {
  uint32_t shard = 0;
  NodeId old_primary = kInvalidNode;
  NodeId new_primary = kInvalidNode;
  LogPos reset_upto = 0;

  template <class Ar> void Wire(Ar& ar) { ar(shard, old_primary, new_primary, reset_upto); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// One named virtual log ("phylog") in the cluster's log registry. The registry is
// owned by the controller, persisted to ZooKeeper under "/logs/config" (versioned by
// an epoch like "/shards/config"), and pushed to the sequencing replicas so the
// leader can enforce per-tenant quotas. Deleted logs stay as tombstones: the id is
// never reused and the leader refuses new appends to it.
struct LogRegistryEntry {
  LogId id = kDefaultLog;
  std::string name;
  uint64_t quota_per_sec = 0;  // admitted appends/s for this phylog; 0 = unlimited
  bool deleted = false;

  template <class Ar> void Wire(Ar& ar) { ar(id, name, quota_per_sec, LowBit{deleted}); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Controller -> sequencing replica: install the current log registry (quota table +
// deletion tombstones). Also the payload persisted at "/logs/config".
struct SeqUpdateLogsReq {
  uint64_t epoch = 0;
  std::vector<LogRegistryEntry> entries;

  template <class Ar> void Wire(Ar& ar) { ar(epoch, entries); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// The controller's "/shards/config" znode: the membership epoch, then each shard's
// replica list (primary first) and promotion epoch (bumped on every primary failover,
// so a reordered replica list is told apart from a mere backup replacement).
struct ShardConfig {
  struct Shard {
    std::vector<NodeId> replicas;
    uint64_t promo_epoch = 0;
    template <class Ar> void Wire(Ar& ar) { ar(replicas, promo_epoch); }
  };
  uint64_t epoch = 0;
  std::vector<Shard> shards;

  template <class Ar> void Wire(Ar& ar) { ar(epoch, shards); }
};

// Client -> leader: per-phylog tail query. The physical-log CheckTail keeps its
// legacy empty request body (byte-identical for single-log deployments); a non-empty
// body carries the phylog id and the response counts that log's records only.
struct SeqCheckTailReq {
  LogId log = kDefaultLog;

  template <class Ar> void Wire(Ar& ar) { ar(log); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Any replica -> client: current sequencing configuration (clients probe this after
// failed appends to discover the new view).
struct SeqConfigResp {
  ViewId view = 0;
  bool sealed = false;
  std::vector<uint64_t> config;  // config[0] is the leader

  template <class Ar> void Wire(Ar& ar) { ar(view, sealed, config); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

}  // namespace lazylog

#endif  // SRC_SEQ_SEQ_MESSAGES_H_
