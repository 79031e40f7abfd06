// Wire messages exchanged with shard servers. Shared by the Erwin background orderer,
// the Erwin-m/st clients, and the recovery path.
#ifndef SRC_STORAGE_SHARD_MESSAGES_H_
#define SRC_STORAGE_SHARD_MESSAGES_H_

#include <string>
#include <vector>

#include "src/common/codec.h"
#include "src/common/types.h"

namespace lazylog {

// One globally positioned record, as pushed by the background orderer (Erwin-m) or
// replicated primary->backup.
struct PositionedRecord {
  LogPos pos = 0;
  Record record;

  template <class Ar> void Wire(Ar& ar) { ar(pos, record); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Header shared by both ordering-window kinds (ShardAppendBatchReq, ShardOrderMetaReq).
// `range_lo`/`range_hi` delimit the contiguous global-position span the window covers
// (a shard stores only its owned subset but advances its applied watermark over the
// whole span). Windows from one orderer cursor cover adjacent, non-overlapping spans;
// the shard applies them in span order, parking any window that arrives ahead of a gap.
// `overwrite` is set on the recovery flush, where previously pushed (but unstable) tail
// entries may be logically rewritten (§4.5).
struct OrderWindow {
  ViewId view = 0;
  bool overwrite = false;
  LogPos truncate_from = 0;  // valid when overwrite: drop local entries with pos >= this
  LogPos range_lo = 0;       // first global position covered by this window
  LogPos range_hi = 0;       // one past the last global position covered

  template <class Ar> void Wire(Ar& ar) { ar(view, overwrite, truncate_from, range_lo, range_hi); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Orderer -> shard primary, and primary -> backup: one ordering window of ordered
// records (Erwin-m).
struct ShardAppendBatchReq : OrderWindow {
  std::vector<PositionedRecord> records;

  template <class Ar> void Wire(Ar& ar) { OrderWindow::Wire(ar); ar(records); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Shard -> orderer: ack body for an ordering window (append batch or order meta).
// `applied_upto` is the shard's contiguous applied watermark — every position below it
// has been applied (stored, replicated, persisted). The orderer resyncs a cursor from
// this value after a retry instead of re-sending the whole batch to every shard.
struct ShardOrderAckResp {
  LogPos applied_upto = 0;

  template <class Ar> void Wire(Ar& ar) { ar(applied_upto); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// One contiguous read sub-range: up to `len` consecutive records *local to the target
// shard* starting at global position `pos`.
struct ReadRange {
  LogPos pos = 0;
  uint32_t len = 1;

  template <class Ar> void Wire(Ar& ar) { ar(pos, len); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Client -> shard server: the one shard read, gated on stable-gp. The method decides
// whether it waits. kShardRead waits at the primary (§4.4): judged by the start of its
// first range, a trimmed start fails OUT_OF_RANGE and a start at or above stable-gp
// parks until stable-gp passes it. kShardMultiRangeRead never waits (§5.3 read
// scale-out, index fetches): any replica serves it in one pass and clips each range at
// its own stable-gp or a trimmed/foreign position; the client re-issues a clipped
// remainder to the primary as a waiting read.
struct ShardReadReq {
  std::vector<ReadRange> ranges;

  template <class Ar> void Wire(Ar& ar) { ar(ranges); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Read reply: `records` is the concatenation of the per-range record runs in request
// order, and `counts[i]` says how many of them belong to range i (the partition is
// explicit because ranges from different callers may overlap or abut). Every reply
// also piggybacks the serving replica's view of the log tail (stable_gp count-semantics
// stable frontier, durable_tail learned from the orderer's broadcasts) so tail pollers
// can skip a CheckTail round trip, plus the replica's current CPU queue depth in
// nanoseconds, which feeds the client-side load-aware replica router.
struct ShardReadResp {
  std::vector<uint32_t> counts;
  std::vector<PositionedRecord> records;
  LogPos stable_gp = 0;      // serving replica's stable frontier at reply time
  LogPos durable_tail = 0;   // serving replica's last-heard durable tail (may lag)
  uint64_t queue_ns = 0;     // serving replica's CPU backlog when the request was handled

  template <class Ar> void Wire(Ar& ar) { ar(counts, records, stable_gp, durable_tail, queue_ns); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Erwin-st client data write: durable-on-arrival record data, not yet ordered. The
// payload attachment is the one allocation the record ever gets: the shard's unordered
// pool, the bound log entry, and read replies all alias it.
struct ShardPutDataReq {
  RecordId id;
  Buf payload;
  StreamTag tag = kNoTag;  // carried with the data so the bound record keeps its stream
  LogId log = kDefaultLog;  // carried with the data so the bound record keeps its phylog

  // The record flags byte without a bit 0: untagged default-log frames are the
  // pre-tag format plus one zero byte.
  template <class Ar> void Wire(Ar& ar) { ar(id, payload, TagLogFlags{nullptr, tag, log}); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// One metadata entry: global position -> (record id, shard that holds the data).
struct MetaEntry {
  LogPos pos = 0;
  RecordId id;
  ShardId shard = 0;

  template <class Ar> void Wire(Ar& ar) { ar(pos, id, shard); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Orderer -> every shard primary, and primary -> backup (Erwin-st): one ordering
// window of the metadata log. Each primary stores the full position->shard map and
// binds the positions it owns.
struct ShardOrderMetaReq : OrderWindow {
  std::vector<MetaEntry> entries;

  template <class Ar> void Wire(Ar& ar) { OrderWindow::Wire(ar); ar(entries); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Client -> any shard server (Erwin-st): fetch position->shard mappings for caching.
struct ShardPosMapReq {
  LogPos from = 0;
  uint32_t len = 0;

  template <class Ar> void Wire(Ar& ar) { ar(from, len); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

struct ShardPosMapResp {
  LogPos from = 0;
  std::vector<uint64_t> shard_ids;  // shard id per position, dense from `from`

  template <class Ar> void Wire(Ar& ar) { ar(from, shard_ids); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// One (log, tag, global position) entry exported by a shard's stream/phylog index
// journal. Tagged records journal under their (log, tag); every named-log record
// additionally journals under (log, kNoTag) — that list, sorted by position, IS the
// phylog's dense position space (rank i = per-log position i). Default-log untagged
// records are never journaled, so single-log untagged runs export nothing, exactly as
// before the virtual-log layer.
struct TagIndexEntry {
  LogId log = kDefaultLog;
  StreamTag tag = kNoTag;
  LogPos pos = 0;

  template <class Ar> void Wire(Ar& ar) { ar(log, tag, pos); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Index node -> shard primary: pull tag-index entries starting at shard-local export
// sequence `from_seq`. The export sequence numbers this shard's stable positions in
// local order, so a crashed/restarted index node resumes exactly where it left off.
struct ShardIndexDeltaReq {
  uint64_t from_seq = 0;
  uint32_t max_entries = 4096;

  template <class Ar> void Wire(Ar& ar) { ar(from_seq, max_entries); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

struct ShardIndexDeltaResp {
  uint64_t from_seq = 0;      // echo of the request cursor
  uint64_t next_seq = 0;      // cursor for the next pull (from_seq + entries.size())
  LogPos stable_gp = 0;       // shard's stable frontier at export time (lag accounting)
  LogPos exported_below = 0;  // every position this shard owns below here is covered by
                              // the returned prefix (journal entries ascend in pos)
  std::vector<TagIndexEntry> entries;

  template <class Ar>
  void Wire(Ar& ar) { ar(from_seq, next_seq, stable_gp, exported_below, entries); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Orderer/controller -> shard server: advance the stable global position. `stable_gp`
// uses count semantics: positions < stable_gp are stable and readable. `durable_tail`
// is the sequencing leader's durable frontier at broadcast time (ordered_gp + unordered
// ring size); replicas cache it so read replies can piggyback a recent durable tail.
struct StableGpMsg {
  ViewId view = 0;
  LogPos stable_gp = 0;
  LogPos durable_tail = 0;

  template <class Ar> void Wire(Ar& ar) { ar(view, stable_gp, durable_tail); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Controller -> shard server: fence the epoch. After this, any orderer/data-path message
// stamped with a view < `new_view` is rejected with STALE_VIEW, so a deposed sequencing
// leader can neither bind positions nor advance stable-gp on this shard (§4.5 seal).
struct ShardSealReq {
  ViewId new_view = 0;

  template <class Ar> void Wire(Ar& ar) { ar(new_view); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Controller -> replacement shard replica: pull ordered + unordered state from `source`
// (the shard's primary) via the existing kShardFetchState path.
struct ShardCopyStateReq {
  NodeId source = kInvalidNode;

  template <class Ar> void Wire(Ar& ar) { ar(source); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Client -> shard: garbage-collect positions < up_to.
struct TrimMsg {
  LogPos up_to = 0;

  template <class Ar> void Wire(Ar& ar) { ar(up_to); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Controller -> surviving shard replica: fence the shard for primary promotion under a
// bumped promotion epoch. While sealed-for-promotion the replica refuses
// primary-originated traffic (replicate / replicate-meta / replicate-no-op), which keeps
// an isolated-but-alive old primary from mutating survivors mid-handoff. The response is
// the replica's completeness report, from which the controller picks the new primary.
struct ShardPromoSealReq {
  uint64_t promo_epoch = 0;

  template <class Ar> void Wire(Ar& ar) { ar(promo_epoch); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Replica -> controller: how complete this replica's Erwin-st state is. `order_applied`
// is the contiguous metadata frontier (the promotion comparison key — everything below
// it is bound or mapped locally); `pending` counts owned positions whose payload is
// still unresolved (back-fill work for the new primary).
struct ShardCompletenessResp {
  uint64_t promo_epoch = 0;
  LogPos order_applied = 0;
  LogPos order_durable = 0;
  uint64_t meta_size = 0;
  uint64_t pending = 0;

  template <class Ar>
  void Wire(Ar& ar) { ar(promo_epoch, order_applied, order_durable, meta_size, pending); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Controller -> surviving shard replica: adopt the promoted replica order (order[0] is
// the new primary). A receiver that finds itself at order[0] runs the full role flip:
// meta catch-up of lagging peers (peer_applied[i] is order[i]'s contiguous frontier),
// payload back-fill of its own pending bindings from peers, and conversion of its
// backup fetch timers into primary no-op timers. Everyone else just installs the order,
// which re-points their repair path at the new primary and un-seals them.
struct ShardPromoteReq {
  uint64_t promo_epoch = 0;
  std::vector<uint64_t> order;         // replica node ids, order[0] = new primary
  std::vector<uint64_t> peer_applied;  // parallel to order: each replica's order_applied

  template <class Ar> void Wire(Ar& ar) { ar(promo_epoch, order, peer_applied); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Erwin-st repair of a pending binding: fetch the record bound at `pos`, data or a
// no-op decision. A backup asks its primary (it never received the data of an
// unacknowledged append); a promoted primary asks its peers (one may hold the data, or
// the dead primary's no-op decision). Unbound or still-pending positions answer
// UNAVAILABLE.
struct FetchRecordReq {
  LogPos pos = 0;

  template <class Ar> void Wire(Ar& ar) { ar(pos); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Primary -> backup (Erwin-st): position `pos` resolved as a no-op for record `id`.
struct NoOpMsg {
  LogPos pos = 0;
  RecordId id;

  template <class Ar> void Wire(Ar& ar) { ar(pos, id); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

}  // namespace lazylog

#endif  // SRC_STORAGE_SHARD_MESSAGES_H_
