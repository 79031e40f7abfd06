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
  static constexpr size_t kMinEncodedSize = 8 + WireRecord::kMinEncodedSize;
  LogPos pos = 0;
  Record record;

  void Encode(Encoder& e) const {
    e.PutU64(pos);
    EncodeRecord(e, record);
  }
  bool Decode(Decoder& d) { return d.GetU64(&pos) && DecodeRecord(d, &record); }
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

  void Encode(Encoder& e) const {
    e.PutU64(view);
    e.PutBool(overwrite);
    e.PutU64(truncate_from);
    e.PutU64(range_lo);
    e.PutU64(range_hi);
  }
  bool Decode(Decoder& d) {
    return d.GetU64(&view) && d.GetBool(&overwrite) && d.GetU64(&truncate_from) &&
           d.GetU64(&range_lo) && d.GetU64(&range_hi);
  }
};

// Orderer -> shard primary, and primary -> backup: one ordering window of ordered
// records (Erwin-m).
struct ShardAppendBatchReq : OrderWindow {
  std::vector<PositionedRecord> records;

  void Encode(Encoder& e) const {
    OrderWindow::Encode(e);
    e.PutVector(records);
  }
  bool Decode(Decoder& d) { return OrderWindow::Decode(d) && d.GetVector(&records); }
};

// Shard -> orderer: ack body for an ordering window (append batch or order meta).
// `applied_upto` is the shard's contiguous applied watermark — every position below it
// has been applied (stored, replicated, persisted). The orderer resyncs a cursor from
// this value after a retry instead of re-sending the whole batch to every shard.
struct ShardOrderAckResp {
  LogPos applied_upto = 0;

  void Encode(Encoder& e) const { e.PutU64(applied_upto); }
  bool Decode(Decoder& d) { return d.GetU64(&applied_upto); }
};

// Client read request. `pos` is a global log position; the shard gates the response on
// stable-gp (slow path waits). `nowait` makes the shard answer OUT_OF_RANGE instead of
// waiting (used by tests and by readers that poll).
struct ShardReadReq {
  LogPos pos = 0;
  uint32_t len = 1;  // max records to return (all on this shard, ascending positions)
  bool nowait = false;

  void Encode(Encoder& e) const {
    e.PutU64(pos);
    e.PutU32(len);
    e.PutBool(nowait);
  }
  bool Decode(Decoder& d) { return d.GetU64(&pos) && d.GetU32(&len) && d.GetBool(&nowait); }
};

// Read reply. Besides the records, every reply piggybacks the serving replica's view
// of the log tail (stable_gp count-semantics stable frontier, durable_tail learned from
// the orderer's broadcasts) so tail pollers can skip a CheckTail round trip, plus the
// replica's current CPU queue depth in nanoseconds, which feeds the client-side
// load-aware replica router.
struct ShardReadResp {
  std::vector<PositionedRecord> records;
  LogPos stable_gp = 0;      // serving replica's stable frontier at reply time
  LogPos durable_tail = 0;   // serving replica's last-heard durable tail (may lag)
  uint64_t queue_ns = 0;     // serving replica's CPU backlog when the request was handled

  void Encode(Encoder& e) const {
    e.PutVector(records);
    e.PutU64(stable_gp);
    e.PutU64(durable_tail);
    e.PutU64(queue_ns);
  }
  bool Decode(Decoder& d) {
    return d.GetVector(&records) && d.GetU64(&stable_gp) && d.GetU64(&durable_tail) &&
           d.GetU64(&queue_ns);
  }
};

// One contiguous read sub-range: up to `len` consecutive records *local to the target
// shard* starting at global position `pos` (same walk the server does for ShardReadReq).
struct ReadRange {
  static constexpr size_t kMinEncodedSize = 12;  // pos + len
  LogPos pos = 0;
  uint32_t len = 1;

  void Encode(Encoder& e) const {
    e.PutU64(pos);
    e.PutU32(len);
  }
  bool Decode(Decoder& d) { return d.GetU64(&pos) && d.GetU32(&len); }
};

// Client -> shard server: coalesced multi-range read. Serves every range in one
// request-handling pass and never waits: sub-ranges that start at/above the serving
// replica's stable-gp (or at a trimmed/foreign position) are clipped or omitted, and
// the client re-issues the remainder to the primary via the classic waiting read.
// Response is a ShardReadResp with the union of all served ranges.
struct ShardMultiRangeReadReq {
  std::vector<ReadRange> ranges;

  void Encode(Encoder& e) const { e.PutVector(ranges); }
  bool Decode(Decoder& d) { return d.GetVector(&ranges); }
};

// Reply to a multi-range read: `records` is the concatenation of the per-range record
// runs in request order, and `counts[i]` says how many of them belong to range i — the
// partition is explicit because ranges from different callers may overlap or abut.
// Carries the same tail/queue piggyback as ShardReadResp.
struct ShardMultiRangeReadResp {
  std::vector<uint32_t> counts;
  std::vector<PositionedRecord> records;
  LogPos stable_gp = 0;
  LogPos durable_tail = 0;
  uint64_t queue_ns = 0;

  void Encode(Encoder& e) const {
    e.PutU32(static_cast<uint32_t>(counts.size()));
    for (uint32_t c : counts) {
      e.PutU32(c);
    }
    e.PutVector(records);
    e.PutU64(stable_gp);
    e.PutU64(durable_tail);
    e.PutU64(queue_ns);
  }
  bool Decode(Decoder& d) {
    uint32_t n = 0;
    if (!d.GetU32(&n)) {
      return false;
    }
    counts.assign(n, 0);
    for (uint32_t i = 0; i < n; ++i) {
      if (!d.GetU32(&counts[i])) {
        return false;
      }
    }
    return d.GetVector(&records) && d.GetU64(&stable_gp) && d.GetU64(&durable_tail) &&
           d.GetU64(&queue_ns);
  }
};

// Erwin-st client data write: durable-on-arrival record data, not yet ordered. The
// payload attachment is the one allocation the record ever gets: the shard's unordered
// pool, the bound log entry, and read replies all alias it.
struct ShardPutDataReq {
  RecordId id;
  Buf payload;
  StreamTag tag = kNoTag;  // carried with the data so the bound record keeps its stream
  LogId log = kDefaultLog;  // carried with the data so the bound record keeps its phylog

  // Trailing flags byte mirroring the record codec: bit 1 says a u64 tag follows, bit 2
  // a u64 phylog id. Untagged default-log frames stay byte-identical to the pre-tag
  // format plus one zero byte.
  static constexpr uint8_t kFlagHasTag = 0x2;
  static constexpr uint8_t kFlagHasLog = 0x4;

  void Encode(Encoder& e) const {
    EncodeRecordId(e, id);
    e.PutAttached(payload);
    e.PutU8((tag != kNoTag ? kFlagHasTag : 0) | (log != kDefaultLog ? kFlagHasLog : 0));
    if (tag != kNoTag) {
      e.PutU64(tag);
    }
    if (log != kDefaultLog) {
      e.PutU64(log);
    }
  }
  bool Decode(Decoder& d) {
    uint8_t flags = 0;
    if (!DecodeRecordId(d, &id) || !d.GetAttached(&payload) || !d.GetU8(&flags) ||
        (flags & ~(kFlagHasTag | kFlagHasLog)) != 0) {
      return false;
    }
    tag = kNoTag;
    if ((flags & kFlagHasTag) != 0 && !d.GetU64(&tag)) {
      return false;
    }
    log = kDefaultLog;
    return (flags & kFlagHasLog) == 0 || d.GetU64(&log);
  }
};

// One metadata entry: global position -> (record id, shard that holds the data).
struct MetaEntry {
  static constexpr size_t kMinEncodedSize = 28;  // pos + record id + shard
  LogPos pos = 0;
  RecordId id;
  ShardId shard = 0;

  void Encode(Encoder& e) const {
    e.PutU64(pos);
    EncodeRecordId(e, id);
    e.PutU32(shard);
  }
  bool Decode(Decoder& d) {
    return d.GetU64(&pos) && DecodeRecordId(d, &id) && d.GetU32(&shard);
  }
};

// Orderer -> every shard primary, and primary -> backup (Erwin-st): one ordering
// window of the metadata log. Each primary stores the full position->shard map and
// binds the positions it owns.
struct ShardOrderMetaReq : OrderWindow {
  std::vector<MetaEntry> entries;

  void Encode(Encoder& e) const {
    OrderWindow::Encode(e);
    e.PutVector(entries);
  }
  bool Decode(Decoder& d) { return OrderWindow::Decode(d) && d.GetVector(&entries); }
};

// Client -> any shard server (Erwin-st): fetch position->shard mappings for caching.
struct ShardPosMapReq {
  LogPos from = 0;
  uint32_t len = 0;

  void Encode(Encoder& e) const {
    e.PutU64(from);
    e.PutU32(len);
  }
  bool Decode(Decoder& d) { return d.GetU64(&from) && d.GetU32(&len); }
};

struct ShardPosMapResp {
  LogPos from = 0;
  std::vector<uint64_t> shard_ids;  // shard id per position, dense from `from`

  void Encode(Encoder& e) const {
    e.PutU64(from);
    e.PutU64Vector(shard_ids);
  }
  bool Decode(Decoder& d) { return d.GetU64(&from) && d.GetU64Vector(&shard_ids); }
};

// One (log, tag, global position) entry exported by a shard's stream/phylog index
// journal. Tagged records journal under their (log, tag); every named-log record
// additionally journals under (log, kNoTag) — that list, sorted by position, IS the
// phylog's dense position space (rank i = per-log position i). Default-log untagged
// records are never journaled, so single-log untagged runs export nothing, exactly as
// before the virtual-log layer.
struct TagIndexEntry {
  static constexpr size_t kMinEncodedSize = 24;  // log + tag + pos
  LogId log = kDefaultLog;
  StreamTag tag = kNoTag;
  LogPos pos = 0;

  void Encode(Encoder& e) const {
    e.PutU64(log);
    e.PutU64(tag);
    e.PutU64(pos);
  }
  bool Decode(Decoder& d) { return d.GetU64(&log) && d.GetU64(&tag) && d.GetU64(&pos); }
};

// Index node -> shard primary: pull tag-index entries starting at shard-local export
// sequence `from_seq`. The export sequence numbers this shard's stable positions in
// local order, so a crashed/restarted index node resumes exactly where it left off.
struct ShardIndexDeltaReq {
  uint64_t from_seq = 0;
  uint32_t max_entries = 4096;

  void Encode(Encoder& e) const {
    e.PutU64(from_seq);
    e.PutU32(max_entries);
  }
  bool Decode(Decoder& d) { return d.GetU64(&from_seq) && d.GetU32(&max_entries); }
};

struct ShardIndexDeltaResp {
  uint64_t from_seq = 0;      // echo of the request cursor
  uint64_t next_seq = 0;      // cursor for the next pull (from_seq + entries.size())
  LogPos stable_gp = 0;       // shard's stable frontier at export time (lag accounting)
  LogPos exported_below = 0;  // every position this shard owns below here is covered by
                              // the returned prefix (journal entries ascend in pos)
  std::vector<TagIndexEntry> entries;

  void Encode(Encoder& e) const {
    e.PutU64(from_seq);
    e.PutU64(next_seq);
    e.PutU64(stable_gp);
    e.PutU64(exported_below);
    e.PutVector(entries);
  }
  bool Decode(Decoder& d) {
    return d.GetU64(&from_seq) && d.GetU64(&next_seq) && d.GetU64(&stable_gp) &&
           d.GetU64(&exported_below) && d.GetVector(&entries);
  }
};

// Client -> shard server: read a sparse batch of global positions (all owned by this
// shard). Unlike ShardReadReq this never waits: positions at or above stable-gp are
// simply omitted from the response. Used by selective readers after an index lookup.
struct ShardMultiReadReq {
  std::vector<uint64_t> positions;

  void Encode(Encoder& e) const { e.PutU64Vector(positions); }
  bool Decode(Decoder& d) { return d.GetU64Vector(&positions); }
};

// Orderer/controller -> shard server: advance the stable global position. `stable_gp`
// uses count semantics: positions < stable_gp are stable and readable. `durable_tail`
// is the sequencing leader's durable frontier at broadcast time (ordered_gp + unordered
// ring size); replicas cache it so read replies can piggyback a recent durable tail.
struct StableGpMsg {
  ViewId view = 0;
  LogPos stable_gp = 0;
  LogPos durable_tail = 0;

  void Encode(Encoder& e) const {
    e.PutU64(view);
    e.PutU64(stable_gp);
    e.PutU64(durable_tail);
  }
  bool Decode(Decoder& d) {
    return d.GetU64(&view) && d.GetU64(&stable_gp) && d.GetU64(&durable_tail);
  }
};

// Controller -> shard server: fence the epoch. After this, any orderer/data-path message
// stamped with a view < `new_view` is rejected with STALE_VIEW, so a deposed sequencing
// leader can neither bind positions nor advance stable-gp on this shard (§4.5 seal).
struct ShardSealReq {
  ViewId new_view = 0;

  void Encode(Encoder& e) const { e.PutU64(new_view); }
  bool Decode(Decoder& d) { return d.GetU64(&new_view); }
};

// Controller -> replacement shard replica: pull ordered + unordered state from `source`
// (the shard's primary) via the existing kShardFetchState path.
struct ShardCopyStateReq {
  NodeId source = kInvalidNode;

  void Encode(Encoder& e) const { e.PutU32(source); }
  bool Decode(Decoder& d) { return d.GetU32(&source); }
};

// Client -> shard: garbage-collect positions < up_to.
struct TrimMsg {
  LogPos up_to = 0;

  void Encode(Encoder& e) const { e.PutU64(up_to); }
  bool Decode(Decoder& d) { return d.GetU64(&up_to); }
};

// Controller -> surviving shard replica: fence the shard for primary promotion under a
// bumped promotion epoch. While sealed-for-promotion the replica refuses
// primary-originated traffic (replicate / replicate-meta / replicate-no-op), which keeps
// an isolated-but-alive old primary from mutating survivors mid-handoff. The response is
// the replica's completeness report, from which the controller picks the new primary.
struct ShardPromoSealReq {
  uint64_t promo_epoch = 0;

  void Encode(Encoder& e) const { e.PutU64(promo_epoch); }
  bool Decode(Decoder& d) { return d.GetU64(&promo_epoch); }
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

  void Encode(Encoder& e) const {
    e.PutU64(promo_epoch);
    e.PutU64(order_applied);
    e.PutU64(order_durable);
    e.PutU64(meta_size);
    e.PutU64(pending);
  }
  bool Decode(Decoder& d) {
    return d.GetU64(&promo_epoch) && d.GetU64(&order_applied) && d.GetU64(&order_durable) &&
           d.GetU64(&meta_size) && d.GetU64(&pending);
  }
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

  void Encode(Encoder& e) const {
    e.PutU64(promo_epoch);
    e.PutU64Vector(order);
    e.PutU64Vector(peer_applied);
  }
  bool Decode(Decoder& d) {
    return d.GetU64(&promo_epoch) && d.GetU64Vector(&order) && d.GetU64Vector(&peer_applied);
  }
};

// New primary -> peer backup (promotion handoff): fetch whatever the peer has bound at
// `pos` — a real record or a no-op decision inherited from the dead primary. Unbound or
// still-pending positions answer UNAVAILABLE and the new primary falls back to its
// own no-op timer.
struct ShardBackfillReq {
  LogPos pos = 0;

  void Encode(Encoder& e) const { e.PutU64(pos); }
  bool Decode(Decoder& d) { return d.GetU64(&pos); }
};

// Backup -> primary (Erwin-st): fetch the resolved record bound at `pos` (repairs a
// backup that never received the data for an unacknowledged append).
struct FetchRecordReq {
  LogPos pos = 0;

  void Encode(Encoder& e) const { e.PutU64(pos); }
  bool Decode(Decoder& d) { return d.GetU64(&pos); }
};

// Primary -> backup (Erwin-st): position `pos` resolved as a no-op for record `id`.
struct NoOpMsg {
  LogPos pos = 0;
  RecordId id;

  void Encode(Encoder& e) const {
    e.PutU64(pos);
    EncodeRecordId(e, id);
  }
  bool Decode(Decoder& d) { return d.GetU64(&pos) && DecodeRecordId(d, &id); }
};

}  // namespace lazylog

#endif  // SRC_STORAGE_SHARD_MESSAGES_H_
