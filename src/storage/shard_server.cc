#include "src/storage/shard_server.h"

#include <algorithm>

#include "src/common/logging.h"

namespace lazylog {

namespace {
// Ack a client data put only once the disk backlog is below this horizon; bounds memory
// and makes shard throughput saturate at disk bandwidth (§5.1's "durability in the
// critical path is memory, disk catches up in the background").
constexpr uint64_t kDiskAdmissionHorizonNs = 2 * kMs;
constexpr uint64_t kScrubIntervalNs = 50 * kMs;
// Parked ordering windows are bounded: a cursor keeps at most order_pipeline_depth
// windows in flight, so anything beyond a small multiple means the orderer is
// misbehaving; overflow is refused (with the watermark) and the cursor retries.
constexpr size_t kMaxParkedWindows = 64;

// kShardFetchState reply: everything a replacement replica needs from a live one.
struct ShardStateSnapshot {
  struct PooledRecord {  // an unordered-pool entry
    RecordId id;
    Buf payload;
    StreamTag tag = kNoTag;  // both always on the wire (no flags byte)
    LogId log = kDefaultLog;
    template <class Ar> void Wire(Ar& ar) { ar(id, payload, tag, log); }
  };

  ViewId view = 0;
  LogPos stable_gp = 0;
  LogPos trimmed_below = 0;
  LogPos meta_base = 0;
  // Ordering frontiers: a replacement that starts at zero would park every window the
  // cursor sends it (range_lo far ahead of an empty stream). completed_spans_ is not
  // shipped — the orderer re-sends anything above order_durable_ after a retry anyway.
  LogPos order_applied = 0;
  LogPos order_durable = 0;
  std::vector<PositionedRecord> ordered;  // in local order
  std::vector<PooledRecord> pool;
  std::vector<RecordId> rejected;  // no-op decisions: late data writes stay rejected
  std::vector<uint64_t> meta_log;

  template <class Ar>
  void Wire(Ar& ar) {
    ar(view, stable_gp, trimmed_below, meta_base, order_applied, order_durable, ordered, pool,
       rejected, meta_log);
  }
};
}  // namespace

void ShardServer::BatchAck::Complete(const Status& s) {
  if (!s.ok()) {
    failed = true;
  }
  LL_CHECK(waits > 0, "BatchAck over-completed");
  if (--waits != 0) {
    return;
  }
  if (track_span) {
    server->OnWindowDone(span_lo, span_hi, !failed);
  }
  if (responder.valid()) {
    server->SendWatermarkAck(std::move(responder),
                             failed ? Status::Internal("shard batch failed") : Status::Ok());
  }
}

void ShardServer::SendWatermarkAck(Responder r, const Status& s) {
  Encoder e;
  ShardOrderAckResp{order_durable_}.Encode(e);
  r.Send(s, e.TakeBuf());
}

void ShardServer::OnWindowDone(LogPos lo, LogPos hi, bool durable) {
  auto pending = std::find(pending_spans_.begin(), pending_spans_.end(), std::make_pair(lo, hi));
  if (pending != pending_spans_.end()) {
    pending_spans_.erase(pending);
  }
  if (!durable) {
    // Retransmits joined past this span's start can no longer be answered by the
    // frontier; they fail with it, and the cursor's retry re-applies the span.
    for (auto it = joined_.upper_bound(lo); it != joined_.end(); it = joined_.erase(it)) {
      SendWatermarkAck(std::move(it->second), Status::Internal("shard batch failed"));
    }
    return;
  }
  if (hi <= order_durable_) {
    return;  // already covered (retransmit completion)
  }
  lo = std::max(lo, order_durable_);
  auto span = std::lower_bound(completed_spans_.begin(), completed_spans_.end(),
                               std::make_pair(lo, LogPos{0}));
  if (span != completed_spans_.end() && span->first == lo) {
    span->second = std::max(span->second, hi);
  } else {
    completed_spans_.insert(span, {lo, hi});
  }
  // Advance the contiguous durable prefix.
  auto it = completed_spans_.begin();
  for (; it != completed_spans_.end() && it->first <= order_durable_; ++it) {
    order_durable_ = std::max(order_durable_, it->second);
  }
  completed_spans_.erase(completed_spans_.begin(), it);
  while (!joined_.empty() && joined_.begin()->first <= order_durable_) {
    SendWatermarkAck(std::move(joined_.begin()->second), Status::Ok());
    joined_.erase(joined_.begin());
  }
}

bool ShardServer::SettlingWithin(LogPos lo, LogPos hi) const {
  auto noop = unconfirmed_noops_.lower_bound(lo);
  if (noop != unconfirmed_noops_.end() && *noop < hi) {
    return true;
  }
  return std::any_of(pending_.begin(), pending_.end(),
                     [lo, hi](const auto& kv) { return kv.second.pos >= lo && kv.second.pos < hi; });
}

bool ShardServer::DurableInFlight(LogPos hi) const {
  // Furthest end of a span in `spans` that starts at or below `frontier`.
  auto reach_of = [](const auto& spans, LogPos frontier) {
    LogPos reach = frontier;
    for (auto it = spans.begin(); it != spans.end() && it->first <= frontier; ++it) {
      reach = std::max(reach, it->second);
    }
    return reach;
  };
  LogPos frontier = order_durable_;
  while (frontier < hi) {
    const LogPos reach =
        std::max(reach_of(completed_spans_, frontier), reach_of(pending_spans_, frontier));
    if (reach == frontier) {
      return false;
    }
    frontier = reach;
  }
  return true;
}

void ShardServer::ResetOrderFrontiersForOverwrite(LogPos truncate_from, LogPos range_hi) {
  completed_spans_.clear();
  for (auto& [lo, w] : parked_) {
    SendWatermarkAck(std::move(w.responder), Status::StaleView("parked window pre-dates flush"));
  }
  parked_.clear();
  for (auto& [hi, r] : joined_) {
    SendWatermarkAck(std::move(r), Status::StaleView("joined window pre-dates flush"));
  }
  joined_.clear();
  pending_spans_.clear();  // windows applied before the flush cover a rewritten tail
  // The flush rewrites [truncate_from, range_hi); everything it covers is applied once
  // it lands, and durability restarts from the truncation point.
  order_applied_ = std::max(range_hi, truncate_from);
  order_durable_ = std::min(order_durable_, truncate_from);
}

ShardServer::ShardServer(Network* net, const SimParams& params, ShardMode mode,
                         ShardId shard_id, uint32_t num_shards)
    : endpoint_(net),
      cpu_(net->loop(), params.shard_cpu),
      disk_(net->loop(), params.disk),
      params_(params),
      mode_(mode),
      shard_id_(shard_id),
      num_shards_(num_shards) {
  if (mode_ == ShardMode::kStModified) {
    RegisterWindowMethods<ShardOrderMetaReq>(kShardOrderMeta);
  } else {
    RegisterWindowMethods<ShardAppendBatchReq>(kShardAppendBatch);
  }
  // One handler serves both read methods; the method decides whether the read waits.
  endpoint_.Handle<ShardReadReq>(kShardRead, [this](NodeId, ShardReadReq req, Responder r) {
    HandleRead(/*wait=*/true, std::move(req), std::move(r));
  });
  endpoint_.Handle<ShardReadReq>(kShardMultiRangeRead,
                                 [this](NodeId, ShardReadReq req, Responder r) {
                                   HandleRead(/*wait=*/false, std::move(req), std::move(r));
                                 });
  endpoint_.Handle(kShardSetStableGp, this, &ShardServer::HandleSetStableGp);
  endpoint_.Handle(kShardPutData, this, &ShardServer::HandlePutData);
  endpoint_.Handle(kShardReplicateNoOp, this, &ShardServer::HandleReplicateNoOp);
  endpoint_.Handle(kShardPosMap, this, &ShardServer::HandlePosMap);
  endpoint_.Handle(kShardIndexDelta, this, &ShardServer::HandleIndexDelta);
  endpoint_.Handle(kShardTrim, this, &ShardServer::HandleTrim);
  endpoint_.Handle(kShardFetchState, this, &ShardServer::HandleFetchState);
  endpoint_.Handle(kShardSeal, this, &ShardServer::HandleSeal);
  endpoint_.Handle(kShardCopyState, this, &ShardServer::HandleCopyState);
  endpoint_.Handle(kShardPromoSeal, this, &ShardServer::HandlePromoSeal);
  endpoint_.Handle(kShardPromote, this, &ShardServer::HandlePromote);
  endpoint_.Handle(kShardFetchRecord, this, &ShardServer::HandleFetchRecord);
  if (mode_ == ShardMode::kStModified) {
    endpoint_.loop()->Schedule(kScrubIntervalNs, [this]() { ScrubOrphans(); });
  }
}

void ShardServer::SetReplicaSet(std::vector<NodeId> replicas) {
  replicas_ = std::move(replicas);
  ForgetPendingWindows();
}

void ShardServer::ForgetPendingWindows() {
  pending_spans_.clear();
  for (auto& [hi, r] : joined_) {
    SendWatermarkAck(std::move(r), Status::Unavailable("replica set changed"));
  }
  joined_.clear();
}

void ShardServer::Bootstrap(LogPos stable_gp, LogPos meta_next_pos) {
  stable_gp_ = stable_gp;
  meta_base_ = meta_next_pos;
  trimmed_below_ = 0;
  // A runtime-added shard starts its ordering stream at the leader's assignment
  // frontier: the first window its cursor sends has range_lo == meta_next_pos, so the
  // frontiers must start there or that window would park forever.
  order_applied_ = meta_next_pos;
  order_durable_ = meta_next_pos;
  completed_spans_.clear();
  // A runtime-added shard owns nothing below the bootstrap frontier; start the tag
  // index there so delta pulls report full coverage immediately.
  index_pos_frontier_ = std::max(index_pos_frontier_, stable_gp);
  if (stable_gp_observer_) {
    stable_gp_observer_(view_, stable_gp_);
  }
}

const Record* ShardServer::RecordAt(LogPos pos) const {
  const uint64_t local = LocalIndexOf(pos);
  return local == kNoLocal ? nullptr : log_.Get(local);
}

uint64_t ShardServer::DiskAdmissionDelay() const {
  const uint64_t depth = disk_.QueueDepthNs();
  return depth > kDiskAdmissionHorizonNs ? depth - kDiskAdmissionHorizonNs : 0;
}

// --- ordered storage ----------------------------------------------------------------

uint64_t ShardServer::LocalIndexOf(LogPos pos) const {
  // Fast paths for the common cases: a fresh position past the ordered tail, and the
  // position just stored.
  if (local_pos_.empty() || pos > local_pos_.back()) {
    return kNoLocal;
  }
  if (pos == local_pos_.back()) {
    return local_pos_base_ + local_pos_.size() - 1;
  }
  auto it = std::lower_bound(local_pos_.begin(), local_pos_.end(), pos);
  if (it == local_pos_.end() || *it != pos) {
    return kNoLocal;
  }
  return local_pos_base_ + static_cast<uint64_t>(it - local_pos_.begin());
}

uint64_t ShardServer::StoreOrdered(LogPos pos, Record record, bool allow_existing) {
  const uint64_t existing = LocalIndexOf(pos);
  if (existing != kNoLocal) {
    LL_CHECK(allow_existing, "duplicate ordered position");
    log_.Overwrite(existing, std::move(record));
    return existing;
  }
  if (fencing_disabled_ && !local_pos_.empty() && pos < local_pos_.back()) {
    // Unfenced split-brain interleaving can regress positions; drop (fixture only).
    return kNoLocal;
  }
  LL_CHECK(local_pos_.empty() || pos > local_pos_.back(), "ordered positions must ascend");
  const uint64_t local = log_.Append(std::move(record));
  LL_CHECK(local == local_pos_base_ + local_pos_.size(), "local index out of step with positions");
  local_pos_.push_back(pos);
  stats_.appends++;
  return local;
}

void ShardServer::TruncateOrderedFrom(LogPos pos) {
  uint64_t dropped = 0;
  while (!local_pos_.empty() && local_pos_.back() >= pos) {
    const uint64_t local = log_.end_index() - 1 - dropped;
    if (mode_ == ShardMode::kStModified) {
      // The recovery flush will rebind these positions from the unordered pool; put the
      // record data back so it is not lost (it was moved out of the pool at bind time).
      const Record* rec = log_.Get(local);
      if (rec != nullptr && !rec->no_op && pending_.count(rec->id) == 0) {
        pool_[rec->id] = PoolEntry{rec->payload, rec->tag, rec->log, endpoint_.loop()->Now()};
      }
    }
    local_pos_.pop_back();
    ++dropped;
  }
  if (dropped > 0) {
    log_.TruncateFrom(log_.end_index() - dropped);
  }
  // Cancel pending bindings in the truncated range (recovery rewrites them).
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.pos >= pos) {
      it->second.timeout.Cancel();
      if (it->second.batch) {
        it->second.batch->Complete(Status::Ok());
      }
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

// --- the ordering-window pipeline (both modes) ---------------------------------------

template <typename Req>
void ShardServer::RegisterWindowMethods(MethodId from_orderer) {
  endpoint_.Handle<Req>(from_orderer, [this](NodeId from, Req req, Responder r) {
    HandleWindow(from, /*from_orderer=*/true, std::move(req), std::move(r));
  });
  endpoint_.Handle<Req>(ReplicateMethod(), [this](NodeId from, Req req, Responder r) {
    HandleWindow(from, /*from_orderer=*/false, std::move(req), std::move(r));
  });
}

MethodId ShardServer::ReplicateMethod() const {
  return mode_ == ShardMode::kStModified ? kShardReplicateMeta : kShardReplicate;
}

template <typename Req>
void ShardServer::HandleWindow(NodeId from, bool from_orderer, Req window, Responder r) {
  if (!from_orderer) {
    if (loading_) {
      r.Send(Status::Unavailable("state copy in progress"));
      return;
    }
    if (RejectPrimaryTraffic(from)) {
      r.Send(Status::StaleView("fenced: not my primary"));
      return;
    }
  }
  auto req = std::make_shared<Req>(std::move(window));
  if (FencedOff(req->view)) {
    r.Send(Status::StaleView(from_orderer ? "fenced: stale orderer view" : "fenced: stale view"));
    return;
  }
  view_ = std::max(view_, req->view);
  cpu_.ExecuteFor(WindowCpuBytes(*req), [this, req, r]() mutable {
    AdmitWindow(std::move(req), std::move(r));
  });
}

template <typename Req>
void ShardServer::AdmitWindow(std::shared_ptr<Req> req, Responder r) {
  // A recovery flush always applies (it rewrites the tail and resets the frontiers), as
  // does a legacy window without range info (no span tracking).
  const bool ranged = !req->overwrite && req->range_hi != 0;
  if (ranged && req->range_hi <= order_durable_) {
    stats_.windows_retransmitted++;  // fully durable retransmit: re-ack, do not re-apply
    SendWatermarkAck(std::move(r), Status::Ok());
    return;
  }
  if (ranged && req->range_hi <= order_applied_ && DurableInFlight(req->range_hi)) {
    // Applied and still being made durable: join the pending acks rather than
    // replicate to the backups and write the disk a second time.
    stats_.windows_retransmitted++;
    joined_.emplace(req->range_hi, std::move(r));
    return;
  }
  if (ranged && req->range_lo > order_applied_) {
    if (parked_.size() >= kMaxParkedWindows) {
      SendWatermarkAck(std::move(r), Status::Unavailable("parked window overflow"));
      return;
    }
    stats_.windows_parked++;
    auto [it, inserted] = parked_.try_emplace(req->range_lo);
    if (!inserted) {
      SendWatermarkAck(std::move(it->second.responder),
                       Status::Unavailable("superseded by a newer retry"));
    }
    it->second = OrderedWindow{std::move(req), std::move(r)};
    return;
  }
  // Also re-applies a retransmit no pending window covers (a failed window's span, or
  // one applied before a state copy); bound positions are skipped.
  ApplyWindow(std::move(req), std::move(r));
  DrainParkedWindows<Req>();
}

template <typename Req>
void ShardServer::DrainParkedWindows() {
  while (!parked_.empty() && parked_.begin()->first <= order_applied_) {
    OrderedWindow w = std::move(parked_.begin()->second);
    parked_.erase(parked_.begin());
    ApplyWindow(std::static_pointer_cast<Req>(std::move(w.req)), std::move(w.responder));
  }
}

template <typename Req>
void ShardServer::ApplyWindow(std::shared_ptr<Req> req, Responder r) {
  if (is_primary() && !req->overwrite && req->range_hi != 0 && req->range_lo < order_applied_ &&
      SettlingWithin(req->range_lo, std::min(req->range_hi, order_applied_))) {
    // A retransmit skips positions that are already bound; it does not wait for them.
    // If one of them is still being decided, the retransmit could become durable (and
    // stable) before the decision, and a backup that missed the first window would
    // bind the record's data meanwhile. Refuse; the cursor retries once it settles.
    SendWatermarkAck(std::move(r), Status::Unavailable("binding still settling"));
    return;
  }
  auto batch = std::make_shared<BatchAck>();
  batch->server = this;
  batch->responder = std::move(r);
  batch->waits = 1;  // guard until arming completes
  if (req->overwrite) {
    TruncateOrderedFrom(req->truncate_from);
    ResetOrderFrontiersForOverwrite(req->truncate_from, req->range_hi);
    batch->track_span = true;
    batch->span_lo = std::min(req->truncate_from, req->range_lo);
    batch->span_hi = std::max(req->range_hi, req->truncate_from);
  } else if (req->range_hi > req->range_lo) {
    batch->track_span = true;
    batch->span_lo = req->range_lo;
    batch->span_hi = req->range_hi;
    order_applied_ = std::max(order_applied_, req->range_hi);
    stats_.windows_applied++;
  }
  if (batch->track_span) {
    // Sorted by start; a span equal to one already pending goes after it.
    const std::pair<LogPos, LogPos> span{batch->span_lo, batch->span_hi};
    pending_spans_.insert(
        std::upper_bound(pending_spans_.begin(), pending_spans_.end(), span,
                         [](const auto& a, const auto& b) { return a.first < b.first; }),
        span);
  }
  const uint64_t disk_bytes = ApplyEntries(*req, batch);
  // Replicate to backups; each ack releases one wait. Backups run the same admission,
  // so a window reordered in flight parks there until its predecessor lands.
  if (is_primary()) {
    // Re-encoding for backups re-attaches the same payload handles the orderer sent;
    // replication fans out refcounts, not bytes.
    const EncodedMsg msg = EncodeMsg(*req);
    for (size_t i = 1; i < replicas_.size(); ++i) {
      batch->waits++;
      endpoint_.CallMsg(replicas_[i], ReplicateMethod(), msg,
                        [batch](Status s, Decoder) { batch->Complete(s); },
                        params_.rpc_timeout_ns);
    }
  }
  // Shards are the long-term durable tier: the window ack (and hence GC of the
  // sequencing replicas and the stable-gp advance) waits for the disk write. This is
  // off the append critical path — it only sets the background-ordering cycle length,
  // which is what makes ordering batches grow with the append rate (Fig 11).
  batch->waits++;
  disk_.Write(disk_bytes, [batch]() { batch->Complete(Status::Ok()); });
  batch->Complete(Status::Ok());  // release the arming guard
}

uint64_t ShardServer::WindowCpuBytes(const ShardAppendBatchReq& w) const {
  uint64_t bytes = 0;
  for (const PositionedRecord& pr : w.records) {
    bytes += pr.record.payload.size();
  }
  return bytes;
}

uint64_t ShardServer::WindowCpuBytes(const ShardOrderMetaReq& w) const {
  return w.entries.size() * params_.seq.metadata_entry_bytes;
}

uint64_t ShardServer::ApplyEntries(const ShardAppendBatchReq& w,
                                   const std::shared_ptr<BatchAck>& /*batch*/) {
  uint64_t stored_bytes = 0;
  for (const PositionedRecord& pr : w.records) {
    if (!w.overwrite && LocalIndexOf(pr.pos) != kNoLocal) {
      continue;  // duplicate push from an orderer retry; idempotent
    }
    StoreOrdered(pr.pos, pr.record, w.overwrite);
    stored_bytes += pr.record.payload.size();
  }
  return stored_bytes + w.records.size() * 32;
}

uint64_t ShardServer::ApplyEntries(const ShardOrderMetaReq& w,
                                   const std::shared_ptr<BatchAck>& batch) {
  if (w.overwrite && w.truncate_from >= meta_base_ &&
      w.truncate_from - meta_base_ < meta_log_.size()) {
    meta_log_.resize(w.truncate_from - meta_base_);  // the flush rewrites the tail below
  }
  for (const MetaEntry& entry : w.entries) {
    if (entry.pos < meta_base_) {
      continue;  // before this shard joined (runtime-added shard, §6.9)
    }
    // Store the position->shard map (every shard keeps the full map; readers use it to
    // locate records, §5.3).
    const uint64_t idx = entry.pos - meta_base_;
    if (idx < meta_log_.size()) {
      meta_log_[idx] = entry.shard;
    } else {
      // A gap can only occur on a runtime-added shard whose bootstrap raced a batch
      // that was in flight when it joined; those positions predate the shard and hold
      // no records of ours. Readers resolve them via long-lived shards (§6.9).
      while (meta_log_.size() < idx) {
        meta_log_.push_back(UINT32_MAX);
      }
      meta_log_.push_back(entry.shard);
    }
    if (entry.shard == shard_id_) {
      if (!w.overwrite && LocalIndexOf(entry.pos) != kNoLocal) {
        continue;  // duplicate push (orderer retry)
      }
      BindPosition(entry, batch);
    }
  }
  // The metadata log segment is what persists; bound data already hit the disk on
  // PutData.
  return w.entries.size() * params_.seq.metadata_entry_bytes;
}

// --- Erwin-st: unordered data + ordered metadata --------------------------------------

void ShardServer::HandlePutData(ShardPutDataReq req, Responder r) {
  if (rejected_.count(req.id) > 0) {
    stats_.rejected_puts++;
    r.Send(Status::Rejected("record resolved as no-op"));
    return;
  }
  stats_.data_puts++;
  const uint64_t bytes = req.payload.size();
  cpu_.ExecuteFor(bytes, [this, bytes, req = std::move(req), r]() mutable {
    if (rejected_.count(req.id) > 0) {
      stats_.rejected_puts++;
      r.Send(Status::Rejected("record resolved as no-op"));
      return;
    }
    if (pending_.count(req.id) > 0) {
      // The metadata beat the data here; settle the parked binding with it.
      Settle(req.id, Record{req.id, std::move(req.payload), false, req.tag, req.log});
    } else {
      pool_[req.id] =
          PoolEntry{std::move(req.payload), req.tag, req.log, endpoint_.loop()->Now()};
    }
    // Memory on all replicas is the critical-path durability; disk catches up in the
    // background but exerts backpressure once its queue exceeds the admission horizon.
    disk_.Write(bytes);
    const uint64_t delay = DiskAdmissionDelay();
    if (delay == 0) {
      r.Send(Status::Ok());
    } else {
      endpoint_.loop()->Schedule(delay, [r]() mutable { r.Send(Status::Ok()); });
    }
  });
}

bool ShardServer::BindPosition(const MetaEntry& entry, const std::shared_ptr<BatchAck>& batch) {
  auto pool_it = pool_.find(entry.id);
  if (pool_it != pool_.end()) {
    StoreOrdered(entry.pos,
                 Record{entry.id, std::move(pool_it->second.payload), false,
                        pool_it->second.tag, pool_it->second.log},
                 false);
    pool_.erase(pool_it);
    return true;
  }
  if (rejected_.count(entry.id) > 0) {
    // Already resolved as no-op in a previous view; rebind the no-op.
    StoreOrdered(entry.pos, Record{entry.id, "", true}, false);
    return true;
  }
  // Data not here yet: bind a placeholder, start the timeout (§5.4). The primary
  // decides no-op; backups repair by fetching from the primary instead.
  const uint64_t local = StoreOrdered(entry.pos, Record{entry.id, "", true}, false);
  if (local == kNoLocal) {
    return false;  // dropped by the unfenced test fixture; nothing to resolve later
  }
  PendingBinding pb;
  pb.pos = entry.pos;
  pb.local_index = local;
  pb.batch = batch;
  if (batch) {
    batch->waits++;
  }
  const RecordId id = entry.id;
  if (is_primary()) {
    pb.timeout = endpoint_.loop()->Schedule(params_.seq.st_data_timeout_ns,
                                            [this, id]() { FinalizeNoOp(id); });
  } else {
    pb.timeout = endpoint_.loop()->Schedule(params_.seq.st_data_timeout_ns,
                                            [this, id]() { RepairBinding(id, 0); });
  }
  pending_.emplace(id, std::move(pb));
  return false;
}

void ShardServer::RepairBinding(RecordId id, size_t source) {
  auto it = pending_.find(id);
  if (it == pending_.end() || (source > 0 && !is_primary())) {
    return;  // settled meanwhile, or the promoted primary was deposed again
  }
  if (source > 0 && source >= replicas_.size()) {
    // No peer had it bound; fall back to the primary's no-op timer.
    it->second.timeout = endpoint_.loop()->Schedule(params_.seq.st_data_timeout_ns,
                                                    [this, id]() { FinalizeNoOp(id); });
    return;
  }
  endpoint_.CallMsg<Record>(
      source < replicas_.size() ? replicas_[source] : kInvalidNode, kShardFetchRecord,
      FetchRecordReq{it->second.pos},
      [this, id, source](Status s, Record rec) {
        auto it = pending_.find(id);
        if (it == pending_.end()) {
          return;  // settled meanwhile
        }
        if (!s.ok()) {
          if (source > 0) {
            RepairBinding(id, source + 1);
          } else if (!is_primary()) {
            // The primary is undecided or unreachable; ask again after another timeout.
            // (Once promoted, this replica repairs from its peers instead.)
            it->second.timeout = endpoint_.loop()->Schedule(
                params_.seq.st_data_timeout_ns, [this, id]() { RepairBinding(id, 0); });
          }
          return;
        }
        if (source > 0) {
          stats_.handoff_records_refetched++;
        }
        if (rec.no_op) {
          FinalizeNoOp(id);  // adopt (and, as primary, re-replicate) the decision
        } else {
          Settle(id, Record{id, std::move(rec.payload), false, rec.tag, rec.log});
        }
      },
      params_.rpc_timeout_ns);
}

void ShardServer::Settle(const RecordId& id, Record rec) {
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    return;
  }
  PendingBinding pb = std::move(it->second);
  pending_.erase(it);
  pb.timeout.Cancel();
  if (rec.no_op) {
    rejected_.insert(id);
    stats_.noops_created++;
  }
  log_.Overwrite(pb.local_index, std::move(rec));
  AdvanceTagIndex();  // the binding may have been capping the journal frontier
  if (pb.batch) {
    pb.batch->Complete(Status::Ok());
  }
}

void ShardServer::FinalizeNoOp(const RecordId& id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    return;
  }
  if (is_primary()) {
    // Instruct backups to replace their copy with a no-op (§5.4). The window's ack
    // waits for each of them: a backup that bound the record's data for real would
    // otherwise serve it below stable-gp until the no-op lands.
    std::shared_ptr<BatchAck> batch = it->second.batch;
    for (size_t i = 1; i < replicas_.size(); ++i) {
      if (batch) {
        batch->waits++;
      }
      unconfirmed_noops_.insert(it->second.pos);
      SendReplicateNoOp(replicas_[i], NoOpMsg{it->second.pos, id}, [batch](Status s) {
        if (batch) {
          batch->Complete(s);
        }
      });
    }
  }
  Settle(id, Record{id, "", true});
}

void ShardServer::SendReplicateNoOp(NodeId backup, NoOpMsg msg,
                                    std::function<void(Status)> confirmed) {
  auto release = [this, pos = msg.pos, confirmed](const Status& s) {
    auto unconfirmed = unconfirmed_noops_.find(pos);
    LL_CHECK(unconfirmed != unconfirmed_noops_.end(), "no-op confirmed twice");
    unconfirmed_noops_.erase(unconfirmed);
    confirmed(s);
  };
  endpoint_.CallMsg(backup, kShardReplicateNoOp, msg,
                    [this, backup, msg, confirmed, release](Status s, Decoder) {
                      if (s.ok()) {
                        release(Status::Ok());
                        return;
                      }
                      // Lost or timed out. The backup may hold the record's data and
                      // have bound it for real; keep retrying (the overwrite is
                      // idempotent) until it confirms the primary's decision, for as
                      // long as this replica remains the primary and the backup is
                      // still in the set.
                      endpoint_.loop()->Schedule(
                          params_.seq.order_retry_backoff_ns,
                          [this, backup, msg, confirmed, release]() {
                            if (!is_primary()) {
                              release(Status::Unavailable("no longer primary"));
                              return;
                            }
                            if (std::find(replicas_.begin(), replicas_.end(), backup) ==
                                replicas_.end()) {
                              release(Status::Ok());  // the backup left the set
                              return;
                            }
                            SendReplicateNoOp(backup, msg, confirmed);
                          });
                    },
                    params_.seq.order_push_timeout_ns);
}

// --- reads, stable-gp, trim -----------------------------------------------------------

void ShardServer::HandleReplicateNoOp(NodeId from, NoOpMsg msg, Responder r) {
  // Primary resolved `pos` as a no-op; mirror that decision (§5.4). The data may have
  // arrived here (and even been bound) meanwhile — the primary's decision wins.
  if (RejectPrimaryTraffic(from)) {
    r.Send(Status::StaleView("fenced: not my primary"));
    return;
  }
  rejected_.insert(msg.id);
  pool_.erase(msg.id);
  if (pending_.count(msg.id) > 0) {
    Settle(msg.id, Record{msg.id, "", true});
  } else {
    const uint64_t bound = LocalIndexOf(msg.pos);
    if (bound != kNoLocal) {
      // A retried no-op can arrive after a recovery flush rebound this position to a
      // different record; the primary's decision only covers its own id.
      const Record* cur = log_.Get(bound);
      if (cur != nullptr && cur->id == msg.id) {
        log_.Overwrite(bound, Record{msg.id, "", true});
      }
    }
  }
  r.Send(Status::Ok());
}

void ShardServer::HandleRead(bool wait, ShardReadReq req, Responder r) {
  // A waiting read is judged by the start of its first range.
  if (wait && !req.ranges.empty()) {
    const LogPos start = req.ranges.front().pos;
    if (start < trimmed_below_) {
      r.Send(Status::OutOfRange("position trimmed"));
      return;
    }
    if (start >= stable_gp_ && !read_gate_disabled_) {
      // Slow path (§4.4): hold the read until stable-gp passes its start.
      stats_.slow_reads++;
      waiters_.push_back(Waiter{std::move(req), std::move(r)});
      return;
    }
  }
  stats_.fast_reads++;
  ServeRead(wait, req, std::move(r));
}

bool ShardServer::ReadStable(LogPos pos, uint32_t len, std::vector<PositionedRecord>* out,
                             uint64_t* bytes) const {
  const bool gated = !read_gate_disabled_;
  if (pos < trimmed_below_ || (gated && pos >= stable_gp_)) {
    return false;
  }
  uint64_t local = LocalIndexOf(pos);
  if (local == kNoLocal) {
    return false;
  }
  for (uint32_t i = 0; i < len; ++i, ++local) {
    if (local >= log_.end_index() || local - local_pos_base_ >= local_pos_.size()) {
      break;
    }
    const LogPos at = local_pos_[local - local_pos_base_];
    if (gated && at >= stable_gp_) {
      break;
    }
    const Record* rec = log_.Get(local);
    if (rec == nullptr) {
      break;
    }
    out->push_back(PositionedRecord{at, *rec});
    *bytes += rec->payload.size();
  }
  return true;
}

void ShardServer::ServeRead(bool wait, const ShardReadReq& req, Responder r) {
  ShardReadResp resp;
  uint64_t want = 0;
  for (const ReadRange& range : req.ranges) {
    want += range.len;
  }
  // Wire lengths are untrusted: never reserve past what this replica stores.
  resp.records.reserve(std::min<uint64_t>(want, local_pos_.size()));
  resp.counts.reserve(req.ranges.size());
  uint64_t bytes = 0;
  for (size_t i = 0; i < req.ranges.size(); ++i) {
    const ReadRange& range = req.ranges[i];
    const size_t before = resp.records.size();
    if (!ReadStable(range.pos, range.len, &resp.records, &bytes) && wait && i == 0) {
      // A waiting read was admitted on its start, so the start must be here.
      r.Send(Status::Internal("stable position not on this shard"));
      return;
    }
    // A read that never waits is clipped at this replica's stable frontier (or a
    // trimmed/foreign start); the client re-issues the remainder as a waiting read at
    // the primary, so wait semantics live entirely there.
    const auto served = static_cast<uint32_t>(resp.records.size() - before);
    resp.counts.push_back(served);
    if (!wait && served < range.len) {
      stats_.multirange_ranges_clipped++;
    }
  }
  if (!wait) {
    stats_.multirange_reads++;
  }
  if (!is_primary()) {
    stats_.backup_reads++;
  }
  // Every reply carries this replica's stable/durable tails and CPU backlog (the
  // router/tail-cache feedback). The leader's durable tail can never trail stable-gp;
  // surface at least that much even before the first extended broadcast arrives.
  resp.stable_gp = stable_gp_;
  resp.durable_tail = std::max(durable_hint_, stable_gp_);
  const SimTime now = endpoint_.loop()->Now();
  resp.queue_ns = cpu_.busy_until() > now ? cpu_.busy_until() - now : 0;
  cpu_.ExecuteFor(bytes, [resp = std::move(resp), r]() mutable {
    r.Ok(resp);
  });
}

void ShardServer::HandleSetStableGp(const StableGpMsg& msg) {
  if (FencedOff(msg.view)) {
    return;
  }
  view_ = std::max(view_, msg.view);
  stable_gp_ = std::max(stable_gp_, msg.stable_gp);
  durable_hint_ = std::max(durable_hint_, msg.durable_tail);
  if (stable_gp_observer_) {
    stable_gp_observer_(view_, stable_gp_);
  }
  AdvanceTagIndex();
  WakeWaiters();
}

void ShardServer::WakeWaiters() {
  std::vector<Waiter>& waiters = waking_;  // scratch: both keep their capacity
  waiters.swap(waiters_);
  for (Waiter& w : waiters) {
    const LogPos start = w.req.ranges.front().pos;
    if (start < trimmed_below_) {
      w.responder.Send(Status::OutOfRange("position trimmed"));
    } else if (start < stable_gp_) {
      ServeRead(/*wait=*/true, w.req, std::move(w.responder));
    } else {
      waiters_.push_back(std::move(w));
    }
  }
  waiters.clear();
}

void ShardServer::HandlePosMap(const ShardPosMapReq& req, Responder r) {
  ShardPosMapResp resp;
  resp.from = std::max(req.from, meta_base_);
  const LogPos end =
      std::min<LogPos>(meta_base_ + meta_log_.size(), std::min<LogPos>(req.from + req.len,
                                                                       stable_gp_));
  for (LogPos p = resp.from; p < end; ++p) {
    resp.shard_ids.push_back(meta_log_[p - meta_base_]);
  }
  cpu_.ExecuteFor(resp.shard_ids.size() * 8, [resp = std::move(resp), r]() mutable {
    r.Ok(resp);
  });
}

// --- tag index (index tier) -----------------------------------------------------------

void ShardServer::AdvanceTagIndex() {
  // Journal every owned position in [index_pos_frontier_, target): stable, and past any
  // still-pending Erwin-st binding, so the tag recorded here can never change. No-ops
  // and untagged records advance the frontier without a journal entry.
  LogPos target = stable_gp_;
  for (const auto& [id, pb] : pending_) {
    target = std::min(target, pb.pos);
  }
  if (target <= index_pos_frontier_) {
    return;
  }
  auto it = std::lower_bound(local_pos_.begin(), local_pos_.end(), index_pos_frontier_);
  for (; it != local_pos_.end() && *it < target; ++it) {
    const uint64_t local = local_pos_base_ + static_cast<uint64_t>(it - local_pos_.begin());
    const Record* rec = log_.Get(local);
    if (rec != nullptr && !rec->no_op) {
      if (rec->tag != kNoTag) {
        index_journal_.push_back(TagIndexEntry{rec->log, rec->tag, *it});
      }
      // Named-log records are also journaled under (log, kNoTag): the per-phylog rank
      // list whose i-th entry is the log's position-i record.
      if (rec->log != kDefaultLog) {
        index_journal_.push_back(TagIndexEntry{rec->log, kNoTag, *it});
      }
    }
  }
  index_pos_frontier_ = target;
}

void ShardServer::HandleIndexDelta(const ShardIndexDeltaReq& req, Responder r) {
  AdvanceTagIndex();
  ShardIndexDeltaResp resp;
  resp.from_seq = std::min<uint64_t>(req.from_seq, index_journal_.size());
  const uint64_t end =
      std::min<uint64_t>(index_journal_.size(), resp.from_seq + req.max_entries);
  for (uint64_t i = resp.from_seq; i < end; ++i) {
    resp.entries.push_back(index_journal_[i]);
  }
  resp.next_seq = end;
  resp.stable_gp = stable_gp_;
  // Coverage only extends over the prefix actually returned: if the pull was capped by
  // max_entries, the first unreturned entry bounds what the puller may claim covered.
  resp.exported_below = end < index_journal_.size() ? index_journal_[end].pos
                                                    : index_pos_frontier_;
  cpu_.ExecuteFor(resp.entries.size() * sizeof(TagIndexEntry),
                  [resp = std::move(resp), r]() mutable {
                    r.Ok(resp);
                  });
}

void ShardServer::HandleTrim(const TrimMsg& msg, Responder r) {
  trimmed_below_ = std::max(trimmed_below_, msg.up_to);
  const auto trimmed_end = std::lower_bound(local_pos_.begin(), local_pos_.end(), trimmed_below_);
  local_pos_base_ += static_cast<uint64_t>(trimmed_end - local_pos_.begin());
  local_pos_.erase(local_pos_.begin(), trimmed_end);
  // Segment-granular GC; entries below local_pos_base_ in a partial front segment are
  // unreachable (their positions are gone from local_pos_) and vanish with the segment.
  log_.TrimTo(local_pos_base_);
  r.Send(Status::Ok());
}

// --- epoch fencing (§4.5 seal) ---------------------------------------------------------

void ShardServer::HandleSeal(const ShardSealReq& req, Responder r) {
  // Raise the fence to the new epoch: from now on any data-path message stamped with an
  // older view gets STALE_VIEW, so a deposed leader can neither bind positions nor move
  // stable-gp here. The recovery flush (stamped new_view) passes the fence.
  view_ = std::max(view_, req.new_view);
  // Parked windows were stamped by the now-deposed orderer; reject them mid-pipeline so
  // their cursors self-seal instead of waiting out a timeout against a dead leader.
  for (auto it = parked_.begin(); it != parked_.end();) {
    if (it->second.req->view < view_) {
      SendWatermarkAck(std::move(it->second.responder),
                       Status::StaleView("fenced: parked window from sealed view"));
      it = parked_.erase(it);
    } else {
      ++it;
    }
  }
  r.Send(Status::Ok());
}

// --- shard-replica replacement (§5.4) --------------------------------------------------

void ShardServer::HandleCopyState(const ShardCopyStateReq& req, Responder r) {
  if (req.source == kInvalidNode) {
    r.Send(Status::InvalidArgument("no copy source"));
    return;
  }
  CopyStateFrom(req.source, [r](Status s) mutable { r.Send(std::move(s)); });
}

void ShardServer::HandleFetchState(NoBody, Responder r) {
  ShardStateSnapshot snap;
  snap.view = view_;
  snap.stable_gp = stable_gp_;
  snap.trimmed_below = trimmed_below_;
  snap.meta_base = meta_base_;
  snap.order_applied = order_applied_;
  snap.order_durable = order_durable_;
  for (size_t i = 0; i < local_pos_.size(); ++i) {
    const Record* rec = log_.Get(local_pos_base_ + i);
    LL_CHECK(rec != nullptr, "state copy: missing log entry");
    snap.ordered.push_back(PositionedRecord{local_pos_[i], *rec});
  }
  for (const auto& [id, entry] : pool_) {
    snap.pool.push_back({id, entry.payload, entry.tag, entry.log});
  }
  snap.rejected.assign(rejected_.begin(), rejected_.end());
  snap.meta_log = meta_log_;
  Encoder e;
  WireEncode(e, snap);
  // Charge for the full snapshot including attachment bytes, matching the old
  // inline encoding size.
  const uint64_t bytes = e.size() + e.atts_size();
  cpu_.ExecuteFor(bytes, [e = std::move(e), r]() mutable { r.Ok(e); });
}

void ShardServer::CopyStateFrom(NodeId live_replica, std::function<void(Status)> done) {
  // Reject replication traffic until the snapshot is installed; the primary's batch
  // acks fail and the orderer retries (idempotently) once we are caught up.
  loading_ = true;
  endpoint_.CallMsg<ShardStateSnapshot>(
      live_replica, kShardFetchState, NoBody{},
      [this, done = std::move(done)](Status s, ShardStateSnapshot snap) {
        if (!s.ok()) {
          done(std::move(s));
          return;
        }
        // Stable-gp broadcasts keep arriving while the snapshot is in flight, so the
        // snapshot's values may already be stale; both are monotone, take the max.
        view_ = std::max(view_, snap.view);
        stable_gp_ = std::max(stable_gp_, snap.stable_gp);
        trimmed_below_ = snap.trimmed_below;
        meta_base_ = snap.meta_base;
        order_applied_ = std::max(order_applied_, snap.order_applied);
        order_durable_ = std::max(order_durable_, snap.order_durable);
        completed_spans_.clear();
        if (stable_gp_observer_) {
          stable_gp_observer_(view_, stable_gp_);
        }
        uint64_t bytes = 0;
        for (PositionedRecord& pr : snap.ordered) {
          bytes += pr.record.payload.size();
          StoreOrdered(pr.pos, std::move(pr.record), false);
        }
        for (ShardStateSnapshot::PooledRecord& p : snap.pool) {
          bytes += p.payload.size();
          // A copied id already pooled here keeps its payload but still counts as
          // written now.
          auto it = pool_.emplace(p.id, PoolEntry{std::move(p.payload), p.tag, p.log}).first;
          it->second.arrival = endpoint_.loop()->Now();
        }
        for (const RecordId& id : snap.rejected) {
          rejected_.insert(id);
        }
        meta_log_ = std::move(snap.meta_log);
        loading_ = false;
        AdvanceTagIndex();  // rebuild the tag journal over the copied stable prefix
        // Persist the copied state; completion waits for the disk like any bulk load.
        disk_.Write(bytes, [done = std::move(done)]() { done(Status::Ok()); });
      },
      params_.rpc_timeout_ns);
}

void ShardServer::ScrubOrphans() {
  // Orphaned data: written by a client that crashed before writing metadata; no binding
  // will ever reference it. GC after a generous age (§5.4 "periodic scrubbing"). The age
  // must dominate any ordering stall (chained order-push retries under packet loss):
  // evicting data whose append was already acknowledged but whose metadata has not yet
  // been pushed by the orderer turns the record into a no-op at bind time — losing an
  // acked append.
  const SimTime now = endpoint_.loop()->Now();
  const uint64_t max_age = params_.seq.st_orphan_scrub_age_ns;
  for (auto it = pool_.begin(); it != pool_.end();) {
    if (now - it->second.arrival > max_age) {
      it = pool_.erase(it);
    } else {
      ++it;
    }
  }
  endpoint_.loop()->Schedule(kScrubIntervalNs, [this]() { ScrubOrphans(); });
}

// --- primary promotion (controller-driven failover) ------------------------------------

bool ShardServer::RejectPrimaryTraffic(NodeId from) const {
  if (fencing_disabled_) {
    return false;  // split-brain fixture: the oracles must catch what this lets through
  }
  if (sealed_for_promotion_) {
    return true;
  }
  return !replicas_.empty() && from != replicas_[0];
}

void ShardServer::HandlePromoSeal(const ShardPromoSealReq& req, Responder r) {
  if (req.promo_epoch > promo_epoch_) {
    promo_epoch_ = req.promo_epoch;
    promo_sealed_at_ = endpoint_.loop()->Now();
    // The current primary is never a seal target; guard anyway so a retried seal that
    // lands after our own promotion cannot fence us against ourselves.
    sealed_for_promotion_ = !is_primary();
  }
  ShardCompletenessResp resp;
  resp.promo_epoch = promo_epoch_;
  resp.order_applied = order_applied_;
  resp.order_durable = order_durable_;
  resp.meta_size = meta_log_.size();
  resp.pending = pending_.size();
  r.Ok(resp);
}

void ShardServer::HandlePromote(const ShardPromoteReq& req, Responder r) {
  if (req.order.empty() || req.peer_applied.size() != req.order.size()) {
    r.Send(Status::InvalidArgument("inconsistent promotion order"));
    return;
  }
  if (req.promo_epoch < promo_epoch_) {
    r.Send(Status::StaleView("stale promotion epoch"));
    return;
  }
  promo_epoch_ = req.promo_epoch;
  std::vector<NodeId> order;
  order.reserve(req.order.size());
  for (uint64_t n : req.order) {
    order.push_back(static_cast<NodeId>(n));
  }
  // Compute the flip before installing the order so a retried promote (same epoch,
  // order already installed) is idempotent.
  const bool flip = order[0] == node_id() && !is_primary();
  replicas_ = std::move(order);
  ForgetPendingWindows();
  sealed_for_promotion_ = false;
  if (flip) {
    PromoteToPrimary(req);
  }
  // The ack carries our contiguous applied frontier: the controller resets the
  // orderer's cursor here, so the leader re-pushes everything we never saw.
  r.Ok(ShardOrderAckResp{order_applied_});
}

void ShardServer::PromoteToPrimary(const ShardPromoteReq& req) {
  stats_.promotions++;
  if (promo_sealed_at_ != 0) {
    stats_.seal_to_open_ns = endpoint_.loop()->Now() - promo_sealed_at_;
  }
  // Catch lagging peers up to our applied frontier. The orderer resumes from a single
  // reset point (our frontier); without this a peer whose frontier trails ours would
  // park every re-pushed window behind a gap that nothing ever fills.
  for (size_t i = 1; i < req.order.size() && i < req.peer_applied.size(); ++i) {
    if (req.peer_applied[i] < order_applied_) {
      CatchUpPeer(static_cast<NodeId>(req.order[i]), req.peer_applied[i]);
    }
  }
  // Take over no-op timer ownership: our pending bindings still run backup fetch
  // timers aimed at the dead primary. Cancel each and repair from the peers first (a
  // peer may hold the data, or the old primary's no-op decision may have reached it);
  // only then fall back to the primary-side no-op timeout.
  std::vector<RecordId> pending_ids;
  pending_ids.reserve(pending_.size());
  for (const auto& [id, pb] : pending_) {
    pending_ids.push_back(id);
  }
  for (const RecordId& id : pending_ids) {
    auto it = pending_.find(id);
    if (it == pending_.end()) {
      continue;
    }
    it->second.timeout.Cancel();
    RepairBinding(id, 1);
  }
}

void ShardServer::CatchUpPeer(NodeId peer, LogPos from) {
  from = std::max(from, trimmed_below_);
  std::vector<NoOpMsg> noops;
  if (mode_ == ShardMode::kStModified) {
    auto it = std::lower_bound(local_pos_.begin(), local_pos_.end(), from);
    for (; it != local_pos_.end() && *it < order_applied_; ++it) {
      const Record* rec =
          log_.Get(local_pos_base_ + static_cast<uint64_t>(it - local_pos_.begin()));
      if (rec != nullptr && rec->no_op && pending_.count(rec->id) == 0) {
        noops.push_back(NoOpMsg{*it, rec->id});
      }
    }
  }
  if (noops.empty()) {
    SendCatchUpWindow(peer, from, 0);
    return;
  }
  // The window carries only record ids, and the peer binds an id whose data it holds
  // from its own pool. A no-op decision it missed would flip to that data at a
  // position stable-gp may already pass (the cursor resets to our frontier), so the
  // peer confirms every decision in the span first; its BindPosition then finds the id
  // rejected.
  auto left = std::make_shared<size_t>(noops.size());
  for (const NoOpMsg& msg : noops) {
    unconfirmed_noops_.insert(msg.pos);
    SendReplicateNoOp(peer, msg, [this, peer, from, left](Status) {
      if (--*left == 0) {
        SendCatchUpWindow(peer, from, 0);
      }
    });
  }
}

void ShardServer::SendCatchUpWindow(NodeId peer, LogPos from, uint32_t attempt) {
  if (!is_primary() ||
      std::find(replicas_.begin(), replicas_.end(), peer) == replicas_.end()) {
    return;  // deposed again, or the membership changed while retrying
  }
  from = std::max(from, trimmed_below_);  // a peer never needs the trimmed prefix
  if (from >= order_applied_) {
    return;
  }
  EncodedMsg msg;
  uint64_t entries = 0;
  if (mode_ == ShardMode::kStModified) {
    ShardOrderMetaReq w;
    w.view = view_;
    w.range_lo = from;
    w.range_hi = order_applied_;
    // Owned positions need their record ids (the peer binds them); a still-pending
    // one's placeholder carries its id too.
    for (LogPos p = std::max(from, meta_base_); p < order_applied_; ++p) {
      const uint64_t idx = p - meta_base_;
      if (idx >= meta_log_.size()) {
        break;
      }
      MetaEntry entry;
      entry.pos = p;
      entry.shard = static_cast<ShardId>(meta_log_[idx]);
      if (entry.shard == shard_id_) {
        const Record* rec = RecordAt(p);
        if (rec != nullptr) {
          entry.id = rec->id;
        }
      }
      w.entries.push_back(entry);
    }
    entries = w.entries.size();
    msg = EncodeMsg(w);
  } else {
    ShardAppendBatchReq w;
    w.view = view_;
    w.range_lo = from;
    w.range_hi = order_applied_;
    auto it = std::lower_bound(local_pos_.begin(), local_pos_.end(), from);
    for (; it != local_pos_.end() && *it < order_applied_; ++it) {
      const uint64_t local =
          local_pos_base_ + static_cast<uint64_t>(it - local_pos_.begin());
      const Record* rec = log_.Get(local);
      if (rec != nullptr) {
        w.records.push_back(PositionedRecord{*it, *rec});
      }
    }
    entries = w.records.size();
    msg = EncodeMsg(w);
  }
  if (attempt == 0) {
    stats_.handoff_records_refetched += entries;
  }
  endpoint_.CallMsg(peer, ReplicateMethod(), msg,
                    [this, peer, from, attempt](Status s, Decoder) {
                      if (s.ok() || attempt >= 4) {
                        return;  // a peer that stays unreachable gets its own replacement
                      }
                      endpoint_.loop()->Schedule(params_.seq.order_retry_backoff_ns,
                                                 [this, peer, from, attempt]() {
                                                   SendCatchUpWindow(peer, from, attempt + 1);
                                                 });
                    },
                    params_.rpc_timeout_ns);
}

void ShardServer::HandleFetchRecord(const FetchRecordReq& req, Responder r) {
  const Record* rec = RecordAt(req.pos);
  if (rec == nullptr) {
    r.Send(Status::Unavailable("position not bound yet"));
    return;
  }
  // A pending binding's placeholder carries the record id it waits for.
  auto pending = pending_.find(rec->id);
  if (pending != pending_.end() && pending->second.pos == req.pos) {
    r.Send(Status::Unavailable("still pending"));
    return;
  }
  r.Ok(*rec);
}

// --- stats surface --------------------------------------------------------------------

ShardStatsSnapshot ShardServer::StatsSnapshot() const {
  ShardStatsSnapshot snap;
  snap.counters = stats_;
  snap.shard_id = shard_id_;
  snap.stable_gp = stable_gp_;
  snap.order_applied = order_applied_;
  snap.order_durable = order_durable_;
  snap.parked_windows = parked_.size();
  snap.buf = GlobalBufStats();
  return snap;
}

StatsFields ShardStatsSnapshot::Fields() const {
  return {
      {"shard_id", static_cast<double>(shard_id)},
      {"appends", static_cast<double>(counters.appends)},
      {"data_puts", static_cast<double>(counters.data_puts)},
      {"fast_reads", static_cast<double>(counters.fast_reads)},
      {"slow_reads", static_cast<double>(counters.slow_reads)},
      {"backup_reads", static_cast<double>(counters.backup_reads)},
      {"multirange_reads", static_cast<double>(counters.multirange_reads)},
      {"multirange_ranges_clipped",
       static_cast<double>(counters.multirange_ranges_clipped)},
      {"noops_created", static_cast<double>(counters.noops_created)},
      {"rejected_puts", static_cast<double>(counters.rejected_puts)},
      {"windows_applied", static_cast<double>(counters.windows_applied)},
      {"windows_parked", static_cast<double>(counters.windows_parked)},
      {"windows_retransmitted", static_cast<double>(counters.windows_retransmitted)},
      {"promotions", static_cast<double>(counters.promotions)},
      {"handoff_records_refetched", static_cast<double>(counters.handoff_records_refetched)},
      {"seal_to_open_ns", static_cast<double>(counters.seal_to_open_ns)},
      {"stable_gp", static_cast<double>(stable_gp)},
      {"order_applied", static_cast<double>(order_applied)},
      {"order_durable", static_cast<double>(order_durable)},
      {"parked_windows", static_cast<double>(parked_windows)},
      {"payload_bytes_copied", static_cast<double>(buf.payload_bytes_copied)},
      {"payload_bytes_aliased", static_cast<double>(buf.payload_bytes_aliased)},
      {"buf_allocations", static_cast<double>(buf.allocations)},
  };
}

}  // namespace lazylog
