#include "src/seq/sequencing_replica.h"

#include <algorithm>

#include "src/common/logging.h"

namespace lazylog {

SequencingReplica::SequencingReplica(Network* net, const SimParams& params, ErwinMode mode,
                                     uint32_t index, NodeId zk)
    : endpoint_(net), cpu_(net->loop(), params.seq_cpu), params_(params), mode_(mode),
      index_(index), zk_node_(zk) {
  endpoint_.Handle(kSeqAppend, this, &SequencingReplica::HandleAppend);
  endpoint_.Handle(kSeqAppendMeta, this, &SequencingReplica::HandleAppend);
  endpoint_.Handle(kSeqGc, this, &SequencingReplica::HandleGc);
  endpoint_.Handle(kSeqSeal, this, &SequencingReplica::HandleSeal);
  endpoint_.Handle(kSeqFetchLog, this, &SequencingReplica::HandleFlush);
  endpoint_.Handle(kSeqStartView, this, &SequencingReplica::HandleStartView);
  // The one raw registration: an empty check-tail body names the default log (the
  // pre-virtual-log format, still sent for it), which a typed decode would refuse.
  endpoint_.Register(kSeqCheckTail, [this](NodeId, Decoder d, Responder r) {
    SeqCheckTailReq req;
    if (d.Remaining() > 0 && !req.Decode(d)) {
      r.Send(Status::InvalidArgument("malformed request"));
      return;
    }
    HandleCheckTail(req, std::move(r));
  });
  endpoint_.Handle(kSeqGetConfig, this, &SequencingReplica::HandleGetConfig);
  endpoint_.Handle(kSeqTrim, this, &SequencingReplica::HandleTrim);
  endpoint_.Handle(kSeqUpdateShards, this, &SequencingReplica::HandleUpdateShards);
  endpoint_.Handle(kSeqShardFailover, this, &SequencingReplica::HandleShardFailover);
  endpoint_.Handle(kSeqUpdateLogs, this, &SequencingReplica::HandleUpdateLogs);
}

void SequencingReplica::Start(std::vector<NodeId> config, std::vector<NodeId> shard_primaries,
                              std::vector<NodeId> all_shard_servers,
                              std::vector<NodeId> index_nodes) {
  config_ = std::move(config);
  shard_primaries_ = std::move(shard_primaries);
  all_shard_servers_ = std::move(all_shard_servers);
  index_nodes_ = std::move(index_nodes);
  if (zk_node_ != kInvalidNode) {
    zk_session_ = std::make_unique<ZkSession>(&endpoint_, zk_node_, params_.control);
    zk_session_->Start("/seq/replicas/" + std::to_string(index_));
  }
  if (is_leader() && !ordering_armed_) {
    ordering_armed_ = true;
    ScheduleOrderingTick();
  }
}

void SequencingReplica::AddShard(NodeId primary, std::vector<NodeId> replicas) {
  shard_primaries_.push_back(primary);
  for (NodeId n : replicas) {
    all_shard_servers_.push_back(n);
  }
  if (is_leader() && cursors_.empty()) {
    // Ordering has not started yet (cursors are created lazily); nothing has been
    // assigned, so a full reset covers the new shard too.
    ResetCursors(ordered_gp_);
  } else if (!cursors_.empty()) {
    // Mid-flight shard addition (§6.9): the new cursor starts at the assignment
    // frontier — the shard bootstrapped with meta_base == assigned_gp, so earlier
    // positions predate it and are resolved via long-lived shards.
    ShardCursor c;
    c.shard = static_cast<ShardId>(shard_primaries_.size() - 1);
    c.next_pos = assigned_gp_;
    c.acked_watermark = assigned_gp_;
    cursors_.push_back(c);
  }
}

void SequencingReplica::ReplaceShardServer(NodeId old_node, NodeId new_node) {
  for (NodeId& n : shard_primaries_) {
    if (n == old_node) {
      n = new_node;
    }
  }
  for (NodeId& n : all_shard_servers_) {
    if (n == old_node) {
      n = new_node;
    }
  }
}

std::vector<RecordId> SequencingReplica::LogIds() const {
  std::vector<RecordId> ids;
  ids.reserve(log_.size());
  for (const Entry& e : log_) {
    ids.push_back(e.id);
  }
  return ids;
}

// --- appends ---------------------------------------------------------------------------

bool SequencingReplica::IsDuplicate(const RecordId& id) const {
  return in_log_.contains(id) || recently_ordered_.contains(id);
}

void SequencingReplica::RememberOrdered(const std::vector<WireRecordId>& ids) {
  const SimTime now = endpoint_.loop()->Now();
  for (const WireRecordId& w : ids) {
    if (recently_ordered_.insert(w.id)) {
      ordered_expiry_.emplace_back(now, w.id);
    }
  }
  PruneRemembered();
}

void SequencingReplica::PruneRemembered() {
  // Retries can arrive at most ~one rpc timeout after the original; keep a safety margin.
  const uint64_t window = 4 * params_.rpc_timeout_ns;
  const SimTime now = endpoint_.loop()->Now();
  while (!ordered_expiry_.empty() && now - ordered_expiry_.front().first > window) {
    recently_ordered_.erase(ordered_expiry_.front().second);
    ordered_expiry_.pop_front();
  }
}

SequencingReplica::LogCursor& SequencingReplica::Cursor(LogId log) {
  auto [it, inserted] = log_cursors_.try_emplace(log);
  if (inserted) {
    // A log appearing mid-tick gets one tick's share so its first append is not shed
    // merely because the replenisher has not seen it yet.
    it->second.deficit = std::max<uint64_t>(drr_quantum_, 1);
  }
  return it->second;
}

void SequencingReplica::InstallLogRegistry(uint64_t epoch, std::vector<LogRegistryEntry> entries) {
  if (epoch < log_epoch_) {
    return;  // stale push (reordered controller retries)
  }
  log_epoch_ = epoch;
  log_registry_.clear();
  for (LogRegistryEntry& e : entries) {
    log_registry_.emplace(e.id, std::move(e));
  }
}

void SequencingReplica::HandleUpdateLogs(SeqUpdateLogsReq req, Responder r) {
  InstallLogRegistry(req.epoch, std::move(req.entries));
  r.Send(Status::Ok());
}

bool SequencingReplica::AdmitQuota(const SeqAppendReq& req) {
  // Enforced at the leader only: every append needs the leader's ack to count as
  // durable, so the leader's verdict is decisive, and followers with a lagging
  // registry can never falsely refuse. Follower copies of leader-refused appends are
  // reclaimed by the shed scrub like any other gate refusal.
  if (!is_leader() || req.log == kDefaultLog) {
    return true;
  }
  auto rit = log_registry_.find(req.log);
  if (rit == log_registry_.end() || rit->second.quota_per_sec == 0) {
    return true;  // unknown or unlimited log: quota does not apply
  }
  // Retries of already-durable appends always ack (the dup fast path), never charge.
  if (IsDuplicate(req.id)) {
    return true;
  }
  constexpr double kBurstFraction = 0.1;  // of the per-second quota
  const double quota = static_cast<double>(rit->second.quota_per_sec);
  const double burst = std::clamp(quota * kBurstFraction, 16.0, 1024.0);
  const SimTime now = endpoint_.loop()->Now();
  LogCursor& lc = Cursor(req.log);
  if (lc.tokens_at == 0) {
    lc.tokens = burst;  // first sighting: start with a full bucket
  } else {
    lc.tokens = std::min(
        burst, lc.tokens + quota * static_cast<double>(now - lc.tokens_at) / 1e9);
  }
  lc.tokens_at = now;
  if (lc.tokens < 1.0) {
    lc.quota_rejected++;
    stats_.quota_rejected++;
    return false;
  }
  lc.tokens -= 1.0;
  return true;
}

void SequencingReplica::ReplenishDeficits() {
  if (!is_leader()) {
    return;
  }
  uint64_t active = 0;
  for (const auto& [log, lc] : log_cursors_) {
    active += lc.unordered > 0 ? 1 : 0;
  }
  const uint64_t quantum =
      std::max<uint64_t>(1, params_.seq.max_order_batch / std::max<uint64_t>(1, active));
  drr_quantum_ = quantum;
  const uint64_t cap = std::max<uint64_t>(1, params_.seq.fairness_burst_quanta) * quantum;
  for (auto& [log, lc] : log_cursors_) {
    lc.deficit = std::min(lc.deficit + quantum, cap);
  }
}

bool SequencingReplica::AdmitAppend(const RecordId& id, LogId log) {
  if (!params_.seq.admission_control) {
    return true;
  }
  // Retries of already-admitted appends bypass the gate: the dup filter acks them, so
  // an acked append can never observe kOverloaded (the overload-chaos oracle).
  if (IsDuplicate(id)) {
    return true;
  }
  const uint64_t occupancy = ring_occupancy();
  stats_.ring_high_water = std::max(stats_.ring_high_water, occupancy);
  if (admitting_) {
    if (occupancy >= params_.seq.ring_high_watermark) {
      admitting_ = false;
      LLOG(kInfo) << "t=" << endpoint_.loop()->Now() << " seq node=" << node_id()
                  << " overloaded: ring=" << occupancy << " >= high watermark "
                  << params_.seq.ring_high_watermark << "; shedding appends";
    }
  } else if (occupancy <= params_.seq.ring_low_watermark) {
    admitting_ = true;
    LLOG(kInfo) << "t=" << endpoint_.loop()->Now() << " seq node=" << node_id()
                << " ring drained to " << occupancy << "; admitting again";
  }
  // Retry priority: a retry of an append this replica previously shed may use the
  // hysteresis band (low..high) that fresh appends cannot. A partially-admitted append
  // (some replicas took it, this one refused) already consumes ordering capacity at the
  // leader; re-shedding its retry wastes that work and multiplies the client's backoff,
  // so retries drain ahead of new arrivals. The ring bound is unchanged — retries still
  // stop at the high watermark.
  bool pass = admitting_;
  if (!pass && occupancy < params_.seq.ring_high_watermark &&
      recently_rejected_.contains(id)) {
    pass = true;
  }
  if (!pass) {
    return false;
  }
  // DRR fairness stage (leader only): once the ring is congested enough that admission
  // is a contended resource, each phylog spends one deficit credit per admitted append;
  // a log past its share is refused while logs within theirs keep being admitted. Below
  // the low watermark admission is uncontended and stays log-blind, and a log that owns
  // the whole ring (unordered == occupancy) has no one to be fair to, so a lone tenant
  // is never throttled by fairness — it gets the full hysteresis band, like pre-phylog.
  if (is_leader() && occupancy >= params_.seq.ring_low_watermark) {
    LogCursor& lc = Cursor(log);
    // unordered counts ring entries, pending_cpu the admitted appends still queued for
    // the CPU charge — together, this log's share of ring_occupancy().
    if (lc.unordered + lc.pending_cpu >= occupancy) {
      return true;  // sole occupant: no one to be fair to
    }
    if (lc.deficit == 0) {
      lc.drr_rejected++;
      stats_.drr_rejected++;
      return false;
    }
    lc.deficit--;
  }
  return true;
}

// Followers: evict ring entries the leader's admission gate shed. Such an entry was
// admitted here but refused at the leader, so it is never ordered and GC never
// collects it; left alone, dead entries accumulate until they pin ring occupancy at
// the high watermark and the gate wedges shut. The leader orders its ring in arrival
// order, so once local ordered-gp has advanced several ring-sizes past the entry's
// admission point (plus a real-time floor giving client retries time to land at the
// leader), the leader provably does not hold it and the local copy is dead weight.
// An ordering stall leaves entries untouched — ordered-gp is not advancing — so an
// acked append never loses follower copies to this scrub.
void SequencingReplica::ScrubShedEntries() {
  if (!params_.seq.admission_control || is_leader()) {
    return;
  }
  const SimTime now = endpoint_.loop()->Now();
  const uint64_t gp_slack = 4 * params_.seq.ring_high_watermark;
  while (!log_.empty() &&
         ordered_gp_ - log_.front().gp_at_admit > gp_slack &&
         now - log_.front().admitted_at > params_.client_append_timeout_ns) {
    LogCursor& lc = Cursor(log_.front().log);
    lc.unordered -= std::min<uint64_t>(lc.unordered, 1);
    in_log_.erase(log_.front().id);
    log_.pop_front();
    stats_.shed_scrubbed++;
  }
}

void SequencingReplica::RememberRejected(const RecordId& id) {
  if (recently_rejected_.insert(id)) {
    rejected_expiry_.emplace_back(endpoint_.loop()->Now(), id);
  }
  PruneRejected();
}

void SequencingReplica::PruneRejected() {
  // Overload retries come back within a few client backoffs (capped well under the
  // append timeout); a multiple of that timeout bounds the set without losing counts.
  const uint64_t window = 8 * params_.client_append_timeout_ns;
  const SimTime now = endpoint_.loop()->Now();
  while (!rejected_expiry_.empty() && now - rejected_expiry_.front().first > window) {
    recently_rejected_.erase(rejected_expiry_.front().second);
    rejected_expiry_.pop_front();
  }
}

void SequencingReplica::HandleAppend(SeqAppendReq req, Responder r) {
  if (sealed_) {
    r.Send(Status::Sealed());
    return;
  }
  if (req.view != view_) {
    // Stale client view: fenced (the client must re-resolve the config). A view from
    // the future means *we* missed a StartView; the client retries until it lands.
    r.Send(req.view < view_ ? Status::StaleView() : Status::WrongView());
    return;
  }
  // Deleted phylog: refused outright (leader verdict; see AdmitQuota on why the
  // leader's word is decisive). Retries of appends that landed before the deletion
  // still dup-ack below — the record is durable.
  if (is_leader() && req.log != kDefaultLog && !IsDuplicate(req.id)) {
    auto rit = log_registry_.find(req.log);
    if (rit != log_registry_.end() && rit->second.deleted) {
      r.Send(Status::InvalidArgument("log deleted"));
      return;
    }
  }
  // Per-tenant quota, then the occupancy gate — both before the CPU charge: a refusal
  // must stay cheap (no core time) or the reject path itself would saturate under the
  // very overload it sheds. Quota refusals are tenant-scoped (the cluster may be
  // idle), so they get their own status instead of kOverloaded.
  if (!AdmitQuota(req)) {
    r.Send(Status::QuotaExceeded());
    return;
  }
  if (!AdmitAppend(req.id, req.log)) {
    stats_.overload_rejected++;
    RememberRejected(req.id);
    r.Send(Status::Overloaded());
    return;
  }
  stats_.admitted++;
  Cursor(req.log).admitted++;
  if (recently_rejected_.erase(req.id)) {
    stats_.overload_retried++;
  }
  // Dup fast path, also ahead of the CPU charge: a retry of an already-durable append
  // is a set lookup, not a record insert — charging it full append cost would let a
  // burst of retries (the usual overload aftermath) saturate the core with no-ops.
  // Races where the original is still queued on the CPU fall through to the slow
  // path's dup check below.
  if (IsDuplicate(req.id)) {
    stats_.duplicates_filtered++;
    r.Send(Status::Ok());
    return;
  }
  const uint64_t bytes =
      req.is_meta ? params_.seq.metadata_entry_bytes : req.payload.size();
  pending_cpu_appends_++;
  Cursor(req.log).pending_cpu++;
  cpu_.ExecuteFor(bytes, [this, req = std::move(req), r]() mutable {
    pending_cpu_appends_--;
    LogCursor& cpu_lc = Cursor(req.log);
    cpu_lc.pending_cpu -= std::min<uint64_t>(cpu_lc.pending_cpu, 1);
    if (sealed_) {
      r.Send(Status::Sealed());
      return;
    }
    if (IsDuplicate(req.id)) {
      // Retried append (view change or packet loss): already durable here; idempotent OK.
      LLOG(kDebug) << "t=" << endpoint_.loop()->Now() << " seq node=" << node_id()
                   << " dup-ack id={" << req.id.client_id << "," << req.id.request_id
                   << "} in_log=" << in_log_.contains(req.id);
      stats_.duplicates_filtered++;
      r.Send(Status::Ok());
      return;
    }
    log_.push_back(Entry{req.id, std::move(req.payload), req.target_shard, ordered_gp_,
                         endpoint_.loop()->Now(), req.tag, req.log});
    in_log_.insert(req.id);
    Cursor(req.log).unordered++;
    LLOG(kDebug) << "t=" << endpoint_.loop()->Now() << " seq node=" << node_id()
                 << " insert id={" << req.id.client_id << "," << req.id.request_id
                 << "} log=" << log_.size();
    stats_.appends++;
    r.Send(Status::Ok());
  });
}

// --- background ordering (§4.3, per-shard cursor pipelines) ---------------------------

void SequencingReplica::ScheduleOrderingTick() {
  endpoint_.loop()->Schedule(params_.seq.ordering_interval_ns, [this]() { OrderingTick(); });
}

void SequencingReplica::OrderingTick() {
  if (!is_leader() || sealed_) {
    ordering_armed_ = false;  // re-armed by StartView if we lead again
    return;
  }
  ReplenishDeficits();
  AssignPositions();
  for (size_t s = 0; s < cursors_.size(); ++s) {
    PumpCursor(s);
  }
  ScheduleOrderingTick();
}

void SequencingReplica::RecordAckRtt(uint64_t rtt_ns) {
  // EWMA with 1/8 gain: smooth enough to ignore one slow ack, fast enough to track a
  // genuinely slower shard round trip within a handful of windows.
  ack_rtt_ewma_ns_ = ack_rtt_ewma_ns_ == 0
                         ? static_cast<double>(rtt_ns)
                         : ack_rtt_ewma_ns_ + (static_cast<double>(rtt_ns) - ack_rtt_ewma_ns_) / 8.0;
}

void SequencingReplica::AssignPositions() {
  if (shard_primaries_.empty()) {
    LL_CHECK(log_.empty(), "ordering without shards");
    return;
  }
  if (cursors_.empty()) {
    ResetCursors(ordered_gp_);
  }
  LL_CHECK(assigned_gp_ >= ordered_gp_, "assignment frontier behind durable frontier");
  const uint64_t unassigned = log_.size() - (assigned_gp_ - ordered_gp_);
  if (unassigned == 0) {
    return;
  }
  const uint64_t k = std::min<uint64_t>(unassigned, params_.seq.max_order_batch);
  // Freeze the placement at assignment time so retried windows land on the same shard
  // even if the shard count changes later.
  PlaceEntries(assigned_gp_, assigned_gp_ + k);
  assigned_gp_ += k;
}

void SequencingReplica::PlaceEntries(LogPos lo, LogPos hi) {
  if (mode_ != ErwinMode::kM) {
    return;  // Erwin-st entries already name the shard their data was written to
  }
  // Corfu-style placement: position p lives on shard p mod n (§4.3).
  const size_t n_shards = shard_primaries_.size();
  LL_CHECK(n_shards > 0, "ordering without shards");
  for (LogPos pos = lo; pos < hi; ++pos) {
    log_[pos - ordered_gp_].shard = static_cast<ShardId>(pos % n_shards);
  }
}

SequencingReplica::EncodedWindow SequencingReplica::EncodeWindow(
    ShardId shard, const OrderWindow& header) const {
  // m-mode windows carry the record payloads as attachments: the push shares the ring
  // buffer's backing, it does not re-copy record bytes.
  if (mode_ == ErwinMode::kM) {
    ShardAppendBatchReq req;
    static_cast<OrderWindow&>(req) = header;
    req.records.reserve(header.range_hi - header.range_lo);
    for (LogPos p = header.range_lo; p < header.range_hi; ++p) {
      const Entry& e = log_[p - ordered_gp_];
      if (e.shard == shard) {
        req.records.push_back(PositionedRecord{p, Record{e.id, e.payload, false, e.tag, e.log}});
      }
    }
    return EncodedWindow{kShardAppendBatch, EncodeMsg(req)};
  }
  // Erwin-st: every shard primary stores the full metadata window (§5.2).
  ShardOrderMetaReq req;
  static_cast<OrderWindow&>(req) = header;
  req.entries.reserve(header.range_hi - header.range_lo);
  for (LogPos p = header.range_lo; p < header.range_hi; ++p) {
    const Entry& e = log_[p - ordered_gp_];
    req.entries.push_back(MetaEntry{p, e.id, e.shard});
  }
  return EncodedWindow{kShardOrderMeta, EncodeMsg(req)};
}

void SequencingReplica::ResetCursors(LogPos start) {
  cursors_.clear();
  cursors_.resize(shard_primaries_.size());
  for (size_t s = 0; s < cursors_.size(); ++s) {
    cursors_[s].shard = static_cast<ShardId>(s);
    cursors_[s].next_pos = start;
    cursors_[s].acked_watermark = start;
  }
}

void SequencingReplica::PumpCursor(size_t s) {
  if (sealed_ || !is_leader() || s >= cursors_.size()) {
    return;
  }
  ShardCursor& c = cursors_[s];
  if (c.retry_armed) {
    return;  // backing off after a failed window; the retry re-pumps
  }
  const uint32_t depth = params_.seq.order_pipeline_depth;
  const uint64_t batch = params_.seq.max_order_batch;
  const SimTime now = endpoint_.loop()->Now();
  // Pacing: a partial window leaves only if the cursor is idle or kPaceRtts x RTT /
  // depth has passed since its last send, so the windows of a round trip spread evenly
  // across it. Sent back to back as acks return, they would form a convoy (one large
  // window and a train of tiny ones queued on the shard disk behind it) that stretches
  // every window's RTT. A full window never waits. A held window goes on the next tick
  // or ack.
  const double pace_ns = kPaceRtts * ack_rtt_ewma_ns_ / depth;
  while (c.in_flight < depth && c.next_pos < assigned_gp_) {
    OrderWindow header;
    header.view = view_;
    header.range_lo = c.next_pos;
    header.range_hi = std::min<LogPos>(assigned_gp_, c.next_pos + batch);
    const bool full = header.range_hi - header.range_lo == batch;
    if (!full && c.in_flight > 0 && static_cast<double>(now - c.last_sent_at) < pace_ns) {
      return;
    }
    EncodedWindow w = EncodeWindow(c.shard, header);
    c.next_pos = header.range_hi;
    c.in_flight++;
    c.pushes++;
    c.last_sent_at = now;
    const uint64_t epoch = c.window_epoch;
    const ViewId window_view = view_;
    endpoint_.CallMsg(shard_primaries_[s], w.method, w.msg,
                      [this, s, epoch, window_view, sent_at = now](Status st, Decoder body) {
                        OnWindowAck(s, epoch, window_view, sent_at, st, std::move(body));
                      },
                      PushTimeoutNs());
  }
}

uint64_t SequencingReplica::PushTimeoutNs() const {
  // A shard whose disk is the bottleneck stretches every window's RTT. A fixed timeout
  // below that RTT times out every window, and the retries re-send work the shard is
  // already doing. So the timeout is never under 4 RTTs; while 4 RTTs stay under the
  // push timeout, it is the push timeout.
  return std::max<uint64_t>(params_.seq.order_push_timeout_ns,
                            static_cast<uint64_t>(4.0 * ack_rtt_ewma_ns_));
}

void SequencingReplica::OnWindowAck(size_t s, uint64_t epoch, ViewId window_view,
                                    SimTime sent_at, const Status& status, Decoder body) {
  if (sealed_ || view_ != window_view || !is_leader() || s >= cursors_.size()) {
    return;  // reconfiguration owns the log now
  }
  ShardCursor& c = cursors_[s];
  if (epoch != c.window_epoch) {
    return;  // ack from before a cursor reset; the retry re-covers this span
  }
  LL_CHECK(c.in_flight > 0, "window ack without an outstanding window");
  c.in_flight--;
  // Error acks carry the watermark too, so the cursor resyncs even from a refusal.
  ShardOrderAckResp ack;
  if (body.Remaining() > 0 && ack.Decode(body)) {
    c.acked_watermark = std::max(c.acked_watermark, ack.applied_upto);
  }
  if (status.code() == StatusCode::kStaleView) {
    // This shard has been fenced into a newer epoch: we were deposed without hearing
    // our seal (asymmetric partition). Self-seal so we stop acking appends and
    // pushing orderings.
    LLOG(kInfo) << "t=" << endpoint_.loop()->Now() << " seq node=" << node_id()
                << " fenced out by shard " << c.shard << "; self-sealing view=" << view_;
    sealed_ = true;
    return;
  }
  if (!status.ok()) {
    LLOG(kInfo) << "t=" << endpoint_.loop()->Now() << " seq leader: window to shard "
                << c.shard << " failed (" << status.ToString() << ") watermark="
                << c.acked_watermark << "; backing off";
    ArmCursorRetry(s);
    return;
  }
  c.retry_attempts = 0;
  RecordAckRtt(endpoint_.loop()->Now() - sent_at);
  AdvanceOrderedFromCursors();
  PumpCursor(s);
}

void SequencingReplica::ArmCursorRetry(size_t s) {
  ShardCursor& c = cursors_[s];
  if (c.retry_armed || sealed_ || !is_leader()) {
    return;
  }
  c.retry_armed = true;
  // Doubling backoff, capped at the push timeout: a partitioned shard is re-probed
  // with one window per timeout instead of a full pipeline of doomed sends. The other
  // cursors keep pumping — that is the point of the per-shard redesign.
  const uint64_t backoff = std::min<uint64_t>(
      params_.seq.order_push_timeout_ns,
      params_.seq.order_retry_backoff_ns << std::min<uint32_t>(c.retry_attempts, 16));
  const ViewId armed_view = view_;
  endpoint_.loop()->Schedule(backoff, [this, s, armed_view]() {
    if (sealed_ || !is_leader() || view_ != armed_view || s >= cursors_.size()) {
      return;
    }
    ShardCursor& c2 = cursors_[s];
    c2.retry_armed = false;
    c2.retry_attempts++;
    c2.retries++;
    // Orphan any still-in-flight windows and resync from the shard's durable
    // watermark; the shard re-acks already-durable spans immediately.
    c2.window_epoch++;
    c2.in_flight = 0;
    c2.next_pos = c2.acked_watermark;
    PumpCursor(s);
  });
}

void SequencingReplica::AdvanceOrderedFromCursors() {
  LogPos min_wm = assigned_gp_;
  for (const ShardCursor& c : cursors_) {
    min_wm = std::min(min_wm, c.acked_watermark);
  }
  if (min_wm <= ordered_gp_) {
    return;
  }
  const uint64_t k = min_wm - ordered_gp_;
  LL_CHECK(log_.size() >= k, "durable watermark beyond the local log");
  LLOG(kDebug) << "t=" << endpoint_.loop()->Now() << " seq leader: watermark advance base="
               << ordered_gp_ << " k=" << k << " log=" << log_.size();
  // Records are safe on every shard: GC the leader's log and advance last-ordered-gp.
  std::vector<WireRecordId>& ids = advance_ids_;
  auto& per_log = advance_per_log_;
  ids.clear();
  per_log.clear();
  for (uint64_t i = 0; i < k; ++i) {
    const Entry& e = log_.front();
    ids.push_back(WireRecordId{e.id});
    auto n = std::find_if(per_log.begin(), per_log.end(),
                          [&e](const auto& p) { return p.first == e.log; });
    if (n == per_log.end()) {
      per_log.emplace_back(e.log, 1);
    } else {
      n->second++;
    }
    in_log_.erase(e.id);
    log_.pop_front();
  }
  std::sort(per_log.begin(), per_log.end());
  ordered_gp_ = min_wm;
  for (const auto& [log, n] : per_log) {
    LogCursor& lc = Cursor(log);
    lc.ordered += n;
    lc.unordered -= std::min(lc.unordered, n);
    // Checkpoint the per-log delta at this ordered-gp; the cursors' stable counts adopt
    // it once stable-gp passes (per-log stable must trail stable-gp exactly, not
    // ordered-gp, or per-log reads would outrun the read gate).
    stable_checkpoints_.push_back(StableCheckpoint{ordered_gp_, log, n});
  }
  RememberOrdered(ids);
  // One "ordering batch" = the chunk of records that became globally ordered at once.
  // The chunk is ack-gated (grows with the append rate at a fixed shard RTT), which is
  // the quantity Fig 11 plots.
  stats_.batches++;
  stats_.batch_entries += k;
  stats_.gc_rounds++;
  NotifyGpObserver();

  // Instruct followers to GC and advance their last-ordered-gp; stable-gp may only
  // advance after *all* replicas have done so (§4.5 correctness argument).
  if (config_.size() <= 1) {
    stable_gp_ = ordered_gp_;
    DrainStableCheckpoints();
    NotifyGpObserver();
    BroadcastStableGp();
    return;
  }
  // Queue the freshly ordered ids for every follower. A failed GC send stays queued and
  // is retried (ArmGcRetry) — a follower that silently kept an ordered entry would
  // re-bind it at a new position if it later flushed as the recovery replica.
  for (size_t i = 1; i < config_.size(); ++i) {
    FollowerGc& f = follower_gc_[config_[i]];
    f.pending.insert(f.pending.end(), ids.begin(), ids.end());
    SendFollowerGc(config_[i]);
  }
}

void SequencingReplica::SendFollowerGc(NodeId follower) {
  FollowerGc& f = follower_gc_[follower];
  if (f.inflight || (f.pending.empty() && f.acked_gp >= ordered_gp_)) {
    return;
  }
  f.inflight = true;
  SeqGcReq gc;
  gc.view = view_;
  gc.new_ordered_gp = ordered_gp_;
  gc.ids.swap(f.pending);  // lent to the request for its encoding, not copied
  const ViewId gc_view = view_;
  const LogPos sent_gp = ordered_gp_;
  const size_t sent = gc.ids.size();
  endpoint_.CallMsg(follower, kSeqGc, gc,
                    [this, follower, gc_view, sent_gp, sent](Status s, Decoder) {
                      OnFollowerGcDone(follower, gc_view, sent_gp, sent, s);
                    },
                    params_.seq.order_push_timeout_ns);
  f.pending.swap(gc.ids);
}

void SequencingReplica::OnFollowerGcDone(NodeId follower, ViewId gc_view, LogPos sent_gp,
                                         size_t sent, const Status& s) {
  auto it = follower_gc_.find(follower);
  if (it == follower_gc_.end()) {
    return;  // view changed; queues were reset
  }
  FollowerGc& f = it->second;
  f.inflight = false;
  if (sealed_ || view_ != gc_view || !is_leader()) {
    return;
  }
  if (!s.ok()) {
    LLOG(kInfo) << "t=" << endpoint_.loop()->Now()
                << " seq leader: follower gc failed (" << s.ToString()
                << "); stable-gp held, retrying";
    ArmGcRetry();
    return;
  }
  // Acked: the follower dropped every id we sent (a prefix of the queue — new ids are
  // only ever appended at the back).
  f.pending.erase(f.pending.begin(), f.pending.begin() + static_cast<long>(sent));
  f.acked_gp = std::max(f.acked_gp, sent_gp);
  AdvanceStableFromGc();
  if (!f.pending.empty() || f.acked_gp < ordered_gp_) {
    // More ids were ordered while this send was in flight; drain immediately — the
    // cursor pipeline keeps ordering continuously, so a delayed GC round would become
    // the stable-gp bottleneck.
    SendFollowerGc(follower);
  }
}

void SequencingReplica::AdvanceStableFromGc() {
  LogPos min_acked = ordered_gp_;
  for (size_t i = 1; i < config_.size(); ++i) {
    auto it = follower_gc_.find(config_[i]);
    min_acked = std::min(min_acked, it == follower_gc_.end() ? LogPos{0} : it->second.acked_gp);
  }
  if (min_acked > stable_gp_) {
    stable_gp_ = min_acked;
    DrainStableCheckpoints();
    NotifyGpObserver();
    BroadcastStableGp();
  }
}

void SequencingReplica::DrainStableCheckpoints() {
  while (!stable_checkpoints_.empty() && stable_checkpoints_.front().ordered_gp <= stable_gp_) {
    Cursor(stable_checkpoints_.front().log).stable += stable_checkpoints_.front().records;
    stable_checkpoints_.pop_front();
  }
}

void SequencingReplica::ArmGcRetry() {
  if (gc_retry_armed_ || sealed_ || !is_leader()) {
    return;
  }
  gc_retry_armed_ = true;
  endpoint_.loop()->Schedule(4 * params_.seq.ordering_interval_ns, [this]() {
    gc_retry_armed_ = false;
    if (sealed_ || !is_leader()) {
      return;
    }
    for (size_t i = 1; i < config_.size(); ++i) {
      SendFollowerGc(config_[i]);
    }
  });
}

void SequencingReplica::BroadcastStableGp() {
  // Piggyback the durable frontier (same formula CheckTail answers with) so shard
  // replicas can advertise a recent durable tail on their read replies.
  const StableGpMsg msg{view_, stable_gp_, ordered_gp_ + log_.size()};
  for (NodeId n : all_shard_servers_) {
    endpoint_.Notify(n, kShardSetStableGp, msg);
  }
  for (NodeId n : index_nodes_) {
    endpoint_.Notify(n, kShardSetStableGp, msg);
  }
}

void SequencingReplica::HandleGc(SeqGcReq req, Responder r) {
  if (sealed_) {
    r.Send(Status::Sealed());
    return;
  }
  if (req.view != view_) {
    r.Send(req.view < view_ ? Status::StaleView() : Status::WrongView());
    return;
  }
  cpu_.ExecuteFor(req.ids.size() * 16, [this, req = std::move(req), r]() mutable {
    if (sealed_) {
      r.Send(Status::Sealed());
      return;
    }
    gc_ids_.clear();
    for (const WireRecordId& w : req.ids) {
      gc_ids_.insert(w.id);
    }
    // Compact log_ in place: survivors keep their arrival order. The walk stops at the
    // last collected id; the survivors after it stay where they are.
    auto kept = log_.begin();
    auto it = log_.begin();
    for (size_t found = 0; it != log_.end() && found < gc_ids_.size(); ++it) {
      if (gc_ids_.contains(it->id)) {
        found++;
        in_log_.erase(it->id);
        // Follower per-log accounting: a GC'd entry is ordered at the leader.
        LogCursor& lc = Cursor(it->log);
        lc.ordered++;
        lc.unordered -= std::min<uint64_t>(lc.unordered, 1);
      } else {
        if (kept != it) {
          *kept = std::move(*it);
        }
        ++kept;
      }
    }
    log_.erase(kept, it);
    ordered_gp_ = std::max(ordered_gp_, req.new_ordered_gp);
    RememberOrdered(req.ids);
    ScrubShedEntries();
    stats_.gc_rounds++;
    NotifyGpObserver();
    r.Send(Status::Ok());
  });
}

// --- reconfiguration (§4.5) -------------------------------------------------------------

void SequencingReplica::HandleSeal(SeqSealReq req, Responder r) {
  if (req.view < view_) {
    r.Send(Status::WrongView());
    return;
  }
  sealed_ = true;
  SeqSealResp resp{ordered_gp_, log_.size()};
  r.Ok(resp);
}

void SequencingReplica::HandleFlush(SeqFlushReq req, Responder r) {
  if (last_flush_view_ == req.new_view && !last_flush_resp_.empty()) {
    // Retried flush (the controller's first response was lost). Return the cached
    // result: re-running would hand out fresh positions for an empty log and lose the
    // flushed-ids dedup seed, letting client retries bind the same record twice.
    r.Send(Status::Ok(), last_flush_resp_);
    return;
  }
  LL_CHECK(sealed_, "flush on unsealed replica");
  // Flush this replica's unordered log to the shards, assigning positions from our
  // last-ordered-gp (§4.5): one overwrite window over the whole log, which rewrites any
  // unstable tail the dead leader wrote. Unlike the steady-state cursor pipeline it
  // must land on *every* shard before the new view starts, so it is a Gather barrier
  // whose retries belong to the controller.
  std::vector<WireRecordId> ids;
  ids.reserve(log_.size());
  for (const Entry& e : log_) {
    ids.push_back(WireRecordId{e.id});
  }
  const uint64_t k = log_.size();
  OrderWindow header;
  header.view = req.new_view;
  header.overwrite = true;
  header.truncate_from = ordered_gp_;
  header.range_lo = ordered_gp_;
  header.range_hi = ordered_gp_ + k;
  PlaceEntries(header.range_lo, header.range_hi);
  const size_t n_shards = shard_primaries_.size();
  auto gather = Gather::Create(
      n_shards, [this, k, ids = std::move(ids), new_view = req.new_view, r](
                    const std::vector<Status>& ss) mutable {
        if (!std::all_of(ss.begin(), ss.end(), [](const Status& s) { return s.ok(); })) {
          r.Send(Status::Unavailable("flush push failed"));
          return;
        }
        ordered_gp_ += k;
        assigned_gp_ = std::max(assigned_gp_, ordered_gp_);
        RememberOrdered(ids);
        for (const Entry& e : log_) {
          in_log_.erase(e.id);
          Cursor(e.log).ordered++;
        }
        for (auto& [log, lc] : log_cursors_) {
          lc.unordered = 0;
        }
        log_.clear();
        NotifyGpObserver();
        SeqFlushResp resp;
        resp.new_ordered_gp = ordered_gp_;
        resp.flushed_ids = std::move(ids);
        Encoder enc;
        resp.Encode(enc);
        last_flush_view_ = new_view;
        last_flush_resp_.assign(enc.view());
        r.Ok(enc);
      });
  EncodedWindow w;
  for (size_t s = 0; s < n_shards; ++s) {
    // An Erwin-st window is the same metadata for every shard: one body serves all.
    if (s == 0 || mode_ == ErwinMode::kM) {
      w = EncodeWindow(static_cast<ShardId>(s), header);
    }
    endpoint_.CallMsg(shard_primaries_[s], w.method, w.msg, gather->Slot(s),
                      params_.rpc_timeout_ns);
  }
}

void SequencingReplica::HandleStartView(SeqStartViewReq req, Responder r) {
  if (req.view <= view_ && view_ != 0) {
    r.Send(Status::WrongView("stale start view"));
    return;
  }
  view_ = req.view;
  config_.assign(req.config.begin(), req.config.end());
  ordered_gp_ = req.ordered_gp;
  stable_gp_ = req.stable_gp;
  RememberOrdered(req.flushed_ids);
  for (const Entry& e : log_) {
    in_log_.erase(e.id);
  }
  log_.clear();
  in_log_.clear();
  sealed_ = false;
  // Per-log cursors across a view change: the ring emptied (flush or discard), so
  // unordered resets; stable snaps to ordered (stable_gp == ordered_gp in a fresh
  // view). A replica whose unordered suffix was dropped undercounts its logs' ordered
  // totals relative to the flush winner — safe: per-log tails may shrink across
  // views exactly like the physical durable tail.
  stable_checkpoints_.clear();
  for (auto& [log, lc] : log_cursors_) {
    lc.unordered = 0;
    lc.stable = lc.ordered;
  }
  // Epoch-fenced cursor reset: old-view windows still in flight are orphaned (their
  // acks fail the view check) and the new view's cursors resync from the flush point.
  assigned_gp_ = ordered_gp_;
  ResetCursors(ordered_gp_);
  // The flush emptied every new-member log; old-view GC debts are void.
  follower_gc_.clear();
  NotifyGpObserver();
  if (is_leader() && !ordering_armed_) {
    ordering_armed_ = true;
    ScheduleOrderingTick();
  }
  r.Send(Status::Ok());
}

// --- misc client calls -------------------------------------------------------------------

void SequencingReplica::HandleCheckTail(const SeqCheckTailReq& req, Responder r) {
  // Legacy empty body = physical tail (byte-identical for single-log deployments);
  // a non-empty body names the phylog whose record counts are wanted.
  if (!is_leader()) {
    r.Send(Status::NotLeader());
    return;
  }
  if (sealed_) {
    // A sealed (possibly deposed) leader must not serve tails: its durable count may
    // include entries the new view will drop, and clients must re-resolve the config.
    r.Send(Status::Sealed());
    return;
  }
  cpu_.Execute(cpu_.CostFor(0), [this, log = req.log, r]() mutable {
    if (sealed_) {
      r.Send(Status::Sealed());
      return;
    }
    SeqCheckTailResp resp{ordered_gp_ + log_.size(), stable_gp_, view_};
    if (log != kDefaultLog) {
      // Per-phylog counts. `durable` includes ring entries and Erwin-st metadata whose
      // data may yet no-op, so it upper-bounds the log's eventual rank count; `stable`
      // likewise upper-bounds the readable ranks (never undercounts them).
      auto it = log_cursors_.find(log);
      resp.durable = it == log_cursors_.end() ? 0 : it->second.ordered + it->second.unordered;
      resp.stable = it == log_cursors_.end() ? 0 : it->second.stable;
    }
    r.Ok(resp);
  });
}

void SequencingReplica::HandleGetConfig(NoBody, Responder r) {
  SeqConfigResp resp;
  resp.view = view_;
  resp.sealed = sealed_;
  resp.config.assign(config_.begin(), config_.end());
  r.Ok(resp);
}

void SequencingReplica::HandleUpdateShards(SeqUpdateShardsReq req, Responder r) {
  ReplaceShardServer(req.old_node, req.new_node);
  r.Send(Status::Ok());
}

void SequencingReplica::HandleShardFailover(SeqShardFailoverReq req, Responder r) {
  if (req.shard >= shard_primaries_.size()) {
    r.Send(Status::InvalidArgument("unknown shard"));
    return;
  }
  // The membership swap applies on every replica — even sealed or non-leader ones — so
  // a replica promoted to leader by a later view change pushes to the right primary.
  shard_primaries_[req.shard] = req.new_primary;
  // The promoted backup was already a member of the broadcast list; just drop the dead
  // primary instead of substituting (which would duplicate the new one).
  all_shard_servers_.erase(
      std::remove(all_shard_servers_.begin(), all_shard_servers_.end(), req.old_primary),
      all_shard_servers_.end());
  if (std::find(all_shard_servers_.begin(), all_shard_servers_.end(), req.new_primary) ==
      all_shard_servers_.end()) {
    all_shard_servers_.push_back(req.new_primary);
  }
  // Leader: reset the shard's cursor to the new primary's contiguous applied frontier
  // and re-push from there. Everything in [reset_upto, next_pos) that the dead primary
  // acked but the promoted backup missed is still in the ring — a window is acked only
  // once every backup replicated it, so ordered_gp <= reset_upto and the span is
  // re-sendable. Re-delivered windows the backup did apply are deduplicated on receipt.
  // The reset can raise the shard's watermark with nothing left to send, so ordering
  // advances here: no window ack may ever arrive to advance it.
  if (is_leader() && !sealed_ && req.shard < cursors_.size()) {
    ShardCursor& c = cursors_[req.shard];
    const LogPos resume = std::max(req.reset_upto, ordered_gp_);
    LLOG(kInfo) << "t=" << endpoint_.loop()->Now() << " seq leader: shard " << req.shard
                << " failover " << req.old_primary << "->" << req.new_primary
                << "; cursor reset " << c.next_pos << "->" << resume;
    c.window_epoch++;  // orphan in-flight windows addressed to the dead primary
    c.in_flight = 0;
    c.retry_armed = false;  // a stale backoff callback only re-pumps; harmless
    c.retry_attempts = 0;
    c.next_pos = resume;
    c.acked_watermark = resume;
    AdvanceOrderedFromCursors();
    PumpCursor(req.shard);
  }
  r.Send(Status::Ok());
}

void SequencingReplica::HandleTrim(TrimMsg msg, Responder r) {
  if (!is_leader()) {
    r.Send(Status::NotLeader());
    return;
  }
  // Positions below min(stable-gp, up_to) are safe to drop everywhere.
  msg.up_to = std::min<LogPos>(msg.up_to, stable_gp_);
  auto gather = Gather::Create(all_shard_servers_.size(),
                               [r](const std::vector<Status>& ss) mutable {
                                 const bool ok = std::all_of(
                                     ss.begin(), ss.end(), [](const Status& s) { return s.ok(); });
                                 r.Send(ok ? Status::Ok() : Status::Internal("trim failed"));
                               });
  for (size_t i = 0; i < all_shard_servers_.size(); ++i) {
    endpoint_.CallMsg(all_shard_servers_[i], kShardTrim, msg, gather->Slot(i),
                      params_.rpc_timeout_ns);
  }
  // Index nodes drop their per-tag entries below up_to too, but fire-and-forget: the
  // index is advisory GC here, never part of the trim ack.
  for (NodeId n : index_nodes_) {
    endpoint_.Notify(n, kShardTrim, msg);
  }
}

// --- stats surface -----------------------------------------------------------------------

OrdererStatsSnapshot SequencingReplica::StatsSnapshot() const {
  OrdererStatsSnapshot snap;
  snap.counters = stats_;
  snap.view = view_;
  snap.leader = is_leader();
  snap.ordered_gp = ordered_gp_;
  snap.assigned_gp = assigned_gp_;
  snap.stable_gp = stable_gp_;
  snap.unordered = log_.size();
  snap.ack_rtt_ewma_ns = ack_rtt_ewma_ns_;
  snap.admitting = admitting_;
  snap.ring_occupancy = ring_occupancy();
  snap.shards.reserve(cursors_.size());
  for (const ShardCursor& c : cursors_) {
    OrdererStats::PerShard ps;
    ps.shard = c.shard;
    ps.pushes = c.pushes;
    ps.retries = c.retries;
    ps.in_flight = c.in_flight;
    ps.next_pos = c.next_pos;
    ps.acked_watermark = c.acked_watermark;
    ps.watermark_lag = assigned_gp_ > c.acked_watermark ? assigned_gp_ - c.acked_watermark : 0;
    snap.shards.push_back(ps);
  }
  for (const auto& [log, lc] : log_cursors_) {
    OrdererStats::PerLog pl;
    pl.log = log;
    pl.unordered = lc.unordered;
    pl.ordered = lc.ordered;
    pl.stable = lc.stable;
    pl.admitted = lc.admitted;
    pl.quota_rejected = lc.quota_rejected;
    pl.drr_rejected = lc.drr_rejected;
    pl.deficit = lc.deficit;
    pl.quota_tokens = lc.tokens;
    snap.logs.push_back(pl);
  }
  snap.buf = GlobalBufStats();
  return snap;
}

StatsFields OrdererStatsSnapshot::Fields() const {
  StatsFields f = {
      {"appends", static_cast<double>(counters.appends)},
      {"duplicates_filtered", static_cast<double>(counters.duplicates_filtered)},
      {"batches", static_cast<double>(counters.batches)},
      {"batch_entries", static_cast<double>(counters.batch_entries)},
      {"avg_batch_size", counters.AvgBatchSize()},
      {"gc_rounds", static_cast<double>(counters.gc_rounds)},
      {"view", static_cast<double>(view)},
      {"leader", leader ? 1.0 : 0.0},
      {"ordered_gp", static_cast<double>(ordered_gp)},
      {"assigned_gp", static_cast<double>(assigned_gp)},
      {"stable_gp", static_cast<double>(stable_gp)},
      {"unordered", static_cast<double>(unordered)},
      {"admitted", static_cast<double>(counters.admitted)},
      {"overload_rejected", static_cast<double>(counters.overload_rejected)},
      {"overload_retried", static_cast<double>(counters.overload_retried)},
      {"ring_high_water", static_cast<double>(counters.ring_high_water)},
      {"shed_scrubbed", static_cast<double>(counters.shed_scrubbed)},
      {"quota_rejected", static_cast<double>(counters.quota_rejected)},
      {"drr_rejected", static_cast<double>(counters.drr_rejected)},
      {"ring_occupancy", static_cast<double>(ring_occupancy)},
      {"admitting", admitting ? 1.0 : 0.0},
      {"ack_rtt_ewma_ns", ack_rtt_ewma_ns},
      {"payload_bytes_copied", static_cast<double>(buf.payload_bytes_copied)},
      {"payload_bytes_aliased", static_cast<double>(buf.payload_bytes_aliased)},
      {"buf_allocations", static_cast<double>(buf.allocations)},
  };
  LogPos max_lag = 0;
  uint64_t retries = 0;
  for (const OrdererStats::PerShard& ps : shards) {
    const std::string p = "shard" + std::to_string(ps.shard) + "_";
    f.emplace_back(p + "pushes", static_cast<double>(ps.pushes));
    f.emplace_back(p + "retries", static_cast<double>(ps.retries));
    f.emplace_back(p + "in_flight", static_cast<double>(ps.in_flight));
    f.emplace_back(p + "acked_watermark", static_cast<double>(ps.acked_watermark));
    f.emplace_back(p + "watermark_lag", static_cast<double>(ps.watermark_lag));
    max_lag = std::max(max_lag, ps.watermark_lag);
    retries += ps.retries;
  }
  f.emplace_back("max_watermark_lag", static_cast<double>(max_lag));
  f.emplace_back("total_window_retries", static_cast<double>(retries));
  // Stable-gp lag: how far the readable prefix trails the assignment frontier.
  f.emplace_back("stable_gp_lag", static_cast<double>(assigned_gp - stable_gp));
  // Per-phylog tenant counters (noisy-neighbor diagnosis: who was throttled and why).
  f.emplace_back("num_logs", static_cast<double>(logs.size()));
  for (const OrdererStats::PerLog& pl : logs) {
    const std::string p = "log" + std::to_string(pl.log) + "_";
    f.emplace_back(p + "unordered", static_cast<double>(pl.unordered));
    f.emplace_back(p + "ordered", static_cast<double>(pl.ordered));
    f.emplace_back(p + "stable", static_cast<double>(pl.stable));
    f.emplace_back(p + "admitted", static_cast<double>(pl.admitted));
    f.emplace_back(p + "quota_rejected", static_cast<double>(pl.quota_rejected));
    f.emplace_back(p + "drr_rejected", static_cast<double>(pl.drr_rejected));
  }
  return f;
}

}  // namespace lazylog
