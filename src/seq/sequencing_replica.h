// A sequencing-layer replica (§4). Clients write records (Erwin-m) or metadata
// identifiers (Erwin-st) to every replica in parallel with no cross-replica
// coordination; each replica appends to a local ring-buffer log and replies, so appends
// complete in 1 RTT. The leader's log defines the order for concurrent appends: its
// background orderer periodically assigns positions, pushes batches to the shards,
// garbage-collects all replicas, and only then advances stable-gp (§4.3) — the invariant
// that makes exposed orderings immune to leader failure (§4.5).
#ifndef SRC_SEQ_SEQUENCING_REPLICA_H_
#define SRC_SEQ_SEQUENCING_REPLICA_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/flat_set.h"
#include "src/common/params.h"
#include "src/control/zookeeper.h"
#include "src/rpc/rpc.h"
#include "src/rpc/rpc_methods.h"
#include "src/seq/seq_messages.h"
#include "src/sim/resources.h"
#include "src/storage/shard_messages.h"

namespace lazylog {

// Which LazyLog system this cluster runs; affects what the sequencing layer stores and
// what the orderer pushes to shards.
enum class ErwinMode { kM, kSt };

// Orderer statistics for Fig 11 (ordering batch sizes), Fig 13 (per-shard cursor
// pipelines), and Fig 17 (recovery timing).
struct OrdererStats {
  uint64_t appends = 0;
  uint64_t duplicates_filtered = 0;
  uint64_t batches = 0;        // ordering batches (one per ordered_gp advance)
  uint64_t batch_entries = 0;  // records covered by those advances
  uint64_t gc_rounds = 0;
  // Admission-control counters (overload behavior; see DESIGN.md overload section).
  uint64_t admitted = 0;           // appends accepted past the admission gate
  uint64_t overload_rejected = 0;  // appends refused with kOverloaded
  uint64_t overload_retried = 0;   // admitted appends previously refused (client retries)
  uint64_t ring_high_water = 0;    // max ring occupancy observed at admission time
  uint64_t shed_scrubbed = 0;      // follower ring entries evicted as leader-shed
  // Multi-tenant counters (virtual-log layer).
  uint64_t quota_rejected = 0;  // appends refused kQuotaExceeded (per-log token bucket)
  uint64_t drr_rejected = 0;    // appends refused kOverloaded by the DRR fairness stage
  double AvgBatchSize() const {
    return batches == 0 ? 0.0 : static_cast<double>(batch_entries) / static_cast<double>(batches);
  }

  // Per-shard ordering-cursor counters (Fig 13 diagnosis: who is the straggler).
  struct PerShard {
    ShardId shard = 0;
    uint64_t pushes = 0;          // windows sent
    uint64_t retries = 0;         // cursor resets after a failed/timed-out window
    uint64_t in_flight = 0;       // windows currently outstanding
    LogPos next_pos = 0;          // next position this cursor will send
    LogPos acked_watermark = 0;   // shard's durable frontier, from its acks
    LogPos watermark_lag = 0;     // assigned_gp - acked_watermark
  };

  // Per-phylog counters + frontiers (leader truth; followers track ordered/unordered
  // only). Counts are in *records of that log*, not global positions.
  struct PerLog {
    LogId log = kDefaultLog;
    uint64_t unordered = 0;       // ring entries of this log
    LogPos ordered = 0;           // this log's records below ordered-gp
    LogPos stable = 0;            // this log's records below stable-gp
    uint64_t admitted = 0;
    uint64_t quota_rejected = 0;
    uint64_t drr_rejected = 0;
    uint64_t deficit = 0;         // DRR credit left this tick
    double quota_tokens = 0;      // token-bucket level at capture time
  };
};

// Point-in-time copy of the counters plus the ordering frontiers — the single stats
// surface consumed by benches/tests (no friend/field poking).
struct OrdererStatsSnapshot {
  OrdererStats counters;
  ViewId view = 0;
  bool leader = false;
  LogPos ordered_gp = 0;
  LogPos assigned_gp = 0;
  LogPos stable_gp = 0;
  uint64_t unordered = 0;  // entries still in the local ring buffer
  double ack_rtt_ewma_ns = 0;
  bool admitting = true;        // admission gate state (false = shedding load)
  uint64_t ring_occupancy = 0;  // unordered entries + appends queued for the CPU
  std::vector<OrdererStats::PerShard> shards;
  // One entry per phylog with traffic (id-ordered; includes the default log).
  std::vector<OrdererStats::PerLog> logs;
  BufStats buf;  // global record-path copy/alias counters at capture time
  StatsFields Fields() const;
};

class SequencingReplica {
 public:
  // `shard_primaries[i]` / `shard_servers` wire the orderer to the storage tier.
  // `zk` (optional, kInvalidNode to disable) hosts this replica's liveness ephemeral.
  SequencingReplica(Network* net, const SimParams& params, ErwinMode mode, uint32_t index,
                    NodeId zk = kInvalidNode);

  NodeId node_id() const { return endpoint_.node_id(); }

  // A cursor sends a partial window at most every kPaceRtts x ack-RTT / depth, so about
  // depth / kPaceRtts windows ride each round trip (DESIGN §3.2 says why 1.8).
  static constexpr double kPaceRtts = 1.8;

  // Wires the replica set (config[0] = leader) and the storage tier, then starts the
  // leader's background-ordering timer and the ZK liveness session.
  // `index_nodes` (index tier, optional) receive stable-gp broadcasts and trims
  // fire-and-forget: the index is an access path, never an ack dependency.
  void Start(std::vector<NodeId> config, std::vector<NodeId> shard_primaries,
             std::vector<NodeId> all_shard_servers, std::vector<NodeId> index_nodes = {});

  // Runtime shard addition (Erwin-st §6.9): the orderer starts including the new
  // primary in metadata pushes.
  void AddShard(NodeId primary, std::vector<NodeId> replicas);

  // Shard-replica replacement (§5.4): rewires stable-gp broadcasts (and pushes, if the
  // node was a primary) from the failed server to its replacement.
  void ReplaceShardServer(NodeId old_node, NodeId new_node);

  // Simulates a crash: stop heartbeats (the network-level crash is done by the caller).
  void StopHeartbeats() { zk_session_ ? zk_session_->Stop() : void(); }

  // Installs the phylog registry (quota table + deletion tombstones); also reached via
  // the controller's kSeqUpdateLogs push. Stale epochs are ignored.
  void InstallLogRegistry(uint64_t epoch, std::vector<LogRegistryEntry> entries);

  // --- introspection ---
  bool is_leader() const { return !config_.empty() && config_[0] == node_id(); }
  ViewId view() const { return view_; }
  bool sealed() const { return sealed_; }
  LogPos ordered_gp() const { return ordered_gp_; }
  // Assignment frontier: positions < assigned_gp_ have been handed to shard cursors
  // (but are not necessarily durable yet). Runtime-added shards bootstrap here.
  LogPos assigned_gp() const { return assigned_gp_; }
  LogPos stable_gp() const { return stable_gp_; }
  uint64_t unordered_size() const { return log_.size(); }
  // Ring occupancy as seen by the admission gate: unordered entries plus appends
  // already accepted but still queued for the sequencer CPU.
  uint64_t ring_occupancy() const { return log_.size() + pending_cpu_appends_; }
  bool admitting() const { return admitting_; }
  const OrdererStats& stats() const { return stats_; }
  OrdererStatsSnapshot StatsSnapshot() const;
  uint64_t log_epoch() const { return log_epoch_; }
  const std::map<LogId, LogRegistryEntry>& log_registry() const { return log_registry_; }
  const std::vector<NodeId>& config() const { return config_; }
  // Exposes the local log order for linearizability tests.
  std::vector<RecordId> LogIds() const;

  // Observer fired whenever view / last-ordered-gp / stable-gp change on this replica.
  // The chaos oracles (src/chaos/) subscribe to build monotonicity and read-gating
  // timelines without polling.
  using GpObserver = std::function<void(ViewId view, LogPos ordered_gp, LogPos stable_gp)>;
  void SetGpObserver(GpObserver observer) { gp_observer_ = std::move(observer); }

 private:
  struct Entry {
    RecordId id;
    Buf payload;  // shares the backing of the client's append message
    ShardId shard = 0;
    // Admission point (local ordered-gp + wall clock), for the follower scrub: an
    // entry the leader's gate shed is never ordered, so GC never collects it here.
    LogPos gp_at_admit = 0;
    SimTime admitted_at = 0;
    StreamTag tag = kNoTag;  // stream tag carried into the ordered record (Erwin-m)
    LogId log = kDefaultLog;  // owning phylog (per-log cursors + fairness accounting)
  };

  // Per-follower GC bookkeeping: ids ordered but not yet acknowledged-collected by the
  // follower. Stable-gp advances only once every follower has drained its queue — a
  // follower that keeps an already-ordered entry would re-bind it at a fresh position
  // if it later becomes the recovery replica (§4.5).
  struct FollowerGc {
    std::vector<WireRecordId> pending;
    LogPos acked_gp = 0;
    bool inflight = false;
  };

  // Per-phylog state: record-count frontiers (this log's records below ordered-gp /
  // stable-gp), tenant counters, the quota token bucket, and the DRR deficit. Kept in
  // an ordered map so every iteration (deficit replenish, snapshots) is deterministic.
  struct LogCursor {
    uint64_t unordered = 0;
    LogPos ordered = 0;
    LogPos stable = 0;
    uint64_t admitted = 0;
    uint64_t quota_rejected = 0;
    uint64_t drr_rejected = 0;
    double tokens = 0;       // quota bucket (appends); refilled lazily on admission
    SimTime tokens_at = 0;   // last refill time (0 = bucket not initialized yet)
    uint64_t deficit = 0;    // DRR credit; replenished each ordering tick
    uint64_t pending_cpu = 0;  // admitted appends still queued for the CPU charge
  };

  // Handlers.
  void HandleAppend(SeqAppendReq req, Responder r);
  void HandleGc(SeqGcReq req, Responder r);
  void HandleSeal(SeqSealReq req, Responder r);
  void HandleFlush(SeqFlushReq req, Responder r);
  void HandleStartView(SeqStartViewReq req, Responder r);
  void HandleCheckTail(const SeqCheckTailReq& req, Responder r);
  void HandleGetConfig(NoBody, Responder r);
  void HandleTrim(TrimMsg msg, Responder r);
  void HandleUpdateShards(SeqUpdateShardsReq req, Responder r);
  // Shard-primary failover (controller-driven promotion): beyond the node swap, the
  // leader resets the shard's cursor to the promoted backup's contiguous applied
  // frontier and re-pushes from there — the reconciliation handoff that re-delivers
  // acked-but-unordered metadata the new primary never saw.
  void HandleShardFailover(SeqShardFailoverReq req, Responder r);
  void HandleUpdateLogs(SeqUpdateLogsReq req, Responder r);

  // One per-shard ordering pipeline (§4.3 cursor redesign). The cursor sends adjacent
  // position windows [next_pos, …) with up to seq.order_pipeline_depth outstanding
  // (partial windows paced to the ack RTT), tracks the shard's durable watermark from
  // its acks, and retries independently of the other cursors with doubling backoff.
  // window_epoch orphans in-flight acks when the cursor resets to its watermark.
  struct ShardCursor {
    ShardId shard = 0;
    LogPos next_pos = 0;
    LogPos acked_watermark = 0;
    uint32_t in_flight = 0;
    uint64_t window_epoch = 0;
    uint32_t retry_attempts = 0;
    bool retry_armed = false;
    SimTime last_sent_at = 0;  // paces partial windows (see PumpCursor)
    uint64_t pushes = 0;
    uint64_t retries = 0;
  };

  // Background ordering (leader only).
  // Every (re-)arm of the ordering timer goes through here: one tick per
  // seq.ordering_interval_ns.
  void ScheduleOrderingTick();
  void OrderingTick();
  void RecordAckRtt(uint64_t rtt_ns);
  // Admission gate with hysteresis + the leader's DRR fairness stage; returns false
  // when the append must be refused with kOverloaded.
  bool AdmitAppend(const RecordId& id, LogId log);
  // Leader-only per-phylog token bucket, checked before the occupancy gate; returns
  // false when the append must be refused with kQuotaExceeded.
  bool AdmitQuota(const SeqAppendReq& req);
  // Leader-only, each ordering tick: every phylog's DRR deficit gains an equal share
  // of seq.max_order_batch (capped at fairness_burst_quanta shares).
  void ReplenishDeficits();
  // Cursor accessor; a freshly created log starts with one tick's deficit share.
  LogCursor& Cursor(LogId log);
  // Applies per-log ordered/stable-count checkpoints the stable frontier has passed.
  void DrainStableCheckpoints();
  void RememberRejected(const RecordId& id);
  void PruneRejected();
  // Follower-only: evict ring entries provably shed by the leader's gate (see .cc).
  void ScrubShedEntries();
  // Stamps global positions onto unassigned log entries (m-mode also freezes their
  // shard placement), advancing assigned_gp_.
  void AssignPositions();
  void PumpCursor(size_t s);
  // Timeout of one window push: kOrderPushTimeoutNs, or 4 ack RTTs if larger.
  uint64_t PushTimeoutNs() const;
  void OnWindowAck(size_t s, uint64_t epoch, ViewId window_view, SimTime sent_at,
                   const Status& status, Decoder body);
  void ArmCursorRetry(size_t s);
  // Advances ordered_gp_ to the min durable watermark across cursors, GCs the covered
  // entries locally, and queues follower GC.
  void AdvanceOrderedFromCursors();
  void ResetCursors(LogPos start);
  // Stamps shard placement on log entries at positions [lo, hi): Erwin-m places
  // position p on shard p mod n (§4.3); Erwin-st entries keep their data shard.
  void PlaceEntries(LogPos lo, LogPos hi);
  // One encoded ordering window and the method it goes out on.
  struct EncodedWindow {
    MethodId method = 0;
    EncodedMsg msg;
  };
  // Encodes the window `header` covers, read from log_, for `shard`: the shard's placed
  // records (Erwin-m) or the full metadata window (Erwin-st, the same for every shard).
  // The cursor pipeline and the recovery flush build their requests here.
  EncodedWindow EncodeWindow(ShardId shard, const OrderWindow& header) const;
  void SendFollowerGc(NodeId follower);
  void OnFollowerGcDone(NodeId follower, ViewId gc_view, LogPos sent_gp, size_t sent,
                        const Status& s);
  void AdvanceStableFromGc();
  void ArmGcRetry();
  void BroadcastStableGp();

  void NotifyGpObserver() {
    if (gp_observer_) {
      gp_observer_(view_, ordered_gp_, stable_gp_);
    }
  }

  // Duplicate filter: an id is filtered if currently in the log or recently ordered.
  bool IsDuplicate(const RecordId& id) const;
  void RememberOrdered(const std::vector<WireRecordId>& ids);
  void PruneRemembered();

  RpcEndpoint endpoint_;
  ServerCpu cpu_;
  SimParams params_;
  ErwinMode mode_;
  uint32_t index_;
  NodeId zk_node_;
  std::unique_ptr<ZkSession> zk_session_;

  ViewId view_ = 0;
  bool sealed_ = false;
  std::vector<NodeId> config_;
  std::vector<NodeId> shard_primaries_;
  std::vector<NodeId> all_shard_servers_;
  // Index-tier nodes: mirrored on stable-gp broadcasts and trims, fire-and-forget.
  std::vector<NodeId> index_nodes_;

  // The local log: the paper's ring buffer. Entries leave only via GC/flush. On the
  // leader, log_[i] holds position ordered_gp_ + i: positions in
  // [ordered_gp_, assigned_gp_) are assigned to cursor windows but not yet durable on
  // every shard, so their entries must stay resendable.
  std::deque<Entry> log_;
  LogPos ordered_gp_ = 0;   // count of globally ordered (min-watermark durable) records
  LogPos assigned_gp_ = 0;  // leader: count of position-assigned records
  LogPos stable_gp_ = 0;    // leader: count of stable records

  // Duplicate filtering (footnote in §4.3 and retry handling in §4.5): the ids in log_,
  // and the ids ordered within the retry window, expired in ordering order.
  FlatSet<RecordId, RecordIdHash> in_log_;
  FlatSet<RecordId, RecordIdHash> recently_ordered_;
  std::deque<std::pair<SimTime, RecordId>> ordered_expiry_;
  // Follower GC scratch: the ids one GC collects, reused across GCs.
  FlatSet<RecordId, RecordIdHash> gc_ids_;
  // Leader scratch for one ordered-gp advance, reused across advances: the ids it
  // orders, and its per-log record counts in log-id order.
  std::vector<WireRecordId> advance_ids_;
  std::vector<std::pair<LogId, uint64_t>> advance_per_log_;

  // Admission control: appends accepted but still queued for the sequencer CPU (they
  // occupy the ring the moment they are admitted, not when the core reaches them).
  uint64_t pending_cpu_appends_ = 0;
  bool admitting_ = true;
  // Recently refused ids, time-pruned; an admitted id found here is a client overload
  // retry (the overload_retried counter).
  FlatSet<RecordId, RecordIdHash> recently_rejected_;
  std::deque<std::pair<SimTime, RecordId>> rejected_expiry_;

  // Window-ack RTT EWMA; sets the pacing gap between partial windows.
  double ack_rtt_ewma_ns_ = 0;

  bool ordering_armed_ = false;
  // One ordering cursor per shard primary (parallel to shard_primaries_).
  std::vector<ShardCursor> cursors_;
  GpObserver gp_observer_;

  // Per-follower GC queues (see FollowerGc).
  std::unordered_map<NodeId, FollowerGc> follower_gc_;
  bool gc_retry_armed_ = false;

  // --- virtual-log layer ---
  // Phylog registry (controller-pushed quota table + tombstones), keyed by log id.
  std::map<LogId, LogRegistryEntry> log_registry_;
  uint64_t log_epoch_ = 0;
  // Per-phylog cursors (created lazily on first traffic; log 0 = the default log).
  std::map<LogId, LogCursor> log_cursors_;
  // Per-log ordered-count deltas at each ordered-gp advance, applied to the cursors'
  // stable counts once stable-gp passes the checkpointed position. One entry per log
  // an advance ordered records of, in log-id order within an advance.
  struct StableCheckpoint {
    LogPos ordered_gp = 0;
    LogId log = kDefaultLog;
    uint64_t records = 0;
  };
  std::deque<StableCheckpoint> stable_checkpoints_;
  // Last computed DRR share (seeds the deficit of logs that appear mid-tick).
  uint64_t drr_quantum_ = 0;

  // Flush idempotency: a retried flush (lost response) must return the same positions
  // and flushed ids, or client retries of the flushed records would bind twice.
  ViewId last_flush_view_ = 0;
  std::string last_flush_resp_;

  OrdererStats stats_;
};

}  // namespace lazylog

#endif  // SRC_SEQ_SEQUENCING_REPLICA_H_
