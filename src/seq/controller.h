// The stateless controller of Erwin's control plane (§4.5). Watches the sequencing
// replicas' liveness ephemerals in ZooKeeperLite; on a failure it seals the old view,
// fences every storage shard into the new epoch, has a recovery replica flush its
// unordered log to the shards, persists the new configuration to ZooKeeper, advances
// stable-gp, and starts the new view. Every step retries under partitions: the
// controller assumes links heal eventually and never trades consistency for progress
// (a deposed leader is kept out by the shard fence, not by reachability).
//
// The controller also owns shard membership: the replica matrix is persisted to
// ZooKeeper ("/shards/config", versioned by an epoch) and replica replacement flows
// through ReplaceShardReplica — state copy over RPC, config write, then re-wiring the
// sequencing replicas — instead of test-only direct object surgery.
#ifndef SRC_SEQ_CONTROLLER_H_
#define SRC_SEQ_CONTROLLER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/params.h"
#include "src/control/zookeeper.h"
#include "src/rpc/rpc.h"
#include "src/seq/seq_messages.h"
#include "src/storage/shard_messages.h"

namespace lazylog {

// Wall-clock breakdown of the last reconfiguration (Fig 17b).
struct ReconfigTiming {
  SimTime crash_at = 0;       // set by the test/bench at injection time
  SimTime detected_at = 0;    // ZK watch fired
  SimTime sealed_at = 0;      // all live replicas sealed + all shards fenced
  SimTime flushed_at = 0;     // recovery replica finished flushing
  SimTime view_written_at = 0;  // new config durable in ZK
  SimTime new_view_at = 0;    // StartView delivered; appends can resume
  bool complete = false;
};

// Wall-clock breakdown of the last shard-primary failover (promotion protocol).
struct ShardFailoverTiming {
  uint32_t shard = 0;
  SimTime crash_at = 0;     // set by the test/bench at injection time
  SimTime detected_at = 0;  // PromoteShardPrimary entered
  SimTime sealed_at = 0;    // every surviving replica promo-sealed + reported
  SimTime handoff_at = 0;   // new primary flipped (catch-up + back-fill dispatched)
  SimTime opened_at = 0;    // orderer retargeted + config published; appends resume
  NodeId old_primary = kInvalidNode;
  NodeId new_primary = kInvalidNode;
  LogPos reset_upto = 0;    // orderer cursor reset point (new primary's applied frontier)
  bool complete = false;
};

// Point-in-time control-plane counters; the single stats surface consumed by
// benches/tests, mirroring the orderer and shard snapshots.
struct ControllerStatsSnapshot {
  ViewId view = 0;
  uint64_t shard_epoch = 0;
  uint64_t reconfigurations = 0;       // completed sequencing-view changes
  uint64_t promotions = 0;             // completed shard-primary failovers
  uint64_t last_seal_to_open_ns = 0;   // last promotion: sealed_at -> opened_at
  uint64_t last_detect_to_open_ns = 0; // last promotion: detected_at -> opened_at
  StatsFields Fields() const;
};

class Controller {
 public:
  Controller(Network* net, const SimParams& params, NodeId zk_node);

  NodeId node_id() const { return endpoint_.node_id(); }

  // `seq_replicas[i]` must own the ephemeral "/seq/replicas/<i>". `shards[s]` is shard
  // s's replica list with `shards[s][0]` the primary; the controller persists it to
  // "/shards/config" and drives every later membership change through it.
  void Start(std::vector<NodeId> seq_replicas, NodeId initial_leader,
             std::vector<std::vector<NodeId>> shards);

  // Controller-driven shard-membership change (§5.4 through the control plane): the
  // replacement server (already reachable on the network) copies state from the shard's
  // primary over RPC, the new membership is persisted to ZK under a bumped epoch, and
  // the sequencing replicas re-wire their push/broadcast lists via kSeqUpdateShards.
  // Clients learn by refreshing "/shards/config". `done` fires once the sequencing
  // layer has adopted the change.
  void ReplaceShardReplica(uint32_t shard, uint32_t replica_index, NodeId new_node,
                           std::function<void(Status)> done = nullptr);

  // Controller-driven shard *primary* failover: promote the most-complete surviving
  // backup under a bumped promotion epoch. Protocol: promo-seal every survivor (the
  // seal ack doubles as a completeness report), pick the highest contiguous applied
  // frontier, install the new replica order on the peers and then the new primary
  // (which catches lagging peers up and back-fills its pending payload bindings), reset
  // the orderer's per-shard cursor to the new primary's frontier via kSeqShardFailover
  // (the leader re-pushes the acked-but-unordered metadata tail — the reconciliation
  // handoff), and finally publish the shrunken replica order + promotion epoch through
  // ZK "/shards/config". Serialized per shard against ReplaceShardReplica: a promotion
  // that races an in-flight backup replacement queues behind it.
  void PromoteShardPrimary(uint32_t shard, std::function<void(Status)> done = nullptr);

  // Registers a runtime-added shard (Erwin-st §6.9) so fences cover it and clients can
  // discover it from "/shards/config".
  void AddShard(std::vector<NodeId> replicas);

  // Registers the index tier. Index nodes are fenced and given the recovery stable-gp
  // fire-and-forget: the index serves nothing a stale leader could corrupt (its
  // coverage frontier is driven by the — properly fenced — shards' exports), so
  // reconfiguration must not block on an unreachable index node.
  void SetIndexNodes(std::vector<NodeId> nodes) { index_nodes_ = std::move(nodes); }

  // --- virtual-log registry (phylogs) -----------------------------------------------
  // Registers a named log and returns its id immediately (ids are assigned
  // synchronously and never reused); the registry write to ZK "/logs/config" and the
  // kSeqUpdateLogs push to the sequencing replicas proceed asynchronously, and `done`
  // fires once every live replica has adopted the new table (quota enforcement is
  // leader-only, so appends admitted before adoption are merely unthrottled, never
  // unsafe). Re-creating a live name returns the existing id. `quota_per_sec` caps the
  // log's admitted appends/s at the leader; 0 = unlimited.
  LogId CreateLog(const std::string& name, uint64_t quota_per_sec = 0,
                  std::function<void(Status)> done = nullptr);
  // Tombstones the named log: the id stays reserved, the leader refuses new appends.
  void DeleteLog(const std::string& name, std::function<void(Status)> done = nullptr);
  const std::vector<LogRegistryEntry>& log_registry() const { return log_registry_; }
  uint64_t log_epoch() const { return log_epoch_; }

  // Fired after each completed reconfiguration (tests and Fig 17 use this).
  void OnReconfigured(std::function<void(const ReconfigTiming&)> cb) {
    on_reconfigured_ = std::move(cb);
  }

  ViewId view() const { return view_; }
  uint64_t shard_epoch() const { return shard_epoch_; }
  const ReconfigTiming& last_timing() const { return timing_; }
  const ShardFailoverTiming& last_failover_timing() const { return failover_timing_; }
  uint64_t shard_promotions() const { return promotions_; }
  const std::vector<NodeId>& current_config() const { return config_; }
  const std::vector<std::vector<NodeId>>& shards() const { return shards_; }
  ControllerStatsSnapshot StatsSnapshot() const;

 private:
  void OnReplicaDown(const std::string& path);
  void RunReconfiguration();
  // Seals the live old-view sequencing replicas and fences every shard server into
  // view_+1, in parallel; retries with backoff until at least one replica is sealed and
  // every (still-member) shard server acked the fence.
  void SealAll(uint32_t attempt);
  void FenceShards(ViewId fence_view, std::shared_ptr<std::set<NodeId>> pending,
                   std::function<void()> done);
  void FlushRecovery(const std::vector<NodeId>& live, NodeId recovery);
  void FinishView(std::vector<NodeId> new_config, LogPos ordered_gp,
                  std::vector<WireRecordId> flushed_ids);
  // Background re-seal of old-view members that did not ack the seal in time (e.g. a
  // leader partitioned from the controller but not from clients). Uses the current
  // view so the target's "stale seal" check passes.
  void ResealLoop();
  // ZK watch notifications are droppable; periodically reconcile the ephemeral listing
  // against the current config and synthesize the missed failure events.
  void ReconcilePoll();
  void WriteShardConfig(std::function<void()> done);
  std::string EncodeShardConfig() const;
  // Persists the log registry to "/logs/config" and pushes it to every live sequencing
  // replica via kSeqUpdateLogs; `done` fires once the push settled.
  void PublishLogRegistry(std::function<void(Status)> done);
  std::vector<NodeId> AllShardServers() const;

  // Per-shard membership-op serialization: a promotion racing an in-flight backup
  // replacement (or vice versa) queues until the earlier op finishes.
  void BeginShardOp(uint32_t shard, std::function<void()> op);
  void EndShardOp(uint32_t shard);
  void DoReplaceShardReplica(uint32_t shard, NodeId old_node, NodeId new_node,
                             std::function<void(Status)> done);
  // Promotion state machine steps.
  struct PromoState;
  void DoPromoteShardPrimary(uint32_t shard, std::function<void(Status)> done);
  void PromoSealRound(std::shared_ptr<PromoState> st, uint32_t attempt);
  void SelectAndPromote(std::shared_ptr<PromoState> st);
  void SendPromote(const PromoState& st, NodeId target, std::function<void(Status, LogPos)> cb);
  void FinishPromotion(std::shared_ptr<PromoState> st);
  // Re-points the index tier's delta feeds at the promoted primary; fire-and-forget
  // with bounded retries (the index is an access path, never an ack dependency).
  void UpdateIndexShards(NodeId old_node, NodeId new_node, uint32_t attempt);

  // --- the control plane's one retry primitive -----------------------------------------
  // Per-attempt timeout, backoff before each resend, and attempt limit.
  struct RetryPolicy {
    static constexpr uint32_t kUnbounded = 0;
    uint64_t attempt_timeout_ns;
    uint64_t backoff_ns;
    uint32_t max_attempts;
  };
  // Judges one reply (decoded as a `Resp`; NoBody for a status-only reply) at reply
  // time: true settles the call, false asks for a resend. A reply that fails to decode
  // arrives as a non-OK status.
  template <typename Resp>
  using ReplyHandler = std::function<bool(const Status&, Resp&)>;
  // Calls `method` on `target` with `req` until `on_reply` settles it, resending the same
  // request `backoff_ns` after each unsettled reply. Once `max_attempts` replies went
  // unsettled, `on_exhausted` gets the last status instead. Each resend re-enters this
  // member function, so no closure ever holds a reference to itself.
  template <typename Resp, typename Req>
  void CallRetrying(NodeId target, MethodId method, Req req, RetryPolicy policy,
                    ReplyHandler<Resp> on_reply, std::function<void(Status)> on_exhausted,
                    uint32_t attempt = 0);
  // Sends `req` to every sequencing replica not known dead, each with up to 10 attempts
  // 2 ms apart; a member stops being retried once it is known dead. `done` fires once
  // every member settled.
  template <typename Req>
  void FanOutToSeq(MethodId method, const Req& req, std::function<void(Status)> done);
  // Unconditional ZK write of `path`, retried every kZkRetryNs until ZK acks it. `encode`
  // runs again on every attempt, so a retry persists the state current at that time.
  void ZkWriteUntilOk(const std::string& path, std::function<std::string()> encode,
                      std::function<void()> done);

  RpcEndpoint endpoint_;
  SimParams params_;
  ZkClient zk_;
  std::vector<NodeId> seq_replicas_;  // all ever-registered replicas, by index
  std::vector<NodeId> config_;        // current view's config; config_[0] = leader
  std::vector<std::vector<NodeId>> shards_;  // shard -> replica list, [0] = primary
  std::vector<uint64_t> shard_promo_epochs_; // shard -> promotion epoch (starts 0)
  std::vector<NodeId> index_nodes_;          // index tier (fenced fire-and-forget)
  uint64_t shard_epoch_ = 1;
  // Named-log registry (tombstones included); ids count up from 1 (0 = physical log).
  std::vector<LogRegistryEntry> log_registry_;
  uint64_t log_epoch_ = 0;
  LogId next_log_id_ = 1;
  // Shard servers known failed (a crashed primary awaiting/after promotion): the
  // reconfiguration fence and membership ops stop waiting on their acks.
  std::set<NodeId> dead_shard_servers_;
  std::set<uint32_t> shard_busy_;
  std::map<uint32_t, std::vector<std::function<void()>>> shard_op_queue_;
  uint64_t promotions_ = 0;
  uint64_t reconfigurations_ = 0;
  ShardFailoverTiming failover_timing_;
  ViewId view_ = 0;
  bool reconfiguring_ = false;
  bool pending_failure_ = false;
  // Nodes known dead (their liveness ephemerals vanished); skipped when sealing.
  std::set<NodeId> known_dead_;
  // Live old-view members that have not acked a seal yet (asymmetric partitions),
  // mapped to the view they must be sealed out of.
  std::map<NodeId, ViewId> reseal_pending_;
  bool reseal_armed_ = false;
  // Ephemeral paths ever observed by ReconcilePoll; a path is only treated as a missed
  // failure once it has been seen and then vanished.
  std::set<std::string> seen_paths_;
  // Consecutive polls each configured replica has spent with no ephemeral ever seen;
  // past a grace limit the replica is declared failed (it died before registering).
  std::map<std::string, uint32_t> unregistered_polls_;
  ReconfigTiming timing_;
  std::function<void(const ReconfigTiming&)> on_reconfigured_;
};

}  // namespace lazylog

#endif  // SRC_SEQ_CONTROLLER_H_
