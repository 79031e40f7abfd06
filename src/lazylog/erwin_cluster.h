// One-object assembly of a complete Erwin deployment on the simulated testbed: event
// loop, network, ZooKeeperLite + controller (optional), sequencing replicas, storage
// shards, and client factories. Tests, benches, and examples build everything through
// this.
#ifndef SRC_LAZYLOG_ERWIN_CLUSTER_H_
#define SRC_LAZYLOG_ERWIN_CLUSTER_H_

#include <memory>
#include <vector>

#include "src/common/params.h"
#include "src/control/zookeeper.h"
#include "src/lazylog/cluster_view.h"
#include "src/lazylog/erwin_m_client.h"
#include "src/lazylog/erwin_st_client.h"
#include "src/index/index_node.h"
#include "src/seq/controller.h"
#include "src/seq/sequencing_replica.h"
#include "src/sim/network.h"
#include "src/storage/shard_server.h"

namespace lazylog {

struct ErwinClusterOptions {
  ErwinMode mode = ErwinMode::kM;
  uint32_t num_shards = 1;
  uint32_t shard_replication = 3;  // replicas per shard (paper: 2 or 3)
  // Index-tier aggregators (selective reads). 1 by default so ReadNext works out of
  // the box; 0 disables the tier (clients scan-fall-back).
  uint32_t num_index_nodes = 1;
  bool with_control_plane = true;  // ZooKeeperLite + controller (needed for §4.5 tests)
  SimParams params;
};

class ErwinCluster {
 public:
  explicit ErwinCluster(const ErwinClusterOptions& options);
  ~ErwinCluster();

  ErwinCluster(const ErwinCluster&) = delete;
  ErwinCluster& operator=(const ErwinCluster&) = delete;

  EventLoop& loop() { return loop_; }
  Network& network() { return *net_; }
  const SimParams& params() const { return options_.params; }
  ErwinMode mode() const { return options_.mode; }

  // Client factories. Clients are owned by the caller but must not outlive the cluster.
  std::unique_ptr<ErwinMClient> MakeMClient();
  std::unique_ptr<ErwinStClient> MakeStClient();
  // Mode-dispatched factory for code that only needs the shared Erwin client surface.
  std::unique_ptr<ErwinClient> MakeClient();

  // Current topology for hand-built clients.
  ClusterView MakeView() const;

  // --- virtual logs ---------------------------------------------------------------------
  // Registers a named log (id assigned synchronously, never reused) with an optional
  // per-tenant quota (admitted appends/s at the leader; 0 = unlimited). With a control
  // plane the registry propagates through the controller (ZK "/logs/config" +
  // kSeqUpdateLogs) on the event loop; without one it is installed on the replicas
  // directly. Clients built afterwards see it in their view; earlier clients resolve
  // names via Open()'s ZK fallback or an explicit InstallLogRegistry.
  LogId CreateLog(const std::string& name, uint64_t quota_per_sec = 0);
  // Tombstones the named log: the id stays reserved and the leader refuses new appends.
  void DeleteLog(const std::string& name);
  const std::vector<LogRegistryEntry>& log_registry() const;

  // --- runtime operations -------------------------------------------------------------
  // Crashes sequencing replica `index` (network drop + heartbeat stop). The control
  // plane detects and reconfigures; watch via controller().
  void CrashSeqReplica(uint32_t index);
  // Crashes index node `index` (network drop + heartbeat stop). Selective reads routed
  // to it fail over to the scan fallback; the log itself is unaffected.
  void CrashIndexNode(uint32_t index);
  // Adds a shard at runtime (Erwin-st). Returns its replica node ids; existing
  // ErwinStClients must be told via AddShard().
  std::vector<NodeId> AddShard();
  // Replaces a failed (non-primary) shard replica with a fresh server that copies both
  // ordered and unordered records from a live replica (§5.4). The old node is crashed,
  // the new one installed in the replica set and the orderers' broadcast lists.
  // Returns the new server's node id. Clients built before the replacement keep the old
  // membership in their view; Erwin-st writers must be given the new view (deployments
  // would push shard membership through the control plane).
  NodeId ReplaceShardReplica(uint32_t shard, uint32_t replica_index);
  // Crashes shard `shard`'s primary and drives a controller-led promotion of the
  // most-complete surviving backup (ordered handoff of the acked-but-unordered tail).
  // Shard servers keep no liveness ephemerals, so detection is modelled as two session
  // heartbeats of silence before the controller reacts — fig17 and the chaos oracles
  // see a realistic detect->seal->handoff->open breakdown. Requires the control plane
  // and at least one backup. Returns the crashed node id.
  NodeId CrashShardPrimary(uint32_t shard);
  // Same promotion, but the primary is isolated (all server-side links severed, the
  // process keeps running) instead of crashed: the zombie keeps firing no-op timers
  // and replication attempts, which the promotion epoch + sender fencing must render
  // harmless. Returns the isolated node id.
  NodeId IsolateShardPrimary(uint32_t shard);

  // --- accessors for tests/benches ------------------------------------------------------
  SequencingReplica& seq_replica(uint32_t i) { return *seq_replicas_[i]; }
  uint32_t num_seq_replicas() const { return static_cast<uint32_t>(seq_replicas_.size()); }
  ShardServer& shard(uint32_t s, uint32_t r) { return *shards_[s][r]; }
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  uint32_t shard_replication() const { return options_.shard_replication; }
  // Current replica count of shard `s`. Starts at shard_replication() but shrinks when
  // a primary failover drops the deposed node (and any non-sealing survivor) from the
  // committed order — callers gridding (shard, replica) slots must re-check this.
  uint32_t shard_size(uint32_t s) const { return static_cast<uint32_t>(shards_[s].size()); }
  IndexNode& index_node(uint32_t i) { return *index_nodes_[i]; }
  uint32_t num_index_nodes() const { return static_cast<uint32_t>(index_nodes_.size()); }
  Controller* controller() { return controller_.get(); }
  ZooKeeperLite* zookeeper() { return zk_.get(); }
  // The sequencing leader in the *current* view (asks the controller if present).
  SequencingReplica& leader();

  // Runs the simulation.
  void RunFor(uint64_t ns) { loop_.RunUntil(loop_.Now() + ns); }
  void RunUntilIdle() { loop_.RunUntilIdle(); }

 private:
  std::vector<NodeId> AllShardServers() const;
  std::vector<NodeId> ShardPrimaries() const;
  std::vector<NodeId> IndexNodeIds() const;
  // Schedules the detection delay + controller promotion after the primary failed.
  void DrivePromotion(uint32_t shard);
  // Direct registry install for control-plane-less clusters.
  void InstallLogRegistryOnReplicas();
  // Mirrors the controller's committed post-promotion order in the harness's own
  // matrix (accessors, MakeView) and retires servers dropped from the set.
  void AdoptPromotedOrder(uint32_t shard);

  ErwinClusterOptions options_;
  EventLoop loop_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<ZooKeeperLite> zk_;
  std::unique_ptr<Controller> controller_;
  std::vector<std::unique_ptr<SequencingReplica>> seq_replicas_;
  std::vector<std::vector<std::unique_ptr<ShardServer>>> shards_;
  std::vector<std::unique_ptr<IndexNode>> index_nodes_;
  // Replaced shard servers are kept alive (crashed, inert) because their periodic
  // timers may still be scheduled on the event loop.
  std::vector<std::unique_ptr<ShardServer>> retired_shards_;
  // Named-log registry for clusters without a control plane (the controller owns it
  // otherwise); ids count up from 1 (0 = physical log).
  std::vector<LogRegistryEntry> log_registry_;
  uint64_t log_epoch_ = 0;
  LogId next_log_id_ = 1;
  ClientId next_client_id_ = 1;
};

}  // namespace lazylog

#endif  // SRC_LAZYLOG_ERWIN_CLUSTER_H_
