// Index node: the aggregator role of the stream-index tier. Each index node pulls
// tag-index deltas from every shard primary (kShardIndexDelta), merges them into
// per-tag sorted global-position lists, and answers ReadNext(tag, from) position
// lookups (kIndexReadNext). Everything it serves is doubly gated: shards only export
// positions below their stable frontier, and the node only answers below its merged
// coverage frontier (min across shards), so a selective read can never observe an
// unordered suffix or a gap in its stream. Index nodes register in ZK alongside the
// sequencing replicas and shards and are epoch-fenced like everything else: they
// accept kShardSeal fences and reject stable-gp advances stamped with sealed-off views.
#ifndef SRC_INDEX_INDEX_NODE_H_
#define SRC_INDEX_INDEX_NODE_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/params.h"
#include "src/common/status.h"
#include "src/control/zookeeper.h"
#include "src/index/index_messages.h"
#include "src/rpc/rpc.h"
#include "src/rpc/rpc_methods.h"
#include "src/sim/resources.h"
#include "src/storage/shard_messages.h"

namespace lazylog {

// Runtime statistics exposed to benches and tests.
struct IndexStats {
  uint64_t delta_pulls = 0;        // kShardIndexDelta round trips completed
  uint64_t merged_positions = 0;   // tag entries merged into per-tag lists
  uint64_t read_nexts = 0;         // kIndexReadNext requests served
  uint64_t served_positions = 0;   // positions returned across those requests
  uint64_t failed_pulls = 0;       // delta pulls that timed out / errored
};

// Point-in-time copy of the counters plus the merge frontiers; the single stats
// surface consumed by benches/tests, mirroring the orderer and shard snapshots.
struct IndexStatsSnapshot {
  IndexStats counters;
  uint32_t index_id = 0;
  ViewId view = 0;
  LogPos stable_gp = 0;
  LogPos indexed_upto = 0;       // contiguous coverage frontier (min across shards)
  uint64_t tags_tracked = 0;
  LogPos lag_vs_stable_gp = 0;   // stable_gp - indexed_upto
  BufStats buf;                  // global record-path copy/alias counters at capture time
  StatsFields Fields() const;
};

class IndexNode {
 public:
  // `zk` (optional, kInvalidNode to disable) hosts this node's liveness ephemeral.
  IndexNode(Network* net, const SimParams& params, uint32_t index,
            NodeId zk = kInvalidNode);

  NodeId node_id() const { return endpoint_.node_id(); }
  uint32_t index() const { return index_; }

  // Wires the shard primaries this node pulls deltas from and starts the pull timer
  // (and the ZK liveness session).
  void Start(std::vector<NodeId> shard_primaries);

  // Runtime shard addition: start pulling the new primary's index too.
  void AddShard(NodeId primary);

  // Shard-replica replacement: rewire a delta feed from the failed server.
  void ReplaceShardServer(NodeId old_node, NodeId new_node);

  // Simulates a crash: stop heartbeats (the network-level crash is done by the caller).
  void StopHeartbeats() { zk_session_ ? zk_session_->Stop() : void(); }

  // --- introspection (tests / benches; no wire latency) ---
  ViewId view() const { return view_; }
  LogPos stable_gp() const { return stable_gp_; }
  LogPos indexed_upto() const { return indexed_upto_; }
  uint64_t tags_tracked() const { return tags_.size(); }
  const IndexStats& stats() const { return stats_; }
  IndexStatsSnapshot StatsSnapshot() const;
  // Test hook: the merged (pos, shard) list for one stream (nullptr if untracked).
  // The (log, kNoTag) list is the phylog's rank list.
  const std::vector<std::pair<LogPos, ShardId>>* TagPositions(LogId log, StreamTag tag) const;
  const std::vector<std::pair<LogPos, ShardId>>* TagPositions(StreamTag tag) const {
    return TagPositions(kDefaultLog, tag);
  }

 private:
  // One pull feed per shard primary. next_seq is the shard-local journal cursor;
  // covered_below is the coverage this feed has durably merged (every position the
  // shard owns below it is in tags_).
  struct ShardFeed {
    NodeId primary = kInvalidNode;
    ShardId shard = 0;
    uint64_t next_seq = 0;
    LogPos covered_below = 0;
    bool inflight = false;
  };

  void HandleReadNext(const IndexReadNextReq& req, Responder r);
  // Notifications from the leader and the controller; none is answered.
  void HandleSetStableGp(const StableGpMsg& msg);
  void HandleSeal(const ShardSealReq& req);
  void HandleTrim(const TrimMsg& msg);

  bool FencedOff(ViewId view) const { return view < view_; }

  void SchedulePullTick();
  void PullTick();
  void PullShard(size_t s);
  void OnDelta(size_t s, const Status& status, ShardIndexDeltaResp resp);
  // Recomputes indexed_upto_ = min over feeds of covered_below (monotone).
  void AdvanceFrontier();

  RpcEndpoint endpoint_;
  ServerCpu cpu_;
  SimParams params_;
  uint32_t index_;
  NodeId zk_node_;
  std::unique_ptr<ZkSession> zk_session_;

  ViewId view_ = 0;
  LogPos stable_gp_ = 0;
  LogPos indexed_upto_ = 0;
  LogPos trimmed_below_ = 0;
  bool pulling_armed_ = false;

  std::vector<ShardFeed> feeds_;
  // (log, tag) -> ascending (global position, owning shard). Per-feed deltas arrive in
  // ascending position order; cross-shard interleaving occasionally inserts mid-list.
  // tag == kNoTag entries (valid only for named logs) are the per-phylog rank lists.
  // Ordered map so iteration (trim sweeps, snapshots) is deterministic.
  std::map<std::pair<LogId, StreamTag>, std::vector<std::pair<LogPos, ShardId>>> tags_;

  IndexStats stats_;
};

}  // namespace lazylog

#endif  // SRC_INDEX_INDEX_NODE_H_
