// From-scratch Scalog baseline (§2.2, Figure 1a). Clients append to a shard primary,
// which logs and FIFO-replicates to its backup; every interleaving interval (0.1 ms, as
// in the paper) the shard servers report their durable log lengths to the ordering
// layer, which forms a global cut, commits it via Paxos, and disseminates it; only then
// are appends acknowledged. The pipeline — local ordering, batching, cut coordination —
// is exactly the eager-ordering cost LazyLog removes.
#ifndef SRC_BASELINES_SCALOG_SCALOG_H_
#define SRC_BASELINES_SCALOG_SCALOG_H_

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "src/baselines/scalog/paxos.h"
#include "src/common/params.h"
#include "src/lazylog/read_path.h"
#include "src/lazylog/shared_log_client.h"
#include "src/sim/resources.h"
#include "src/storage/segmented_log.h"

namespace lazylog {

// Primary -> backup FIFO replication of the record at local index `local`.
struct ScalogReplicateReq {
  uint64_t local = 0;
  Record record;
  template <class Ar> void Wire(Ar& ar) { ar(local, record); }
};
// Shard server -> ordering leader: its durable log length.
struct ScalogReportCutReq {
  uint32_t shard = 0;
  uint32_t server = 0;  // 0 = primary, 1 = backup
  uint64_t len = 0;
  template <class Ar> void Wire(Ar& ar) { ar(shard, server, len); }
};
// Ordering leader -> shard servers: one shard's share of a committed cut.
struct CutRange {
  uint64_t shard = 0;
  uint64_t global_start = 0;
  uint64_t local_start = 0;
  uint64_t count = 0;
  template <class Ar> void Wire(Ar& ar) { ar(shard, global_start, local_start, count); }
};
// Client -> shard: read local index `local`, labelled with global position `global`.
struct ScalogReadReq {
  uint64_t local = 0;
  uint64_t global = 0;
  template <class Ar> void Wire(Ar& ar) { ar(local, global); }
};
// Ordering leader -> client: where a global position lives (the request is the bare
// u64 position).
struct ScalogLocateResp {
  uint32_t shard = 0;
  uint64_t local = 0;
  template <class Ar> void Wire(Ar& ar) { ar(shard, local); }
};

// One Scalog shard server (primary or backup).
class ScalogShardServer {
 public:
  ScalogShardServer(Network* net, const SimParams& params, ShardId shard_id, bool primary);

  NodeId node_id() const { return endpoint_.node_id(); }
  // Wires the backup (primary only) and the ordering leader, then starts cut reports.
  void Start(NodeId backup, NodeId ordering_leader, uint32_t server_index);

  uint64_t durable_len() const { return durable_len_; }
  uint64_t acked_appends() const { return acked_appends_; }

 private:
  void HandleAppend(Record rec, Responder r);
  // Notifications (primary -> backup, ordering layer -> servers); neither is answered.
  void HandleReplicate(ScalogReplicateReq req);
  void HandleCommitCut(const std::vector<CutRange>& ranges);
  void HandleRead(const ScalogReadReq& req, Responder r);
  void ReportLoop();

  RpcEndpoint endpoint_;
  ServerCpu cpu_;
  Disk disk_;
  SimParams params_;
  ShardId shard_id_;
  bool primary_;
  NodeId backup_ = kInvalidNode;
  NodeId ordering_leader_ = kInvalidNode;
  uint32_t server_index_ = 0;

  SegmentedLog log_;
  uint64_t durable_len_ = 0;  // records persisted (reported to the ordering layer)
  uint64_t acked_len_ = 0;    // records already covered by a committed cut
  uint64_t acked_appends_ = 0;
  std::deque<std::pair<uint64_t, Responder>> pending_;  // local index -> client responder
  std::map<uint64_t, Record> reorder_buf_;              // backup: out-of-order replication
  // Committed cut ranges: (global_start, local_start, count) for this shard.
  std::vector<std::array<uint64_t, 3>> ranges_;
};

// The Paxos-backed ordering layer leader. Aggregates per-server durable lengths,
// computes global cuts, commits them, and disseminates assignments.
class ScalogOrderingLayer {
 public:
  ScalogOrderingLayer(Network* net, const SimParams& params, uint32_t num_shards);

  NodeId node_id() const { return endpoint_.node_id(); }
  // `servers[i]` are all shard servers (primaries and backups) to disseminate cuts to;
  // reports arrive tagged with (shard, server) indices.
  void Start(std::vector<NodeId> acceptors, std::vector<NodeId> servers);

  LogPos total_ordered() const { return total_; }
  uint64_t cuts_committed() const { return cuts_committed_; }

  // Locate `pos`: returns (shard, local index) via the assignment history.
  bool Locate(LogPos pos, ShardId* shard, uint64_t* local) const;

 private:
  void CutLoop();
  void CommitCut(std::vector<uint64_t> cut);

  RpcEndpoint endpoint_;
  ServerCpu cpu_;
  SimParams params_;
  uint32_t num_shards_;
  std::unique_ptr<PaxosProposer> proposer_;
  std::vector<NodeId> servers_;
  // reported_[shard][server_in_shard] = durable length.
  std::vector<std::vector<uint64_t>> reported_;
  std::vector<uint64_t> committed_cut_;  // per-shard committed prefix length
  // Assignment history per shard: (global_start, local_start, count).
  std::vector<std::vector<std::array<uint64_t, 3>>> history_;
  LogPos total_ = 0;
  uint64_t next_slot_ = 0;
  uint64_t cuts_committed_ = 0;
  bool cut_in_flight_ = false;
};

// Scalog client: eager-ordering SharedLogClient. Appends go to a client-chosen shard.
class ScalogClient : public SharedLogClient {
 public:
  ScalogClient(Network* net, const SimParams& params, NodeId ordering_leader,
               std::vector<NodeId> shard_primaries, ClientId client_id);

 protected:
  // --- SharedLogClient (reached through LogHandle). Tag and phylog id ride inside the
  // record so the base-class scan fallbacks can serve ReadNext and the named-log reads
  // (Scalog has no index tier).
  void Append(const AppendOptions& options, Buf payload, AppendCallback cb) override;
  void Read(LogPos from, uint64_t len, ReadCallback cb) override;
  void CheckTail(TailCallback cb) override;
  void Trim(LogPos index, TrimCallback cb) override;

 private:
  RpcEndpoint endpoint_;
  SimParams params_;
  NodeId ordering_leader_;
  std::vector<NodeId> shard_primaries_;
  ClientId client_id_;
  RequestId next_request_id_ = 1;
  uint64_t rr_cursor_ = 0;
};

// Whole-cluster assembly: shards (primary+backup), 3 Paxos acceptors, ordering leader.
class ScalogCluster {
 public:
  ScalogCluster(uint32_t num_shards, const SimParams& params);

  EventLoop& loop() { return loop_; }
  std::unique_ptr<ScalogClient> MakeClient();
  ScalogOrderingLayer& ordering() { return *ordering_; }
  void RunFor(uint64_t ns) { loop_.RunUntil(loop_.Now() + ns); }

 private:
  SimParams params_;
  EventLoop loop_;
  std::unique_ptr<Network> net_;
  std::vector<std::unique_ptr<PaxosAcceptor>> acceptors_;
  std::unique_ptr<ScalogOrderingLayer> ordering_;
  std::vector<std::unique_ptr<ScalogShardServer>> primaries_;
  std::vector<std::unique_ptr<ScalogShardServer>> backups_;
  ClientId next_client_id_ = 1;
};

}  // namespace lazylog

#endif  // SRC_BASELINES_SCALOG_SCALOG_H_
