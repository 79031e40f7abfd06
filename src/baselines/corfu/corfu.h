// From-scratch Corfu baseline (§2.2, Figure 1b): a sequencer hands out positions
// (an optimization, not a binding); the client then binds the record by writing it
// through the storage unit chain of shard (pos mod n), client-driven and serial. With
// three replicas an append costs 4 RTTs — the eager-ordering latency Erwin avoids.
#ifndef SRC_BASELINES_CORFU_CORFU_H_
#define SRC_BASELINES_CORFU_CORFU_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/params.h"
#include "src/lazylog/cluster_view.h"
#include "src/lazylog/read_path.h"
#include "src/lazylog/shared_log_client.h"
#include "src/rpc/rpc.h"
#include "src/rpc/rpc_methods.h"
#include "src/sim/resources.h"
#include "src/storage/segmented_log.h"

namespace lazylog {

// kCorfuTail request: empty for a tail query; a client that finished a chain write
// reports the completed position count, which advances the committed tail.
struct CorfuTailReq {
  bool report = false;
  uint64_t completed = 0;
  template <class Ar> void Wire(Ar& ar) { ar(TrailingU64{report, completed}); }
};
struct CorfuTailResp {
  uint64_t next_pos = 0;
  uint64_t committed = 0;
  template <class Ar> void Wire(Ar& ar) { ar(next_pos, committed); }
};
// Chain write of `record` at `pos` (write-once).
struct CorfuWriteReq {
  uint64_t pos = 0;
  Record record;
  template <class Ar> void Wire(Ar& ar) { ar(pos, record); }
};
// Read of `pos`; without `nowait` an unwritten position holds the reply until written.
struct CorfuReadReq {
  uint64_t pos = 0;
  bool nowait = false;
  template <class Ar> void Wire(Ar& ar) { ar(pos, nowait); }
};

// Hands out monotonically increasing log positions; also tracks the committed tail
// (clients report completed chain writes so checkTail can answer).
class CorfuSequencer {
 public:
  explicit CorfuSequencer(Network* net, const SimParams& params);

  NodeId node_id() const { return endpoint_.node_id(); }
  LogPos next_pos() const { return next_pos_; }

 private:
  RpcEndpoint endpoint_;
  ServerCpu cpu_;
  LogPos next_pos_ = 0;
  LogPos committed_ = 0;  // max contiguous... tracked as count of completed writes
};

// One storage unit (chain member) of a Corfu shard. Stores position -> record; a
// position is immutable once written (write-once semantics).
class CorfuStorageUnit {
 public:
  CorfuStorageUnit(Network* net, const SimParams& params, ShardId shard_id);

  NodeId node_id() const { return endpoint_.node_id(); }
  uint64_t stored() const { return static_cast<uint64_t>(store_.size()); }

 private:
  void HandleWrite(CorfuWriteReq req, Responder r);
  void HandleRead(const CorfuReadReq& req, Responder r);

  RpcEndpoint endpoint_;
  ServerCpu cpu_;
  Disk disk_;
  std::unordered_map<LogPos, Record> store_;
  struct ReadWaiter {
    LogPos pos;
    Responder responder;
  };
  std::vector<ReadWaiter> waiters_;
};

// Corfu client: eager-ordering SharedLogClient.
class CorfuClient : public SharedLogClient {
 public:
  // `chains[s]` is the storage-unit chain (head..tail) of shard s.
  CorfuClient(Network* net, const SimParams& params, NodeId sequencer,
              std::vector<std::vector<NodeId>> chains, ClientId client_id);

  // Appends and reports the eagerly bound position (Corfu's native interface).
  using AppendPosCallback = std::function<void(Status, LogPos)>;
  void AppendAt(Buf payload, AppendPosCallback cb);
  void AppendAt(StreamTag tag, Buf payload, AppendPosCallback cb) {
    AppendAt(AppendOptions{.tag = tag}, std::move(payload), std::move(cb));
  }
  void AppendAt(const AppendOptions& options, Buf payload, AppendPosCallback cb);

 protected:
  // --- SharedLogClient (reached through LogHandle). Tag and phylog id ride inside the
  // record, so the base-class scan fallbacks (Corfu has no index tier) can project
  // streams and per-log rank spaces.
  void Append(const AppendOptions& options, Buf payload, AppendCallback cb) override;
  void Read(LogPos from, uint64_t len, ReadCallback cb) override;
  void CheckTail(TailCallback cb) override;
  void Trim(LogPos index, TrimCallback cb) override;

 private:
  void ChainWrite(LogPos pos, std::shared_ptr<Record> record, size_t hop,
                  AppendPosCallback cb);

  RpcEndpoint endpoint_;
  SimParams params_;
  NodeId sequencer_;
  std::vector<std::vector<NodeId>> chains_;
  ClientId client_id_;
  RequestId next_request_id_ = 1;
};

// Whole-cluster assembly for tests/benches.
class CorfuCluster {
 public:
  CorfuCluster(uint32_t num_shards, uint32_t chain_length, const SimParams& params);

  EventLoop& loop() { return loop_; }
  Network& network() { return *net_; }
  std::unique_ptr<CorfuClient> MakeClient();
  void RunFor(uint64_t ns) { loop_.RunUntil(loop_.Now() + ns); }

 private:
  SimParams params_;
  EventLoop loop_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<CorfuSequencer> sequencer_;
  std::vector<std::vector<std::unique_ptr<CorfuStorageUnit>>> chains_;
  ClientId next_client_id_ = 1;
};

}  // namespace lazylog

#endif  // SRC_BASELINES_CORFU_CORFU_H_
