// KafkaLite: a Kafka-style per-shard-ordering shared log (§2.1-2.2). A partition has a
// leader and followers; producers batch client-side (linger) and the leader acknowledges
// only after all replicas persist (acks=all). Standalone it exhibits Kafka's ms-scale
// append latencies (Fig 15); through KafkaShardAdapter it serves as an unmodified
// black-box shard under Erwin-m, which then delivers total order across Kafka shards at
// sequencing-layer latencies (§6.8).
#ifndef SRC_BASELINES_KAFKALITE_KAFKALITE_H_
#define SRC_BASELINES_KAFKALITE_KAFKALITE_H_

#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/params.h"
#include "src/rpc/rpc.h"
#include "src/rpc/rpc_methods.h"
#include "src/sim/resources.h"
#include "src/storage/segmented_log.h"
#include "src/storage/shard_messages.h"

namespace lazylog {

// Consumer fetch of up to `max_records` records starting at `offset`.
struct KafkaFetchReq {
  uint64_t offset = 0;
  uint32_t max_records = 0;
  template <class Ar> void Wire(Ar& ar) { ar(offset, max_records); }
};
// Fetch reply; the trailing log-end offset lets pollers learn the tail without a
// separate metadata round trip.
struct KafkaFetchResp {
  std::vector<Record> records;
  uint64_t log_end_offset = 0;
  template <class Ar> void Wire(Ar& ar) { ar(records, log_end_offset); }
};

// One replica of a Kafka partition.
class KafkaBroker {
 public:
  KafkaBroker(Network* net, const SimParams& params, uint32_t partition, bool leader);

  NodeId node_id() const { return endpoint_.node_id(); }
  void SetFollowers(std::vector<NodeId> followers) { followers_ = std::move(followers); }

  uint64_t log_end_offset() const { return log_.end_index(); }
  const Record* At(uint64_t offset) const { return log_.Get(offset); }

 private:
  void HandleProduce(std::vector<Record> batch, Responder r);
  void HandleReplicate(std::vector<Record> batch, Responder r);
  void HandleFetch(const KafkaFetchReq& req, Responder r);
  void HandleTruncate(uint64_t from, Responder r);

  RpcEndpoint endpoint_;
  ServerCpu cpu_;
  Disk disk_;
  SimParams params_;
  uint32_t partition_;
  bool leader_;
  std::vector<NodeId> followers_;
  SegmentedLog log_;
};

// Client-side producer with linger-based batching (Kafka's latency story).
class KafkaProducer {
 public:
  KafkaProducer(Network* net, const SimParams& params, NodeId leader, ClientId client_id);

  // Mirrors SharedLogClient::AppendCallback: OK once the batch is replicated.
  using ProduceCallback = std::function<void(Status)>;
  // Buffers the record; the batch is flushed after `linger` or at 1 MB.
  void Produce(Buf payload, ProduceCallback cb);
  // Tagged variant: the tag is stored with the record and returned by Fetch.
  void Produce(StreamTag tag, Buf payload, ProduceCallback cb);
  // Forces an immediate flush (tests).
  void Flush();

 private:
  void FlushLocked();

  RpcEndpoint endpoint_;
  SimParams params_;
  NodeId leader_;
  ClientId client_id_;
  RequestId next_request_id_ = 1;
  std::vector<Record> buffer_;
  std::vector<ProduceCallback> callbacks_;
  uint64_t buffered_bytes_ = 0;
  EventHandle linger_timer_;
};

// Simple pull consumer.
class KafkaConsumer {
 public:
  KafkaConsumer(Network* net, const SimParams& params, NodeId leader);

  using FetchCallback = std::function<void(Status, std::vector<Record>)>;
  void Fetch(uint64_t offset, uint32_t max_records, FetchCallback cb);

  // Log-end-offset piggybacked on the last fetch reply; a poller can skip a metadata
  // round trip by fetching from its cursor and reading this instead.
  uint64_t last_known_leo() const { return last_known_leo_; }

 private:
  RpcEndpoint endpoint_;
  SimParams params_;
  NodeId leader_;
  uint64_t last_known_leo_ = 0;
};

// Black-box shard adapter: speaks the Erwin-m shard protocol (ordered append batches,
// stable-gp-gated reads, trim, recovery tail-overwrite) and drives a Kafka partition
// through its public produce/fetch/truncate API — the bolt-on of §4.1/§6.8. Tail
// overwrites are "delete tail records, then append" exactly as the paper prescribes
// for Kafka shards.
class KafkaShardAdapter {
 public:
  KafkaShardAdapter(Network* net, const SimParams& params, ShardId shard_id,
                    NodeId kafka_leader);

  NodeId node_id() const { return endpoint_.node_id(); }
  LogPos stable_gp() const { return stable_gp_; }
  uint64_t slow_reads() const { return slow_reads_; }

 private:
  struct Waiter {
    std::shared_ptr<ShardReadReq> req;
    Responder responder;
  };
  // An ordering window awaiting its turn; the adapter applies windows strictly in
  // position order (one Kafka produce at a time), so the durable watermark it acks is
  // always a contiguous prefix.
  struct PendingWindow {
    std::shared_ptr<ShardAppendBatchReq> req;
    Responder responder;
  };

  void HandleAppendBatch(ShardAppendBatchReq window, Responder r);
  // Both read methods (kShardRead waits, kShardMultiRangeRead does not). A waiting
  // read whose first range starts at or above stable-gp parks in waiters_.
  void HandleRead(bool wait, ShardReadReq req, Responder r);
  void HandleSetStableGp(const StableGpMsg& msg);  // leader broadcast, unanswered
  void HandleTrim(const TrimMsg& msg, Responder r);
  // The one stable-range read behind every range of a read: fetches up to `len`
  // records from the Kafka offset holding `pos` and hands `cb` those below the
  // stable-gp of the moment of the call, labelled with their positions (none if the
  // fetch failed).
  // Returns false, fetching nothing, if `pos` is unstable or unknown to the adapter.
  using FetchedCallback = std::function<void(Status, std::vector<PositionedRecord>)>;
  bool FetchStable(LogPos pos, uint32_t len, FetchedCallback cb);
  // Serves ranges[i..] of a read one Kafka fetch at a time, accumulating into `resp`.
  void ServeNextRange(bool wait, std::shared_ptr<ShardReadReq> req, size_t i,
                      std::shared_ptr<ShardReadResp> resp, Responder r);
  void WakeWaiters();
  // Sends `s` plus a ShardOrderAckResp carrying the durable watermark — on every
  // outcome, so a retrying ordering cursor can resynchronize from any reply.
  void SendWatermarkAck(Responder& r, const Status& s);
  void DrainWindows();
  void ApplyWindow(PendingWindow w);

  RpcEndpoint endpoint_;
  ServerCpu cpu_;
  SimParams params_;
  ShardId shard_id_;
  NodeId kafka_leader_;
  ViewId view_ = 0;
  LogPos stable_gp_ = 0;
  LogPos durable_hint_ = 0;  // last durable tail heard from stable-gp broadcasts
  std::deque<LogPos> offset_pos_;  // kafka offset -> global pos (dense from offset_base_)
  uint64_t offset_base_ = 0;
  std::unordered_map<LogPos, uint64_t> pos_to_offset_;
  std::vector<Waiter> waiters_;
  uint64_t slow_reads_ = 0;
  // Ordered-window frontier: positions < order_durable_ are produced to Kafka. Windows
  // arriving ahead of the frontier (pipelined cursors + network reordering) park in
  // pending_ keyed by range_lo until their predecessor lands.
  LogPos order_durable_ = 0;
  bool produce_inflight_ = false;
  std::map<LogPos, PendingWindow> pending_;
};

// Standalone KafkaLite deployment: `partitions` partitions, each leader + `replication-1`
// followers.
class KafkaCluster {
 public:
  KafkaCluster(uint32_t partitions, uint32_t replication, const SimParams& params);

  EventLoop& loop() { return loop_; }
  Network& network() { return *net_; }
  NodeId leader(uint32_t partition) const { return brokers_[partition][0]->node_id(); }
  KafkaBroker& broker(uint32_t partition, uint32_t r) { return *brokers_[partition][r]; }
  std::unique_ptr<KafkaProducer> MakeProducer(uint32_t partition);
  std::unique_ptr<KafkaConsumer> MakeConsumer(uint32_t partition);
  void RunFor(uint64_t ns) { loop_.RunUntil(loop_.Now() + ns); }

 private:
  SimParams params_;
  EventLoop loop_;
  std::unique_ptr<Network> net_;
  std::vector<std::vector<std::unique_ptr<KafkaBroker>>> brokers_;
  ClientId next_client_id_ = 1;
};

}  // namespace lazylog

#endif  // SRC_BASELINES_KAFKALITE_KAFKALITE_H_
