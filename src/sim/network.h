// Simulated datacenter network. Point-to-point message delivery with one-way
// propagation delay, per-sender-NIC serialization (so concurrent sends queue and
// throughput saturates realistically), uniform jitter, node crash/restart, and
// pairwise partitions. This stands in for the paper's 25 Gb eRPC/RDMA fabric; see
// DESIGN.md §1 for why the substitution preserves the evaluated behaviour.
#ifndef SRC_SIM_NETWORK_H_
#define SRC_SIM_NETWORK_H_

#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/buf.h"
#include "src/common/params.h"
#include "src/common/random.h"
#include "src/common/types.h"
#include "src/sim/event_loop.h"

namespace lazylog {

// One message on the wire. `payload` is the RPC-encoded frame; `atts` are scatter-gather
// payload segments (refcounted Buf handles — delivery moves handles, never bytes, the
// way eRPC/RDMA scatter record data without an extra copy). `wire_bytes` is the size
// charged to the NIC (defaults to frame + attachment bytes; Erwin-st overrides it to
// model data that a real deployment scatters via RDMA).
struct NetMessage {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  Buf payload;
  std::vector<Buf> atts;
  uint64_t wire_bytes = 0;  // bytes charged to the NIC; 0 means payload + atts size
};

// The network fabric shared by all nodes of a simulated cluster.
class Network {
 public:
  using Handler = std::function<void(NetMessage&&)>;

  Network(EventLoop* loop, const NetworkParams& params, uint64_t seed = 1)
      : loop_(loop), params_(params), rng_(seed ^ 0x6e65747365656421ULL) {}

  // Registers a node and its message handler; returns the assigned NodeId.
  NodeId AddNode(Handler handler);
  // Replaces the handler of an existing node (used when a server object is rebuilt).
  void SetHandler(NodeId id, Handler handler);

  // Sends `payload` (+ attachment segments) from -> to. Delivery is dropped if either
  // end is down at send or the destination is down/partitioned at delivery time
  // (messages in flight to a node that crashes are lost, as on a real network).
  // `wire_bytes` overrides the NIC-charged size (0 = frame + attachment bytes);
  // Erwin-st uses it to model data scattered via RDMA. `background` puts the message on
  // the sender's background lane whatever its size (see nic_background_free_).
  void Send(NodeId from, NodeId to, Buf payload, uint64_t wire_bytes = 0,
            std::vector<Buf> atts = {}, bool background = false);

  // --- failure injection -----------------------------------------------------------
  // Crashing a node drops its queued deliveries and all future traffic to/from it.
  void Crash(NodeId id);
  // Restarting re-enables traffic; state recovery is the server's business.
  void Restart(NodeId id);
  bool IsUp(NodeId id) const { return id < up_.size() && up_[id]; }
  // Cuts (or heals) the bidirectional link between a and b.
  void SetPartitioned(NodeId a, NodeId b, bool partitioned);
  // Probability in [0,1) that any given message is dropped (loss injection for tests).
  void SetLossProbability(double p) { loss_probability_ = p; }
  double loss_probability() const { return loss_probability_; }
  // Extra one-way delay added to every message sent while set (chaos delay spikes).
  void SetExtraDelayNs(uint64_t ns) { extra_delay_ns_ = ns; }
  uint64_t extra_delay_ns() const { return extra_delay_ns_; }

  // --- introspection ----------------------------------------------------------------
  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_delivered() const { return messages_delivered_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

  EventLoop* loop() const { return loop_; }
  const NetworkParams& params() const { return params_; }

 private:
  bool Partitioned(NodeId a, NodeId b) const {
    return partitions_.count(Key(a, b)) > 0;
  }
  static uint64_t Key(NodeId a, NodeId b) {
    if (a > b) {
      std::swap(a, b);
    }
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  EventLoop* loop_;
  NetworkParams params_;
  Rng rng_;
  std::vector<Handler> handlers_;
  std::vector<bool> up_;
  // Per-node NIC egress availability. Background traffic (the ordering windows, by
  // traffic class) and any message above the bulk threshold serialize on a separate
  // lane, so background batches do not head-of-line-block latency-critical requests
  // (real NICs interleave packets across flows; the paper's background orderer
  // additionally offloads via RDMA).
  std::vector<SimTime> nic_free_;
  std::vector<SimTime> nic_background_free_;
  std::set<uint64_t> partitions_;
  double loss_probability_ = 0.0;
  uint64_t extra_delay_ns_ = 0;
  uint64_t messages_sent_ = 0;
  uint64_t messages_delivered_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace lazylog

#endif  // SRC_SIM_NETWORK_H_
