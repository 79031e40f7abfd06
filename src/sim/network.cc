#include "src/sim/network.h"

#include "src/common/logging.h"

namespace lazylog {

NodeId Network::AddNode(Handler handler) {
  const NodeId id = static_cast<NodeId>(handlers_.size());
  handlers_.push_back(std::move(handler));
  up_.push_back(true);
  nic_free_.push_back(0);
  nic_background_free_.push_back(0);
  return id;
}

void Network::SetHandler(NodeId id, Handler handler) {
  LL_CHECK(id < handlers_.size(), "SetHandler on unknown node");
  handlers_[id] = std::move(handler);
}

void Network::Send(NodeId from, NodeId to, Buf payload, uint64_t wire_bytes,
                   std::vector<Buf> atts, bool background) {
  LL_CHECK(from < handlers_.size() && to < handlers_.size(), "Send between unknown nodes");
  ++messages_sent_;
  if (!IsUp(from) || Partitioned(from, to)) {
    return;  // sender is dead or the link is cut; message never leaves
  }
  if (loss_probability_ > 0.0 && rng_.Chance(loss_probability_)) {
    return;
  }
  if (wire_bytes == 0) {
    wire_bytes = payload.size();
    for (const Buf& a : atts) {
      wire_bytes += a.size();
    }
  }
  const uint64_t bytes = wire_bytes + params_.per_message_overhead_bytes;
  bytes_sent_ += bytes;

  // Serialize on the sender NIC: back-to-back sends queue behind each other. Background
  // traffic and bulk transfers use a separate lane (see header comment).
  constexpr uint64_t kBulkThresholdBytes = 64 * 1024;
  const SimTime now = loop_->Now();
  auto& lane =
      background || bytes >= kBulkThresholdBytes ? nic_background_free_ : nic_free_;
  const SimTime start = std::max(now, lane[from]);
  const uint64_t ser_ns = static_cast<uint64_t>(
      static_cast<double>(bytes) / params_.bandwidth_bytes_per_sec * 1e9);
  lane[from] = start + ser_ns;

  const uint64_t jitter = params_.jitter_ns > 0 ? rng_.Uniform(params_.jitter_ns) : 0;
  const SimTime deliver_at = lane[from] + params_.propagation_ns + jitter + extra_delay_ns_;

  // Delivery moves the Buf handles; no payload byte is copied on the loopback path.
  loop_->ScheduleAt(deliver_at, [this, from, to, wire_bytes, p = std::move(payload),
                                 a = std::move(atts)]() mutable {
    if (!IsUp(to) || Partitioned(from, to)) {
      return;  // destination died or link cut while in flight
    }
    ++messages_delivered_;
    if (handlers_[to]) {
      handlers_[to](NetMessage{from, to, std::move(p), std::move(a), wire_bytes});
    }
  });
}

void Network::Crash(NodeId id) {
  LL_CHECK(id < up_.size(), "Crash on unknown node");
  up_[id] = false;
}

void Network::Restart(NodeId id) {
  LL_CHECK(id < up_.size(), "Restart on unknown node");
  up_[id] = true;
  nic_free_[id] = loop_->Now();
  nic_background_free_[id] = loop_->Now();
}

void Network::SetPartitioned(NodeId a, NodeId b, bool partitioned) {
  if (partitioned) {
    partitions_.insert(Key(a, b));
  } else {
    partitions_.erase(Key(a, b));
  }
}

}  // namespace lazylog
