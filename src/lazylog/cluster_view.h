// A client's view of the Erwin cluster topology.
#ifndef SRC_LAZYLOG_CLUSTER_VIEW_H_
#define SRC_LAZYLOG_CLUSTER_VIEW_H_

#include <vector>

#include "src/common/types.h"
#include "src/seq/seq_messages.h"

namespace lazylog {

struct ClusterView {
  ViewId view = 0;
  // Sequencing replicas; seq_config[0] is the leader.
  std::vector<NodeId> seq_config;
  // shards[s] lists shard s's replicas; shards[s][0] is the primary.
  std::vector<std::vector<NodeId>> shards;
  // Epoch of `shards` (bumped by the controller on every membership change). Clients
  // adopt a refreshed matrix only when its epoch is newer.
  uint64_t shard_epoch = 0;
  // Index-tier nodes (selective reads). Empty = no index tier; ReadNext falls back to
  // scanning. Clients spread lookups over these round-robin by client id.
  std::vector<NodeId> index_nodes;
  // ZooKeeperLite node for config refresh; kInvalidNode when there is no control plane
  // (clients then keep their construction-time shard membership).
  NodeId zk = kInvalidNode;
  // Log registry snapshot (named phylogs) at view construction time; clients refresh
  // from "/logs/config" when a name is missing. Empty = single-log deployment.
  std::vector<LogRegistryEntry> logs;
  // Epoch of `logs` (bumped by the controller on every create/delete).
  uint64_t log_epoch = 0;

  uint32_t num_shards() const { return static_cast<uint32_t>(shards.size()); }
};

}  // namespace lazylog

#endif  // SRC_LAZYLOG_CLUSTER_VIEW_H_
