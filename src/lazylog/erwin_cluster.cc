#include "src/lazylog/erwin_cluster.h"

#include "src/common/logging.h"

namespace lazylog {

ErwinCluster::ErwinCluster(const ErwinClusterOptions& options) : options_(options) {
  net_ = std::make_unique<Network>(&loop_, options_.params.net, options_.params.seed);

  if (options_.with_control_plane) {
    zk_ = std::make_unique<ZooKeeperLite>(net_.get(), options_.params.control);
  }

  // Storage shards.
  const ShardMode shard_mode =
      options_.mode == ErwinMode::kM ? ShardMode::kBlackBox : ShardMode::kStModified;
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    std::vector<std::unique_ptr<ShardServer>> replicas;
    std::vector<NodeId> ids;
    for (uint32_t r = 0; r < options_.shard_replication; ++r) {
      replicas.push_back(std::make_unique<ShardServer>(net_.get(), options_.params, shard_mode,
                                                       s, options_.num_shards));
      ids.push_back(replicas.back()->node_id());
    }
    for (auto& rep : replicas) {
      rep->SetReplicaSet(ids);
    }
    shards_.push_back(std::move(replicas));
  }

  // Index tier: aggregator nodes pulling per-shard tag-index deltas.
  const NodeId zk_node = zk_ ? zk_->node_id() : kInvalidNode;
  for (uint32_t i = 0; i < options_.num_index_nodes; ++i) {
    index_nodes_.push_back(
        std::make_unique<IndexNode>(net_.get(), options_.params, i, zk_node));
  }
  for (auto& ix : index_nodes_) {
    ix->Start(ShardPrimaries());
  }

  // Sequencing replicas; replica 0 starts as leader.
  std::vector<NodeId> seq_config;
  for (int i = 0; i < options_.params.seq.num_replicas; ++i) {
    seq_replicas_.push_back(std::make_unique<SequencingReplica>(
        net_.get(), options_.params, options_.mode, static_cast<uint32_t>(i), zk_node));
    seq_config.push_back(seq_replicas_.back()->node_id());
  }
  for (auto& rep : seq_replicas_) {
    rep->Start(seq_config, ShardPrimaries(), AllShardServers(), IndexNodeIds());
  }

  if (options_.with_control_plane) {
    controller_ = std::make_unique<Controller>(net_.get(), options_.params, zk_->node_id());
    std::vector<std::vector<NodeId>> shard_matrix;
    for (const auto& shard : shards_) {
      std::vector<NodeId> ids;
      for (const auto& rep : shard) {
        ids.push_back(rep->node_id());
      }
      shard_matrix.push_back(std::move(ids));
    }
    controller_->SetIndexNodes(IndexNodeIds());
    controller_->Start(seq_config, seq_config[0], std::move(shard_matrix));
    // Let sessions/ephemerals establish before traffic starts.
    loop_.RunUntil(loop_.Now() + 2 * options_.params.control.session_heartbeat_ns);
  }
}

ErwinCluster::~ErwinCluster() = default;

std::vector<NodeId> ErwinCluster::AllShardServers() const {
  std::vector<NodeId> ids;
  for (const auto& shard : shards_) {
    for (const auto& rep : shard) {
      ids.push_back(rep->node_id());
    }
  }
  return ids;
}

std::vector<NodeId> ErwinCluster::ShardPrimaries() const {
  std::vector<NodeId> ids;
  for (const auto& shard : shards_) {
    ids.push_back(shard[0]->node_id());
  }
  return ids;
}

std::vector<NodeId> ErwinCluster::IndexNodeIds() const {
  std::vector<NodeId> ids;
  for (const auto& ix : index_nodes_) {
    ids.push_back(ix->node_id());
  }
  return ids;
}

ClusterView ErwinCluster::MakeView() const {
  ClusterView view;
  // Take the configuration from a live, unsealed replica (after reconfigurations,
  // replica 0 may be dead or hold a stale view).
  const SequencingReplica* source = seq_replicas_[0].get();
  for (const auto& rep : seq_replicas_) {
    if (net_->IsUp(rep->node_id()) && !rep->sealed()) {
      source = rep.get();
      break;
    }
  }
  view.view = source->view();
  view.seq_config = source->config();
  if (view.seq_config.empty()) {
    for (const auto& rep : seq_replicas_) {
      view.seq_config.push_back(rep->node_id());
    }
  }
  for (const auto& shard : shards_) {
    std::vector<NodeId> ids;
    for (const auto& rep : shard) {
      ids.push_back(rep->node_id());
    }
    view.shards.push_back(std::move(ids));
  }
  // Only live index nodes are handed out: a crashed aggregator would turn every
  // ReadNext routed to it into a timeout-then-scan.
  for (const auto& ix : index_nodes_) {
    if (net_->IsUp(ix->node_id())) {
      view.index_nodes.push_back(ix->node_id());
    }
  }
  if (controller_) {
    view.zk = zk_->node_id();
    view.shard_epoch = controller_->shard_epoch();
    view.logs = controller_->log_registry();
    view.log_epoch = controller_->log_epoch();
  } else {
    view.logs = log_registry_;
    view.log_epoch = log_epoch_;
  }
  return view;
}

// --- virtual logs ------------------------------------------------------------------------

LogId ErwinCluster::CreateLog(const std::string& name, uint64_t quota_per_sec) {
  if (controller_) {
    // Id assignment is synchronous; the "/logs/config" write and the replica push
    // propagate on the event loop (run the sim to let quota enforcement take effect).
    return controller_->CreateLog(name, quota_per_sec);
  }
  for (const LogRegistryEntry& entry : log_registry_) {
    if (entry.name == name && !entry.deleted) {
      return entry.id;
    }
  }
  LogRegistryEntry entry;
  entry.id = next_log_id_++;
  entry.name = name;
  entry.quota_per_sec = quota_per_sec;
  log_registry_.push_back(std::move(entry));
  log_epoch_++;
  InstallLogRegistryOnReplicas();
  return log_registry_.back().id;
}

void ErwinCluster::DeleteLog(const std::string& name) {
  if (controller_) {
    controller_->DeleteLog(name);
    return;
  }
  for (LogRegistryEntry& entry : log_registry_) {
    if (entry.name == name && !entry.deleted) {
      entry.deleted = true;
      log_epoch_++;
      InstallLogRegistryOnReplicas();
      return;
    }
  }
}

const std::vector<LogRegistryEntry>& ErwinCluster::log_registry() const {
  return controller_ ? controller_->log_registry() : log_registry_;
}

void ErwinCluster::InstallLogRegistryOnReplicas() {
  // No control plane to push through: install the table directly (test-only surgery,
  // like the pre-controller shard wiring).
  for (auto& rep : seq_replicas_) {
    rep->InstallLogRegistry(log_epoch_, log_registry_);
  }
}

std::unique_ptr<ErwinMClient> ErwinCluster::MakeMClient() {
  LL_CHECK(options_.mode == ErwinMode::kM, "M client on an st cluster");
  return std::make_unique<ErwinMClient>(net_.get(), options_.params, MakeView(),
                                        next_client_id_++);
}

std::unique_ptr<ErwinStClient> ErwinCluster::MakeStClient() {
  LL_CHECK(options_.mode == ErwinMode::kSt, "st client on an M cluster");
  return std::make_unique<ErwinStClient>(net_.get(), options_.params, MakeView(),
                                         next_client_id_++);
}

std::unique_ptr<ErwinClient> ErwinCluster::MakeClient() {
  if (options_.mode == ErwinMode::kM) {
    return MakeMClient();
  }
  return MakeStClient();
}

void ErwinCluster::CrashSeqReplica(uint32_t index) {
  LL_CHECK(index < seq_replicas_.size(), "bad replica index");
  net_->Crash(seq_replicas_[index]->node_id());
  seq_replicas_[index]->StopHeartbeats();
}

void ErwinCluster::CrashIndexNode(uint32_t index) {
  LL_CHECK(index < index_nodes_.size(), "bad index-node index");
  net_->Crash(index_nodes_[index]->node_id());
  index_nodes_[index]->StopHeartbeats();
}

std::vector<NodeId> ErwinCluster::AddShard() {
  LL_CHECK(options_.mode == ErwinMode::kSt, "runtime shard add requires Erwin-st");
  const ShardId s = static_cast<ShardId>(shards_.size());
  std::vector<std::unique_ptr<ShardServer>> replicas;
  std::vector<NodeId> ids;
  for (uint32_t r = 0; r < options_.shard_replication; ++r) {
    replicas.push_back(std::make_unique<ShardServer>(net_.get(), options_.params,
                                                     ShardMode::kStModified, s,
                                                     static_cast<uint32_t>(shards_.size() + 1)));
    ids.push_back(replicas.back()->node_id());
  }
  for (auto& rep : replicas) {
    rep->SetReplicaSet(ids);
    // The new shard adopts the current stable prefix and metadata offset (§6.9). The
    // offset is the leader's *assignment* frontier: the new cursor starts there, so
    // the first window it receives has range_lo == this value — bootstrapping at
    // ordered_gp would leave the shard parked forever on positions it never gets.
    rep->Bootstrap(leader().stable_gp(), leader().assigned_gp());
  }
  for (auto& seq : seq_replicas_) {
    seq->AddShard(ids[0], ids);
  }
  for (auto& ix : index_nodes_) {
    ix->AddShard(ids[0]);
  }
  shards_.push_back(std::move(replicas));
  if (controller_) {
    controller_->AddShard(ids);
  }
  return ids;
}

NodeId ErwinCluster::ReplaceShardReplica(uint32_t shard, uint32_t replica_index) {
  LL_CHECK(shard < shards_.size(), "bad shard index");
  LL_CHECK(replica_index > 0 && replica_index < shards_[shard].size(),
           "can only replace a non-primary replica");
  const NodeId old_node = shards_[shard][replica_index]->node_id();
  net_->Crash(old_node);
  const ShardMode mode =
      options_.mode == ErwinMode::kM ? ShardMode::kBlackBox : ShardMode::kStModified;
  auto fresh = std::make_unique<ShardServer>(net_.get(), options_.params, mode, shard,
                                             static_cast<uint32_t>(shards_.size()));
  const NodeId new_node = fresh->node_id();
  // Install the replacement in the shard's replica set. The old server object stays
  // alive (inert behind its crashed network node) so its still-scheduled timers cannot
  // dangle.
  retired_shards_.push_back(std::move(shards_[shard][replica_index]));
  shards_[shard][replica_index] = std::move(fresh);
  std::vector<NodeId> ids;
  for (const auto& rep : shards_[shard]) {
    ids.push_back(rep->node_id());
  }
  for (auto& rep : shards_[shard]) {
    rep->SetReplicaSet(ids);
  }
  if (controller_) {
    // Real membership change through the control plane: state copy over RPC, config
    // persisted to ZK under a bumped epoch, sequencing replicas re-wired via RPC.
    // Clients discover the change by refreshing "/shards/config".
    controller_->ReplaceShardReplica(shard, replica_index, new_node, [](Status s) {
      if (!s.ok()) {
        LLOG(kError) << "controller shard replacement failed: " << s.ToString();
      }
    });
  } else {
    // No control plane (unit fixtures): copy state and re-wire the orderers directly.
    shards_[shard][replica_index]->CopyStateFrom(shards_[shard][0]->node_id(), [](Status s) {
      LL_CHECK(s.ok(), "shard state copy failed: " + s.ToString());
    });
    for (auto& seq : seq_replicas_) {
      seq->ReplaceShardServer(old_node, new_node);
    }
  }
  return new_node;
}

NodeId ErwinCluster::CrashShardPrimary(uint32_t shard) {
  LL_CHECK(shard < shards_.size(), "bad shard index");
  LL_CHECK(shards_[shard].size() > 1, "no backup to promote");
  LL_CHECK(controller_ != nullptr, "shard primary failover requires the control plane");
  const NodeId old_node = shards_[shard][0]->node_id();
  net_->Crash(old_node);
  DrivePromotion(shard);
  return old_node;
}

NodeId ErwinCluster::IsolateShardPrimary(uint32_t shard) {
  LL_CHECK(shard < shards_.size(), "bad shard index");
  LL_CHECK(shards_[shard].size() > 1, "no backup to promote");
  LL_CHECK(controller_ != nullptr, "shard primary failover requires the control plane");
  const NodeId old_node = shards_[shard][0]->node_id();
  // Sever every server-side link; client links stay up (a data write the zombie acks
  // is still durable — the payload went to all replicas — so that is harmless).
  for (NodeId n : AllShardServers()) {
    if (n != old_node) {
      net_->SetPartitioned(old_node, n, true);
    }
  }
  for (const auto& rep : seq_replicas_) {
    net_->SetPartitioned(old_node, rep->node_id(), true);
  }
  for (NodeId n : IndexNodeIds()) {
    net_->SetPartitioned(old_node, n, true);
  }
  net_->SetPartitioned(old_node, zk_->node_id(), true);
  net_->SetPartitioned(old_node, controller_->node_id(), true);
  DrivePromotion(shard);
  return old_node;
}

void ErwinCluster::DrivePromotion(uint32_t shard) {
  // Shard servers keep no ZK ephemerals; model the failure detector as two session
  // heartbeats of silence before the controller reacts.
  const uint64_t delay = 2 * options_.params.control.session_heartbeat_ns;
  loop_.Schedule(delay, [this, shard]() {
    controller_->PromoteShardPrimary(shard, [this, shard](Status s) {
      if (!s.ok()) {
        LLOG(kError) << "shard " << shard << " primary promotion failed: " << s.ToString();
        return;
      }
      AdoptPromotedOrder(shard);
    });
  });
}

void ErwinCluster::AdoptPromotedOrder(uint32_t shard) {
  const std::vector<NodeId>& order = controller_->shards()[shard];
  std::vector<std::unique_ptr<ShardServer>> new_reps;
  for (NodeId n : order) {
    for (auto& rep : shards_[shard]) {
      if (rep && rep->node_id() == n) {
        new_reps.push_back(std::move(rep));
      }
    }
  }
  // Whatever the controller dropped (the dead primary, pruned peers) is retired, not
  // destroyed: its scheduled timers may still fire.
  for (auto& rep : shards_[shard]) {
    if (rep) {
      retired_shards_.push_back(std::move(rep));
    }
  }
  shards_[shard] = std::move(new_reps);
}

SequencingReplica& ErwinCluster::leader() {
  for (auto& rep : seq_replicas_) {
    if (rep->is_leader() && !rep->sealed() && net_->IsUp(rep->node_id())) {
      return *rep;
    }
  }
  return *seq_replicas_[0];
}

}  // namespace lazylog
