#include "src/seq/controller.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/rpc/rpc_methods.h"

namespace lazylog {

namespace {
// Bounded per-attempt timeouts for control-plane retry loops. Short enough that a
// reconfiguration under an asymmetric partition makes progress as soon as the relevant
// link heals, long enough to cover healthy RTTs with queueing.
constexpr uint64_t kFenceAttemptTimeoutNs = 1 * kMs;
constexpr uint64_t kFenceRetryNs = 500 * kUs;
constexpr uint64_t kZkOpTimeoutNs = 10 * kMs;
constexpr uint64_t kZkRetryNs = 2 * kMs;
constexpr uint64_t kStartViewAttemptTimeoutNs = 5 * kMs;
constexpr uint64_t kStartViewRetryNs = 1 * kMs;
constexpr uint64_t kResealIntervalNs = 2 * kMs;
// Polls a configured replica may stay unregistered (no liveness ephemeral ever seen)
// before the controller declares it failed. Polls run every 2 session heartbeats, so
// this is a multi-timeout grace window for slow registrations under queued ZK writes.
constexpr uint32_t kUnregisteredPollLimit = 4;
}  // namespace

Controller::Controller(Network* net, const SimParams& params, NodeId zk_node)
    : endpoint_(net), params_(params), zk_(&endpoint_, zk_node) {}

void Controller::Start(std::vector<NodeId> seq_replicas, NodeId initial_leader,
                       std::vector<std::vector<NodeId>> shards) {
  seq_replicas_ = seq_replicas;
  shards_ = std::move(shards);
  shard_promo_epochs_.assign(shards_.size(), 0);
  // Initial config: leader first, then the rest in index order.
  config_.clear();
  config_.push_back(initial_leader);
  for (NodeId n : seq_replicas) {
    if (n != initial_leader) {
      config_.push_back(n);
    }
  }
  zk_.Watch("/seq/replicas/", [this](const std::string& path, ZkEvent event) {
    if (event == ZkEvent::kDeleted) {
      OnReplicaDown(path);
    }
  });
  // Persist the initial shard membership so clients can resolve it from ZK.
  WriteShardConfig(nullptr);
  // Watch notifications are fire-and-forget and may be lost; poll as a backstop.
  endpoint_.loop()->Schedule(2 * params_.control.session_heartbeat_ns,
                             [this]() { ReconcilePoll(); });
}

std::vector<NodeId> Controller::AllShardServers() const {
  std::vector<NodeId> ids;
  for (const auto& shard : shards_) {
    for (NodeId n : shard) {
      ids.push_back(n);
    }
  }
  return ids;
}

void Controller::OnReplicaDown(const std::string& path) {
  LLOG(kInfo) << "controller: replica ephemeral gone: " << path;
  // The path encodes the replica index ("/seq/replicas/<i>"); remember it as dead so
  // sealing does not wait out a timeout on a node we know has failed.
  const size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) {
    const int idx = std::atoi(path.c_str() + slash + 1);
    if (idx >= 0 && static_cast<size_t>(idx) < seq_replicas_.size()) {
      known_dead_.insert(seq_replicas_[idx]);
    }
  }
  if (reconfiguring_) {
    pending_failure_ = true;
    return;
  }
  timing_ = ReconfigTiming{};
  timing_.detected_at = endpoint_.loop()->Now();
  reconfiguring_ = true;
  RunReconfiguration();
}

void Controller::RunReconfiguration() { SealAll(0); }

void Controller::SealAll(uint32_t attempt) {
  // Seal every reachable replica of the current config *and* fence every shard server
  // into the next epoch, in parallel. Once a replica is sealed no new record can commit
  // in the old view (clients need acks from *all* replicas in one view); once the
  // shards are fenced a deposed-but-partitioned leader can neither bind positions nor
  // advance stable-gp (STALE_VIEW), which is what makes recovery safe under asymmetric
  // partitions where the old leader never sees a seal.
  const ViewId fence_view = view_ + 1;
  std::vector<NodeId> targets;
  for (NodeId n : config_) {
    if (known_dead_.count(n) == 0) {
      targets.push_back(n);
    }
  }

  auto join = std::make_shared<int>(2);
  auto live_nodes = std::make_shared<std::vector<NodeId>>();
  auto proceed = [this, join, live_nodes, attempt]() {
    if (--*join > 0) {
      return;
    }
    if (live_nodes->empty()) {
      // Nobody sealed (every live member unreachable). Consistency is already protected
      // by the shard fence; retry with backoff until a link heals or an ephemeral
      // expires and updates known_dead_.
      LLOG(kWarn) << "controller: seal round " << attempt << " reached no replica; retrying";
      const uint64_t backoff = (1 + std::min<uint32_t>(attempt, 8)) * kMs;
      endpoint_.loop()->Schedule(backoff, [this, attempt]() { SealAll(attempt + 1); });
      return;
    }
    timing_.sealed_at = endpoint_.loop()->Now();
    // Prefer the old leader as recovery replica when alive (its log already defines the
    // order in flight); otherwise any live replica is safe (§4.5 correctness sketch).
    NodeId recovery = (*live_nodes)[0];
    for (NodeId n : *live_nodes) {
      if (n == config_[0]) {
        recovery = n;
        break;
      }
    }
    FlushRecovery(*live_nodes, recovery);
  };

  // Fence the storage tier.
  auto all_shards = AllShardServers();
  auto pending = std::make_shared<std::set<NodeId>>(all_shards.begin(), all_shards.end());
  FenceShards(fence_view, pending, proceed);

  // Fence the index tier fire-and-forget: an index node that misses the fence can at
  // worst accept a deposed leader's stable-gp stat update — its served coverage comes
  // from the (acked-fenced) shards' exports, so consistency never depends on this.
  for (NodeId n : index_nodes_) {
    endpoint_.Notify(n, kShardSeal, ShardSealReq{fence_view});
  }

  // Seal the sequencing tier.
  if (targets.empty()) {
    proceed();
    return;
  }
  const ViewId sealed_view = view_;
  auto gather = Gather::Create(
      targets.size(),
      [this, live_nodes, targets, sealed_view, proceed](const std::vector<Status>& ss) {
        for (size_t i = 0; i < ss.size(); ++i) {
          if (ss[i].ok()) {
            live_nodes->push_back(targets[i]);
            reseal_pending_.erase(targets[i]);
          } else if (known_dead_.count(targets[i]) == 0) {
            // Live but unreachable from here (asymmetric partition): keep trying to
            // seal it in the background so it stops serving once a link heals. The
            // shard fence keeps it harmless in the meantime.
            reseal_pending_[targets[i]] = sealed_view;
            ResealLoop();
          }
        }
        proceed();
      });
  for (size_t i = 0; i < targets.size(); ++i) {
    endpoint_.CallMsg(targets[i], kSeqSeal, SeqSealReq{sealed_view}, gather->Slot(i), 5 * kMs);
  }
}

void Controller::FenceShards(ViewId fence_view, std::shared_ptr<std::set<NodeId>> pending,
                             std::function<void()> done) {
  // Drop nodes that were replaced (no longer shard members) since the last round, and
  // nodes known dead (a crashed shard primary awaiting promotion): a sequencing
  // reconfiguration that raced a shard-primary failure must not wait forever on the
  // dead primary's fence ack.
  const std::vector<NodeId> current = AllShardServers();
  for (auto it = pending->begin(); it != pending->end();) {
    if (std::find(current.begin(), current.end(), *it) == current.end() ||
        dead_shard_servers_.count(*it) > 0) {
      it = pending->erase(it);
    } else {
      ++it;
    }
  }
  if (pending->empty()) {
    done();
    return;
  }
  const std::vector<NodeId> round(pending->begin(), pending->end());
  auto gather = Gather::Create(
      round.size(),
      [this, fence_view, pending, round, done = std::move(done)](const std::vector<Status>& ss) {
        for (size_t i = 0; i < ss.size(); ++i) {
          if (ss[i].ok()) {
            pending->erase(round[i]);
          }
        }
        if (pending->empty()) {
          done();
          return;
        }
        endpoint_.loop()->Schedule(kFenceRetryNs, [this, fence_view, pending, done]() {
          FenceShards(fence_view, pending, done);
        });
      });
  for (size_t i = 0; i < round.size(); ++i) {
    endpoint_.CallMsg(round[i], kShardSeal, ShardSealReq{fence_view}, gather->Slot(i),
                      kFenceAttemptTimeoutNs);
  }
}

void Controller::ResealLoop() {
  if (reseal_armed_ || reseal_pending_.empty()) {
    return;
  }
  reseal_armed_ = true;
  endpoint_.loop()->Schedule(kResealIntervalNs, [this]() {
    reseal_armed_ = false;
    for (const auto& [node, sealed_view] : reseal_pending_) {
      endpoint_.CallMsg(node, kSeqSeal, SeqSealReq{sealed_view},
                        [this, node](Status s, Decoder) {
                          // WRONG_VIEW means the node already moved to a newer view (it
                          // was started into the new config); either way it is no longer
                          // a stale-serving risk.
                          if (s.ok() || s.code() == StatusCode::kWrongView) {
                            reseal_pending_.erase(node);
                          }
                        },
                        kFenceAttemptTimeoutNs);
    }
    ResealLoop();
  });
}

void Controller::ReconcilePoll() {
  // ZK watch fires ride an unacknowledged one-shot message; a loss window can swallow
  // the only notification of a replica's death. Reconcile by listing the ephemerals and
  // synthesizing the missed deletion events. Paths are only trusted as "missing" if a
  // previous poll saw them, so startup races (ephemerals still being created) are safe.
  zk_.List(
      "/seq/replicas/",
      [this](Status s, std::vector<std::string> paths) {
        if (s.ok() && !reconfiguring_) {
          std::set<std::string> present(paths.begin(), paths.end());
          for (const std::string& p : paths) {
            seen_paths_.insert(p);
          }
          for (size_t i = 0; i < seq_replicas_.size(); ++i) {
            const NodeId n = seq_replicas_[i];
            if (known_dead_.count(n) > 0 ||
                std::find(config_.begin(), config_.end(), n) == config_.end()) {
              continue;
            }
            const std::string path = "/seq/replicas/" + std::to_string(i);
            if (seen_paths_.count(path) > 0 && present.count(path) == 0) {
              LLOG(kInfo) << "controller: poll found missed failure of " << path;
              OnReplicaDown(path);
              break;  // OnReplicaDown starts a reconfiguration; queue the rest
            }
            // A replica that dies before its ephemeral ever lands (the registration
            // is refused once its session expired) leaves nothing to delete, so no
            // watch will ever fire for it. After a registration grace period, a
            // configured replica that still has no ephemeral is declared failed.
            if (present.count(path) == 0 &&
                ++unregistered_polls_[path] >= kUnregisteredPollLimit) {
              LLOG(kInfo) << "controller: " << path << " never registered; declaring failed";
              OnReplicaDown(path);
              break;
            }
            if (present.count(path) > 0) {
              unregistered_polls_.erase(path);
            }
          }
        }
        endpoint_.loop()->Schedule(2 * params_.control.session_heartbeat_ns,
                                   [this]() { ReconcilePoll(); });
      },
      kZkOpTimeoutNs);
}

void Controller::FlushRecovery(const std::vector<NodeId>& live, NodeId recovery) {
  // New config: recovery replica leads, followed by the other live replicas.
  std::vector<NodeId> new_config{recovery};
  for (NodeId n : live) {
    if (n != recovery) {
      new_config.push_back(n);
    }
  }
  CallRetrying<SeqFlushResp>(
      recovery, kSeqFetchLog, SeqFlushReq{view_ + 1}, {params_.rpc_timeout_ns, 1 * kMs, 3},
      [this, new_config = std::move(new_config)](const Status& s, SeqFlushResp& resp) mutable {
        if (!s.ok()) {
          LLOG(kError) << "controller: flush failed: " << s.ToString();
          return false;
        }
        timing_.flushed_at = endpoint_.loop()->Now();
        FinishView(std::move(new_config), resp.new_ordered_gp, std::move(resp.flushed_ids));
        return true;
      },
      [this](Status) {
        // The recovery replica is likely gone; restart from sealing with whatever
        // known_dead_ the watches have accumulated since.
        endpoint_.loop()->Schedule(1 * kMs, [this]() { SealAll(0); });
      });
}

void Controller::FinishView(std::vector<NodeId> new_config, LogPos ordered_gp,
                            std::vector<WireRecordId> flushed_ids) {
  const ViewId new_view = view_ + 1;
  // Persist the new configuration *before* advancing stable-gp so a partitioned replica
  // of the old view can never overwrite records exposed afterwards (§4.5). A
  // controller<->ZK partition delays the view change but never aborts it.
  auto encode = [new_view, new_config]() {
    Encoder cfg;
    cfg.PutU64(new_view);
    cfg.PutU32(static_cast<uint32_t>(new_config.size()));
    for (NodeId n : new_config) {
      cfg.PutU32(n);
    }
    return cfg.Take();
  };
  ZkWriteUntilOk(
      "/seq/config", std::move(encode),
      [this, new_config = std::move(new_config), ordered_gp,
       flushed_ids = std::move(flushed_ids), new_view]() mutable {
        timing_.view_written_at = endpoint_.loop()->Now();
        // Advance stable-gp on the shards: everything flushed is now stable. Stamped
        // with the new view so it passes the fence raised in SealAll.
        const StableGpMsg stable{new_view, ordered_gp};
        for (NodeId n : AllShardServers()) {
          endpoint_.Notify(n, kShardSetStableGp, stable);
        }
        for (NodeId n : index_nodes_) {
          endpoint_.Notify(n, kShardSetStableGp, stable);
        }
        SeqStartViewReq sv;
        sv.view = new_view;
        sv.config.assign(new_config.begin(), new_config.end());
        sv.ordered_gp = ordered_gp;
        sv.stable_gp = ordered_gp;
        sv.flushed_ids = std::move(flushed_ids);
        auto remaining = std::make_shared<size_t>(new_config.size());
        auto started = [this, remaining, new_config, new_view]() {
          if (--*remaining > 0) {
            return;
          }
          view_ = new_view;
          config_ = new_config;
          timing_.new_view_at = endpoint_.loop()->Now();
          timing_.complete = true;
          reconfigurations_++;
          reconfiguring_ = false;
          LLOG(kInfo) << "controller: view " << new_view << " started";
          if (on_reconfigured_) {
            on_reconfigured_(timing_);
          }
          if (pending_failure_) {
            pending_failure_ = false;
            OnReplicaDown("(queued)");
          }
        };
        // Start the new view on every member, retrying each until it adopted the view (a
        // lost StartView would leave a member sealed forever).
        for (NodeId member : new_config) {
          CallRetrying<NoBody>(
              member, kSeqStartView, sv,
              {kStartViewAttemptTimeoutNs, kStartViewRetryNs, RetryPolicy::kUnbounded},
              [this, member, started](const Status& s, NoBody&) {
                if (s.ok() || s.code() == StatusCode::kWrongView) {
                  // Adopted (or already past) this view: no longer a reseal target.
                  reseal_pending_.erase(member);
                } else if (known_dead_.count(member) == 0) {
                  return false;
                }
                // A member that died mid-reconfiguration settles too: the queued failure
                // event removes it from the config, so it must not hold the view hostage.
                started();
                return true;
              },
              nullptr);
        }
      });
}

// --- shard membership ------------------------------------------------------------------

std::string Controller::EncodeShardConfig() const {
  ShardConfig config{shard_epoch_, {}};
  for (size_t s = 0; s < shards_.size(); ++s) {
    config.shards.push_back(
        {shards_[s], s < shard_promo_epochs_.size() ? shard_promo_epochs_[s] : 0});
  }
  Encoder e;
  WireEncode(e, config);
  return e.Take();
}

void Controller::WriteShardConfig(std::function<void()> done) {
  ZkWriteUntilOk("/shards/config", [this]() { return EncodeShardConfig(); }, std::move(done));
}

void Controller::BeginShardOp(uint32_t shard, std::function<void()> op) {
  if (shard_busy_.count(shard) > 0) {
    shard_op_queue_[shard].push_back(std::move(op));
    return;
  }
  shard_busy_.insert(shard);
  op();
}

void Controller::EndShardOp(uint32_t shard) {
  auto qit = shard_op_queue_.find(shard);
  if (qit != shard_op_queue_.end() && !qit->second.empty()) {
    auto next = std::move(qit->second.front());
    qit->second.erase(qit->second.begin());
    next();  // the shard stays busy; the queued op ends it in turn
    return;
  }
  shard_busy_.erase(shard);
}

void Controller::ReplaceShardReplica(uint32_t shard, uint32_t replica_index, NodeId new_node,
                                     std::function<void(Status)> done) {
  LL_CHECK(shard < shards_.size(), "bad shard index");
  BeginShardOp(shard, [this, shard, replica_index, new_node, done = std::move(done)]() mutable {
    auto finish = [this, shard, done = std::move(done)](Status s) {
      EndShardOp(shard);
      if (done) {
        done(std::move(s));
      }
    };
    // Membership may have changed while this op was queued behind another one on the
    // same shard (a promotion reorders and shrinks the replica list); re-validate and
    // re-resolve the victim at execution time rather than trusting the caller's index.
    if (replica_index == 0 || replica_index >= shards_[shard].size()) {
      finish(Status::Unavailable("replica index no longer valid (membership changed)"));
      return;
    }
    DoReplaceShardReplica(shard, shards_[shard][replica_index], new_node, std::move(finish));
  });
}

void Controller::DoReplaceShardReplica(uint32_t shard, NodeId old_node, NodeId new_node,
                                       std::function<void(Status)> done) {
  CallRetrying<NoBody>(
      new_node, kShardCopyState, ShardCopyStateReq{shards_[shard][0]},
      {params_.rpc_timeout_ns, 2 * kMs, 5},
      [this, shard, old_node, new_node, done](const Status& s, NoBody&) {
        if (!s.ok()) {
          return false;
        }
        // State installed on the replacement: adopt + persist the new membership, then
        // re-wire the sequencing layer. Re-find the victim by identity: its slot may
        // have shifted while the copy ran.
        auto it = std::find(shards_[shard].begin(), shards_[shard].end(), old_node);
        if (it == shards_[shard].end()) {
          done(Status::Unavailable("old replica no longer a member"));
          return true;
        }
        *it = new_node;
        shard_epoch_++;
        WriteShardConfig([this, old_node, new_node, done]() {
          FanOutToSeq(kSeqUpdateShards, SeqUpdateShardsReq{old_node, new_node}, done);
        });
        return true;
      },
      done);
}

void Controller::AddShard(std::vector<NodeId> replicas) {
  shards_.push_back(std::move(replicas));
  shard_promo_epochs_.push_back(0);
  shard_epoch_++;
  WriteShardConfig(nullptr);
}

// --- virtual-log registry ----------------------------------------------------------------

LogId Controller::CreateLog(const std::string& name, uint64_t quota_per_sec,
                            std::function<void(Status)> done) {
  for (const LogRegistryEntry& entry : log_registry_) {
    if (entry.name == name && !entry.deleted) {
      if (done) {
        done(Status::Ok());
      }
      return entry.id;
    }
  }
  LogRegistryEntry entry;
  entry.id = next_log_id_++;
  entry.name = name;
  entry.quota_per_sec = quota_per_sec;
  log_registry_.push_back(std::move(entry));
  log_epoch_++;
  PublishLogRegistry(std::move(done));
  return log_registry_.back().id;
}

void Controller::DeleteLog(const std::string& name, std::function<void(Status)> done) {
  for (LogRegistryEntry& entry : log_registry_) {
    if (entry.name == name && !entry.deleted) {
      entry.deleted = true;
      log_epoch_++;
      PublishLogRegistry(std::move(done));
      return;
    }
  }
  if (done) {
    done(Status::InvalidArgument("unknown log: " + name));
  }
}

void Controller::PublishLogRegistry(std::function<void(Status)> done) {
  auto encode = [this]() {
    Encoder enc;
    SeqUpdateLogsReq{log_epoch_, log_registry_}.Encode(enc);
    return enc.Take();
  };
  // The ZK write re-encodes per attempt: a newer epoch may have superseded this one, and
  // persisting the latest table is always correct.
  ZkWriteUntilOk("/logs/config", encode, nullptr);
  FanOutToSeq(kSeqUpdateLogs, SeqUpdateLogsReq{log_epoch_, log_registry_}, std::move(done));
}

// --- shard primary failover ------------------------------------------------------------
//
// Promotion protocol (one shard, controller-driven):
//   1. promo-seal every surviving replica under a bumped promotion epoch; the seal ack
//      doubles as a completeness report (applied/durable frontiers, pending bindings),
//      so fencing and candidate selection cost one RPC round;
//   2. pick the survivor with the highest contiguous applied frontier;
//   3. install the new replica order on the peers, then on the new primary — the
//      primary's flip catches lagging peers up from its own log and converts its
//      pending payload bindings into peer back-fills; its ack carries the frontier the
//      orderer must resume from;
//   4. kSeqShardFailover to the sequencing tier: the leader swaps push targets and
//      resets the shard's ordering cursor to that frontier, re-pushing the
//      acked-but-unordered metadata tail (the reconciliation handoff — safe because a
//      window is acked only once every backup replicated it, so nothing at or above
//      ordered-gp was lost with the primary);
//   5. publish the shrunken replica order + promotion epoch to ZK "/shards/config" and
//      re-point the index tier's delta feeds.

namespace {
// Rounds a promo-seal / promote RPC is retried before the target is presumed dead.
constexpr uint32_t kPromoRoundLimit = 8;
}  // namespace

struct Controller::PromoState {
  uint32_t shard = 0;
  uint64_t promo_epoch = 0;
  NodeId old_primary = kInvalidNode;
  std::vector<NodeId> survivors;  // old order minus the primary and known-dead nodes
  std::map<NodeId, ShardCompletenessResp> reports;
  std::set<NodeId> pending;  // seal acks outstanding
  NodeId new_primary = kInvalidNode;
  std::vector<NodeId> new_order;  // new primary first
  LogPos reset_upto = 0;
  std::function<void(Status)> done;
};

void Controller::PromoteShardPrimary(uint32_t shard, std::function<void(Status)> done) {
  BeginShardOp(shard, [this, shard, done = std::move(done)]() mutable {
    auto finish = [this, shard, done = std::move(done)](Status s) {
      EndShardOp(shard);
      if (done) {
        done(std::move(s));
      }
    };
    DoPromoteShardPrimary(shard, std::move(finish));
  });
}

void Controller::DoPromoteShardPrimary(uint32_t shard, std::function<void(Status)> done) {
  if (shard >= shards_.size() || shards_[shard].empty()) {
    done(Status::Unavailable("no such shard"));
    return;
  }
  auto st = std::make_shared<PromoState>();
  st->shard = shard;
  st->old_primary = shards_[shard][0];
  // Bump the in-memory epoch at attempt start (not at commit): a restarted promotion —
  // the chosen candidate died mid-protocol — re-seals the survivors under a strictly
  // higher epoch instead of finding them already unsealed at the stale one.
  st->promo_epoch = ++shard_promo_epochs_[shard];
  st->done = std::move(done);
  dead_shard_servers_.insert(st->old_primary);
  for (size_t i = 1; i < shards_[shard].size(); ++i) {
    const NodeId n = shards_[shard][i];
    if (dead_shard_servers_.count(n) == 0) {
      st->survivors.push_back(n);
    }
  }
  if (st->survivors.empty()) {
    LLOG(kError) << "controller: shard " << shard << " has no surviving replica to promote";
    st->done(Status::Unavailable("no surviving replica"));
    return;
  }
  failover_timing_ = ShardFailoverTiming{};
  failover_timing_.shard = shard;
  failover_timing_.detected_at = endpoint_.loop()->Now();
  failover_timing_.old_primary = st->old_primary;
  st->pending.insert(st->survivors.begin(), st->survivors.end());
  LLOG(kInfo) << "controller: promoting shard " << shard << " (old primary "
              << st->old_primary << ", epoch " << st->promo_epoch << ")";
  PromoSealRound(st, 0);
}

void Controller::PromoSealRound(std::shared_ptr<PromoState> st, uint32_t attempt) {
  if (st->pending.empty()) {
    SelectAndPromote(st);
    return;
  }
  const ShardPromoSealReq req{st->promo_epoch};
  const std::vector<NodeId> round(st->pending.begin(), st->pending.end());
  auto remaining = std::make_shared<size_t>(round.size());
  for (NodeId n : round) {
    endpoint_.CallMsg<ShardCompletenessResp>(
        n, kShardPromoSeal, req,
        [this, st, n, remaining, attempt](Status s, ShardCompletenessResp resp) {
          if (s.ok()) {
            st->reports[n] = resp;
            st->pending.erase(n);
          }
          if (--*remaining > 0) {
            return;
          }
          if (st->pending.empty()) {
            failover_timing_.sealed_at = endpoint_.loop()->Now();
            SelectAndPromote(st);
            return;
          }
          if (attempt + 1 >= kPromoRoundLimit) {
            // Non-responders are presumed dead too: drop them and promote
            // from the replicas that did seal — a failover cannot wait
            // forever on a second casualty.
            for (NodeId drop : st->pending) {
              LLOG(kWarn) << "controller: survivor " << drop
                          << " never promo-sealed; dropping from shard "
                          << st->shard;
              dead_shard_servers_.insert(drop);
            }
            st->pending.clear();
            if (st->reports.empty()) {
              st->done(Status::Unavailable("no survivor reachable for promotion"));
              return;
            }
            failover_timing_.sealed_at = endpoint_.loop()->Now();
            SelectAndPromote(st);
            return;
          }
          endpoint_.loop()->Schedule(kFenceRetryNs, [this, st, attempt]() {
            PromoSealRound(st, attempt + 1);
          });
        },
        kFenceAttemptTimeoutNs);
  }
}

void Controller::SelectAndPromote(std::shared_ptr<PromoState> st) {
  // Most-complete backup: highest contiguous applied frontier (ties broken by the
  // durable frontier, then by position in the old order).
  NodeId best = kInvalidNode;
  LogPos best_applied = 0;
  uint64_t best_durable = 0;
  for (NodeId n : st->survivors) {
    auto it = st->reports.find(n);
    if (it == st->reports.end()) {
      continue;
    }
    const ShardCompletenessResp& r = it->second;
    if (best == kInvalidNode || r.order_applied > best_applied ||
        (r.order_applied == best_applied && r.order_durable > best_durable)) {
      best = n;
      best_applied = r.order_applied;
      best_durable = r.order_durable;
    }
  }
  if (best == kInvalidNode) {
    st->done(Status::Unavailable("no completeness report"));
    return;
  }
  st->new_primary = best;
  failover_timing_.new_primary = best;
  st->new_order.clear();
  st->new_order.push_back(best);
  for (NodeId n : st->survivors) {
    if (n != best && st->reports.count(n) > 0) {
      st->new_order.push_back(n);
    }
  }

  // Install the new order on the peers FIRST: by the time the new primary flips (and
  // starts catching peers up / back-filling from them), every peer already points its
  // repair path and fetch timers at it and accepts its replication traffic.
  auto acked = std::make_shared<std::set<NodeId>>();
  auto after_peers = [this, st, acked]() {
    // Peers that never acked the promote are presumed dead: prune them from the order
    // given to the new primary so its replication acks never gate on a corpse.
    std::vector<NodeId> pruned{st->new_primary};
    for (size_t i = 1; i < st->new_order.size(); ++i) {
      const NodeId n = st->new_order[i];
      if (acked->count(n) > 0) {
        pruned.push_back(n);
      } else {
        LLOG(kWarn) << "controller: peer " << n << " never acked promote; dropping";
        dead_shard_servers_.insert(n);
      }
    }
    st->new_order = std::move(pruned);
    SendPromote(*st, st->new_primary, [this, st](Status s, LogPos upto) {
      if (!s.ok()) {
        // The candidate died mid-promotion: mark it dead and restart the protocol;
        // the next round seals the remaining survivors under a higher epoch.
        LLOG(kWarn) << "controller: promote of candidate " << st->new_primary
                    << " failed (" << s.ToString() << "); restarting promotion";
        dead_shard_servers_.insert(st->new_primary);
        endpoint_.loop()->Schedule(1 * kMs, [this, st]() {
          DoPromoteShardPrimary(st->shard, std::move(st->done));
        });
        return;
      }
      st->reset_upto = upto;
      failover_timing_.handoff_at = endpoint_.loop()->Now();
      failover_timing_.reset_upto = upto;
      FinishPromotion(st);
    });
  };
  if (st->new_order.size() == 1) {
    after_peers();
    return;
  }
  auto remaining = std::make_shared<size_t>(st->new_order.size() - 1);
  for (size_t i = 1; i < st->new_order.size(); ++i) {
    const NodeId peer = st->new_order[i];
    SendPromote(*st, peer, [peer, acked, remaining, after_peers](Status s, LogPos) {
      if (s.ok()) {
        acked->insert(peer);
      }
      if (--*remaining == 0) {
        after_peers();
      }
    });
  }
}

void Controller::SendPromote(const PromoState& st, NodeId target,
                             std::function<void(Status, LogPos)> cb) {
  ShardPromoteReq req;
  req.promo_epoch = st.promo_epoch;
  for (NodeId n : st.new_order) {
    req.order.push_back(n);
    auto it = st.reports.find(n);
    req.peer_applied.push_back(it != st.reports.end() ? it->second.order_applied : 0);
  }
  CallRetrying<ShardOrderAckResp>(
      target, kShardPromote, req, {kFenceAttemptTimeoutNs, kFenceRetryNs, kPromoRoundLimit},
      [cb](const Status& s, ShardOrderAckResp& resp) {
        if (!s.ok()) {
          return false;  // an undecodable ack is retried like a lost one
        }
        cb(Status::Ok(), resp.applied_upto);
        return true;
      },
      [cb](Status s) { cb(std::move(s), 0); });
}

void Controller::FinishPromotion(std::shared_ptr<PromoState> st) {
  // Commit the new membership (survivors only, promoted primary first), then retarget
  // the ordering pipeline BEFORE publishing the config: the leader's cursor reset +
  // re-push is what fills the acked-but-unordered gap, and clients re-resolving the
  // config will immediately append behind it.
  shards_[st->shard] = st->new_order;
  shard_epoch_++;
  SeqShardFailoverReq req{st->shard, st->old_primary, st->new_primary, st->reset_upto};
  FanOutToSeq(kSeqShardFailover, req, [this, st](Status) {
    WriteShardConfig([this, st]() {
      UpdateIndexShards(st->old_primary, st->new_primary, 0);
      promotions_++;
      failover_timing_.opened_at = endpoint_.loop()->Now();
      failover_timing_.complete = true;
      LLOG(kInfo) << "controller: shard " << st->shard << " promoted " << st->new_primary
                  << " (reset_upto " << st->reset_upto << ", epoch " << st->promo_epoch
                  << ")";
      st->done(Status::Ok());
    });
  });
}

void Controller::UpdateIndexShards(NodeId old_node, NodeId new_node, uint32_t attempt) {
  if (index_nodes_.empty()) {
    return;
  }
  const SeqUpdateShardsReq req{old_node, new_node};
  auto rearmed = std::make_shared<bool>(false);
  for (NodeId n : index_nodes_) {
    endpoint_.CallMsg(n, kSeqUpdateShards, req,
                      [this, old_node, new_node, attempt, rearmed](Status s, Decoder) {
                        if (!s.ok() && attempt + 1 < 5 && !*rearmed) {
                          *rearmed = true;
                          endpoint_.loop()->Schedule(
                              2 * kMs, [this, old_node, new_node, attempt]() {
                                UpdateIndexShards(old_node, new_node, attempt + 1);
                              });
                        }
                      },
                      kFenceAttemptTimeoutNs);
  }
}

// --- retry primitive -------------------------------------------------------------------
//
// Three retry shapes drive every per-target control-plane exchange: CallRetrying (one
// target, attempt-limited or unbounded), FanOutToSeq (the sequencing tier, one
// CallRetrying per live member) and ZkWriteUntilOk (a ZK write that never gives up). The
// fences that re-derive their target *set* every round (SealAll, FenceShards,
// PromoSealRound, UpdateIndexShards) stay round-based.

template <typename Resp, typename Req>
void Controller::CallRetrying(NodeId target, MethodId method, Req req, RetryPolicy policy,
                              ReplyHandler<Resp> on_reply,
                              std::function<void(Status)> on_exhausted, uint32_t attempt) {
  endpoint_.CallMsg<Resp>(
      target, method, req,
      [this, target, method, req, policy, on_reply = std::move(on_reply),
       on_exhausted = std::move(on_exhausted), attempt](Status s, Resp resp) mutable {
        if (on_reply(s, resp)) {
          return;
        }
        if (policy.max_attempts != RetryPolicy::kUnbounded &&
            attempt + 1 >= policy.max_attempts) {
          on_exhausted(std::move(s));
          return;
        }
        endpoint_.loop()->Schedule(
            policy.backoff_ns,
            [this, target, method, req = std::move(req), policy, on_reply = std::move(on_reply),
             on_exhausted = std::move(on_exhausted), attempt]() mutable {
              CallRetrying<Resp>(target, method, std::move(req), policy, std::move(on_reply),
                                 std::move(on_exhausted), attempt + 1);
            });
      },
      policy.attempt_timeout_ns);
}

template <typename Req>
void Controller::FanOutToSeq(MethodId method, const Req& req,
                             std::function<void(Status)> done) {
  std::vector<NodeId> targets;
  for (NodeId n : seq_replicas_) {
    if (known_dead_.count(n) == 0) {
      targets.push_back(n);
    }
  }
  if (targets.empty()) {
    if (done) {
      done(Status::Ok());
    }
    return;
  }
  auto remaining = std::make_shared<size_t>(targets.size());
  auto settled = [remaining, done = std::move(done)](Status) {
    if (--*remaining == 0 && done) {
      done(Status::Ok());
    }
  };
  for (NodeId member : targets) {
    CallRetrying<NoBody>(
        member, method, req, {kStartViewAttemptTimeoutNs, 2 * kMs, 10},
        [this, member, settled](const Status& s, NoBody&) {
          if (!s.ok() && known_dead_.count(member) == 0) {
            return false;
          }
          settled(Status::Ok());
          return true;
        },
        settled);
  }
}

void Controller::ZkWriteUntilOk(const std::string& path, std::function<std::string()> encode,
                                std::function<void()> done) {
  const std::string data = encode();
  zk_.SetData(
      path, data, UINT64_MAX,
      [this, path, encode = std::move(encode), done = std::move(done)](Status s) mutable {
        if (!s.ok()) {
          LLOG(kWarn) << "controller: zk write of " << path << " failed (" << s.ToString()
                      << "); retrying";
          endpoint_.loop()->Schedule(kZkRetryNs, [this, path, encode = std::move(encode),
                                                  done = std::move(done)]() mutable {
            ZkWriteUntilOk(path, std::move(encode), std::move(done));
          });
          return;
        }
        if (done) {
          done();
        }
      },
      kZkOpTimeoutNs);
}

// --- stats -----------------------------------------------------------------------------

ControllerStatsSnapshot Controller::StatsSnapshot() const {
  ControllerStatsSnapshot s;
  s.view = view_;
  s.shard_epoch = shard_epoch_;
  s.reconfigurations = reconfigurations_;
  s.promotions = promotions_;
  if (failover_timing_.complete) {
    s.last_seal_to_open_ns = failover_timing_.opened_at - failover_timing_.sealed_at;
    s.last_detect_to_open_ns = failover_timing_.opened_at - failover_timing_.detected_at;
  }
  return s;
}

StatsFields ControllerStatsSnapshot::Fields() const {
  return {
      {"view", static_cast<double>(view)},
      {"shard_epoch", static_cast<double>(shard_epoch)},
      {"reconfigurations", static_cast<double>(reconfigurations)},
      {"promotions", static_cast<double>(promotions)},
      {"last_seal_to_open_ns", static_cast<double>(last_seal_to_open_ns)},
      {"last_detect_to_open_ns", static_cast<double>(last_detect_to_open_ns)},
  };
}

}  // namespace lazylog
