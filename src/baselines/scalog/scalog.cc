#include "src/baselines/scalog/scalog.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/rpc/rpc_methods.h"

namespace lazylog {

// --- shard server -----------------------------------------------------------------------

ScalogShardServer::ScalogShardServer(Network* net, const SimParams& params, ShardId shard_id,
                                     bool primary)
    : endpoint_(net), cpu_(net->loop(), params.shard_cpu), disk_(net->loop(), params.disk),
      params_(params), shard_id_(shard_id), primary_(primary) {
  endpoint_.Handle(kScalogAppend, this, &ScalogShardServer::HandleAppend);
  endpoint_.Handle(kScalogReplicate, this, &ScalogShardServer::HandleReplicate);
  endpoint_.Handle(kScalogCommitCut, this, &ScalogShardServer::HandleCommitCut);
  endpoint_.Handle(kScalogRead, this, &ScalogShardServer::HandleRead);
}

void ScalogShardServer::Start(NodeId backup, NodeId ordering_leader, uint32_t server_index) {
  backup_ = backup;
  ordering_leader_ = ordering_leader;
  server_index_ = server_index;
  ReportLoop();
}

void ScalogShardServer::HandleAppend(Record rec, Responder r) {
  // The gRPC handling penalty models the artifact's stack (§6.1 discussion); the shape
  // of Scalog's latency comes from the disk + batching + cut pipeline below.
  const uint64_t cost = params_.scalog.grpc_overhead_ns + cpu_.CostFor(rec.payload.size());
  cpu_.Execute(cost, [this, rec = std::move(rec), r]() mutable {
    const uint64_t bytes = rec.payload.size();
    const uint64_t local = log_.Append(rec);
    pending_.emplace_back(local, std::move(r));
    // "The primary logs and replicates the records in FIFO order to its backup"
    // (§2.2): the record counts toward the reported durable length once on disk, and
    // is forwarded to the backup after local logging — the serial local-ordering cost
    // Scalog pays eagerly.
    disk_.Write(bytes, [this, local, rec = std::move(rec)]() mutable {
      durable_len_++;
      if (backup_ != kInvalidNode) {
        endpoint_.Notify(backup_, kScalogReplicate, ScalogReplicateReq{local, std::move(rec)});
      }
    });
  });
}

void ScalogShardServer::HandleReplicate(ScalogReplicateReq req) {
  // Fixed admission cost only; the payload is charged at the disk write below.
  cpu_.ExecuteFor(0, [this, local = req.local, rec = std::move(req.record)]() mutable {
    // Jitter can reorder wire deliveries; restore FIFO by buffering and applying the
    // contiguous prefix.
    reorder_buf_.emplace(local, std::move(rec));
    for (auto it = reorder_buf_.find(log_.end_index()); it != reorder_buf_.end();
         it = reorder_buf_.find(log_.end_index())) {
      const uint64_t bytes = it->second.payload.size();
      log_.Append(std::move(it->second));
      reorder_buf_.erase(it);
      disk_.Write(bytes, [this]() { durable_len_++; });
    }
  });
}

void ScalogShardServer::ReportLoop() {
  if (ordering_leader_ != kInvalidNode) {
    endpoint_.Notify(ordering_leader_, kScalogReportCut,
                     ScalogReportCutReq{shard_id_, server_index_, durable_len_});
  }
  endpoint_.loop()->Schedule(params_.scalog.interleave_interval_ns, [this]() { ReportLoop(); });
}

void ScalogShardServer::HandleCommitCut(const std::vector<CutRange>& ranges) {
  for (const CutRange& range : ranges) {
    if (range.shard != shard_id_ || range.count == 0) {
      continue;
    }
    ranges_.push_back({range.global_start, range.local_start, range.count});
    acked_len_ = std::max(acked_len_, range.local_start + range.count);
  }
  // Records covered by the cut are now globally ordered: acknowledge their appends.
  while (!pending_.empty() && pending_.front().first < acked_len_) {
    pending_.front().second.Send(Status::Ok());
    pending_.pop_front();
    acked_appends_++;
  }
}

void ScalogShardServer::HandleRead(const ScalogReadReq& req, Responder r) {
  const uint64_t local = req.local;
  const uint64_t global = req.global;
  const Record* rec = log_.Get(local);
  if (rec == nullptr || local >= acked_len_) {
    r.Send(Status::OutOfRange("not ordered yet"));
    return;
  }
  cpu_.ExecuteFor(rec->payload.size(), [this, global, rec, r]() mutable {
    r.Ok(PositionedRecord{global, *rec});
  });
}

// --- ordering layer ------------------------------------------------------------------------

ScalogOrderingLayer::ScalogOrderingLayer(Network* net, const SimParams& params,
                                         uint32_t num_shards)
    : endpoint_(net),
      cpu_(net->loop(), CpuParams{.fixed_ns = 1'000, .copy_bandwidth_bytes_per_sec = 5e9}),
      params_(params), num_shards_(num_shards) {
  reported_.assign(num_shards_, std::vector<uint64_t>(2, 0));
  committed_cut_.assign(num_shards_, 0);
  history_.resize(num_shards_);
  endpoint_.Handle<ScalogReportCutReq>(
      kScalogReportCut, [this](NodeId, const ScalogReportCutReq& req) {
        if (req.shard < num_shards_ && req.server < 2) {
          reported_[req.shard][req.server] = std::max(reported_[req.shard][req.server], req.len);
        }
      });
  endpoint_.Handle<uint64_t>(kScalogLocate, [this](NodeId, uint64_t pos, Responder r) {
    ScalogLocateResp resp;
    if (!Locate(pos, &resp.shard, &resp.local)) {
      r.Send(Status::OutOfRange("not ordered"));
      return;
    }
    r.Ok(resp);
  });
  endpoint_.Handle<NoBody>(kScalogTail, [this](NodeId, NoBody, Responder r) { r.Ok(total_); });
}

void ScalogOrderingLayer::Start(std::vector<NodeId> acceptors, std::vector<NodeId> servers) {
  proposer_ = std::make_unique<PaxosProposer>(&endpoint_, std::move(acceptors), /*ballot=*/1,
                                              params_.rpc_timeout_ns);
  servers_ = std::move(servers);
  CutLoop();
}

void ScalogOrderingLayer::CutLoop() {
  if (!cut_in_flight_) {
    // Global cut: the durable prefix of each shard is the min across its replicas.
    std::vector<uint64_t> cut(num_shards_);
    bool grew = false;
    for (uint32_t s = 0; s < num_shards_; ++s) {
      cut[s] = std::min(reported_[s][0], reported_[s][1]);
      grew |= cut[s] > committed_cut_[s];
    }
    if (grew) {
      cut_in_flight_ = true;
      CommitCut(std::move(cut));
    }
  }
  endpoint_.loop()->Schedule(params_.scalog.interleave_interval_ns, [this]() { CutLoop(); });
}

void ScalogOrderingLayer::CommitCut(std::vector<uint64_t> cut) {
  Encoder value;
  WireEncode(value, cut);
  proposer_->Propose(next_slot_, value.Take(), [this, cut = std::move(cut)](Status s) {
    cut_in_flight_ = false;
    if (!s.ok()) {
      LLOG(kWarn) << "scalog: cut commit failed: " << s.ToString();
      return;
    }
    next_slot_++;
    cuts_committed_++;
    // Assign global positions: shards in index order within the cut (deterministic).
    std::vector<CutRange> ranges;
    for (uint32_t sh = 0; sh < num_shards_; ++sh) {
      const uint64_t delta = cut[sh] > committed_cut_[sh] ? cut[sh] - committed_cut_[sh] : 0;
      if (delta == 0) {
        continue;
      }
      ranges.push_back(CutRange{sh, total_, committed_cut_[sh], delta});
      history_[sh].push_back({total_, committed_cut_[sh], delta});
      total_ += delta;
      committed_cut_[sh] = cut[sh];
    }
    for (NodeId n : servers_) {
      endpoint_.Notify(n, kScalogCommitCut, ranges);
    }
  });
}

bool ScalogOrderingLayer::Locate(LogPos pos, ShardId* shard, uint64_t* local) const {
  if (pos >= total_) {
    return false;
  }
  for (uint32_t sh = 0; sh < num_shards_; ++sh) {
    for (const auto& range : history_[sh]) {
      if (pos >= range[0] && pos < range[0] + range[2]) {
        *shard = sh;
        *local = range[1] + (pos - range[0]);
        return true;
      }
    }
  }
  return false;
}

// --- client ----------------------------------------------------------------------------------

ScalogClient::ScalogClient(Network* net, const SimParams& params, NodeId ordering_leader,
                           std::vector<NodeId> shard_primaries, ClientId client_id)
    : SharedLogClient(net->loop(), params.client_read.tail_cache_ttl_ns),
      endpoint_(net),
      params_(params),
      ordering_leader_(ordering_leader),
      shard_primaries_(std::move(shard_primaries)), client_id_(client_id) {
  rr_cursor_ = client_id;
}

void ScalogClient::Append(const AppendOptions& options, Buf payload, AppendCallback cb) {
  Record rec;
  rec.id = RecordId{client_id_, next_request_id_++};
  rec.payload = std::move(payload);
  rec.tag = options.tag;
  rec.log = options.log;
  const NodeId target = shard_primaries_[rr_cursor_++ % shard_primaries_.size()];
  // Statuses pass through unmapped (kOverloaded included, if a shard ever sheds load):
  // the Scalog baseline models no admission control or client-side overload retry.
  endpoint_.CallMsg(target, kScalogAppend, rec, [cb](Status s, Decoder) { cb(std::move(s)); },
                    params_.rpc_timeout_ns);
}

void ScalogClient::Read(LogPos from, uint64_t len, ReadCallback cb) {
  ReadEach(from, len, [this](LogPos pos, ReadOneCallback done) {
    read_stats_.primary_reads++;
    endpoint_.CallMsg<ScalogLocateResp>(
        ordering_leader_, kScalogLocate, pos,
        [this, pos, done](Status s, ScalogLocateResp loc) {
          if (!s.ok()) {
            done(std::move(s), {});
            return;
          }
          endpoint_.CallMsg<PositionedRecord>(shard_primaries_[loc.shard], kScalogRead,
                                              ScalogReadReq{loc.local, pos}, done,
                                              params_.rpc_timeout_ns);
        },
        params_.rpc_timeout_ns);
  }, std::move(cb));
}

void ScalogClient::CheckTail(TailCallback cb) {
  endpoint_.CallMsg<uint64_t>(ordering_leader_, kScalogTail, NoBody{},
                              [this, cb](Status s, uint64_t total) {
                                if (!s.ok()) {
                                  cb(std::move(s), 0, 0);
                                  return;
                                }
                                tails_.Note(endpoint_.loop()->Now(), total, total);
                                cb(Status::Ok(), total, total);
                              },
                              params_.rpc_timeout_ns);
}

void ScalogClient::Trim(LogPos index, TrimCallback cb) { cb(Status::Ok()); }

// --- cluster -----------------------------------------------------------------------------------

ScalogCluster::ScalogCluster(uint32_t num_shards, const SimParams& params) : params_(params) {
  net_ = std::make_unique<Network>(&loop_, params_.net, params_.seed);
  for (int i = 0; i < 3; ++i) {
    acceptors_.push_back(std::make_unique<PaxosAcceptor>(net_.get()));
  }
  ordering_ = std::make_unique<ScalogOrderingLayer>(net_.get(), params_, num_shards);
  std::vector<NodeId> servers;
  for (uint32_t s = 0; s < num_shards; ++s) {
    primaries_.push_back(std::make_unique<ScalogShardServer>(net_.get(), params_, s, true));
    backups_.push_back(std::make_unique<ScalogShardServer>(net_.get(), params_, s, false));
    servers.push_back(primaries_.back()->node_id());
    servers.push_back(backups_.back()->node_id());
  }
  std::vector<NodeId> acceptor_ids;
  for (const auto& a : acceptors_) {
    acceptor_ids.push_back(a->node_id());
  }
  ordering_->Start(acceptor_ids, servers);
  for (uint32_t s = 0; s < num_shards; ++s) {
    primaries_[s]->Start(backups_[s]->node_id(), ordering_->node_id(), 0);
    backups_[s]->Start(kInvalidNode, ordering_->node_id(), 1);
  }
}

std::unique_ptr<ScalogClient> ScalogCluster::MakeClient() {
  std::vector<NodeId> primaries;
  for (const auto& p : primaries_) {
    primaries.push_back(p->node_id());
  }
  return std::make_unique<ScalogClient>(net_.get(), params_, ordering_->node_id(),
                                        std::move(primaries), next_client_id_++);
}

}  // namespace lazylog
