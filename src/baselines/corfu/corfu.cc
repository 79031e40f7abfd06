#include "src/baselines/corfu/corfu.h"

#include "src/common/logging.h"

namespace lazylog {

// --- sequencer -----------------------------------------------------------------------

CorfuSequencer::CorfuSequencer(Network* net, const SimParams& params)
    : endpoint_(net),
      cpu_(net->loop(), CpuParams{.fixed_ns = 300, .copy_bandwidth_bytes_per_sec = 10e9}) {
  endpoint_.Handle<NoBody>(kCorfuNextPos, [this](NodeId, NoBody, Responder r) {
    cpu_.Execute(cpu_.CostFor(0), [this, r]() mutable { r.Ok(next_pos_++); });
  });
  endpoint_.Handle<CorfuTailReq>(kCorfuTail, [this](NodeId, CorfuTailReq req, Responder r) {
    cpu_.Execute(cpu_.CostFor(0), [this, r, req]() mutable {
      if (req.report && req.completed > committed_) {
        committed_ = req.completed;
      }
      r.Ok(CorfuTailResp{next_pos_, committed_});
    });
  });
}

// --- storage unit ----------------------------------------------------------------------

CorfuStorageUnit::CorfuStorageUnit(Network* net, const SimParams& params, ShardId shard_id)
    : endpoint_(net), cpu_(net->loop(), params.shard_cpu), disk_(net->loop(), params.disk) {
  endpoint_.Handle(kCorfuWrite, this, &CorfuStorageUnit::HandleWrite);
  endpoint_.Handle(kCorfuRead, this, &CorfuStorageUnit::HandleRead);
}

void CorfuStorageUnit::HandleWrite(CorfuWriteReq req, Responder r) {
  // Admission charges the fixed per-request CPU cost only; the payload's transfer cost
  // is charged once, at the disk write below (the unit acks from memory/NVRAM). Keeping
  // the byte count out of the ExecuteFor argument also avoids reading `rec` in the same
  // call that moves it into the capture (unspecified evaluation order).
  cpu_.ExecuteFor(0, [this, pos = req.pos, rec = std::move(req.record), r]() mutable {
    auto it = store_.find(pos);
    if (it != store_.end()) {
      // Write-once: a duplicate identical write (client retry) is fine; a conflicting
      // one is an error.
      r.Send(it->second.id == rec.id ? Status::Ok() : Status::Rejected("position taken"));
      return;
    }
    const uint64_t bytes = rec.payload.size();
    store_.emplace(pos, std::move(rec));
    // Flash write happens off the ack path (Corfu acks from the unit's memory/NVRAM);
    // the disk still applies backpressure at saturation.
    disk_.Write(bytes);
    const uint64_t depth = disk_.QueueDepthNs();
    const uint64_t delay = depth > 2 * kMs ? depth - 2 * kMs : 0;
    auto finish = [this, pos, r]() mutable {
      r.Send(Status::Ok());
      // Wake any read waiting for this position.
      std::vector<ReadWaiter> rest;
      for (auto& w : waiters_) {
        if (w.pos == pos) {
          w.responder.Ok(store_[pos]);
        } else {
          rest.push_back(std::move(w));
        }
      }
      waiters_ = std::move(rest);
    };
    if (delay == 0) {
      finish();
    } else {
      endpoint_.loop()->Schedule(delay, std::move(finish));
    }
  });
}

void CorfuStorageUnit::HandleRead(const CorfuReadReq& req, Responder r) {
  const uint64_t pos = req.pos;
  auto it = store_.find(pos);
  if (it == store_.end()) {
    if (req.nowait) {
      r.Send(Status::OutOfRange("position unwritten"));
    } else {
      waiters_.push_back(ReadWaiter{pos, std::move(r)});
    }
    return;
  }
  cpu_.ExecuteFor(it->second.payload.size(), [this, pos, r]() mutable {
    r.Ok(store_[pos]);
  });
}

// --- client ----------------------------------------------------------------------------

CorfuClient::CorfuClient(Network* net, const SimParams& params, NodeId sequencer,
                         std::vector<std::vector<NodeId>> chains, ClientId client_id)
    : SharedLogClient(net->loop(), params.client_read.tail_cache_ttl_ns),
      endpoint_(net),
      params_(params),
      sequencer_(sequencer),
      chains_(std::move(chains)),
      client_id_(client_id) {}

void CorfuClient::Append(const AppendOptions& options, Buf payload, AppendCallback cb) {
  // Any non-OK status (including kOverloaded, should the sequencer ever gain admission
  // control) passes through unmapped: Corfu has no client-side shed/retry tier.
  AppendAt(options, std::move(payload), [cb](Status s, LogPos) { cb(std::move(s)); });
}

void CorfuClient::AppendAt(Buf payload, AppendPosCallback cb) {
  AppendAt(AppendOptions{}, std::move(payload), std::move(cb));
}

void CorfuClient::AppendAt(const AppendOptions& options, Buf payload, AppendPosCallback cb) {
  // RTT 1: obtain a position from the sequencer (not yet binding, §2.2).
  auto record = std::make_shared<Record>();
  record->id = RecordId{client_id_, next_request_id_++};
  record->payload = std::move(payload);
  record->tag = options.tag;
  record->log = options.log;
  endpoint_.CallMsg<uint64_t>(sequencer_, kCorfuNextPos, NoBody{},
                              [this, record, cb](Status s, uint64_t pos) {
                                if (!s.ok()) {
                                  cb(std::move(s), kInvalidLogPos);
                                  return;
                                }
                                // RTTs 2..1+k: client-driven chain write binds the record.
                                ChainWrite(pos, record, 0, std::move(cb));
                              },
                              params_.rpc_timeout_ns);
}

void CorfuClient::ChainWrite(LogPos pos, std::shared_ptr<Record> record, size_t hop,
                             AppendPosCallback cb) {
  const auto& chain = chains_[pos % chains_.size()];
  if (hop == chain.size()) {
    // Written at the chain tail: durable and bound. Report the completed write so the
    // sequencer's committed tail advances.
    endpoint_.Notify(sequencer_, kCorfuTail, CorfuTailReq{true, pos + 1});
    cb(Status::Ok(), pos);
    return;
  }
  endpoint_.CallMsg(chain[hop], kCorfuWrite, CorfuWriteReq{pos, *record},
                    [this, pos, record, hop, cb](Status s, Decoder) {
                      if (!s.ok()) {
                        cb(std::move(s), kInvalidLogPos);
                        return;
                      }
                      ChainWrite(pos, record, hop + 1, cb);
                    },
                    params_.rpc_timeout_ns);
}

void CorfuClient::Read(LogPos from, uint64_t len, ReadCallback cb) {
  ReadEach(from, len, [this](LogPos pos, ReadOneCallback done) {
    // Committed data is read from the chain tail.
    read_stats_.primary_reads++;
    const auto& chain = chains_[pos % chains_.size()];
    endpoint_.CallMsg<Record>(chain.back(), kCorfuRead, CorfuReadReq{pos, false},
                              [pos, done](Status s, Record rec) {
                                done(std::move(s), PositionedRecord{pos, std::move(rec)});
                              },
                              0);
  }, std::move(cb));
}

void CorfuClient::CheckTail(TailCallback cb) {
  endpoint_.CallMsg<CorfuTailResp>(
      sequencer_, kCorfuTail, CorfuTailReq{},
      [this, cb](Status s, CorfuTailResp resp) {
        if (!s.ok()) {
          cb(std::move(s), 0, 0);
          return;
        }
        // Corfu binds eagerly: every committed record is stable.
        tails_.Note(endpoint_.loop()->Now(), resp.committed, resp.committed);
        cb(Status::Ok(), resp.committed, resp.committed);
      },
      params_.rpc_timeout_ns);
}

void CorfuClient::Trim(LogPos index, TrimCallback cb) {
  // Storage units keep a hash map; trim is metadata-only in this baseline.
  cb(Status::Ok());
}

// --- cluster ------------------------------------------------------------------------------

CorfuCluster::CorfuCluster(uint32_t num_shards, uint32_t chain_length, const SimParams& params)
    : params_(params) {
  net_ = std::make_unique<Network>(&loop_, params_.net, params_.seed);
  sequencer_ = std::make_unique<CorfuSequencer>(net_.get(), params_);
  for (uint32_t s = 0; s < num_shards; ++s) {
    std::vector<std::unique_ptr<CorfuStorageUnit>> chain;
    for (uint32_t r = 0; r < chain_length; ++r) {
      chain.push_back(std::make_unique<CorfuStorageUnit>(net_.get(), params_, s));
    }
    chains_.push_back(std::move(chain));
  }
}

std::unique_ptr<CorfuClient> CorfuCluster::MakeClient() {
  std::vector<std::vector<NodeId>> chains;
  for (const auto& chain : chains_) {
    std::vector<NodeId> ids;
    for (const auto& unit : chain) {
      ids.push_back(unit->node_id());
    }
    chains.push_back(std::move(ids));
  }
  return std::make_unique<CorfuClient>(net_.get(), params_, sequencer_->node_id(),
                                       std::move(chains), next_client_id_++);
}

}  // namespace lazylog
