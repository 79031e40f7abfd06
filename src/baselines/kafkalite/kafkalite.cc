#include "src/baselines/kafkalite/kafkalite.h"

#include <algorithm>

#include "src/common/logging.h"

namespace lazylog {

// --- broker --------------------------------------------------------------------------------

KafkaBroker::KafkaBroker(Network* net, const SimParams& params, uint32_t partition, bool leader)
    : endpoint_(net),
      cpu_(net->loop(), CpuParams{.fixed_ns = kKafkaBrokerFixedNs,
                                  .copy_bandwidth_bytes_per_sec = 1.5e9}),
      disk_(net->loop(), params.disk),
      params_(params),
      partition_(partition),
      leader_(leader) {
  endpoint_.Handle(kKafkaProduce, this, &KafkaBroker::HandleProduce);
  endpoint_.Handle(kKafkaReplicate, this, &KafkaBroker::HandleReplicate);
  endpoint_.Handle(kKafkaFetch, this, &KafkaBroker::HandleFetch);
  endpoint_.Handle(kKafkaTruncate, this, &KafkaBroker::HandleTruncate);
  endpoint_.Handle<NoBody>(kKafkaMeta, [this](NodeId, NoBody, Responder r) {
    r.Ok(log_.end_index());
  });
}

void KafkaBroker::HandleProduce(std::vector<Record> batch, Responder r) {
  uint64_t bytes = 0;
  for (const Record& rec : batch) {
    bytes += rec.payload.size();
  }
  cpu_.ExecuteFor(bytes, [this, batch = std::move(batch), bytes, r]() mutable {
    // Build the replication frame before the records are moved into the local log.
    // Payloads ride as attachments, so followers share the producer's backing.
    EncodedMsg replicate;
    if (!followers_.empty()) {
      replicate = EncodeMsg(batch);
    }
    for (Record& rec : batch) {
      log_.Append(std::move(rec));
    }
    // acks=all: respond only after every follower persisted and our own disk write
    // completed.
    struct AckState {
      int waits = 0;
      bool failed = false;
      Responder r;
      void Done(const Status& s) {
        if (!s.ok()) {
          failed = true;
        }
        if (--waits == 0) {
          r.Send(failed ? Status::Internal("replication failed") : Status::Ok());
        }
      }
    };
    auto ack = std::make_shared<AckState>();
    ack->r = std::move(r);
    ack->waits = static_cast<int>(followers_.size()) + 2;  // followers + own disk + guard
    for (NodeId f : followers_) {
      endpoint_.CallMsg(f, kKafkaReplicate, replicate,
                        [ack](Status s, Decoder) { ack->Done(s); }, params_.rpc_timeout_ns);
    }
    disk_.Write(bytes, [ack]() { ack->Done(Status::Ok()); });
    ack->Done(Status::Ok());  // guard release
  });
}

void KafkaBroker::HandleReplicate(std::vector<Record> batch, Responder r) {
  uint64_t bytes = 0;
  for (const Record& rec : batch) {
    bytes += rec.payload.size();
  }
  cpu_.ExecuteFor(bytes, [this, batch = std::move(batch), bytes, r]() mutable {
    for (Record& rec : batch) {
      log_.Append(std::move(rec));
    }
    disk_.Write(bytes, [r]() mutable { r.Send(Status::Ok()); });
  });
}

void KafkaBroker::HandleFetch(const KafkaFetchReq& req, Responder r) {
  uint32_t count = 0;
  uint64_t bytes = 0;
  KafkaFetchResp resp;
  for (uint64_t o = req.offset; o < log_.end_index() && count < req.max_records;
       ++o, ++count) {
    const Record* rec = log_.Get(o);
    if (rec == nullptr) {
      break;
    }
    resp.records.push_back(*rec);
    bytes += rec->payload.size();
  }
  resp.log_end_offset = log_.end_index();
  cpu_.ExecuteFor(bytes, [resp = std::move(resp), r]() mutable { r.Ok(resp); });
}

void KafkaBroker::HandleTruncate(uint64_t from, Responder r) {
  log_.TruncateFrom(from);
  if (leader_) {
    auto gather = Gather::Create(followers_.size(), [r](const std::vector<Status>&) mutable {
      r.Send(Status::Ok());
    });
    if (followers_.empty()) {
      r.Send(Status::Ok());
      return;
    }
    for (size_t i = 0; i < followers_.size(); ++i) {
      endpoint_.CallMsg(followers_[i], kKafkaTruncate, from, gather->Slot(i),
                        params_.rpc_timeout_ns);
    }
    return;
  }
  r.Send(Status::Ok());
}

// --- producer -------------------------------------------------------------------------------

KafkaProducer::KafkaProducer(Network* net, const SimParams& params, NodeId leader,
                             ClientId client_id)
    : endpoint_(net), params_(params), leader_(leader), client_id_(client_id) {}

void KafkaProducer::Produce(Buf payload, ProduceCallback cb) {
  Produce(kNoTag, std::move(payload), std::move(cb));
}

void KafkaProducer::Produce(StreamTag tag, Buf payload, ProduceCallback cb) {
  // Broker statuses reach the callback unmapped (kOverloaded included, if the broker
  // ever sheds load); the linger buffer itself applies no admission control.
  buffered_bytes_ += payload.size();
  buffer_.push_back(
      Record{RecordId{client_id_, next_request_id_++}, std::move(payload), false, tag});
  callbacks_.push_back(std::move(cb));
  if (buffered_bytes_ >= 1 << 20) {
    FlushLocked();
    return;
  }
  if (!linger_timer_.Pending()) {
    linger_timer_ = endpoint_.loop()->Schedule(kKafkaLingerNs, [this]() {
      FlushLocked();
    });
  }
}

void KafkaProducer::Flush() { FlushLocked(); }

void KafkaProducer::FlushLocked() {
  linger_timer_.Cancel();
  if (buffer_.empty()) {
    return;
  }
  auto cbs = std::make_shared<std::vector<ProduceCallback>>(std::move(callbacks_));
  endpoint_.CallMsg(leader_, kKafkaProduce, buffer_,
                    [cbs](Status s, Decoder) {
                      for (auto& cb : *cbs) {
                        if (cb) {
                          cb(s);
                        }
                      }
                    },
                    params_.rpc_timeout_ns);
  buffer_.clear();
  callbacks_.clear();
  buffered_bytes_ = 0;
}

// --- consumer -------------------------------------------------------------------------------

KafkaConsumer::KafkaConsumer(Network* net, const SimParams& params, NodeId leader)
    : endpoint_(net), params_(params), leader_(leader) {}

void KafkaConsumer::Fetch(uint64_t offset, uint32_t max_records, FetchCallback cb) {
  endpoint_.CallMsg<KafkaFetchResp>(
      leader_, kKafkaFetch, KafkaFetchReq{offset, max_records},
      [this, cb](Status s, KafkaFetchResp resp) {
        if (s.ok()) {
          last_known_leo_ = std::max(last_known_leo_, resp.log_end_offset);
        }
        cb(std::move(s), std::move(resp.records));
      },
      params_.rpc_timeout_ns);
}

// --- Erwin-m shard adapter --------------------------------------------------------------------

KafkaShardAdapter::KafkaShardAdapter(Network* net, const SimParams& params, ShardId shard_id,
                                     NodeId kafka_leader)
    : endpoint_(net),
      cpu_(net->loop(), CpuParams{.fixed_ns = 500, .copy_bandwidth_bytes_per_sec = 4e9}),
      params_(params), shard_id_(shard_id), kafka_leader_(kafka_leader) {
  endpoint_.Handle(kShardAppendBatch, this, &KafkaShardAdapter::HandleAppendBatch);
  // One handler serves both read methods; the method decides whether the read waits.
  endpoint_.Handle<ShardReadReq>(kShardRead, [this](NodeId, ShardReadReq req, Responder r) {
    HandleRead(/*wait=*/true, std::move(req), std::move(r));
  });
  endpoint_.Handle<ShardReadReq>(kShardMultiRangeRead,
                                 [this](NodeId, ShardReadReq req, Responder r) {
                                   HandleRead(/*wait=*/false, std::move(req), std::move(r));
                                 });
  endpoint_.Handle(kShardSetStableGp, this, &KafkaShardAdapter::HandleSetStableGp);
  endpoint_.Handle(kShardTrim, this, &KafkaShardAdapter::HandleTrim);
}

void KafkaShardAdapter::SendWatermarkAck(Responder& r, const Status& s) {
  ShardOrderAckResp resp{order_durable_};
  Encoder e;
  resp.Encode(e);
  r.Send(s, e.TakeBuf());
}

void KafkaShardAdapter::HandleAppendBatch(ShardAppendBatchReq window, Responder r) {
  auto req = std::make_shared<ShardAppendBatchReq>(std::move(window));
  if (req->view < view_) {
    SendWatermarkAck(r, Status::WrongView());
    return;
  }
  view_ = req->view;
  cpu_.Execute(cpu_.CostFor(0), [this, req, r]() mutable {
    if (req->overwrite) {
      // Recovery rewrite fences everything queued behind the old tail.
      for (auto& [lo, w] : pending_) {
        SendWatermarkAck(w.responder, Status::Unavailable("superseded by recovery flush"));
      }
      pending_.clear();
      ApplyWindow(PendingWindow{req, std::move(r)});
      return;
    }
    // Fully durable retransmit (a lost ack): re-ack so the cursor resynchronizes.
    if (req->range_hi != 0 && req->range_hi <= order_durable_) {
      SendWatermarkAck(r, Status::Ok());
      return;
    }
    auto [it, inserted] = pending_.try_emplace(req->range_lo);
    if (!inserted) {
      SendWatermarkAck(it->second.responder, Status::Unavailable("superseded by retransmit"));
    }
    it->second = PendingWindow{req, std::move(r)};
    if (pending_.size() > 64) {
      auto last = std::prev(pending_.end());
      SendWatermarkAck(last->second.responder, Status::Unavailable("window queue overflow"));
      pending_.erase(last);
    }
    DrainWindows();
  });
}

void KafkaShardAdapter::DrainWindows() {
  // Apply strictly in position order, one Kafka produce at a time: the durable
  // watermark then always covers a contiguous prefix. Windows ahead of the frontier
  // wait for the ordering cursor to fill (or re-send) the gap.
  while (!produce_inflight_ && !pending_.empty() &&
         pending_.begin()->first <= order_durable_) {
    PendingWindow w = std::move(pending_.begin()->second);
    pending_.erase(pending_.begin());
    ApplyWindow(std::move(w));
  }
}

void KafkaShardAdapter::ApplyWindow(PendingWindow w) {
  auto req = w.req;
  auto r = std::move(w.responder);
  auto produce = [this, req, r]() mutable {
    // Drop duplicates from orderer retries, then produce the rest to Kafka.
    std::vector<Record> wire;
    for (auto& pr : req->records) {
      if (pos_to_offset_.count(pr.pos) > 0) {
        continue;
      }
      const uint64_t offset = offset_base_ + offset_pos_.size();
      pos_to_offset_[pr.pos] = offset;
      offset_pos_.push_back(pr.pos);
      wire.push_back(std::move(pr.record));
    }
    auto complete = [this, req, r](Status s) mutable {
      if (s.ok()) {
        order_durable_ = std::max(order_durable_, req->range_hi);
        if (req->overwrite) {
          order_durable_ = std::max<LogPos>(order_durable_, req->truncate_from);
        }
      }
      produce_inflight_ = false;
      SendWatermarkAck(r, s);
      DrainWindows();
    };
    if (wire.empty()) {
      complete(Status::Ok());
      return;
    }
    produce_inflight_ = true;
    endpoint_.CallMsg(kafka_leader_, kKafkaProduce, wire,
                      [complete](Status s, Decoder) mutable { complete(std::move(s)); },
                      params_.rpc_timeout_ns);
  };
  if (req->overwrite) {
    // Recovery rewrite: "delete tail records and then append new entries" (§4.1).
    order_durable_ = std::min(order_durable_, req->truncate_from);
    uint64_t dropped = 0;
    while (!offset_pos_.empty() && offset_pos_.back() >= req->truncate_from) {
      pos_to_offset_.erase(offset_pos_.back());
      offset_pos_.pop_back();
      ++dropped;
    }
    if (dropped > 0) {
      produce_inflight_ = true;
      endpoint_.CallMsg(kafka_leader_, kKafkaTruncate,
                        static_cast<uint64_t>(offset_base_ + offset_pos_.size()),
                        [this, produce](Status, Decoder) mutable {
                          produce_inflight_ = false;
                          produce();
                        },
                        params_.rpc_timeout_ns);
      return;
    }
  }
  produce();
}

void KafkaShardAdapter::HandleRead(bool wait, ShardReadReq req, Responder r) {
  auto read = std::make_shared<ShardReadReq>(std::move(req));
  // A waiting read is judged by the start of its first range.
  if (wait && !read->ranges.empty() && read->ranges.front().pos >= stable_gp_) {
    slow_reads_++;
    waiters_.push_back(Waiter{std::move(read), std::move(r)});
    return;
  }
  ServeNextRange(wait, std::move(read), 0, std::make_shared<ShardReadResp>(), std::move(r));
}

bool KafkaShardAdapter::FetchStable(LogPos pos, uint32_t len, FetchedCallback cb) {
  auto it = pos_to_offset_.find(pos);
  if (pos >= stable_gp_ || it == pos_to_offset_.end()) {
    return false;
  }
  const uint64_t offset = it->second;
  const LogPos stable = stable_gp_;
  endpoint_.CallMsg<KafkaFetchResp>(
      kafka_leader_, kKafkaFetch, KafkaFetchReq{offset, len},
      [this, offset, stable, cb = std::move(cb)](Status s, KafkaFetchResp fetched) {
        std::vector<PositionedRecord> out;
        if (s.ok()) {
          for (size_t i = 0; i < fetched.records.size(); ++i) {
            const uint64_t o = offset + i;
            if (o - offset_base_ >= offset_pos_.size()) {
              break;
            }
            const LogPos at = offset_pos_[o - offset_base_];
            if (at >= stable) {
              break;
            }
            out.push_back(PositionedRecord{at, std::move(fetched.records[i])});
          }
        }
        cb(std::move(s), std::move(out));
      },
      params_.rpc_timeout_ns);
  return true;
}

void KafkaShardAdapter::ServeNextRange(bool wait, std::shared_ptr<ShardReadReq> req,
                                       size_t i, std::shared_ptr<ShardReadResp> resp,
                                       Responder r) {
  // A read that never waits gives count 0 to an unstable/unknown range start and to a
  // failed fetch; the client re-issues those as a waiting read. A waiting read was
  // admitted on its first range's start, so that range must be served.
  for (; i < req->ranges.size(); ++i) {
    auto next = [this, wait, req, i, resp, r](Status s,
                                              std::vector<PositionedRecord> recs) mutable {
      if (wait && !s.ok()) {
        r.Send(std::move(s));
        return;
      }
      resp->counts.push_back(static_cast<uint32_t>(recs.size()));
      for (PositionedRecord& pr : recs) {
        resp->records.push_back(std::move(pr));
      }
      ServeNextRange(wait, std::move(req), i + 1, std::move(resp), std::move(r));
    };
    if (FetchStable(req->ranges[i].pos, req->ranges[i].len, std::move(next))) {
      return;
    }
    if (wait && i == 0) {
      r.Send(Status::Internal("stable position unknown to adapter"));
      return;
    }
    resp->counts.push_back(0);
  }
  resp->stable_gp = stable_gp_;
  resp->durable_tail = std::max(durable_hint_, stable_gp_);
  r.Ok(*resp);
}

void KafkaShardAdapter::HandleSetStableGp(const StableGpMsg& msg) {
  if (msg.view >= view_) {
    view_ = msg.view;
    stable_gp_ = std::max(stable_gp_, msg.stable_gp);
    durable_hint_ = std::max(durable_hint_, msg.durable_tail);
    WakeWaiters();
  }
}

void KafkaShardAdapter::WakeWaiters() {
  auto waiters = std::move(waiters_);
  waiters_.clear();
  for (Waiter& w : waiters) {
    if (w.req->ranges.front().pos < stable_gp_) {
      ServeNextRange(/*wait=*/true, std::move(w.req), 0, std::make_shared<ShardReadResp>(),
                     std::move(w.responder));
    } else {
      waiters_.push_back(std::move(w));
    }
  }
}

void KafkaShardAdapter::HandleTrim(const TrimMsg& msg, Responder r) {
  // Kafka prefix deletion is retention-based; the adapter only forgets its mapping.
  while (!offset_pos_.empty() && offset_pos_.front() < msg.up_to) {
    pos_to_offset_.erase(offset_pos_.front());
    offset_pos_.pop_front();
    ++offset_base_;
  }
  r.Send(Status::Ok());
}

// --- standalone cluster -----------------------------------------------------------------------

KafkaCluster::KafkaCluster(uint32_t partitions, uint32_t replication, const SimParams& params)
    : params_(params) {
  net_ = std::make_unique<Network>(&loop_, params_.net, params_.seed);
  for (uint32_t p = 0; p < partitions; ++p) {
    std::vector<std::unique_ptr<KafkaBroker>> replicas;
    for (uint32_t r = 0; r < replication; ++r) {
      replicas.push_back(std::make_unique<KafkaBroker>(net_.get(), params_, p, r == 0));
    }
    std::vector<NodeId> followers;
    for (uint32_t r = 1; r < replication; ++r) {
      followers.push_back(replicas[r]->node_id());
    }
    replicas[0]->SetFollowers(std::move(followers));
    brokers_.push_back(std::move(replicas));
  }
}

std::unique_ptr<KafkaProducer> KafkaCluster::MakeProducer(uint32_t partition) {
  return std::make_unique<KafkaProducer>(net_.get(), params_, leader(partition),
                                         next_client_id_++);
}

std::unique_ptr<KafkaConsumer> KafkaCluster::MakeConsumer(uint32_t partition) {
  return std::make_unique<KafkaConsumer>(net_.get(), params_, leader(partition));
}

}  // namespace lazylog
