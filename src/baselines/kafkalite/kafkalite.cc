#include "src/baselines/kafkalite/kafkalite.h"

#include <algorithm>

#include "src/common/logging.h"

namespace lazylog {

// --- broker --------------------------------------------------------------------------------

KafkaBroker::KafkaBroker(Network* net, const SimParams& params, uint32_t partition, bool leader)
    : endpoint_(net),
      cpu_(net->loop(), CpuParams{.fixed_ns = params.kafka.broker_fixed_ns,
                                  .copy_bandwidth_bytes_per_sec = 1.5e9}),
      disk_(net->loop(), params.disk),
      params_(params),
      partition_(partition),
      leader_(leader) {
  endpoint_.Register(kKafkaProduce, [this](NodeId, Decoder d, Responder r) {
    HandleProduce(d, std::move(r));
  });
  endpoint_.Register(kKafkaReplicate, [this](NodeId, Decoder d, Responder r) {
    HandleReplicate(d, std::move(r));
  });
  endpoint_.Register(kKafkaFetch, [this](NodeId, Decoder d, Responder r) {
    HandleFetch(d, std::move(r));
  });
  endpoint_.Register(kKafkaTruncate, [this](NodeId, Decoder d, Responder r) {
    HandleTruncate(d, std::move(r));
  });
  endpoint_.Register(kKafkaMeta, [this](NodeId, Decoder d, Responder r) {
    Encoder e;
    e.PutU64(log_.end_index());
    r.Ok(e);
  });
}

void KafkaBroker::HandleProduce(Decoder d, Responder r) {
  std::vector<Record> batch;
  if (!WireDecode(d, batch)) {
    r.Send(Status::InvalidArgument("bad produce"));
    return;
  }
  uint64_t bytes = 0;
  for (const Record& rec : batch) {
    bytes += rec.payload.size();
  }
  cpu_.ExecuteFor(bytes, [this, batch = std::move(batch), bytes, r]() mutable {
    // Build the replication frame before the records are moved into the local log.
    // Payloads ride as attachments, so followers share the producer's backing.
    Buf replicate_body;
    std::vector<Buf> replicate_atts;
    if (!followers_.empty()) {
      Encoder e;
      WireEncode(e, batch);
      replicate_atts = e.TakeAtts();
      replicate_body = e.TakeBuf();
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
      endpoint_.Call(f, kKafkaReplicate, replicate_body,
                     [ack](Status s, Decoder) { ack->Done(s); },
                     params_.rpc_timeout_ns, replicate_atts);
    }
    disk_.Write(bytes, [ack]() { ack->Done(Status::Ok()); });
    ack->Done(Status::Ok());  // guard release
  });
}

void KafkaBroker::HandleReplicate(Decoder d, Responder r) {
  std::vector<Record> batch;
  if (!WireDecode(d, batch)) {
    r.Send(Status::InvalidArgument("bad replicate"));
    return;
  }
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

void KafkaBroker::HandleFetch(Decoder d, Responder r) {
  uint64_t offset = 0;
  uint32_t max_records = 0;
  if (!d.GetU64(&offset) || !d.GetU32(&max_records)) {
    r.Send(Status::InvalidArgument("bad fetch"));
    return;
  }
  Encoder e;
  uint32_t count = 0;
  uint64_t bytes = 0;
  std::vector<Record> out;
  for (uint64_t o = offset; o < log_.end_index() && count < max_records; ++o, ++count) {
    const Record* rec = log_.Get(o);
    if (rec == nullptr) {
      break;
    }
    out.push_back(*rec);
    bytes += rec->payload.size();
  }
  const uint64_t leo = log_.end_index();
  cpu_.ExecuteFor(bytes, [out = std::move(out), leo, r]() mutable {
    Encoder e2;
    WireEncode(e2, out);
    // Trailing log-end-offset piggyback: lets pollers learn the tail without a
    // separate metadata round trip. Decoders that stop after the vector still parse.
    e2.PutU64(leo);
    r.Ok(e2);
  });
}

void KafkaBroker::HandleTruncate(Decoder d, Responder r) {
  uint64_t from = 0;
  if (!d.GetU64(&from)) {
    r.Send(Status::InvalidArgument("bad truncate"));
    return;
  }
  log_.TruncateFrom(from);
  if (leader_) {
    Encoder e;
    e.PutU64(from);
    const std::string body = e.Take();
    auto gather = Gather::Create(followers_.size(), [r](const std::vector<Status>&) mutable {
      r.Send(Status::Ok());
    });
    if (followers_.empty()) {
      r.Send(Status::Ok());
      return;
    }
    for (size_t i = 0; i < followers_.size(); ++i) {
      endpoint_.Call(followers_[i], kKafkaTruncate, body, gather->Slot(i),
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
    linger_timer_ = endpoint_.loop()->Schedule(params_.kafka.linger_ns, [this]() {
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
  Encoder e;
  WireEncode(e, buffer_);
  auto cbs = std::make_shared<std::vector<ProduceCallback>>(std::move(callbacks_));
  buffer_.clear();
  callbacks_.clear();
  buffered_bytes_ = 0;
  std::vector<Buf> atts = e.TakeAtts();
  endpoint_.Call(leader_, kKafkaProduce, e.TakeBuf(),
                 [cbs](Status s, Decoder) {
                   for (auto& cb : *cbs) {
                     if (cb) {
                       cb(s);
                     }
                   }
                 },
                 params_.rpc_timeout_ns, std::move(atts));
}

// --- consumer -------------------------------------------------------------------------------

KafkaConsumer::KafkaConsumer(Network* net, const SimParams& params, NodeId leader)
    : endpoint_(net), params_(params), leader_(leader) {}

void KafkaConsumer::Fetch(uint64_t offset, uint32_t max_records, FetchCallback cb) {
  Encoder e;
  e.PutU64(offset);
  e.PutU32(max_records);
  endpoint_.Call(leader_, kKafkaFetch, e.Take(),
                 [this, cb](Status s, Decoder d) {
                   std::vector<Record> records;
                   if (s.ok()) {
                     std::vector<Record> wire;
                     if (WireDecode(d, wire)) {
                       records = std::move(wire);
                       uint64_t leo = 0;
                       if (d.GetU64(&leo)) {
                         last_known_leo_ = std::max(last_known_leo_, leo);
                       }
                     } else {
                       s = Status::Internal("bad fetch response");
                     }
                   }
                   cb(std::move(s), std::move(records));
                 },
                 params_.rpc_timeout_ns);
}

// --- Erwin-m shard adapter --------------------------------------------------------------------

KafkaShardAdapter::KafkaShardAdapter(Network* net, const SimParams& params, ShardId shard_id,
                                     NodeId kafka_leader)
    : endpoint_(net),
      cpu_(net->loop(), CpuParams{.fixed_ns = 500, .copy_bandwidth_bytes_per_sec = 4e9}),
      params_(params), shard_id_(shard_id), kafka_leader_(kafka_leader) {
  endpoint_.Register(kShardAppendBatch, [this](NodeId, Decoder d, Responder r) {
    HandleAppendBatch(d, std::move(r));
  });
  endpoint_.Register(kShardRead, [this](NodeId, Decoder d, Responder r) {
    HandleRead(d, std::move(r));
  });
  endpoint_.Register(kShardMultiRangeRead, [this](NodeId, Decoder d, Responder r) {
    HandleMultiRangeRead(d, std::move(r));
  });
  endpoint_.Register(kShardSetStableGp, [this](NodeId, Decoder d, Responder r) {
    HandleSetStableGp(d, std::move(r));
  });
  endpoint_.Register(kShardTrim, [this](NodeId, Decoder d, Responder r) {
    HandleTrim(d, std::move(r));
  });
}

void KafkaShardAdapter::SendWatermarkAck(Responder& r, const Status& s) {
  ShardOrderAckResp resp{order_durable_};
  Encoder e;
  resp.Encode(e);
  r.Send(s, e.Take());
}

void KafkaShardAdapter::HandleAppendBatch(Decoder d, Responder r) {
  auto req = std::make_shared<ShardAppendBatchReq>();
  if (!req->Decode(d)) {
    r.Send(Status::InvalidArgument("bad append batch"));
    return;
  }
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
    Encoder e;
    WireEncode(e, wire);
    produce_inflight_ = true;
    std::vector<Buf> atts = e.TakeAtts();
    endpoint_.Call(kafka_leader_, kKafkaProduce, e.TakeBuf(),
                   [complete](Status s, Decoder) mutable {
                     complete(std::move(s));
                   },
                   params_.rpc_timeout_ns, std::move(atts));
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
      Encoder e;
      e.PutU64(offset_base_ + offset_pos_.size());
      produce_inflight_ = true;
      endpoint_.Call(kafka_leader_, kKafkaTruncate, e.Take(),
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

void KafkaShardAdapter::HandleRead(Decoder d, Responder r) {
  ShardReadReq req;
  if (!req.Decode(d)) {
    r.Send(Status::InvalidArgument("bad read"));
    return;
  }
  if (req.pos >= stable_gp_) {
    if (req.nowait) {
      r.Send(Status::OutOfRange("not stable"));
      return;
    }
    slow_reads_++;
    waiters_.push_back(Waiter{req, std::move(r)});
    return;
  }
  ServeRead(req, std::move(r));
}

void KafkaShardAdapter::ServeRead(const ShardReadReq& req, Responder r) {
  auto it = pos_to_offset_.find(req.pos);
  if (it == pos_to_offset_.end()) {
    r.Send(Status::Internal("stable position unknown to adapter"));
    return;
  }
  const uint64_t offset = it->second;
  Encoder e;
  e.PutU64(offset);
  e.PutU32(req.len);
  const LogPos stable = stable_gp_;
  endpoint_.Call(kafka_leader_, kKafkaFetch, e.Take(),
                 [this, offset, stable, r](Status s, Decoder d) mutable {
                   if (!s.ok()) {
                     r.Send(std::move(s));
                     return;
                   }
                   std::vector<Record> wire;
                   if (!WireDecode(d, wire)) {
                     r.Send(Status::Internal("bad fetch"));
                     return;
                   }
                   ShardReadResp resp;
                   for (size_t i = 0; i < wire.size(); ++i) {
                     const uint64_t o = offset + i;
                     if (o - offset_base_ >= offset_pos_.size()) {
                       break;
                     }
                     const LogPos pos = offset_pos_[o - offset_base_];
                     if (pos >= stable) {
                       break;
                     }
                     resp.records.push_back(PositionedRecord{pos, std::move(wire[i])});
                   }
                   resp.stable_gp = stable_gp_;
                   resp.durable_tail = std::max(durable_hint_, stable_gp_);
                   r.Ok(resp);
                 },
                 params_.rpc_timeout_ns);
}

void KafkaShardAdapter::HandleMultiRangeRead(Decoder d, Responder r) {
  auto req = std::make_shared<ShardMultiRangeReadReq>();
  if (!req->Decode(d)) {
    r.Send(Status::InvalidArgument("bad multi-range read"));
    return;
  }
  ServeNextRange(std::move(req), 0, std::make_shared<ShardMultiRangeReadResp>(),
                 std::move(r));
}

void KafkaShardAdapter::ServeNextRange(std::shared_ptr<ShardMultiRangeReadReq> req, size_t i,
                                       std::shared_ptr<ShardMultiRangeReadResp> resp,
                                       Responder r) {
  // Skip unstable/unknown range starts (count 0); the client re-issues those via the
  // classic waiting read against this adapter.
  while (i < req->ranges.size() &&
         (req->ranges[i].pos >= stable_gp_ ||
          pos_to_offset_.find(req->ranges[i].pos) == pos_to_offset_.end())) {
    resp->counts.push_back(0);
    ++i;
  }
  if (i == req->ranges.size()) {
    resp->stable_gp = stable_gp_;
    resp->durable_tail = std::max(durable_hint_, stable_gp_);
    r.Ok(*resp);
    return;
  }
  const ReadRange range = req->ranges[i];
  const uint64_t offset = pos_to_offset_[range.pos];
  Encoder e;
  e.PutU64(offset);
  e.PutU32(range.len);
  const LogPos stable = stable_gp_;
  endpoint_.Call(kafka_leader_, kKafkaFetch, e.Take(),
                 [this, req = std::move(req), i, resp, offset, stable, r](Status s,
                                                                          Decoder d) mutable {
                   uint32_t served = 0;
                   std::vector<Record> wire;
                   if (s.ok() && WireDecode(d, wire)) {
                     for (size_t k = 0; k < wire.size(); ++k) {
                       const uint64_t o = offset + k;
                       if (o - offset_base_ >= offset_pos_.size()) {
                         break;
                       }
                       const LogPos pos = offset_pos_[o - offset_base_];
                       if (pos >= stable) {
                         break;
                       }
                       resp->records.push_back(PositionedRecord{pos, std::move(wire[k])});
                       ++served;
                     }
                   }
                   resp->counts.push_back(served);
                   ServeNextRange(std::move(req), i + 1, std::move(resp), std::move(r));
                 },
                 params_.rpc_timeout_ns);
}

void KafkaShardAdapter::HandleSetStableGp(Decoder d, Responder r) {
  StableGpMsg msg;
  if (!msg.Decode(d)) {
    r.Send(Status::InvalidArgument("bad stable-gp"));
    return;
  }
  if (msg.view >= view_) {
    view_ = msg.view;
    stable_gp_ = std::max(stable_gp_, msg.stable_gp);
    durable_hint_ = std::max(durable_hint_, msg.durable_tail);
    WakeWaiters();
  }
  r.Send(Status::Ok());
}

void KafkaShardAdapter::WakeWaiters() {
  auto waiters = std::move(waiters_);
  waiters_.clear();
  for (Waiter& w : waiters) {
    if (w.req.pos < stable_gp_) {
      ServeRead(w.req, std::move(w.responder));
    } else {
      waiters_.push_back(std::move(w));
    }
  }
}

void KafkaShardAdapter::HandleTrim(Decoder d, Responder r) {
  // Kafka prefix deletion is retention-based; the adapter only forgets its mapping.
  TrimMsg msg;
  if (!msg.Decode(d)) {
    r.Send(Status::InvalidArgument("bad trim"));
    return;
  }
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
