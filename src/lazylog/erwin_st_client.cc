#include "src/lazylog/erwin_st_client.h"

#include <algorithm>

namespace lazylog {

ErwinStClient::ErwinStClient(Network* net, const SimParams& params, ClusterView view,
                             ClientId client_id)
    : ErwinClient(net, params, std::move(view), client_id),
      rr_cursor_(client_id),  // decorrelate shard choice across clients
      readahead_records_(params.client_read.readahead_records) {}

void ErwinStClient::AddShard(std::vector<NodeId> replicas) {
  view_.shards.push_back(std::move(replicas));
}

// --- append (§5.1): data to the shard replicas + metadata to the sequencing replicas,
// all in parallel, 1 RTT -------------------------------------------------------------------

void ErwinStClient::SendAppend(std::shared_ptr<PendingAppend> p) {
  if (p->attempts++ == 0) {
    p->shard = static_cast<ShardId>(rr_cursor_++ % view_.num_shards());
  }
  const auto& shard_replicas = view_.shards[p->shard];
  // Once every data replica has acked the payload, resends skip the data writes: an
  // overload refusal is a metadata-tier event, and re-sending the (already durable)
  // payload would multiply shard disk load by the retry count exactly when the system
  // is saturated. The shard dup-filters stale re-puts anyway, so this is purely a
  // load optimization, not a correctness hinge.
  const size_t n_data = p->data_durable ? 0 : shard_replicas.size();
  const size_t n_meta = view_.seq_config.size();
  // Slots [0, n_data) are the data writes; slot n_data is the leader (seq_config[0]).
  auto gather =
      Gather::Create(n_data + n_meta, [this, p, n_data](const std::vector<Status>& ss) {
        if (n_data > 0 && std::all_of(ss.begin(), ss.begin() + n_data,
                                      [](const Status& s) { return s.ok(); })) {
          p->data_durable = true;
        }
        OnAppendReplies(p, ss, /*leader=*/n_data);
      });
  // Data writes to every replica of the chosen shard (no coordination, §5.1). The
  // request is encoded once; replicas share the frame and the payload attachment.
  if (n_data > 0) {
    const EncodedMsg data = EncodeMsg(ShardPutDataReq{p->id, p->payload, p->tag, p->log});
    for (size_t i = 0; i < n_data; ++i) {
      endpoint_.CallMsg(shard_replicas[i], kShardPutData, data, gather->Slot(i),
                        params_.client_append_timeout_ns);
    }
  }
  // Metadata to every sequencing replica, same RTT.
  SeqAppendReq meta;
  meta.view = view_.view;
  meta.id = p->id;
  meta.target_shard = p->shard;
  meta.is_meta = true;
  // The record's tag rides the data write; the log id must also reach the sequencing
  // leader (quota gate + per-log cursors). Flag-gated: default-log frames unchanged.
  meta.log = p->log;
  const EncodedMsg mbody = EncodeMsg(meta);
  for (size_t i = 0; i < n_meta; ++i) {
    endpoint_.CallMsg(view_.seq_config[i], kSeqAppendMeta, mbody, gather->Slot(n_data + i),
                      params_.client_append_timeout_ns);
  }
}

// --- read (§5.3): resolve positions to shards via the cached map, then read ---------------

void ErwinStClient::FetchRange(LogPos from, uint64_t len, ReadCallback cb) {
  TryRead(std::make_shared<PendingRead>(PendingRead{from, len, std::move(cb)}));
}

void ErwinStClient::TryRead(std::shared_ptr<PendingRead> rd) {
  const LogPos needed_end = rd->from + rd->len;
  if (cache_enabled_ && posmap_.size() >= needed_end) {
    DoRead(std::move(rd));
    return;
  }
  FetchPosMap(needed_end, [this, rd]() {
    if (posmap_.size() >= rd->from + rd->len) {
      DoRead(rd);
      return;
    }
    // Positions not ordered yet: slow path — poll until the ordering catches up.
    endpoint_.loop()->Schedule(params_.posmap_poll_interval_ns, [this, rd]() { TryRead(rd); });
  });
}

void ErwinStClient::FetchPosMap(LogPos needed_end, std::function<void()> then) {
  // Bulk fetch with read-ahead; amortizes the mapping roundtrip over many reads (§5.3).
  const uint64_t readahead = std::max<uint64_t>(1, params_.client_read.posmap_readahead);
  ShardPosMapReq req;
  req.from = posmap_.size();
  const uint64_t want =
      needed_end > posmap_.size() ? needed_end - posmap_.size() : readahead;
  req.len = static_cast<uint32_t>(std::max<uint64_t>(want, readahead));
  posmap_fetches_++;
  // Shard 0 predates any runtime-added shard, so its metadata log covers all positions.
  // Every replica serves the map gated on its own stable-gp, so successive fetches
  // rotate across shard 0's replicas instead of pinning one.
  const auto& replicas = view_.shards[0];
  const NodeId target = replicas[(client_id_ + posmap_fetches_) % replicas.size()];
  endpoint_.CallMsg<ShardPosMapResp>(
      target, kShardPosMap, req,
      [this, then = std::move(then)](Status s, ShardPosMapResp resp) mutable {
        if (s.ok()) {
          if (resp.from == posmap_.size()) {
            for (uint64_t sid : resp.shard_ids) {
              posmap_.push_back(static_cast<uint32_t>(sid));
            }
            // Every mapped position was stable at the serving replica, so the map length
            // is a conservative tail sample.
            tails_.Note(endpoint_.loop()->Now(), posmap_.size(), posmap_.size());
          }
          then();
          return;
        }
        // The mapping server may have been replaced out from under us; refresh the shard
        // membership before the caller's retry.
        RefreshShardConfig(std::move(then));
      },
      params_.rpc_timeout_ns);
}

void ErwinStClient::DoRead(std::shared_ptr<PendingRead> rd) {
  // Group the positions into per-shard runs in ONE pass. Each shard's positions within
  // the window form one contiguous run of its local log, so per shard we keep the run's
  // chunk-granular split points (the coalescer's ReadRanges); a shard-indexed slot table
  // makes the per-position step O(1) instead of a scan over seen shards.
  const uint32_t chunk = std::max<uint32_t>(1, params_.client_read.read_chunk_records);
  size_t nruns = 0;
  for (LogPos p = rd->from; p < rd->from + rd->len; ++p) {
    const uint32_t s = posmap_[p];
    if (s >= run_of_shard_.size()) {
      run_of_shard_.resize(s + 1, -1);
    }
    if (run_of_shard_[s] < 0) {
      run_of_shard_[s] = static_cast<int32_t>(nruns);
      if (nruns == runs_.size()) {
        runs_.emplace_back();
      }
      runs_[nruns].shard = static_cast<ShardId>(s);
      runs_[nruns].ranges.assign(1, ReadRange{p, 1});
      nruns++;
      continue;
    }
    ShardRun& run = runs_[run_of_shard_[s]];
    if (run.ranges.back().len == chunk) {
      run.ranges.push_back(ReadRange{p, 1});
    } else {
      run.ranges.back().len++;
    }
  }
  auto merge = std::make_shared<ReadMerge>();
  merge->rd = std::move(rd);
  merge->remaining = nruns;
  merge->all.reserve(merge->rd->len);
  // Every position here has a posmap entry, and the map server gates on stable-gp — so
  // every sub is a known-stable read and any replica may serve it. The router picks the
  // least-loaded of two random replicas; the coalescer batches same-target subs and
  // falls back to the primary's waiting read if the pick clips.
  for (size_t i = 0; i < nruns; ++i) {
    run_of_shard_[runs_[i].shard] = -1;
    const auto& replicas = view_.shards[runs_[i].shard];
    const NodeId primary = replicas[0];
    const NodeId target = router_.PickStable(replicas);
    coalescer_.Add(target, primary, runs_[i].ranges,
                   [this, merge, i](Status s, std::vector<PositionedRecord> recs) {
                     if (s.ok()) {
                       // Record payloads alias the reply's attachments: they stay
                       // valid in merge->all after the decoder is gone.
                       for (PositionedRecord& pr : recs) {
                         merge->all.push_back(std::move(pr));
                       }
                     } else if (i < merge->failed_run) {
                       merge->failed_run = i;
                       merge->failure = std::move(s);
                     }
                     if (--merge->remaining == 0) {
                       FinishRead(*merge);
                     }
                   });
  }
}

void ErwinStClient::FinishRead(ReadMerge& m) {
  std::shared_ptr<PendingRead> rd = m.rd;
  if (m.failed_run != SIZE_MAX) {
    if (rd->attempts >= 10) {
      rd->cb(std::move(m.failure), {});
      return;
    }
    // Target unreachable (possibly a replaced replica) or a slow-path wait outlived the
    // attempt timeout: refresh the shard membership and retry with backoff.
    rd->attempts++;
    RefreshThenRetry(rd->attempts, [this, rd]() { TryRead(rd); });
    return;
  }
  std::sort(m.all.begin(), m.all.end(),
            [](const PositionedRecord& a, const PositionedRecord& b) { return a.pos < b.pos; });
  rd->cb(Status::Ok(), std::move(m.all));
}

// --- test hooks (§5.4) -----------------------------------------------------------------------

void ErwinStClient::AppendMetadataOnly(ShardId shard, AppendCallback cb) {
  // Simulates a client that crashed after the metadata write but before the data write:
  // the shard primary must resolve the position as a no-op after its timeout.
  const RecordId id{client_id_, next_request_id_++};
  SeqAppendReq meta;
  meta.view = view_.view;
  meta.id = id;
  meta.target_shard = shard;
  meta.is_meta = true;
  const EncodedMsg body = EncodeMsg(meta);
  const size_t n = view_.seq_config.size();
  auto gather = Gather::Create(n, [cb](const std::vector<Status>& ss) {
    for (const Status& s : ss) {
      if (!s.ok()) {
        cb(s);
        return;
      }
    }
    cb(Status::Ok());
  });
  for (size_t i = 0; i < n; ++i) {
    endpoint_.CallMsg(view_.seq_config[i], kSeqAppendMeta, body, gather->Slot(i),
                      params_.client_append_timeout_ns);
  }
}

void ErwinStClient::AppendDataOnly(ShardId shard, Buf payload, AppendCallback cb) {
  // Simulates a crash after the data write but before the metadata write: the data is
  // orphaned on the shard and must be garbage-collected by scrubbing.
  const RecordId id{client_id_, next_request_id_++};
  const EncodedMsg body = EncodeMsg(ShardPutDataReq{id, std::move(payload)});
  const auto& replicas = view_.shards[shard];
  auto gather = Gather::Create(replicas.size(), [cb](const std::vector<Status>& ss) {
    for (const Status& s : ss) {
      if (!s.ok()) {
        cb(s);
        return;
      }
    }
    cb(Status::Ok());
  });
  for (size_t i = 0; i < replicas.size(); ++i) {
    endpoint_.CallMsg(replicas[i], kShardPutData, body, gather->Slot(i),
                      params_.client_append_timeout_ns);
  }
}

}  // namespace lazylog
