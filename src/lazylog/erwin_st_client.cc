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

// --- read placement (§5.3): resolve positions to shards via the cached map ----------------

void ErwinStClient::PlaceRead(std::shared_ptr<ReadOp> op) {
  const LogPos needed_end = op->from + op->len;
  if (cache_enabled_ && posmap_.size() >= needed_end) {
    PlaceMapped(std::move(op));
    return;
  }
  FetchPosMap(needed_end, [this, op](Status s) {
    if (!s.ok()) {
      // The map server may have been replaced out from under us: the read's retry
      // ladder refreshes the shard membership before the next attempt.
      FailAttempt(op, std::move(s));
      return;
    }
    if (posmap_.size() >= op->from + op->len) {
      PlaceMapped(op);
      return;
    }
    // Positions not ordered yet: slow path — poll until the ordering catches up.
    constexpr uint64_t kPollIntervalNs = 100 * kUs;
    endpoint_.loop()->Schedule(kPollIntervalNs, [this, op]() { PlaceRead(op); });
  });
}

void ErwinStClient::FetchPosMap(LogPos needed_end, std::function<void(Status)> then) {
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
        if (s.ok() && resp.from == posmap_.size()) {
          for (uint64_t sid : resp.shard_ids) {
            posmap_.push_back(static_cast<uint32_t>(sid));
          }
          // Every mapped position was stable at the serving replica, so the map length
          // is a conservative tail sample.
          tails_.Note(endpoint_.loop()->Now(), posmap_.size(), posmap_.size());
        }
        then(std::move(s));
      },
      params_.rpc_timeout_ns);
}

void ErwinStClient::PlaceMapped(std::shared_ptr<ReadOp> op) {
  // Group the positions into per-shard runs in ONE pass. Each shard's positions within
  // the window form one contiguous run of its local log, so per shard we keep the run's
  // chunk-granular split points (the coalescer's ReadRanges); a shard-indexed slot table
  // makes the per-position step O(1) instead of a scan over seen shards. Every mapped
  // position is below the map length, which FetchPosMap noted as stable, so every run
  // is a known-stable read.
  const uint32_t chunk = std::max<uint32_t>(1, params_.client_read.read_chunk_records);
  size_t nruns = 0;
  for (LogPos p = op->from; p < op->from + op->len; ++p) {
    const uint32_t s = posmap_[p];
    if (s >= run_of_shard_.size()) {
      run_of_shard_.resize(s + 1, -1);
    }
    if (run_of_shard_[s] < 0) {
      run_of_shard_[s] = static_cast<int32_t>(nruns);
      ReadRun& run = NewRun(nruns++);
      run.shard = static_cast<ShardId>(s);
      run.ranges.push_back(ReadRange{p, 1});
      run.last = p;
      continue;
    }
    ReadRun& run = read_runs_[run_of_shard_[s]];
    run.last = p;
    if (run.ranges.back().len == chunk) {
      run.ranges.push_back(ReadRange{p, 1});
    } else {
      run.ranges.back().len++;
    }
  }
  for (size_t i = 0; i < nruns; ++i) {
    run_of_shard_[read_runs_[i].shard] = -1;
  }
  IssueRuns(std::move(op), nruns);
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
