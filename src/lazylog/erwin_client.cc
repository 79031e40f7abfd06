#include "src/lazylog/erwin_client.h"

#include <algorithm>
#include <unordered_map>

#include "src/common/logging.h"
#include "src/control/zookeeper.h"

namespace lazylog {

ErwinClient::ErwinClient(Network* net, const SimParams& params, ClusterView view,
                         ClientId client_id)
    : SharedLogClient(net->loop(), params.client_read.tail_cache_ttl_ns),
      endpoint_(net),
      params_(params),
      view_(std::move(view)),
      client_id_(client_id),
      rng_(params.seed ^ (0xc11e47a5ULL + client_id)),
      router_(&params_, &rng_, &read_stats_),
      coalescer_(&endpoint_, &params_, &router_, &tails_, &read_stats_) {
  InstallLogRegistry(view_.logs);
}

// --- append ------------------------------------------------------------------------------

void ErwinClient::Append(const AppendOptions& options, Buf payload, AppendCallback cb) {
  if (QuotaMuted(options.log, cb)) {
    return;
  }
  auto p = std::make_shared<PendingAppend>();
  p->id = RecordId{client_id_, next_request_id_++};
  p->payload = std::move(payload);
  p->tag = options.tag;
  p->log = options.log;
  p->cb = std::move(cb);
  SendAppend(std::move(p));
}

void ErwinClient::OnAppendReplies(std::shared_ptr<PendingAppend> p,
                                  const std::vector<Status>& ss, size_t leader) {
  const bool all_ok = std::all_of(ss.begin(), ss.end(), [](const Status& s) { return s.ok(); });
  if (all_ok) {
    // Durable everywhere the mode writes: the append is complete (1 RTT).
    p->cb(Status::Ok());
    return;
  }
  // A Rejected data write (Erwin-st) means the shard already no-op'ed this id after an
  // earlier attempt timed out; the append is lost and must not be retried under the
  // same id. Sequencing replicas never reject.
  for (const Status& s : ss) {
    if (s.code() == StatusCode::kRejected) {
      p->cb(s);
      return;
    }
  }
  // A refused append (admission control): the sequencing tier is shedding load, not
  // reconfiguring — retry in place with backoff. The leader's verdict decides the retry
  // budget; once the leader admits, it dup-acks every resend, so the flag is sticky
  // across attempts without storing it.
  for (const Status& s : ss) {
    if (s.code() == StatusCode::kOverloaded) {
      EnqueueOverloadRetry(std::move(p), /*leader_admitted=*/ss[leader].ok());
      return;
    }
  }
  // Leader-only verdicts on the virtual-log control state: a quota refusal gets the
  // short in-place backoff (the bucket refills in milliseconds); a deleted-log
  // refusal is permanent and surfaces immediately.
  if (ss[leader].code() == StatusCode::kQuotaExceeded) {
    MuteQuota(p->log);
    EnqueueQuotaRetry(std::move(p));
    return;
  }
  if (ss[leader].code() == StatusCode::kInvalidArgument) {
    p->cb(ss[leader]);
    return;
  }
  for (const Status& s : ss) {
    if (!s.ok()) {
      p->last_error = s;
      break;
    }
  }
  EnqueueRetry(std::move(p));
}

void ErwinClient::EnqueueRetry(std::shared_ptr<PendingAppend> p) {
  if (p->attempts > 50) {
    LLOG(kWarn) << "append giving up after " << p->attempts << " attempts";
    p->cb(p->last_error.ok() ? Status::Timeout("append retries exhausted") : p->last_error);
    return;
  }
  retry_queue_.push_back(std::move(p));
  if (!resolving_config_) {
    resolving_config_ = true;
    ResolveConfig();
  }
}

// An overloaded replica refused the append *before* doing any work. That is not a view
// problem: probing the config would succeed immediately and resend straight into the
// same full ring, so back off in place on the shared jittered schedule instead. The
// budget is deliberately small — under sustained saturation, surfacing kOverloaded to
// the application beats parking an unbounded queue of doomed retries. Replicas that
// did admit an earlier attempt dup-filter the resend, so the id never binds twice.
// Erwin-st data writes of earlier attempts are harmless orphans if the budget runs out:
// the shard scrubs unmatched data by age (st_orphan_scrub_age_ns).
void ErwinClient::EnqueueOverloadRetry(std::shared_ptr<PendingAppend> p,
                                       bool leader_admitted) {
  p->overload_attempts++;
  // Leader-refused: shed after the small budget. Leader-admitted: a follower's gate
  // refused it, but the entry already occupies an ordering slot — keep retrying (the
  // followers' retry-priority band and shed-entry scrub guarantee progress), with a
  // hard cap diverting pathological cases to the slow config-probing path.
  if (!leader_admitted &&
      p->overload_attempts > static_cast<int>(params_.client_overload_retry_limit)) {
    p->cb(Status::Overloaded("append shed after overload retries"));
    return;
  }
  if (p->overload_attempts > 64) {
    EnqueueRetry(std::move(p));
    return;
  }
  p->last_error = Status::Overloaded();
  // Computed before the capture moves from p (argument evaluation is unsequenced).
  const uint64_t backoff =
      OverloadBackoffNs(static_cast<uint32_t>(p->overload_attempts), rng_.NextDouble());
  endpoint_.loop()->Schedule(backoff,
                             [this, p = std::move(p)]() mutable { SendAppend(std::move(p)); });
}

// A quota refusal is the tenant's own doing, not the cluster's: the ring has room, the
// bucket is empty. Retry on the short overload schedule (one refill period away), but
// surface kQuotaExceeded — not kOverloaded — when the budget runs out so the
// application can tell throttling from congestion.
void ErwinClient::EnqueueQuotaRetry(std::shared_ptr<PendingAppend> p) {
  p->overload_attempts++;
  if (p->overload_attempts > static_cast<int>(params_.client_overload_retry_limit)) {
    p->cb(Status::QuotaExceeded("append shed by tenant quota"));
    return;
  }
  p->last_error = Status::QuotaExceeded();
  const uint64_t backoff =
      OverloadBackoffNs(static_cast<uint32_t>(p->overload_attempts), rng_.NextDouble());
  endpoint_.loop()->Schedule(backoff,
                             [this, p = std::move(p)]() mutable { SendAppend(std::move(p)); });
}

// The leader said this log's bucket is empty: shed fresh appends locally for the mute
// window so an over-quota tenant stops flooding every replica with doomed RPCs.
// In-flight retries bypass the mute — their budget is what smoothly drains the
// bucket's refill back to admitted appends.
bool ErwinClient::QuotaMuted(LogId log, AppendCallback& cb) {
  if (log == kDefaultLog) {
    return false;
  }
  auto it = quota_muted_until_.find(log);
  if (it == quota_muted_until_.end() || endpoint_.loop()->Now() >= it->second) {
    return false;
  }
  endpoint_.loop()->Schedule(0, [cb = std::move(cb)]() {
    cb(Status::QuotaExceeded("append shed by tenant quota (client-side)"));
  });
  return true;
}

void ErwinClient::MuteQuota(LogId log) {
  constexpr uint64_t kMuteNs = 2 * kMs;  // the mute window
  if (log == kDefaultLog) {
    return;
  }
  quota_muted_until_[log] = endpoint_.loop()->Now() + kMuteNs;
}

void ErwinClient::ProbeThen(std::function<void()> then, int attempt) {
  if (attempt > 1000) {
    then();  // give up resolving; the continuation will fail and surface the error
    return;
  }
  const NodeId target = view_.seq_config[probe_cursor_++ % view_.seq_config.size()];
  endpoint_.CallMsg<SeqConfigResp>(
      target, kSeqGetConfig, NoBody{},
      [this, then = std::move(then), attempt](Status s, SeqConfigResp resp) mutable {
        // Only adopt views at least as new as ours: a partitioned straggler still in an
        // older (fenced-off) view must not drag the client backwards.
        const bool usable =
            s.ok() && !resp.sealed && !resp.config.empty() && resp.view >= view_.view;
        if (!usable) {
          endpoint_.loop()->Schedule(
              RetryBackoffNs(static_cast<uint32_t>(attempt), rng_.NextDouble()),
              [this, then = std::move(then), attempt]() mutable {
                ProbeThen(std::move(then), attempt + 1);
              });
          return;
        }
        if (resp.view != view_.view) {
          view_changes_++;
        }
        view_.view = resp.view;
        view_.seq_config.assign(resp.config.begin(), resp.config.end());
        then();
      },
      2 * kMs);
}

void ErwinClient::RefreshShardConfig(std::function<void()> then) {
  if (view_.zk == kInvalidNode) {
    then();
    return;
  }
  ZkClient zk(&endpoint_, view_.zk);
  zk.GetData(
      "/shards/config",
      [this, then = std::move(then)](Status s, std::string data, uint64_t) mutable {
        Decoder d(data);
        ShardConfig config;
        if (s.ok() && WireDecode(d, config) && config.epoch > view_.shard_epoch) {
          view_.shard_epoch = config.epoch;
          std::vector<std::vector<NodeId>> shards;
          for (ShardConfig::Shard& shard : config.shards) {
            shards.push_back(std::move(shard.replicas));
          }
          for (size_t s2 = shards.size(); s2 < view_.shards.size(); ++s2) {
            shards.push_back(view_.shards[s2]);
          }
          view_.shards = std::move(shards);
        }
        then();
      },
      5 * kMs);
}

void ErwinClient::ResolveConfig() {
  // Probe until an unsealed view is found, refresh the shard membership (a failed data
  // write may mean a replaced shard replica rather than a sequencing view change), then
  // resend every queued append under the new config. Retries keep their record id and
  // target shard: the first write to reach the ordering decides, and every layer
  // filters duplicates.
  ProbeThen([this]() {
    RefreshShardConfig([this]() {
      resolving_config_ = false;
      auto queued = std::move(retry_queue_);
      retry_queue_.clear();
      for (auto& p : queued) {
        SendAppend(std::move(p));
      }
    });
  });
}

// --- read --------------------------------------------------------------------------------

void ErwinClient::Read(LogPos from, uint64_t len, ReadCallback cb) {
  if (len == 0) {
    cb(Status::Ok(), {});
    return;
  }
  // Only a read that starts where the previous one ended prefetches: a reader at random
  // offsets would fetch readahead_records per read and use almost none of them.
  const bool sequential = from == next_sequential_;
  next_sequential_ = from + len;
  // Serve whatever contiguous prefix the readahead cache holds, fetch the rest.
  auto op = std::make_shared<ReadOp>();
  op->cb = std::move(cb);
  op->records.reserve(len);
  const uint64_t hit = readahead_.TakePrefix(from, len, &op->records);
  read_stats_.readahead_hits += hit;
  if (hit == len) {
    endpoint_.loop()->Schedule(0, [op]() { op->cb(Status::Ok(), std::move(op->records)); });
    if (sequential) {
      MaybePrefetch(from + len);
    }
    return;
  }
  op->from = from + hit;
  op->len = len - hit;
  op->prefix = hit;
  op->prefetch = sequential;
  PlaceRead(std::move(op));
}

void ErwinClient::MaybePrefetch(LogPos next) {
  const auto& cr = params_.client_read;
  if (cr.readahead_records == 0 || readahead_inflight_) {
    return;
  }
  // Only the stable region is prefetched: those bindings are final, so cached entries
  // never need revalidation.
  const LogPos stable = tails_.stable();
  if (next >= stable || readahead_.Covers(next)) {
    return;
  }
  const uint32_t n =
      static_cast<uint32_t>(std::min<uint64_t>(cr.readahead_records, stable - next));
  readahead_inflight_ = true;
  read_stats_.readahead_fetched += n;
  auto op = std::make_shared<ReadOp>();
  op->from = next;
  op->len = n;
  op->records.reserve(n);
  op->cb = [this](Status s, std::vector<PositionedRecord> recs) {
    readahead_inflight_ = false;
    if (s.ok()) {
      readahead_.Insert(std::move(recs),
                        std::max<size_t>(4 * params_.client_read.readahead_records, 1024));
    }
  };
  PlaceRead(std::move(op));
}

ErwinClient::ReadRun& ErwinClient::NewRun(size_t i) {
  if (i == read_runs_.size()) {
    read_runs_.emplace_back();
  }
  read_runs_[i].ranges.clear();
  return read_runs_[i];
}

void ErwinClient::IssueRuns(std::shared_ptr<ReadOp> op, size_t nruns) {
  op->remaining = nruns;
  op->failed_run = SIZE_MAX;
  const LogPos known_stable = tails_.stable();
  for (size_t i = 0; i < nruns; ++i) {
    const ReadRun& run = read_runs_[i];
    const auto& replicas = view_.shards[run.shard];
    // Record payloads alias the reply's attachments: they stay valid in op->records
    // after the decoder is gone.
    auto merge = [this, op, i](Status s, std::vector<PositionedRecord> recs) {
      if (s.ok()) {
        for (PositionedRecord& pr : recs) {
          op->records.push_back(std::move(pr));
        }
      } else if (i < op->failed_run) {
        op->failed_run = i;
        op->failure = std::move(s);
      }
      if (--op->remaining == 0) {
        EndAttempt(op);
      }
    };
    if (run.last < known_stable) {
      // The router picks the least-loaded of two random replicas; the coalescer batches
      // same-target runs and falls back to the primary's waiting read if the pick clips.
      const NodeId target = router_.PickStable(replicas);
      coalescer_.Add(target, replicas[0], run.ranges, std::move(merge));
    } else {
      uint32_t count = 0;
      for (const ReadRange& range : run.ranges) {
        count += range.len;
      }
      coalescer_.ClassicRead(replicas[0], run.ranges.front().pos, count, std::move(merge));
    }
  }
}

void ErwinClient::FailAttempt(const std::shared_ptr<ReadOp>& op, Status s) {
  op->failed_run = 0;
  op->failure = std::move(s);
  EndAttempt(op);
}

void ErwinClient::EndAttempt(const std::shared_ptr<ReadOp>& op) {
  if (op->failed_run != SIZE_MAX) {
    if (op->attempt >= 10) {
      op->cb(std::move(op->failure), {});
      return;
    }
    // Target unreachable (possibly a replaced replica) or a slow-path wait outlived the
    // attempt timeout: refresh the shard membership and place the read again.
    op->records.erase(op->records.begin() + static_cast<ptrdiff_t>(op->prefix),
                      op->records.end());
    RefreshThenRetry(op->attempt++, [this, op]() { PlaceRead(op); });
    return;
  }
  std::sort(op->records.begin() + static_cast<ptrdiff_t>(op->prefix), op->records.end(),
            [](const PositionedRecord& a, const PositionedRecord& b) {
              return a.pos < b.pos;
            });
  if (op->prefetch) {
    MaybePrefetch(op->from + op->len);
  }
  op->cb(Status::Ok(), std::move(op->records));
}

void ErwinClient::RefreshThenRetry(int attempt, std::function<void()> retry) {
  RefreshShardConfig([this, attempt, retry = std::move(retry)]() {
    endpoint_.loop()->Schedule(
        RetryBackoffNs(static_cast<uint32_t>(attempt), rng_.NextDouble()), retry);
  });
}

// --- index-tier reads: readNext and named-log reads --------------------------------------

void ErwinClient::ReadNext(LogId log, StreamTag tag, LogPos from, uint32_t max,
                           ReadNextCallback cb) {
  if (tag == kNoTag) {
    cb(Status::InvalidArgument("read-next requires a stream tag"), {}, from);
    return;
  }
  if (view_.index_nodes.empty()) {
    ScanReadNext(log, tag, from, max, std::move(cb));
    return;
  }
  std::function<void()> scan = [this, log, tag, from, max, cb]() {
    ScanReadNext(log, tag, from, max, cb);
  };
  IndexRead(IndexReadNextReq{tag, from, max, log, /*by_rank=*/false}, std::move(cb),
            std::move(scan), 0);
}

void ErwinClient::ReadLog(LogId log, LogPos from, uint64_t len, ReadCallback cb) {
  if (len == 0) {
    cb(Status::Ok(), {});
    return;
  }
  if (view_.index_nodes.empty()) {
    ScanReadLog(log, from, len, std::move(cb));
    return;
  }
  // The phylog's positions are ranks in its (log, kNoTag) index list; a by_rank lookup
  // serves [from, from+len) directly and IndexRead re-labels the records with ranks.
  const uint32_t max = static_cast<uint32_t>(std::min<uint64_t>(len, 1u << 20));
  std::function<void()> scan = [this, log, from, len, cb]() {
    ScanReadLog(log, from, len, cb);
  };
  IndexRead(IndexReadNextReq{kNoTag, from, max, log, /*by_rank=*/true},
            [cb = std::move(cb)](Status s, std::vector<PositionedRecord> recs, LogPos) {
              cb(std::move(s), std::move(recs));
            },
            std::move(scan), 0);
}

// In the default (position-cursor) mode `req.from` and the returned cursor are global
// positions. With `by_rank` set, `from` is an index into the stream's merged list — the
// phylog rank cursor — and the records are re-labelled with their ranks (`pos` = from +
// i); tag == kNoTag selects the per-log rank list. Indexed positions are below the
// index's stable frontier, so any replica may serve them, and a replica whose own
// frontier trails simply clips — which the resume-cursor clamp below absorbs, so the
// returned window is always a gap-free projection of the stream.
void ErwinClient::IndexRead(const IndexReadNextReq& req, ReadNextCallback cb,
                            std::function<void()> scan, int attempt) {
  std::function<void()> fallback = [this, req, cb, scan = std::move(scan), attempt]() {
    if (attempt >= 3) {
      scan();
      return;
    }
    // Likely a stale replica set rather than a down index tier: re-resolve the shard
    // membership and retry the selective path before paying for a full scan.
    RefreshThenRetry(attempt, [this, req, cb, scan, attempt]() {
      IndexRead(req, cb, scan, attempt + 1);
    });
  };
  const NodeId index_node = view_.index_nodes[client_id_ % view_.index_nodes.size()];
  endpoint_.CallMsg<IndexReadNextResp>(
      index_node, kIndexReadNext, req,
      [this, req, cb = std::move(cb),
       fallback = std::move(fallback)](Status s, IndexReadNextResp resp) mutable {
        const LogPos from = req.from;
        if (s.code() == StatusCode::kInvalidArgument) {
          cb(std::move(s), {}, from);
          return;
        }
        if (!s.ok()) {
          fallback();
          return;
        }
        if (resp.positions.empty()) {
          // Covered-but-empty. Position mode: the stream truly has no records in
          // [from, indexed_upto); indexed_upto <= from means the index has not caught
          // up past `from` yet — no progress, the caller polls. Rank mode: the rank
          // space is dense, so an empty page always means "not indexed yet".
          const LogPos next =
              req.by_rank ? from : std::max<LogPos>(from, resp.indexed_upto);
          cb(Status::Ok(), {}, next);
          return;
        }
        // Group the positions by owning shard for one read per shard, one length-1
        // range per position.
        std::unordered_map<uint64_t, std::vector<ReadRange>> per_shard;
        for (size_t i = 0; i < resp.positions.size(); ++i) {
          if (resp.shard_ids[i] >= view_.shards.size()) {
            fallback();  // stale view: a shard this client has not discovered yet
            return;
          }
          per_shard[resp.shard_ids[i]].push_back(ReadRange{resp.positions[i], 1});
        }
        auto by_pos = std::make_shared<std::unordered_map<uint64_t, Record>>();
        std::vector<std::pair<NodeId, std::vector<ReadRange>>> subs;
        for (auto& [shard, ranges] : per_shard) {
          subs.emplace_back(router_.PickStable(view_.shards[shard]), std::move(ranges));
        }
        auto gather = Gather::Create(
            subs.size(), [by_pos, resp = std::move(resp), req, cb = std::move(cb),
                          fallback = std::move(fallback)](const std::vector<Status>& ss) {
              for (const Status& st : ss) {
                if (!st.ok()) {
                  fallback();
                  return;
                }
              }
              // Assemble the stream window in index order, stopping at the first
              // position a replica could not serve yet (its stable frontier may trail
              // the index node's): the cursor resumes exactly there, so nothing is
              // skipped.
              const LogPos from = req.from;
              std::vector<PositionedRecord> out;
              LogPos next_from = resp.indexed_upto;
              bool clipped = false;
              for (uint64_t p : resp.positions) {
                auto it = by_pos->find(p);
                if (it == by_pos->end()) {
                  next_from = p;
                  clipped = true;
                  break;
                }
                const LogPos label = req.by_rank ? from + out.size() : p;
                out.push_back(PositionedRecord{label, std::move(it->second)});
              }
              if (req.by_rank) {
                // Ranks are dense: whatever was assembled is exactly
                // [from, from + out.size()), clipped or not.
                cb(Status::Ok(), std::move(out), from + out.size());
                return;
              }
              if (!clipped) {
                // A full window (max entries) may have more stream records between its
                // last position and the index frontier, so it only covers up to
                // last+1; an unfilled window covers the whole indexed range.
                const LogPos last = resp.positions.back() + 1;
                next_from = resp.positions.size() < req.max
                                ? std::max(resp.indexed_upto, last)
                                : last;
              }
              next_from = std::max<LogPos>(next_from, from);
              cb(Status::Ok(), std::move(out), next_from);
            });
        for (size_t i = 0; i < subs.size(); ++i) {
          coalescer_.StableRead(subs[i].first, subs[i].second,
                                [by_pos, gather, i](Status st,
                                                    std::vector<PositionedRecord> recs) {
                                  for (PositionedRecord& pr : recs) {
                                    by_pos->emplace(pr.pos, std::move(pr.record));
                                  }
                                  gather->Complete(i, std::move(st));
                                });
        }
      },
      params_.rpc_timeout_ns);
}

// --- tail / trim ---------------------------------------------------------------------------

void ErwinClient::CheckTail(TailCallback cb) { CheckTailAttempt(kDefaultLog, std::move(cb), 0); }

void ErwinClient::CheckTailOfLog(LogId log, TailCallback cb) {
  CheckTailAttempt(log, std::move(cb), 0);
}

void ErwinClient::CheckTailAttempt(LogId log, TailCallback cb, int attempt) {
  // The default log keeps the legacy empty body; a named log names itself.
  SeqCheckTailReq req;
  req.log = log;
  const EncodedMsg body = log == kDefaultLog ? EncodedMsg{} : EncodeMsg(req);
  endpoint_.CallMsg<SeqCheckTailResp>(
      view_.seq_config[0], kSeqCheckTail, body,
      [this, log, cb, attempt](Status s, SeqCheckTailResp resp) {
        if (!s.ok()) {
          if (attempt >= 20) {
            cb(std::move(s), 0, 0);
            return;
          }
          // Leader unreachable / changed: re-resolve and retry.
          ProbeThen([this, log, cb, attempt]() { CheckTailAttempt(log, cb, attempt + 1); });
          return;
        }
        if (log == kDefaultLog) {
          // Physical-log counts: the view that served them and the tail cache.
          last_tail_view_ = resp.view;
          tails_.Note(endpoint_.loop()->Now(), resp.durable, resp.stable);
        }
        cb(Status::Ok(), resp.durable, resp.stable);
      },
      5 * kMs);
}

void ErwinClient::ResolveLog(const std::string& name,
                             std::function<void(Status, LogId)> cb) {
  if (view_.zk == kInvalidNode) {
    cb(Status::InvalidArgument("unknown log: " + name), kDefaultLog);
    return;
  }
  // Refresh the registry from "/logs/config" and retry the lookup: Open() falls
  // through to here exactly when the installed snapshot predates the log's creation.
  ZkClient zk(&endpoint_, view_.zk);
  zk.GetData("/logs/config",
             [this, name, cb = std::move(cb)](Status s, std::string data, uint64_t) mutable {
               Decoder d(data);
               SeqUpdateLogsReq config;
               if (s.ok() && config.Decode(d) && config.epoch > view_.log_epoch) {
                 view_.log_epoch = config.epoch;
                 view_.logs = config.entries;
                 InstallLogRegistry(std::move(config.entries));
               }
               for (const LogRegistryEntry& entry : log_registry()) {
                 if (entry.name == name && !entry.deleted) {
                   cb(Status::Ok(), entry.id);
                   return;
                 }
               }
               cb(Status::InvalidArgument("unknown log: " + name), kDefaultLog);
             },
             5 * kMs);
}

void ErwinClient::Trim(LogPos index, TrimCallback cb) { TrimAttempt(index, std::move(cb), 0); }

void ErwinClient::TrimAttempt(LogPos index, TrimCallback cb, int attempt) {
  TrimMsg msg{index};
  endpoint_.CallMsg(view_.seq_config[0], kSeqTrim, msg,
                    [this, index, cb, attempt](Status s, Decoder) {
                      if (!s.ok() && attempt < 20) {
                        ProbeThen([this, index, cb, attempt]() {
                          TrimAttempt(index, cb, attempt + 1);
                        });
                        return;
                      }
                      cb(std::move(s));
                    },
                    10 * kMs);
}

// --- appendSync (§5.5 extension) ------------------------------------------------------------

void ErwinClient::AppendSync(Buf payload, AppendCallback cb) {
  Append(AppendOptions{}, std::move(payload), [this, cb](Status st) {
    if (!st.ok()) {
      cb(std::move(st));
      return;
    }
    // The record is durable; now wait until the stable prefix has passed the durable
    // tail observed at ack time, i.e. the record's binding is final.
    CheckTail([this, cb](Status s, LogPos durable_count, LogPos) {
      if (!s.ok()) {
        cb(std::move(s));
        return;
      }
      PollStable(durable_count, cb);
    });
  });
}

void ErwinClient::PollStable(LogPos target, AppendCallback cb) {
  CheckTail([this, target, cb](Status s, LogPos, LogPos stable) {
    if (!s.ok()) {
      cb(std::move(s));
      return;
    }
    if (stable >= target) {
      cb(Status::Ok());
      return;
    }
    endpoint_.loop()->Schedule(params_.seq.ordering_interval_ns,
                               [this, target, cb]() { PollStable(target, cb); });
  });
}

}  // namespace lazylog
