// Client-side read scale-out machinery (§5.3, DESIGN.md §6): load-aware replica
// routing, coalesced multi-range reads, and tail caching/readahead.
//
// The invariant that makes any of this safe: every shard replica gates ServeRead on its
// *own* stable-gp, learned from the orderer's broadcasts. A stable position has its
// final, immutable binding on every replica that considers it stable, so a read of a
// known-stable range may be served by ANY replica — the worst a lagging backup can do
// is clip the range short, never return a different binding. Reads at or above the
// client's stable knowledge keep going to the primary, whose waiter queue provides the
// wait-for-stability semantics (§4.4).
#ifndef SRC_LAZYLOG_READ_PATH_H_
#define SRC_LAZYLOG_READ_PATH_H_

#include <algorithm>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "src/common/params.h"
#include "src/common/inline_fn.h"
#include "src/common/random.h"
#include "src/common/slab.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/lazylog/shared_log_client.h"
#include "src/rpc/rpc.h"
#include "src/rpc/rpc_methods.h"
#include "src/storage/shard_messages.h"

namespace lazylog {

// Load-aware replica selection: power-of-two-choices over a per-replica EWMA of
// observed read cost (measured RTT plus the server-piggybacked CPU backlog), with an
// in-flight penalty so a replica is not flooded between feedback samples. Mode 0
// reproduces the old always-primary behaviour for A/B benches.
class ReplicaRouter {
 public:
  ReplicaRouter(const SimParams* params, Rng* rng, ReadPathStats* stats)
      : params_(params), rng_(rng), stats_(stats) {}

  // Picks the serving replica for a known-stable read. `replicas[0]` is the primary.
  NodeId PickStable(const std::vector<NodeId>& replicas) {
    stats_->routed_reads++;
    NodeId picked = replicas[0];
    if (replicas.size() > 1 && params_->client_read.read_routing_mode != 0) {
      // Two distinct uniform choices; lower estimated cost wins. Randomness comes from
      // the client's seeded rng so chaos replays stay deterministic.
      const size_t a = rng_->Uniform(replicas.size());
      size_t b = rng_->Uniform(replicas.size() - 1);
      if (b >= a) {
        ++b;
      }
      picked = Score(replicas[a]) <= Score(replicas[b]) ? replicas[a] : replicas[b];
    }
    if (picked != replicas[0]) {
      stats_->backup_routed++;
    }
    return picked;
  }

  void OnIssue(NodeId n) { At(n).inflight++; }

  // Feedback from a completed (or failed — then queue_ns is 0 and the elapsed time is
  // the penalty) read RPC.
  void OnReply(NodeId n, uint64_t elapsed_ns, uint64_t server_queue_ns) {
    Estimate& e = At(n);
    if (e.inflight > 0) {
      e.inflight--;
    }
    const double sample = static_cast<double>(elapsed_ns + server_queue_ns);
    e.ewma = e.ewma == 0.0 ? sample : kEwmaAlpha * sample + (1.0 - kEwmaAlpha) * e.ewma;
  }

  double Score(NodeId n) const {
    if (n >= est_.size()) {
      return 0.0;  // unexplored replicas look cheap, so p2c explores them
    }
    const Estimate& e = est_[n];
    // Each in-flight request is expected to add roughly one service time of queueing.
    return e.ewma + static_cast<double>(e.inflight) * (e.ewma > 0.0 ? e.ewma : 50'000.0);
  }

 private:
  // EWMA smoothing of the per-replica cost estimates fed by read replies.
  static constexpr double kEwmaAlpha = 0.3;

  struct Estimate {
    double ewma = 0.0;      // ns; 0 = never observed
    uint32_t inflight = 0;  // our own outstanding reads against this replica
  };

  Estimate& At(NodeId n) {
    if (n >= est_.size()) {
      est_.resize(n + 1);
    }
    return est_[n];
  }

  const SimParams* params_;
  Rng* rng_;
  ReadPathStats* stats_;
  std::vector<Estimate> est_;  // indexed by node id (ids are small and dense)
};

// Speculatively prefetched stable records, keyed by global position. Only ever holds
// records that were below stable-gp when fetched, so entries are final bindings and can
// be served without revalidation.
class ReadAheadCache {
 public:
  // Appends the cached contiguous run starting exactly at `from` (up to `len` records)
  // to `out` and returns how many were served. Served entries — and everything before
  // them — are dropped: the sequential reader has moved past.
  uint64_t TakePrefix(LogPos from, uint64_t len, std::vector<PositionedRecord>* out) {
    uint64_t served = 0;
    while (served < len) {
      auto it = entries_.find(from + served);
      if (it == entries_.end()) {
        break;
      }
      out->push_back(it->second);
      ++served;
    }
    if (served > 0) {
      entries_.erase(entries_.begin(), entries_.upper_bound(from + served - 1));
    }
    return served;
  }

  void Insert(std::vector<PositionedRecord> recs, size_t cap) {
    for (PositionedRecord& pr : recs) {
      entries_.emplace(pr.pos, std::move(pr));
    }
    while (entries_.size() > cap) {
      entries_.erase(entries_.begin());
    }
  }

  bool Covers(LogPos pos) const { return entries_.count(pos) > 0; }
  size_t size() const { return entries_.size(); }

 private:
  std::map<LogPos, PositionedRecord> entries_;
};

// Merges concurrent same-replica read sub-requests into batched multi-range RPCs.
//
// A *sub* is one logical sub-read: a run of consecutive target-local records, expressed
// as pre-split ReadRanges (the caller owns the position arithmetic — Erwin-st splits on
// its cached posmap, Erwin-m on its stride — each range at most read_chunk_records
// long). Subs added for the same target at the same simulated instant flush as one or
// more non-waiting kShardMultiRangeRead RPCs of at most read_chunk_records each;
// issuing the chunks as independent RPCs lets the shard's response-serialization CPU
// for chunk k overlap the NIC transmission of chunk k-1 on large ranges.
//
// A sub whose ranges come back clipped (the serving replica's stable-gp trails the
// client's knowledge, or the replica is gone) is re-issued in full to the shard primary
// as a classic waiting read (kShardRead) and the results are merged with per-position
// dedupe — wait semantics live entirely at the primary.
//
// Every shard read — coalesced, classic and the index read's fetch — is one
// ShardReadReq sent and booked by Send: router feedback, the reply's counts checked
// against the request, then the tail cache and the observer.
//
// Subs, queued batches and in-flight RPCs live in member tables that are reused, so a
// warm coalescer allocates only the records it hands back. Entries are addressed by
// index and every callback is moved out before it runs, so a callback may add reads.
class ReadCoalescer {
 public:
  using SubCallback = InlineFn<void(Status, std::vector<PositionedRecord>)>;
  // Fired for every read reply that carries a tail piggyback: (serving replica,
  // advertised stable-gp, records). The chaos read-staleness oracle subscribes.
  using ReplyObserver =
      std::function<void(NodeId, LogPos, const std::vector<PositionedRecord>&)>;

  ReadCoalescer(RpcEndpoint* ep, const SimParams* params, ReplicaRouter* router,
                TailCache* tails, ReadPathStats* stats)
      : ep_(ep), params_(params), router_(router), tails_(tails), stats_(stats) {}

  void SetReplyObserver(ReplyObserver obs) { observer_ = std::move(obs); }

  // Enqueues one sub-read routed to `target`; `primary` serves the waiting fallback.
  // `ranges` must be non-empty, in ascending order, and describe one consecutive run of
  // target-local records (so the primary fallback can re-read the whole sub as
  // (first pos, total len)).
  void Add(NodeId target, NodeId primary, const std::vector<ReadRange>& ranges,
           SubCallback cb) {
    uint32_t len = 0;
    for (const ReadRange& range : ranges) {
      len += range.len;
    }
    const uint32_t id = NewSub(ranges.front().pos, len, primary, std::move(cb));
    Sub& sub = subs_[id];
    sub.ranges.assign(ranges.begin(), ranges.end());
    sub.got.reserve(len);
    stats_->coalesced_subs++;
    auto it = std::find_if(pending_.begin(), pending_.begin() + batches_,
                           [target](const Batch& b) { return b.target == target; });
    if (it == pending_.begin() + batches_) {
      if (batches_ == 0) {
        // Flush at the end of this instant: sub-reads issued at the same simulated time
        // (one Read's fan-out, exactly-concurrent callers) share an RPC at zero latency.
        // One event flushes every target, in first-Add order.
        ep_->loop()->Schedule(0, [this]() { FlushAll(); });
      }
      if (batches_ == pending_.size()) {
        pending_.emplace_back();
      }
      it = pending_.begin() + batches_++;
      it->target = target;
      it->subs.clear();
    }
    it->subs.push_back(id);
  }

  // Classic waiting read of one range against one replica (the primary path of a run
  // at or above the known stable tail).
  void ClassicRead(NodeId target, LogPos pos, uint32_t len, SubCallback cb) {
    IssueClassic(NewSub(pos, len, target, std::move(cb)), target, /*resend=*/false);
  }

  // Non-waiting read of `ranges` from `target` as one RPC with no primary fallback (the
  // index read's shard fetch, whose positions the index node already saw stable). A
  // range the replica cannot serve comes back short; `cb` gets the served records.
  void StableRead(NodeId target, const std::vector<ReadRange>& ranges, SubCallback cb) {
    // The sub only holds the callback: nothing is merged or re-issued.
    const uint32_t id = NewSub(0, 0, target, std::move(cb));
    const uint32_t rpc = NewRpc();
    rpcs_[rpc].req.ranges.assign(ranges.begin(), ranges.end());
    Send(target, /*wait=*/false, rpc, [this, id](Status s, ShardReadResp& resp) {
      Complete(id, std::move(s), std::move(resp.records));
    });
  }

 private:
  struct Sub {
    LogPos pos = 0;     // first position of the run
    uint32_t len = 0;   // total records across all ranges
    NodeId primary = kInvalidNode;
    std::vector<ReadRange> ranges;
    SubCallback cb;
    uint32_t outstanding = 0;  // chunk RPCs not yet replied
    bool clipped = false;
    bool failed = false;
    std::vector<PositionedRecord> got;
  };
  // One shard read RPC in flight: the request as sent, kept to check the reply's counts,
  // and for a coalesced RPC the sub that asked for each of its ranges.
  struct Rpc {
    ShardReadReq req;
    std::vector<uint32_t> subs;
  };
  static constexpr uint32_t kNoRpc = UINT32_MAX;

  // The subs queued for one target this instant.
  struct Batch {
    NodeId target = kInvalidNode;
    std::vector<uint32_t> subs;
  };

  uint32_t NewSub(LogPos pos, uint32_t len, NodeId primary, SubCallback cb) {
    const uint32_t id = subs_.Acquire();
    Sub& sub = subs_[id];
    sub.pos = pos;
    sub.len = len;
    sub.primary = primary;
    sub.cb = std::move(cb);
    sub.outstanding = 0;
    sub.clipped = false;
    sub.failed = false;
    sub.got.clear();
    return id;
  }

  // Frees sub `id` and completes it: the callback runs after the sub is back in the
  // table, so it may add reads.
  void Complete(uint32_t id, Status s, std::vector<PositionedRecord> recs = {}) {
    SubCallback cb = std::move(subs_[id].cb);
    subs_.Release(id);
    cb(std::move(s), std::move(recs));
  }

  uint32_t NewRpc() {
    const uint32_t rpc = rpcs_.Acquire();
    rpcs_[rpc].req.ranges.clear();
    rpcs_[rpc].subs.clear();
    return rpc;
  }

  // The one shard read: sends rpcs_[rpc].req to `target` — kShardRead waits at the
  // primary, kShardMultiRangeRead never waits — and books the reply. A reply whose
  // counts do not fit the request fails like a lost RPC. Every failure feeds the router
  // its elapsed time as the penalty; a good reply's piggyback feeds the router and the
  // tail cache, and the observer sees its records. Then `then(Status, ShardReadResp&)`
  // runs, and the RPC's slot is freed.
  template <typename F>
  void Send(NodeId target, bool wait, uint32_t rpc, F then) {
    router_->OnIssue(target);
    const SimTime t0 = ep_->loop()->Now();
    ep_->CallMsg<ShardReadResp>(
        target, wait ? kShardRead : kShardMultiRangeRead, rpcs_[rpc].req,
        [this, target, t0, rpc, then = std::move(then)](Status s, ShardReadResp resp) mutable {
          if (s.ok() && !WellFormed(rpcs_[rpc].req.ranges, resp)) {
            s = Status::Internal("malformed reply");
            resp.records.clear();
          }
          const SimTime now = ep_->loop()->Now();
          if (s.ok()) {
            router_->OnReply(target, now - t0, resp.queue_ns);
            tails_->Note(now, resp.durable_tail, resp.stable_gp);
            if (observer_) {
              observer_(target, resp.stable_gp, resp.records);
            }
          } else {
            router_->OnReply(target, now - t0, 0);
          }
          then(std::move(s), resp);
          rpcs_.Release(rpc);
        },
        params_->rpc_timeout_ns);
  }

  // A reply fits its request when it has one count per range, no count exceeds its
  // range, and the counts add up to the records carried. Anything else would hand one
  // range's records to another.
  static bool WellFormed(const std::vector<ReadRange>& ranges, const ShardReadResp& resp) {
    uint64_t total = 0;
    for (size_t i = 0; i < ranges.size() && i < resp.counts.size(); ++i) {
      if (resp.counts[i] > ranges[i].len) {
        return false;
      }
      total += resp.counts[i];
    }
    return resp.counts.size() == ranges.size() && total == resp.records.size();
  }

  void FlushAll() {
    const uint32_t chunk = std::max<uint32_t>(1, params_->client_read.read_chunk_records);
    for (size_t b = 0; b < batches_; ++b) {
      // Pack the target's ranges into RPCs of at most `chunk` records each, preserving
      // order. An RPC is sent once the next range does not fit; no reply can arrive
      // before the flush ends, so every sub's outstanding count is complete by then.
      const NodeId target = pending_[b].target;
      uint32_t rpc = kNoRpc;
      uint32_t budget = 0;
      for (const uint32_t id : pending_[b].subs) {
        for (const ReadRange& range : subs_[id].ranges) {
          if (rpc == kNoRpc || budget + range.len > chunk) {
            if (rpc != kNoRpc) {
              IssueRpc(target, rpc);
              stats_->chunk_rpcs++;
            }
            rpc = NewRpc();
            stats_->coalesced_batches++;
            budget = 0;
          }
          rpcs_[rpc].req.ranges.push_back(range);
          rpcs_[rpc].subs.push_back(id);
          budget += range.len;
          subs_[id].outstanding++;
        }
      }
      IssueRpc(target, rpc);
    }
    batches_ = 0;
  }

  // Sends coalesced RPC `rpc` (never waits).
  void IssueRpc(NodeId target, uint32_t rpc) {
    Send(target, /*wait=*/false, rpc, [this, rpc](Status s, ShardReadResp& resp) {
      OnRpcReply(rpc, s, resp);
    });
  }

  // Hands each range's records to the sub that asked for it, or fails every sub of a
  // failed RPC.
  void OnRpcReply(uint32_t rpc, const Status& s, ShardReadResp& resp) {
    if (s.ok()) {
      const Rpc& sent = rpcs_[rpc];
      size_t idx = 0;
      for (size_t i = 0; i < sent.subs.size(); ++i) {
        Sub& sub = subs_[sent.subs[i]];
        const uint32_t c = resp.counts[i];
        for (uint32_t k = 0; k < c; ++k) {
          sub.got.push_back(std::move(resp.records[idx + k]));
        }
        idx += c;
        if (c < sent.req.ranges[i].len) {
          sub.clipped = true;
        }
      }
    } else {
      for (const uint32_t id : rpcs_[rpc].subs) {
        subs_[id].failed = true;
      }
    }
    // Finishing a sub runs its caller's callback, which may add reads; only rpcs_[rpc]
    // is left alone by that, so walk it by index and re-find each sub.
    for (size_t i = 0; i < rpcs_[rpc].subs.size(); ++i) {
      const uint32_t id = rpcs_[rpc].subs[i];
      if (--subs_[id].outstanding == 0) {
        FinishSub(id);
      }
    }
  }

  void FinishSub(uint32_t id) {
    Sub& sub = subs_[id];
    if (sub.failed) {
      // An outright RPC failure (dead or replaced replica) surfaces to the caller: its
      // retry ladder refreshes the shard membership before retrying, which a silent
      // primary fallback would never trigger.
      Complete(id, Status::Timeout("routed read failed"));
      return;
    }
    if (!sub.clipped) {
      SortUnique(sub.got);
      Complete(id, Status::Ok(), std::move(sub.got));
      return;
    }
    // The serving replica clipped the run: its stable-gp trails what the client knows.
    // Re-issue the whole sub to the primary via the classic waiting read;
    // already-fetched records are deduped at merge. A failure here surfaces to the
    // caller, whose retry ladder re-resolves the shard config. So does a primary that
    // clips the run too: its stable-gp trails the client's, so it is a deposed primary
    // that has not heard of the promotion, and its reply would leave a hole in the
    // client's known-stable range.
    stats_->clipped_resends++;
    IssueClassic(id, sub.primary, /*resend=*/true);
  }

  // Reads sub `id`'s whole run from `target` as one waiting range. A plain classic read
  // hands the reply to the callback; a resend completes a clipped sub.
  void IssueClassic(uint32_t id, NodeId target, bool resend) {
    stats_->primary_reads++;
    const uint32_t rpc = NewRpc();
    rpcs_[rpc].req.ranges.push_back(ReadRange{subs_[id].pos, subs_[id].len});
    Send(target, /*wait=*/true, rpc, [this, id, resend](Status s, ShardReadResp& resp) {
      if (!resend || !s.ok()) {
        Complete(id, std::move(s), std::move(resp.records));
        return;
      }
      std::vector<PositionedRecord>& got = subs_[id].got;
      for (PositionedRecord& pr : resp.records) {
        got.push_back(std::move(pr));
      }
      SortUnique(got);
      if (got.size() < subs_[id].len) {
        Complete(id, Status::Unavailable("primary behind the known stable tail"));
        return;
      }
      Complete(id, Status::Ok(), std::move(got));
    });
  }

  static void SortUnique(std::vector<PositionedRecord>& records) {
    std::sort(records.begin(), records.end(),
              [](const PositionedRecord& a, const PositionedRecord& b) {
                return a.pos < b.pos;
              });
    records.erase(std::unique(records.begin(), records.end(),
                              [](const PositionedRecord& a, const PositionedRecord& b) {
                                return a.pos == b.pos;
                              }),
                  records.end());
  }

  RpcEndpoint* ep_;
  const SimParams* params_;
  ReplicaRouter* router_;
  TailCache* tails_;
  ReadPathStats* stats_;
  ReplyObserver observer_;
  Slab<Sub> subs_;
  std::vector<Batch> pending_;  // [0, batches_): targets with queued subs, in first-Add order
  size_t batches_ = 0;
  Slab<Rpc> rpcs_;  // in-flight shard read RPCs
};

}  // namespace lazylog

#endif  // SRC_LAZYLOG_READ_PATH_H_
