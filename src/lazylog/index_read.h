// Client-side selective-read path shared by the Erwin clients: one position lookup at
// an index node (kIndexReadNext), then shard-direct record fetches (kShardMultiRead)
// grouped by owning shard — no position-map resolution, no scan. Falls back to the
// caller-supplied scan on index unavailability, and clamps the resume cursor at the
// first position a shard replica could not serve yet, so the returned window is always
// a gap-free projection of the stream.
#ifndef SRC_LAZYLOG_INDEX_READ_H_
#define SRC_LAZYLOG_INDEX_READ_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/params.h"
#include "src/index/index_messages.h"
#include "src/lazylog/cluster_view.h"
#include "src/lazylog/read_path.h"
#include "src/lazylog/shared_log_client.h"
#include "src/rpc/rpc.h"
#include "src/rpc/rpc_methods.h"
#include "src/storage/shard_messages.h"

namespace lazylog {

// Runs one ReadNext against the index tier for stream (log, tag). In the default
// (position-cursor) mode `from`/`next_from` are global positions. With `by_rank` set,
// `from` is an index into the stream's merged list — the phylog rank cursor — and the
// returned records are re-labelled with their ranks (`pos` = from + i); this is the
// named-log Read path (tag == kNoTag selects the per-log rank list). `fallback` is
// invoked (instead of `cb`) when the index path cannot serve — index node unreachable,
// stale shard ids, or a failed shard fetch; the caller supplies its scan there.
// `reads` is the client's read path: the shard fetches take its load-aware replica
// routing, and each reply feeds its router, tail cache and reply observer the same way
// a ranged read does. Indexed positions are below the index's stable frontier, so any
// replica may serve them, and a replica whose own frontier trails simply clips — which
// the resume-cursor clamp below already absorbs.
inline void IndexSelectiveRead(RpcEndpoint* endpoint, const SimParams* params,
                               const ClusterView* view, ClientId client_id, LogId log,
                               StreamTag tag, LogPos from, uint32_t max, bool by_rank,
                               SharedLogClient::ReadNextCallback cb,
                               std::function<void()> fallback, ReadCoalescer* reads) {
  const NodeId index_node = view->index_nodes[client_id % view->index_nodes.size()];
  IndexReadNextReq req;
  req.tag = tag;
  req.from = from;
  req.max = max;
  req.log = log;
  req.by_rank = by_rank;
  endpoint->CallMsg<IndexReadNextResp>(
      index_node, kIndexReadNext, req,
      [endpoint, params, view, from, max, by_rank, reads, cb = std::move(cb),
       fallback = std::move(fallback)](Status s, IndexReadNextResp resp) mutable {
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
              by_rank ? from : std::max<LogPos>(from, resp.indexed_upto);
          cb(Status::Ok(), {}, next);
          return;
        }
        // Group the positions by owning shard for one multi-read per shard.
        std::unordered_map<uint64_t, ShardMultiReadReq> per_shard;
        for (size_t i = 0; i < resp.positions.size(); ++i) {
          if (resp.shard_ids[i] >= view->shards.size()) {
            fallback();  // stale view: a shard this client has not discovered yet
            return;
          }
          per_shard[resp.shard_ids[i]].positions.push_back(resp.positions[i]);
        }
        auto by_pos = std::make_shared<std::unordered_map<uint64_t, Record>>();
        std::vector<std::pair<NodeId, ShardMultiReadReq>> subs;
        for (auto& [shard, sreq] : per_shard) {
          subs.emplace_back(reads->router()->PickStable(view->shards[shard]), std::move(sreq));
        }
        auto gather = Gather::Create(
            subs.size(), [by_pos, resp = std::move(resp), from, max, by_rank,
                          cb = std::move(cb),
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
                const LogPos label = by_rank ? from + out.size() : p;
                out.push_back(PositionedRecord{label, std::move(it->second)});
              }
              if (by_rank) {
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
                next_from = resp.positions.size() < max ? std::max(resp.indexed_upto, last)
                                                        : last;
              }
              next_from = std::max<LogPos>(next_from, from);
              cb(Status::Ok(), std::move(out), next_from);
            });
        for (size_t i = 0; i < subs.size(); ++i) {
          const NodeId target = subs[i].first;
          reads->router()->OnIssue(target);
          const SimTime t0 = endpoint->loop()->Now();
          endpoint->CallMsg<ShardReadResp>(
              target, kShardMultiRead, subs[i].second,
              [endpoint, reads, target, t0, by_pos, gather, i](Status st, ShardReadResp rresp) {
                if (st.ok()) {
                  reads->NoteReply(target, t0, rresp.stable_gp, rresp.durable_tail,
                                   rresp.queue_ns, rresp.records);
                  for (auto& pr : rresp.records) {
                    by_pos->emplace(pr.pos, std::move(pr.record));
                  }
                } else {
                  reads->router()->OnReply(target, endpoint->loop()->Now() - t0, 0);
                }
                gather->Complete(i, std::move(st));
              },
              params->rpc_timeout_ns);
        }
      },
      params->rpc_timeout_ns);
}

}  // namespace lazylog

#endif  // SRC_LAZYLOG_INDEX_READ_H_
