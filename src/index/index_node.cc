#include "src/index/index_node.h"

#include <algorithm>
#include <string>

#include "src/seq/seq_messages.h"

namespace lazylog {

namespace {
// Size charged to the index node's CPU per merged/served tag entry (tag + position).
constexpr uint64_t kEntryBytes = sizeof(TagIndexEntry);
}  // namespace

IndexNode::IndexNode(Network* net, const SimParams& params, uint32_t index, NodeId zk)
    : endpoint_(net),
      cpu_(net->loop(), params.shard_cpu),
      params_(params),
      index_(index),
      zk_node_(zk) {
  endpoint_.Handle(kIndexReadNext, this, &IndexNode::HandleReadNext);
  // The control plane treats index nodes as members of the storage fan-out lists, so
  // they receive the same stable-gp broadcasts, epoch fences, and trims as the shards.
  endpoint_.Handle(kShardSetStableGp, this, &IndexNode::HandleSetStableGp);
  endpoint_.Handle(kShardSeal, this, &IndexNode::HandleSeal);
  endpoint_.Handle(kShardTrim, this, &IndexNode::HandleTrim);
  // Controller -> index: a shard's serving node changed (backup replacement or primary
  // promotion); re-point the delta feed at the new node and re-pull from scratch.
  endpoint_.Handle<SeqUpdateShardsReq>(
      kSeqUpdateShards, [this](NodeId, const SeqUpdateShardsReq& req, Responder r) {
        ReplaceShardServer(req.old_node, req.new_node);
        r.Send(Status::Ok());
      });
}

void IndexNode::Start(std::vector<NodeId> shard_primaries) {
  feeds_.clear();
  for (size_t s = 0; s < shard_primaries.size(); ++s) {
    feeds_.push_back(ShardFeed{shard_primaries[s], static_cast<ShardId>(s), 0, 0, false});
  }
  if (zk_node_ != kInvalidNode) {
    zk_session_ = std::make_unique<ZkSession>(&endpoint_, zk_node_, params_.control);
    zk_session_->Start("/index/nodes/" + std::to_string(index_));
  }
  SchedulePullTick();
}

void IndexNode::AddShard(NodeId primary) {
  // A runtime-added shard owns no positions below its bootstrap point, but its feed
  // starts with covered_below = 0, which pins indexed_upto_ until the first delta
  // reply reports the shard's real (bootstrap-seeded) frontier. That brief dip only
  // delays coverage claims; already-merged positions stay servable via `from`.
  feeds_.push_back(ShardFeed{primary, static_cast<ShardId>(feeds_.size()), 0, 0, false});
}

void IndexNode::ReplaceShardServer(NodeId old_node, NodeId new_node) {
  for (ShardFeed& f : feeds_) {
    if (f.primary == old_node) {
      f.primary = new_node;
      // The replacement rebuilt its journal from the copied log, so the export
      // sequence restarts; re-pull from scratch. Merging is idempotent (duplicate
      // (tag, pos) entries are dropped), so replaying the prefix is safe.
      f.next_seq = 0;
      f.inflight = false;
    }
  }
}

void IndexNode::SchedulePullTick() {
  if (pulling_armed_) {
    return;
  }
  pulling_armed_ = true;
  endpoint_.loop()->Schedule(params_.index.delta_pull_interval_ns, [this]() {
    pulling_armed_ = false;
    PullTick();
    SchedulePullTick();
  });
}

void IndexNode::PullTick() {
  for (size_t s = 0; s < feeds_.size(); ++s) {
    if (!feeds_[s].inflight) {
      PullShard(s);
    }
  }
}

void IndexNode::PullShard(size_t s) {
  ShardFeed& feed = feeds_[s];
  if (feed.primary == kInvalidNode) {
    return;
  }
  feed.inflight = true;
  ShardIndexDeltaReq req;
  req.from_seq = feed.next_seq;
  req.max_entries = params_.index.max_delta_entries;
  endpoint_.CallMsg<ShardIndexDeltaResp>(
      feed.primary, kShardIndexDelta, req,
      [this, s](Status st, ShardIndexDeltaResp resp) { OnDelta(s, st, std::move(resp)); },
      params_.rpc_timeout_ns);
}

void IndexNode::OnDelta(size_t s, const Status& status, ShardIndexDeltaResp resp) {
  if (s >= feeds_.size()) {
    return;
  }
  ShardFeed& feed = feeds_[s];
  feed.inflight = false;
  if (!status.ok()) {
    ++stats_.failed_pulls;
    return;  // next tick retries from the same cursor
  }
  if (resp.from_seq != feed.next_seq) {
    // Cursor mismatch (journal reset on the shard side, e.g. replica replacement
    // raced this pull). Restart from the reply's base next tick.
    feed.next_seq = resp.from_seq;
    ++stats_.failed_pulls;
    return;
  }
  ++stats_.delta_pulls;
  const bool full_page = resp.entries.size() >= params_.index.max_delta_entries;
  // Merge under the simulated CPU: the index node pays for what it ingests, so merge
  // throughput saturates like every other server in the model.
  const uint64_t cost_bytes = resp.entries.size() * kEntryBytes;
  cpu_.ExecuteFor(cost_bytes, [this, s, resp = std::move(resp), full_page]() {
    if (s >= feeds_.size()) {
      return;
    }
    ShardFeed& feed = feeds_[s];
    feed.next_seq = resp.next_seq;
    for (const TagIndexEntry& e : resp.entries) {
      // Default-log untagged records are never journaled, but a defensive skip keeps
      // a buggy shard from polluting the map. Named-log (log, kNoTag) entries are the
      // phylog rank lists and merge like any tagged stream.
      if (e.pos < trimmed_below_ || (e.log == kDefaultLog && e.tag == kNoTag)) {
        continue;
      }
      auto& list = tags_[{e.log, e.tag}];
      if (list.empty() || e.pos > list.back().first) {
        list.emplace_back(e.pos, feed.shard);
      } else {
        // Cross-shard interleave (or a replayed prefix after replica replacement):
        // insert in order, dropping duplicates.
        auto it = std::lower_bound(
            list.begin(), list.end(), e.pos,
            [](const auto& a, LogPos p) { return a.first < p; });
        if (it == list.end() || it->first != e.pos) {
          list.insert(it, {e.pos, feed.shard});
        } else {
          continue;
        }
      }
      ++stats_.merged_positions;
    }
    stable_gp_ = std::max(stable_gp_, resp.stable_gp);
    feed.covered_below = std::max(feed.covered_below, resp.exported_below);
    AdvanceFrontier();
    if (full_page && !feed.inflight) {
      // The shard has more journal backlog than one page; drain it without waiting
      // for the next tick.
      PullShard(s);
    }
  });
}

void IndexNode::AdvanceFrontier() {
  if (feeds_.empty()) {
    return;
  }
  LogPos frontier = kInvalidLogPos;
  for (const ShardFeed& f : feeds_) {
    frontier = std::min(frontier, f.covered_below);
  }
  indexed_upto_ = std::max(indexed_upto_, frontier);
}

void IndexNode::HandleReadNext(const IndexReadNextReq& req, Responder r) {
  if (req.tag == kNoTag && req.log == kDefaultLog) {
    // The physical log has no rank list; untagged default-log reads go through the
    // shards' ordered stores directly.
    r.Send(Status::InvalidArgument("read-next requires a stream tag"));
    return;
  }
  IndexReadNextResp resp;
  resp.indexed_upto = indexed_upto_;
  auto it = tags_.find({req.log, req.tag});
  if (it != tags_.end()) {
    const auto& list = it->second;
    // Only serve below the contiguous coverage frontier: a position beyond it may be
    // ahead of a lagging shard's export, and returning it could skip that shard's
    // earlier records of the same stream (a gap in the projection).
    if (req.by_rank) {
      // Rank-cursor mode: `from` is an index into the list (the phylog's dense
      // position space), not a global position. Serve list[from .. from+max).
      for (size_t i = req.from; i < list.size() && resp.positions.size() < req.max; ++i) {
        if (list[i].first >= indexed_upto_) {
          break;
        }
        resp.positions.push_back(list[i].first);
        resp.shard_ids.push_back(list[i].second);
      }
    } else {
      auto pos_it = std::lower_bound(list.begin(), list.end(), req.from,
                                     [](const auto& a, LogPos p) { return a.first < p; });
      for (; pos_it != list.end() && resp.positions.size() < req.max; ++pos_it) {
        if (pos_it->first >= indexed_upto_) {
          break;
        }
        resp.positions.push_back(pos_it->first);
        resp.shard_ids.push_back(pos_it->second);
      }
    }
  }
  ++stats_.read_nexts;
  stats_.served_positions += resp.positions.size();
  const uint64_t cost_bytes = resp.positions.size() * kEntryBytes;
  cpu_.ExecuteFor(cost_bytes, [resp = std::move(resp), r = std::move(r)]() mutable {
    r.Ok(resp);
  });
}

void IndexNode::HandleSetStableGp(const StableGpMsg& msg) {
  if (FencedOff(msg.view)) {
    return;
  }
  view_ = std::max(view_, msg.view);
  stable_gp_ = std::max(stable_gp_, msg.stable_gp);
}

void IndexNode::HandleSeal(const ShardSealReq& req) {
  // Raise the fence: stable-gp advances stamped by the deposed leader are rejected
  // from here on, so this node's frontier can only move under the new epoch.
  view_ = std::max(view_, req.new_view);
}

void IndexNode::HandleTrim(const TrimMsg& msg) {
  trimmed_below_ = std::max(trimmed_below_, msg.up_to);
  for (auto it = tags_.begin(); it != tags_.end();) {
    auto& list = it->second;
    auto keep = std::lower_bound(list.begin(), list.end(), trimmed_below_,
                                 [](const auto& a, LogPos p) { return a.first < p; });
    list.erase(list.begin(), keep);
    if (list.empty()) {
      it = tags_.erase(it);
    } else {
      ++it;
    }
  }
}

const std::vector<std::pair<LogPos, ShardId>>* IndexNode::TagPositions(
    LogId log, StreamTag tag) const {
  auto it = tags_.find({log, tag});
  return it == tags_.end() ? nullptr : &it->second;
}

IndexStatsSnapshot IndexNode::StatsSnapshot() const {
  IndexStatsSnapshot s;
  s.counters = stats_;
  s.index_id = index_;
  s.view = view_;
  s.stable_gp = stable_gp_;
  s.indexed_upto = indexed_upto_;
  s.tags_tracked = tags_.size();
  s.lag_vs_stable_gp = stable_gp_ > indexed_upto_ ? stable_gp_ - indexed_upto_ : 0;
  s.buf = GlobalBufStats();
  return s;
}

StatsFields IndexStatsSnapshot::Fields() const {
  StatsFields f;
  f.emplace_back("index_id", static_cast<double>(index_id));
  f.emplace_back("view", static_cast<double>(view));
  f.emplace_back("delta_pulls", static_cast<double>(counters.delta_pulls));
  f.emplace_back("failed_pulls", static_cast<double>(counters.failed_pulls));
  f.emplace_back("merged_positions", static_cast<double>(counters.merged_positions));
  f.emplace_back("read_nexts", static_cast<double>(counters.read_nexts));
  f.emplace_back("served_positions", static_cast<double>(counters.served_positions));
  f.emplace_back("tags_tracked", static_cast<double>(tags_tracked));
  f.emplace_back("stable_gp", static_cast<double>(stable_gp));
  f.emplace_back("indexed_upto", static_cast<double>(indexed_upto));
  f.emplace_back("lag_vs_stable_gp", static_cast<double>(lag_vs_stable_gp));
  f.emplace_back("payload_bytes_copied", static_cast<double>(buf.payload_bytes_copied));
  f.emplace_back("payload_bytes_aliased", static_cast<double>(buf.payload_bytes_aliased));
  f.emplace_back("buf_allocations", static_cast<double>(buf.allocations));
  return f;
}

}  // namespace lazylog
