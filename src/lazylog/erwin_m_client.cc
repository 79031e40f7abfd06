#include "src/lazylog/erwin_m_client.h"

#include <algorithm>

namespace lazylog {

// --- append (§4.3): the record to every sequencing replica, 1 RTT -----------------------

void ErwinMClient::SendAppend(std::shared_ptr<PendingAppend> p) {
  p->attempts++;
  SeqAppendReq req;
  req.view = view_.view;
  req.id = p->id;
  req.payload = p->payload;
  req.is_meta = false;
  req.tag = p->tag;
  req.log = p->log;
  // Encoded once; every sequencing replica shares the frame and the payload
  // attachment, so an n-way append fans out refcounts rather than bytes.
  const EncodedMsg body = EncodeMsg(req);
  const size_t n = view_.seq_config.size();
  // Slot 0 is the leader (seq_config[0]).
  auto gather = Gather::Create(
      n, [this, p](const std::vector<Status>& ss) { OnAppendReplies(p, ss, /*leader=*/0); });
  for (size_t i = 0; i < n; ++i) {
    endpoint_.CallMsg(view_.seq_config[i], kSeqAppend, body, gather->Slot(i),
                      params_.client_append_timeout_ns);
  }
}

// --- read (p mod n placement, §4.4) -------------------------------------------------------

void ErwinMClient::FetchRange(LogPos from, uint64_t len, ReadCallback cb) {
  ReadAttempt(from, len, std::move(cb), 0);
}

void ErwinMClient::ReadAttempt(LogPos from, uint64_t len, ReadCallback cb, int attempt) {
  const uint32_t n = view_.num_shards();
  struct MergeState {
    std::vector<PositionedRecord> all;
  };
  auto state = std::make_shared<MergeState>();
  // One sub-read per shard that owns at least one position in [from, from+len): the
  // shard's positions are from+offset, from+offset+n, ... (p mod n placement).
  struct Sub {
    ShardId shard = 0;
    LogPos first = 0;
    uint32_t count = 0;
  };
  std::vector<Sub> subs;
  for (ShardId s = 0; s < n; ++s) {
    const uint64_t offset = (s + n - static_cast<uint32_t>(from % n)) % n;
    if (offset >= len) {
      continue;
    }
    subs.push_back(Sub{s, from + offset,
                       static_cast<uint32_t>((len - offset + n - 1) / n)});
  }
  auto gather = Gather::Create(
      subs.size(), [this, state, from, len, cb, attempt](const std::vector<Status>& ss) {
        for (const Status& s : ss) {
          if (!s.ok()) {
            if (attempt >= 10) {
              cb(s, {});
              return;
            }
            // Target unreachable (possibly a replaced replica) or a slow-path wait
            // outlived the attempt timeout: refresh the shard membership from ZK and
            // retry with backoff.
            RefreshThenRetry(attempt, [this, from, len, cb, attempt]() {
              ReadAttempt(from, len, cb, attempt + 1);
            });
            return;
          }
        }
        std::sort(
            state->all.begin(), state->all.end(),
            [](const PositionedRecord& a, const PositionedRecord& b) { return a.pos < b.pos; });
        cb(Status::Ok(), std::move(state->all));
      });
  const uint32_t chunk = std::max<uint32_t>(1, params_.client_read.read_chunk_records);
  const LogPos known_stable = tails_.stable();
  for (size_t i = 0; i < subs.size(); ++i) {
    const Sub& sub = subs[i];
    const auto& replicas = view_.shards[sub.shard];
    // Record payloads alias the reply's attachments: they stay valid in state->all
    // after the decoder is gone.
    auto merge = [state, gather, i](Status s, std::vector<PositionedRecord> recs) {
      if (s.ok()) {
        for (PositionedRecord& pr : recs) {
          state->all.push_back(std::move(pr));
        }
      }
      gather->Complete(i, std::move(s));
    };
    // A sub whose last position is below the cached stable tail is a known-stable read:
    // its bindings are final on any replica that also considers them stable, so it is
    // routed load-aware and coalesced. A sub reaching at or above the cached stable
    // keeps the old semantics — a waiting read at the shard primary.
    const LogPos last = sub.first + static_cast<uint64_t>(sub.count - 1) * n;
    if (last < known_stable && !replicas.empty()) {
      const NodeId primary = replicas[0];
      const NodeId target = router_.PickStable(replicas);
      std::vector<ReadRange> ranges;
      for (uint32_t j0 = 0; j0 < sub.count; j0 += chunk) {
        ranges.push_back(ReadRange{sub.first + static_cast<uint64_t>(j0) * n,
                                   std::min(chunk, sub.count - j0)});
      }
      coalescer_.Add(target, primary, std::move(ranges), std::move(merge));
    } else {
      coalescer_.ClassicRead(replicas[0], sub.first, sub.count, /*nowait=*/false,
                             std::move(merge));
    }
  }
}

}  // namespace lazylog
