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

// --- read placement (p mod n, §4.4) -------------------------------------------------------

void ErwinMClient::PlaceRead(std::shared_ptr<ReadOp> op) {
  // One run per shard that owns at least one position in [from, from+len), in shard
  // order: the shard's positions are from+offset, from+offset+n, ...
  const uint32_t n = view_.num_shards();
  const uint32_t chunk = std::max<uint32_t>(1, params_.client_read.read_chunk_records);
  size_t nruns = 0;
  for (ShardId s = 0; s < n; ++s) {
    const uint64_t offset = (s + n - static_cast<uint32_t>(op->from % n)) % n;
    if (offset >= op->len) {
      continue;
    }
    const LogPos first = op->from + offset;
    const uint32_t count = static_cast<uint32_t>((op->len - offset + n - 1) / n);
    ReadRun& run = NewRun(nruns++);
    run.shard = s;
    for (uint32_t j0 = 0; j0 < count; j0 += chunk) {
      run.ranges.push_back(
          ReadRange{first + static_cast<uint64_t>(j0) * n, std::min(chunk, count - j0)});
    }
    run.last = first + static_cast<uint64_t>(count - 1) * n;
  }
  IssueRuns(std::move(op), nruns);
}

}  // namespace lazylog
