// Erwin-st client library (§5). An append splits the record into data and metadata: the
// data goes to every replica of a client-chosen shard and the metadata <record-id,
// shard-id> to every sequencing replica — all in parallel, completing in 1 RTT. Reads
// first resolve the position->shard mapping (fetched in bulk and cached, §5.3), then
// read the record from its shard. Everything else is the shared ErwinClient.
#ifndef SRC_LAZYLOG_ERWIN_ST_CLIENT_H_
#define SRC_LAZYLOG_ERWIN_ST_CLIENT_H_

#include <memory>
#include <vector>

#include "src/lazylog/erwin_client.h"

namespace lazylog {

class ErwinStClient : public ErwinClient {
 public:
  ErwinStClient(Network* net, const SimParams& params, ClusterView view, ClientId client_id);

  // Seamless shard addition (§6.9): subsequent appends include the new shard in the
  // placement choice immediately.
  void AddShard(std::vector<NodeId> replicas);

  // Disables the client-side position-map cache (ablation for §6.7's observation that
  // caching makes Erwin-st reads match Erwin-m). Readahead is a client-side cache too
  // and is switched with it.
  void SetPosMapCacheEnabled(bool enabled) {
    cache_enabled_ = enabled;
    params_.client_read.readahead_records = enabled ? readahead_records_ : 0;
  }

  // Test hooks for the client-failure protocol (§5.4): write only one half of an append.
  void AppendMetadataOnly(ShardId shard, AppendCallback cb);
  void AppendDataOnly(ShardId shard, Buf payload, AppendCallback cb);

  uint64_t posmap_fetches() const { return posmap_fetches_; }

 protected:
  void SendAppend(std::shared_ptr<PendingAppend> p) override;
  // Resolves the positions through the cached map (fetching or polling for the part it
  // lacks), then places them. A failed map fetch ends the attempt.
  void PlaceRead(std::shared_ptr<ReadOp> op) override;

 private:
  // Places mapped positions: one run per shard, in order of first appearance.
  void PlaceMapped(std::shared_ptr<ReadOp> op);
  void FetchPosMap(LogPos needed_end, std::function<void(Status)> then);

  uint64_t rr_cursor_;  // round-robin shard choice

  // Position->shard cache: posmap_[p] is the shard of position p; dense from 0.
  std::vector<uint32_t> posmap_;
  bool cache_enabled_ = true;
  uint32_t readahead_records_;  // configured readahead, restored with the cache
  uint64_t posmap_fetches_ = 0;

  // PlaceMapped scratch, reused so a read builds no tables: shard id -> run index
  // (-1 = unseen).
  std::vector<int32_t> run_of_shard_;
};

}  // namespace lazylog

#endif  // SRC_LAZYLOG_ERWIN_ST_CLIENT_H_
