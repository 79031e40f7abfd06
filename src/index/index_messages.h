// Wire messages for the index tier (client <-> index node). The shard-side delta pull
// messages live in shard_messages.h next to the server that implements them.
#ifndef SRC_INDEX_INDEX_MESSAGES_H_
#define SRC_INDEX_INDEX_MESSAGES_H_

#include <vector>

#include "src/common/codec.h"
#include "src/common/types.h"

namespace lazylog {

// Client -> index node: positions of the next records of stream (log, tag) at or
// after `from`, capped at `max` entries. Two cursor modes:
//   by_rank=false: `from` is a global position; the legacy ReadNext lookup.
//   by_rank=true:  `from` is a rank into the (log, tag) list — the phylog's dense
//                  position space when tag == kNoTag. Serves list[from..from+max).
struct IndexReadNextReq {
  StreamTag tag = kNoTag;
  LogPos from = 0;
  uint32_t max = 64;
  LogId log = kDefaultLog;
  bool by_rank = false;

  template <class Ar> void Wire(Ar& ar) { ar(tag, from, max, log, by_rank); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) { return WireDecode(d, *this); }
};

// Index node -> client. `positions`/`shard_ids` are parallel vectors: positions[i]
// lives on shard shard_ids[i], so the client can fetch records shard-directly without
// a position-map lookup. `indexed_upto` is the contiguous frontier this node has
// merged (and is always <= the node's stable-gp): every position below it is covered,
// so an empty result with from < indexed_upto means the stream truly has no records
// there — absence is distinguishable from index lag.
struct IndexReadNextResp {
  std::vector<uint64_t> positions;
  std::vector<uint64_t> shard_ids;
  LogPos indexed_upto = 0;

  template <class Ar> void Wire(Ar& ar) { ar(positions, shard_ids, indexed_upto); }
  void Encode(Encoder& e) const { WireEncode(e, *this); }
  bool Decode(Decoder& d) {
    return WireDecode(d, *this) && positions.size() == shard_ids.size();
  }
};

}  // namespace lazylog

#endif  // SRC_INDEX_INDEX_MESSAGES_H_
