// Per-run history recorder for the chaos-testing subsystem. The ChaosRunner's workload
// clients and the cluster's gp-observers feed every observable event here — append
// invocation/ack intervals, read results, checkTail samples, sequencing-layer and shard
// stable-gp timelines, and nemesis actions. The oracles (oracles.h) consume the recorded
// history after the run; a running FNV-1a digest over the full event stream is the
// byte-identity witness for the seed-replay guarantee (same seed => same digest).
#ifndef SRC_CHAOS_HISTORY_H_
#define SRC_CHAOS_HISTORY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/sim/event_loop.h"

namespace lazylog {

// One record observed by a read (or by the final read-back). Payloads are kept as
// hashes so long-payload workloads do not blow up history memory.
struct ObservedRecord {
  LogPos pos = 0;
  RecordId id;
  uint64_t payload_hash = 0;
  bool no_op = false;
  StreamTag tag = kNoTag;  // stream membership (index tier); kNoTag for plain records
  LogId log = kDefaultLog; // owning virtual log; kDefaultLog for plain records
};

// A workload append operation and its real-time interval.
struct AppendOp {
  // Half-appends model Erwin-st client failure (§5.4): metadata without data must
  // resolve to a no-op; orphaned data must never surface in the log.
  enum class Kind : uint8_t { kNormal, kMetaOnly, kDataOnly };

  uint64_t op_id = 0;
  Kind kind = Kind::kNormal;
  StreamTag tag = kNoTag;     // stream this append targeted (kNoTag = untagged)
  LogId log = kDefaultLog;    // virtual log this append targeted
  RecordId id;                // known for half-appends (dedicated injector clients)
  bool id_known = false;
  std::string payload_key;    // unique payload (normal appends); used for matching
  uint64_t payload_hash = 0;
  SimTime invoked_at = 0;
  SimTime acked_at = 0;
  bool acked = false;         // status == kOk (kept as a flag for the oracles)
  // Completion status code: distinguishes a lost append (kRejected, must never
  // surface in the log) from a merely-unacknowledged one (timeout — may surface).
  StatusCode status = StatusCode::kUnavailable;
  bool resolved = false;      // completion callback fired (ack or give-up)
  // Completions recorded *after* the op already resolved. A correct client never
  // double-completes, but recording (instead of crashing the harness) is what lets the
  // overload oracle flag an acked append later refused with kOverloaded.
  std::vector<StatusCode> extra_completions;
};

// One (read operation, returned record) pair, flattened for the oracles.
struct ReadObservation {
  uint64_t op_id = 0;
  SimTime returned_at = 0;
  ObservedRecord rec;
};

// One completed ReadNext(tag, from) window. The stream-projection oracle replays it
// against the final log: the records must be exactly the stream's records over
// [from, next_from), gap-free.
struct ReadNextObservation {
  uint64_t op_id = 0;
  StreamTag tag = kNoTag;
  LogPos from = 0;
  LogPos next_from = 0;
  SimTime returned_at = 0;
  std::vector<ObservedRecord> records;
  // Which log's stream was read: tag spaces are per-phylog, so a window on (log, tag)
  // must contain exactly that log's records with that tag — no cross-log leakage.
  LogId log = kDefaultLog;
};

// One completed per-log ranged read (LogHandle::Read on a named log). `from` is a
// *rank* in the log's dense position space. The per-log projection oracle replays it
// against the final log: the records must be exactly the log's non-no-op records
// ranked [from, from+records.size()), in order, with matching payloads.
struct LogReadObservation {
  uint64_t op_id = 0;
  LogId log = kDefaultLog;
  LogPos from = 0;  // first rank read
  SimTime returned_at = 0;
  std::vector<ObservedRecord> records;  // pos = per-log rank, not global position
};

// A checkTail result as seen by one client. `view` is the view that served the sample:
// the durable tail may legally shrink across a view change (the new view drops an
// uncommitted suffix) but never within one, so the monotonicity oracle scopes the
// durable check per (client, view). The stable prefix never regresses, view or not.
struct TailSample {
  uint32_t client = 0;
  SimTime at = 0;
  LogPos durable = 0;
  LogPos stable = 0;
  ViewId view = 0;
};

// One read reply as served by a shard replica (routed reads may land on backups). The
// reply piggybacks the stable-gp the serving replica advertised at serve time; the
// read-staleness oracle asserts every returned record position is below it.
struct ReadServeSample {
  NodeId server = kInvalidNode;
  SimTime at = 0;
  LogPos advertised_stable = 0;
  uint32_t count = 0;   // records in the reply
  LogPos max_pos = 0;   // highest record position in the reply (valid when count > 0)
};

// Sequencing-replica state transition (from SequencingReplica::SetGpObserver).
struct SeqGpSample {
  NodeId node = kInvalidNode;
  SimTime at = 0;
  ViewId view = 0;
  LogPos ordered_gp = 0;
  LogPos stable_gp = 0;
};

// Shard stable-gp transition (from ShardServer::SetStableGpObserver).
struct ShardGpSample {
  NodeId node = kInvalidNode;
  ShardId shard = 0;
  SimTime at = 0;
  ViewId view = 0;
  LogPos stable_gp = 0;
};

// FNV-1a-64 helper shared with the oracles/tests.
inline uint64_t HashBytes(const void* data, size_t n, uint64_t h = 0xcbf29ce484222325ULL) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline uint64_t HashString(const std::string& s) { return HashBytes(s.data(), s.size()); }
inline uint64_t HashString(const Buf& b) { return HashBytes(b.data(), b.size()); }

class ChaosHistory {
 public:
  explicit ChaosHistory(EventLoop* loop) : loop_(loop) {}

  // --- workload-side recording ------------------------------------------------------
  uint64_t BeginAppend(AppendOp::Kind kind, std::string payload_key, uint64_t payload_hash,
                       StreamTag tag = kNoTag, LogId log = kDefaultLog);
  // For half-appends issued by dedicated injector clients the record id is predictable;
  // recording it lets the no-op oracle match the final log by id.
  void SetAppendId(uint64_t op_id, RecordId id);
  // Records the append's completion status; the status code (not just ok/fail) is
  // folded into the replay digest.
  void EndAppend(uint64_t op_id, Status status);

  uint64_t BeginRead(LogPos from, uint64_t len);
  void RecordReadReturn(uint64_t op_id, const std::vector<ObservedRecord>& records);
  void RecordReadError(uint64_t op_id);

  // Selective reads (stream index tier).
  uint64_t BeginReadNext(StreamTag tag, LogPos from, uint32_t max,
                         LogId log = kDefaultLog);
  void RecordReadNextReturn(uint64_t op_id, StreamTag tag, LogPos from,
                            std::vector<ObservedRecord> records, LogPos next_from,
                            LogId log = kDefaultLog);
  void RecordReadNextError(uint64_t op_id);

  // Per-log ranged reads (virtual logs). `from` is a rank in the log's own space.
  uint64_t BeginLogRead(LogId log, LogPos from, uint64_t len);
  void RecordLogReadReturn(uint64_t op_id, LogId log, LogPos from,
                           std::vector<ObservedRecord> records);
  void RecordLogReadError(uint64_t op_id);

  void RecordTail(uint32_t client, LogPos durable, LogPos stable, ViewId view);

  // One read reply from a shard replica, with the stable-gp it advertised (from the
  // clients' read-reply observers; covers routed, coalesced, classic and index-path
  // reads).
  void RecordReadServe(NodeId server, LogPos advertised_stable, uint32_t count,
                       LogPos max_pos);

  // --- cluster-side recording (observer hooks) --------------------------------------
  void RecordSeqGp(NodeId node, ViewId view, LogPos ordered_gp, LogPos stable_gp);
  void RecordShardGp(NodeId node, ShardId shard, ViewId view, LogPos stable_gp);

  // --- run-level recording ----------------------------------------------------------
  void RecordNemesis(const std::string& description);
  void RecordFinalLog(std::vector<ObservedRecord> final_log);
  void RecordNote(const std::string& note);

  // --- accessors for the oracles ----------------------------------------------------
  const std::vector<AppendOp>& appends() const { return appends_; }
  const std::vector<ReadObservation>& read_observations() const { return read_obs_; }
  const std::vector<ReadNextObservation>& read_next_observations() const {
    return read_next_obs_;
  }
  const std::vector<LogReadObservation>& log_read_observations() const {
    return log_read_obs_;
  }
  const std::vector<TailSample>& tail_samples() const { return tail_samples_; }
  const std::vector<ReadServeSample>& read_serve_samples() const {
    return read_serve_samples_;
  }
  const std::vector<SeqGpSample>& seq_gp_samples() const { return seq_gp_samples_; }
  const std::vector<ShardGpSample>& shard_gp_samples() const { return shard_gp_samples_; }
  const std::vector<ObservedRecord>& final_log() const { return final_log_; }
  const std::vector<std::string>& nemesis_actions() const { return nemesis_actions_; }

  uint64_t reads_issued() const { return reads_issued_; }
  uint64_t reads_failed() const { return reads_failed_; }

  // Running digest over every recorded event, in recording order, timestamps included.
  // Two runs of the same seeded configuration must produce identical digests.
  uint64_t digest() const { return digest_; }

 private:
  void Fold(uint64_t v) {
    digest_ = HashBytes(&v, sizeof(v), digest_);
  }
  void FoldEvent(uint8_t tag, uint64_t a = 0, uint64_t b = 0, uint64_t c = 0, uint64_t d = 0);

  EventLoop* loop_;
  uint64_t next_op_id_ = 1;
  uint64_t digest_ = 0xcbf29ce484222325ULL;
  uint64_t reads_issued_ = 0;
  uint64_t reads_failed_ = 0;

  std::vector<AppendOp> appends_;
  std::vector<ReadObservation> read_obs_;
  std::vector<ReadNextObservation> read_next_obs_;
  std::vector<LogReadObservation> log_read_obs_;
  std::vector<TailSample> tail_samples_;
  std::vector<ReadServeSample> read_serve_samples_;
  std::vector<SeqGpSample> seq_gp_samples_;
  std::vector<ShardGpSample> shard_gp_samples_;
  std::vector<ObservedRecord> final_log_;
  std::vector<std::string> nemesis_actions_;
};

}  // namespace lazylog

#endif  // SRC_CHAOS_HISTORY_H_
