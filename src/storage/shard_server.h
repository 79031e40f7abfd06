// Storage shard server. In Erwin-m ("black-box") mode it is a plain primary-backup
// replicated log: the background orderer appends globally positioned records, replicas
// persist them, and reads are gated on stable-gp (§4.3-4.4). In Erwin-st ("modified")
// mode it additionally accepts unordered durable data writes straight from clients and
// binds them to positions when the ordered metadata arrives, resolving missing data with
// no-op records after a timeout (§5). One class serves both primary and backup roles.
#ifndef SRC_STORAGE_SHARD_SERVER_H_
#define SRC_STORAGE_SHARD_SERVER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/params.h"
#include "src/common/status.h"
#include "src/rpc/rpc.h"
#include "src/rpc/rpc_methods.h"
#include "src/sim/resources.h"
#include "src/storage/segmented_log.h"
#include "src/storage/shard_messages.h"

namespace lazylog {

enum class ShardMode { kBlackBox, kStModified };

// Runtime statistics exposed to benches and tests.
struct ShardStats {
  uint64_t appends = 0;         // ordered records stored
  uint64_t data_puts = 0;       // Erwin-st unordered data writes
  uint64_t fast_reads = 0;      // served immediately (pos <= stable-gp)
  uint64_t slow_reads = 0;      // had to wait for stable-gp to advance
  uint64_t backup_reads = 0;    // reads served while not the shard primary
  uint64_t multirange_reads = 0;          // non-waiting read RPCs served (coalesced
                                          // reads and index fetches)
  uint64_t multirange_ranges_clipped = 0; // their ranges clipped/omitted
  uint64_t noops_created = 0;   // Erwin-st missing-data resolutions
  uint64_t rejected_puts = 0;   // late data after no-op
  uint64_t windows_applied = 0; // ordering windows applied in span order
  uint64_t windows_parked = 0;  // windows that arrived ahead of a gap and waited
  // Retransmits of applied windows answered without re-applying: at once if durable,
  // else once the pending windows that cover them are.
  uint64_t windows_retransmitted = 0;
  // Primary-failover counters (promotion handoff).
  uint64_t promotions = 0;                  // times this replica was promoted to primary
  uint64_t handoff_records_refetched = 0;   // peer back-fills + catch-up entries shipped
  uint64_t seal_to_open_ns = 0;             // last promotion: promo-seal -> role flip open
};

// Point-in-time copy of the counters plus the ordering-stream frontiers; the single
// stats surface consumed by benches/tests (no friend/field poking).
struct ShardStatsSnapshot {
  ShardStats counters;
  ShardId shard_id = 0;
  LogPos stable_gp = 0;
  LogPos order_applied = 0;  // contiguous apply frontier of the orderer stream
  LogPos order_durable = 0;  // contiguous fully-durable frontier (reported in acks)
  uint64_t parked_windows = 0;
  BufStats buf;  // global record-path copy/alias counters at capture time
  StatsFields Fields() const;
};

class ShardServer {
 public:
  ShardServer(Network* net, const SimParams& params, ShardMode mode, ShardId shard_id,
              uint32_t num_shards);

  NodeId node_id() const { return endpoint_.node_id(); }
  ShardId shard_id() const { return shard_id_; }

  // Wires up the replica set; `replicas[0]` is the primary. Must be called on every
  // replica before traffic starts.
  void SetReplicaSet(std::vector<NodeId> replicas);
  bool is_primary() const { return !replicas_.empty() && replicas_[0] == node_id(); }

  // Used when shards are added at runtime (Erwin-st §6.9): adopt the current stable-gp
  // and metadata offset so the new shard starts consistent.
  void Bootstrap(LogPos stable_gp, LogPos meta_next_pos);

  // Shard-replica replacement (§5.4): copies both ordered and unordered records (plus
  // the metadata log and no-op decisions) from a live replica of the same shard into
  // this fresh server. `done` fires with the outcome once the state is installed.
  void CopyStateFrom(NodeId live_replica, std::function<void(Status)> done);

  // --- introspection (tests / benches; no wire latency) ---
  LogPos stable_gp() const { return stable_gp_; }
  LogPos order_durable() const { return order_durable_; }
  ShardStatsSnapshot StatsSnapshot() const;
  const ShardStats& stats() const { return stats_; }
  uint64_t ordered_records() const { return log_.size(); }
  const Record* RecordAt(LogPos pos) const;
  size_t unordered_pool_size() const { return pool_.size(); }
  uint64_t meta_log_size() const { return meta_log_.size(); }
  ViewId view() const { return view_; }
  uint64_t promo_epoch() const { return promo_epoch_; }
  bool sealed_for_promotion() const { return sealed_for_promotion_; }

  // Observer fired whenever this shard's stable-gp advances (broadcast, bootstrap, or
  // state copy). The chaos oracles subscribe to check per-node monotonicity.
  using StableGpObserver = std::function<void(ViewId view, LogPos stable_gp)>;
  void SetStableGpObserver(StableGpObserver observer) { stable_gp_observer_ = std::move(observer); }

  // The simulated disk backing this shard (chaos disk-slowdown windows).
  Disk& disk() { return disk_; }

  // Test hook (chaos weakened-invariant fixtures): serve reads without the stable-gp
  // gate, returning whatever is locally bound. Violates §4.4 by design; the chaos
  // read-gating oracle must catch it.
  void SetReadGateDisabledForTest(bool disabled) { read_gate_disabled_ = disabled; }

  // Test hook (chaos weakened-invariant fixtures): ignore the epoch fence, accepting
  // orderer pushes and stable-gp advances stamped with sealed-off views. Lets a deposed
  // sequencing leader keep binding positions; the binding/exactly-once oracles must
  // catch the resulting split-brain.
  void SetFencingDisabledForTest(bool disabled) { fencing_disabled_ = disabled; }

 private:
  struct BatchAck;

  struct Waiter {
    ShardReadReq req;
    Responder responder;
  };
  // A position bound before its data arrived (Erwin-st). It settles once (Settle): with
  // the data when it arrives, with a record fetched by RepairBinding, or as a no-op (the
  // primary's timeout, or a backup mirroring the primary's decision).
  struct PendingBinding {
    LogPos pos = 0;
    uint64_t local_index = 0;
    EventHandle timeout;
    std::shared_ptr<BatchAck> batch;  // primary: the orderer ack this gates
  };

  // Tracks one in-flight ordered window: responds to the orderer once replication,
  // disk persistence, and (Erwin-st) all pending bindings resolve. On success the
  // covered span [span_lo, span_hi) is folded into the durable frontier, and the ack
  // body carries the shard's contiguous durable watermark (ShardOrderAckResp) so the
  // orderer cursor can resync after retries.
  struct BatchAck {
    ShardServer* server = nullptr;
    Responder responder;
    int waits = 0;
    bool failed = false;
    bool track_span = false;
    LogPos span_lo = 0;
    LogPos span_hi = 0;
    void Complete(const Status& s);
  };

  // An ordering window parked because it arrived ahead of a gap in the span stream
  // (pipelined cursors can reorder in flight). `req` is the decoded window, of the one
  // type this shard's mode accepts (see HandleWindow).
  struct OrderedWindow {
    std::shared_ptr<OrderWindow> req;
    Responder responder;
  };

  // Handlers.
  // Both read methods (kShardRead waits, kShardMultiRangeRead does not). A waiting
  // read whose first range starts at or above stable-gp parks in waiters_.
  void HandleRead(bool wait, ShardReadReq req, Responder r);
  void HandleSetStableGp(const StableGpMsg& msg);  // leader/controller broadcast
  void HandlePutData(ShardPutDataReq req, Responder r);  // client -> replica (Erwin-st)
  void HandleReplicateNoOp(NodeId from, NoOpMsg msg, Responder r);  // primary -> backup
  void HandlePosMap(const ShardPosMapReq& req, Responder r);
  // Index node -> primary: tag index pull.
  void HandleIndexDelta(const ShardIndexDeltaReq& req, Responder r);
  void HandleTrim(const TrimMsg& msg, Responder r);
  void HandleFetchState(NoBody, Responder r);
  void HandleSeal(const ShardSealReq& req, Responder r);  // controller: fence the epoch
  // Controller -> replacement replica.
  void HandleCopyState(const ShardCopyStateReq& req, Responder r);

  // --- primary promotion (controller-driven failover) ---
  // Seal-for-promotion: record the bumped promotion epoch, refuse primary-originated
  // replication traffic until the new order is installed, and answer with this
  // replica's completeness report (the controller's selection input).
  void HandlePromoSeal(const ShardPromoSealReq& req, Responder r);
  // Adopt the promoted replica order; a receiver that finds itself first runs the full
  // role flip (PromoteToPrimary), everyone else just re-points at the new primary.
  void HandlePromote(const ShardPromoteReq& req, Responder r);
  // Repair fetch (a backup asking its primary, a promoted primary asking its peers):
  // answers with the record bound at a position (data or a no-op decision), or
  // Unavailable if nothing is bound there or the binding is still pending here.
  void HandleFetchRecord(const FetchRecordReq& req, Responder r);
  // The backup -> primary role flip: catch lagging peers up to our contiguous applied
  // frontier (metadata windows in st mode, record windows in m mode), and take over the
  // pending bindings: each repairs from the peers, then falls back to a no-op timer.
  void PromoteToPrimary(const ShardPromoteReq& req);
  // Ships [from, order_applied_) to one lagging peer as a replication window; in st
  // mode the peer first confirms each of our no-op decisions in that span.
  void CatchUpPeer(NodeId peer, LogPos from);
  void SendCatchUpWindow(NodeId peer, LogPos from, uint32_t attempt);
  // True for primary-originated traffic that must be refused: we are sealed for an
  // in-flight promotion, or the sender is not our current primary (a deposed, possibly
  // isolated, old primary).
  bool RejectPrimaryTraffic(NodeId from) const;

  // True if a message stamped `view` must be rejected as fenced-off.
  bool FencedOff(ViewId view) const { return view < view_ && !fencing_disabled_; }

  // --- the ordering-window pipeline (§4.3; Erwin-st §5.2) ---
  // One path for both modes, templated over the window type `Req`: ShardAppendBatchReq
  // (records) on an Erwin-m shard, ShardOrderMetaReq (<record-id, shard-id> metadata)
  // on an Erwin-st shard. The shard registers only its mode's pair of window methods,
  // so every parked window has that one type. The handler serves both the orderer's
  // window (`from_orderer`) and the primary's replicate of it; the backup side first
  // refuses traffic during a state copy or from anyone but its primary.
  template <typename Req>
  void RegisterWindowMethods(MethodId from_orderer);
  template <typename Req>
  void HandleWindow(NodeId from, bool from_orderer, Req window, Responder r);
  // Windows cover adjacent global-position spans and must be applied in span order
  // (StoreOrdered requires ascending positions). Admission acks fully durable
  // retransmits immediately, joins applied retransmits to the pending acks that cover
  // them, parks ahead-of-gap arrivals, applies in-order windows, and then drains any
  // parked successors.
  template <typename Req>
  void AdmitWindow(std::shared_ptr<Req> req, Responder r);
  // Arms the ack, resets (overwrite) or tracks the span, runs the per-entry step,
  // replicates to the backups (primary only), and persists.
  template <typename Req>
  void ApplyWindow(std::shared_ptr<Req> req, Responder r);
  template <typename Req>
  void DrainParkedWindows();
  // The per-mode steps of the pipeline. WindowCpuBytes is the CPU charge: payload bytes
  // (Erwin-m) or entries x metadata_entry_bytes (Erwin-st). ApplyEntries stores the
  // owned records (Erwin-m) or updates the position map and binds owned positions
  // (Erwin-st), and returns the bytes the window writes to disk.
  uint64_t WindowCpuBytes(const ShardAppendBatchReq& w) const;
  uint64_t WindowCpuBytes(const ShardOrderMetaReq& w) const;
  uint64_t ApplyEntries(const ShardAppendBatchReq& w, const std::shared_ptr<BatchAck>& batch);
  uint64_t ApplyEntries(const ShardOrderMetaReq& w, const std::shared_ptr<BatchAck>& batch);
  // Primary -> backup method for this mode's windows (apply fan-out and peer catch-up).
  MethodId ReplicateMethod() const;
  // An applied window's ack completed. A durable span folds into completed_spans_,
  // advances order_durable_ over the contiguous prefix and answers the joined
  // retransmits it now covers; a failed one fails the joined retransmits above it.
  void OnWindowDone(LogPos lo, LogPos hi, bool durable);
  // True if every position in [order_durable_, hi) is durable ahead of the frontier or
  // applied by a window whose ack is still pending, so the frontier reaches `hi`
  // without re-applying anything.
  bool DurableInFlight(LogPos hi) const;
  // True if a binding in [lo, hi) is still undecided: pending on its data, or a no-op
  // decision some backup has not confirmed yet (unconfirmed_noops_, primary only).
  bool SettlingWithin(LogPos lo, LogPos hi) const;
  // A replica-set change retargets replication. Windows applied before it replicated
  // to the old set, possibly to a replica that is gone and will only time out, so
  // later retransmits must re-apply rather than join them; joined ones fail now.
  void ForgetPendingWindows();
  // Responds with `s` plus a ShardOrderAckResp carrying the durable watermark (error
  // responses deliver the body too, so the orderer resyncs even on failure).
  void SendWatermarkAck(Responder r, const Status& s);
  // Flush/overwrite windows reset the ordering frontiers: the unstable tail is being
  // rewritten, so parked and joined windows, completed spans and pending-window
  // coverage from the old view are dropped.
  void ResetOrderFrontiersForOverwrite(LogPos truncate_from, LogPos range_hi);

  // Stores one ordered record locally (append or recovery overwrite). Returns its local
  // index, or kNoLocal if the unfenced test fixture dropped a regressed position.
  uint64_t StoreOrdered(LogPos pos, Record record, bool allow_existing);
  // Local log index bound to global position `pos`, or kNoLocal if none is.
  uint64_t LocalIndexOf(LogPos pos) const;
  // Truncates everything with position >= pos (recovery overwrite path).
  void TruncateOrderedFrom(LogPos pos);
  // Erwin-st: binds position -> record data from the unordered pool, or parks a
  // PendingBinding. Returns true if immediately resolved.
  bool BindPosition(const MetaEntry& entry, const std::shared_ptr<BatchAck>& batch);
  // The one repair loop of a pending binding: fetches the record bound at its position
  // from replicas_[source]. A backup (source 0) asks its primary every
  // st_data_timeout_ns for as long as the binding is pending; a promoted primary asks
  // its peers 1..n-1 in turn, then arms its no-op timer. A fetched no-op is adopted
  // with FinalizeNoOp, fetched data settles the binding.
  void RepairBinding(RecordId id, size_t source);
  // The one settle step: writes `rec` (the data, or a no-op) over the pending binding's
  // placeholder, records a no-op decision, and releases the window ack's wait on it.
  void Settle(const RecordId& id, Record rec);
  // Settles a pending binding as a no-op; the primary first replicates the decision.
  void FinalizeNoOp(const RecordId& id);
  // Replicates a primary no-op decision to one backup, retrying until acked: a backup
  // whose data copy arrived binds the real record, and a dropped no-op would leave the
  // replicas permanently disagreeing on the binding. `confirmed` runs once: when the
  // backup confirms, or when retrying stops (deposed, or the backup left the set).
  void SendReplicateNoOp(NodeId backup, NoOpMsg msg, std::function<void(Status)> confirmed);

  // Walks every range, counts the stats and replies after the payload's CPU charge.
  void ServeRead(bool wait, const ShardReadReq& req, Responder r);
  // The one stable-range walk (§4.4) behind every read: appends the records at up to
  // `len` consecutive owned positions from `pos`, stopping at stable-gp (unless the read
  // gate is disabled), the end of the log or a hole, and adds their payload bytes to
  // `bytes`. False, with nothing appended, if `pos` is trimmed, unstable or not here.
  bool ReadStable(LogPos pos, uint32_t len, std::vector<PositionedRecord>* out,
                  uint64_t* bytes) const;
  void WakeWaiters();
  uint64_t DiskAdmissionDelay() const;
  void ScrubOrphans();
  // Appends (tag, pos) journal entries for owned positions that became stable since the
  // last advance. Stops short of any still-pending binding so a journaled tag is final.
  void AdvanceTagIndex();

  RpcEndpoint endpoint_;
  ServerCpu cpu_;
  Disk disk_;
  SimParams params_;
  ShardMode mode_;
  ShardId shard_id_;
  uint32_t num_shards_;
  std::vector<NodeId> replicas_;

  ViewId view_ = 0;
  LogPos stable_gp_ = 0;  // positions < stable_gp_ are readable (count semantics)
  // Last durable tail heard from the orderer's stable-gp broadcasts; advertised on read
  // replies so tail pollers can skip CheckTail. May lag the leader, never exceeds it.
  LogPos durable_hint_ = 0;

  // Ordering-stream frontiers (global positions, count semantics). order_applied_ is
  // the contiguous span frontier of applied windows; order_durable_ is the contiguous
  // frontier whose replication + disk persistence (+ st bindings) completed — this is
  // what acks report. applied can run ahead of durable while windows are in flight.
  LogPos order_applied_ = 0;
  LogPos order_durable_ = 0;
  // Spans [lo, hi) sorted by lo: a handful at a time (about a pipeline's depth), so
  // vectors that keep their capacity rather than node maps.
  std::vector<std::pair<LogPos, LogPos>> completed_spans_;  // durable, ahead of the frontier
  std::map<LogPos, OrderedWindow> parked_;  // ahead-of-gap windows keyed by range_lo
  std::vector<std::pair<LogPos, LogPos>> pending_spans_;  // applied, awaiting their acks
  std::multimap<LogPos, Responder> joined_;      // retransmits waiting on the frontier,
                                                 // keyed by range_hi
  std::multiset<LogPos> unconfirmed_noops_;  // one entry per backup yet to confirm a no-op
  bool loading_ = false;  // replacement replica: state copy still in flight
  // Primary-promotion fence (distinct from the ViewId fence: bumping view_ above the
  // live sequencing view would stale-view the healthy leader's pushes and self-seal
  // it). The promotion epoch versions promotion rounds; sealed_for_promotion_ refuses
  // primary-originated replication between the promo-seal and the order install.
  uint64_t promo_epoch_ = 0;
  bool sealed_for_promotion_ = false;
  SimTime promo_sealed_at_ = 0;
  bool read_gate_disabled_ = false;  // test hook; see SetReadGateDisabledForTest
  bool fencing_disabled_ = false;    // test hook; see SetFencingDisabledForTest
  StableGpObserver stable_gp_observer_;

  // Ordered storage: dense local log + position bookkeeping. local_pos_[i] is the
  // global position of local index local_pos_base_ + i; positions ascend, so
  // LocalIndexOf is a binary search over local_pos_.
  static constexpr uint64_t kNoLocal = UINT64_MAX;
  SegmentedLog log_;
  std::vector<LogPos> local_pos_;
  uint64_t local_pos_base_ = 0;
  LogPos trimmed_below_ = 0;

  // Erwin-st state. Pool entries are handles onto the client's payload backing (the
  // PutData attachment); binding moves the handle into the log, never the bytes. The
  // stream tag rides alongside so the bound record keeps its stream.
  struct PoolEntry {
    Buf payload;
    StreamTag tag = kNoTag;
    LogId log = kDefaultLog;
    SimTime arrival = 0;  // last write of the id; the orphan scrub ages entries by it
  };
  std::unordered_map<RecordId, PoolEntry, RecordIdHash> pool_;  // unordered durable data
  std::unordered_map<RecordId, PendingBinding, RecordIdHash> pending_;
  std::unordered_set<RecordId, RecordIdHash> rejected_;  // no-op'ed ids
  std::vector<uint64_t> meta_log_;                       // pos -> shard id (dense)
  LogPos meta_base_ = 0;                                 // position of meta_log_[0]

  // Tag index (index tier). The journal lists (log, tag, pos) for tagged records this
  // shard owns, appended in ascending position order as positions become stable; index
  // nodes pull it by sequence number (kShardIndexDelta). A named-log record is
  // additionally journaled under (log, kNoTag) — the per-phylog rank list that backs
  // per-log reads. index_pos_frontier_ is the coverage mark: every owned position below
  // it is journaled (no-ops and default-log untagged records are covered but not
  // listed). Segment rollover/trim never disturbs the journal — it is keyed by export
  // sequence, not local index.
  std::deque<TagIndexEntry> index_journal_;
  LogPos index_pos_frontier_ = 0;

  std::vector<Waiter> waiters_;
  std::vector<Waiter> waking_;  // WakeWaiters scratch
  ShardStats stats_;
};

}  // namespace lazylog

#endif  // SRC_STORAGE_SHARD_SERVER_H_
