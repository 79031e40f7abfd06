// Shared core of the Erwin client libraries (§4, §5). Erwin-st is Erwin-m with each
// append split into data and metadata, so both designs share the sequencing-tier view,
// the append retry ladders, stable-gp-gated reads and the client retry protocol. On
// sealed / stale-view errors the client re-resolves the configuration and retries with
// the same record id (replicas filter duplicates).
//
// Each mode implements exactly two hooks: SendAppend (the append fan-out) and PlaceRead
// (resolving positions to per-shard runs). Everything else lives here once: routing,
// coalescing, merging, sorting and retrying reads, and the index-tier reads.
#ifndef SRC_LAZYLOG_ERWIN_CLIENT_H_
#define SRC_LAZYLOG_ERWIN_CLIENT_H_

#include <deque>
#include <map>
#include <memory>

#include "src/common/params.h"
#include "src/common/random.h"
#include "src/index/index_messages.h"
#include "src/lazylog/cluster_view.h"
#include "src/lazylog/read_path.h"
#include "src/lazylog/shared_log_client.h"
#include "src/rpc/rpc.h"
#include "src/rpc/rpc_methods.h"
#include "src/seq/seq_messages.h"

namespace lazylog {

// Overload retry budget: how many times a client re-sends an append that admission
// control refused before surfacing kOverloaded. Deliberately small — under sustained
// overload admission is a lottery, and a long retry ladder both stretches the acked
// tail (winners accumulate the same backoffs as losers) and multiplies attempt load
// on the already-saturated sequencer. Failing fast keeps acked latency near the ring
// residence bound; the caller decides whether to re-submit.
constexpr int kOverloadRetryLimit = 3;

class ErwinClient : public SharedLogClient {
 public:
  NodeId node_id() const { return endpoint_.node_id(); }

  // appendSync extension (§5.5): completes only after the record is bound to its final
  // position (eager ordering at the cost of latency).
  void AppendSync(Buf payload, AppendCallback cb);

  // Number of view changes this client has observed (tests).
  uint64_t view_changes() const { return view_changes_; }
  ViewId view() const { return view_.view; }
  // View that served the most recent successful CheckTail (the durable count may
  // legitimately shrink across views when an uncommitted suffix is dropped; oracles
  // scope durable-monotonicity per view using this).
  ViewId last_tail_view() const override { return last_tail_view_; }
  uint64_t shard_epoch() const { return view_.shard_epoch; }
  ClientId client_id() const { return client_id_; }
  // Observer over every shard read reply — routed, classic and the index path's
  // fetches (serving replica, advertised stable, records); the chaos read-staleness
  // oracle subscribes.
  void SetReadReplyObserver(ReadCoalescer::ReplyObserver obs) {
    coalescer_.SetReplyObserver(std::move(obs));
  }

 protected:
  ErwinClient(Network* net, const SimParams& params, ClusterView view, ClientId client_id);

  struct PendingAppend {
    RecordId id;
    Buf payload;
    StreamTag tag = kNoTag;
    LogId log = kDefaultLog;
    AppendCallback cb;
    int attempts = 0;
    int overload_attempts = 0;
    // Most recent failure seen for this append; reported if the retry budget runs out.
    Status last_error = Status::Timeout("append retries exhausted");
    // Erwin-st placement: the shard holding the data, chosen once on the first attempt.
    ShardId shard = 0;
    // Erwin-st: every data replica acked some attempt's payload write, so resends go
    // metadata-only.
    bool data_durable = false;
  };

  // One shard's share of a read: its positions as ReadRanges of at most
  // read_chunk_records each (global first position, count of the shard's records), and
  // the run's last global position.
  struct ReadRun {
    ShardId shard = 0;
    std::vector<ReadRange> ranges;
    LogPos last = 0;
  };

  // One ranged read in flight, across its retries.
  struct ReadOp {
    LogPos from = 0;  // [from, from + len) is fetched; the readahead prefix precedes it
    uint64_t len = 0;
    ReadCallback cb;
    bool prefetch = false;  // a sequential reader's read: MaybePrefetch before cb
    std::vector<PositionedRecord> records;  // the readahead prefix, then fetched runs
    size_t prefix = 0;                      // records[0, prefix) came from readahead
    int attempt = 0;
    size_t remaining = 0;          // runs of this attempt still in flight
    size_t failed_run = SIZE_MAX;  // this attempt's first failed run, and its status
    Status failure;
  };

  // --- the per-mode hooks ------------------------------------------------------------
  // Sends one attempt of `p` (counting it in p->attempts) and hands the replies to
  // OnAppendReplies.
  virtual void SendAppend(std::shared_ptr<PendingAppend> p) = 0;
  // Resolves [op->from, op->from + op->len) into per-shard runs read_runs_[0, n) (via
  // NewRun) and continues with IssueRuns(op, n). Runs again on every retry.
  virtual void PlaceRead(std::shared_ptr<ReadOp> op) = 0;

  // Run slot `i` of read_runs_, grown on demand, with its ranges cleared.
  ReadRun& NewRun(size_t i);
  // Reads read_runs_[0, nruns) for `op`. A run wholly below the cached stable tail is a
  // known-stable read: its bindings are final on any replica that also considers them
  // stable, so it is routed load-aware and coalesced. Any other run waits at the shard
  // primary.
  void IssueRuns(std::shared_ptr<ReadOp> op, size_t nruns);
  // Ends `op`'s attempt with `s` before any run was issued (Erwin-st: the position map
  // could not be fetched); the retry ladder reports `s` or places the read again.
  void FailAttempt(const std::shared_ptr<ReadOp>& op, Status s);

  // The verdict ladder over one append attempt's replies. `leader` is the index in `ss`
  // of the sequencing leader's (seq_config[0]) reply, whose verdict decides the retry
  // budget and the leader-only refusals.
  void OnAppendReplies(std::shared_ptr<PendingAppend> p, const std::vector<Status>& ss,
                       size_t leader);
  // Re-reads "/shards/config" from ZK and adopts it if its epoch is newer; runs `then`
  // regardless of outcome. No-op without a control plane. Runtime-added shards may not
  // be in ZK yet, so any tail beyond the controller's matrix is kept.
  void RefreshShardConfig(std::function<void()> then);
  // Re-resolves the shard membership, then runs `retry` after the shared jittered
  // backoff for `attempt`: the recovery step of a read that failed against a (possibly
  // replaced) replica.
  void RefreshThenRetry(int attempt, std::function<void()> retry);

  // --- SharedLogClient (reached through LogHandle) ---
  void Append(const AppendOptions& options, Buf payload, AppendCallback cb) override;
  void Read(LogPos from, uint64_t len, ReadCallback cb) override;
  void CheckTail(TailCallback cb) override;
  void Trim(LogPos index, TrimCallback cb) override;
  // Selective read via the index tier (falls back to the base-class scan when the
  // view has no index nodes or the index path fails mid-flight).
  void ReadNext(LogId log, StreamTag tag, LogPos from, uint32_t max,
                ReadNextCallback cb) override;
  // Named-log ranged read via the index tier's rank lists (scan fallback as above).
  void ReadLog(LogId log, LogPos from, uint64_t len, ReadCallback cb) override;
  // Per-phylog tail from the leader's log cursors (SeqCheckTailReq body).
  void CheckTailOfLog(LogId log, TailCallback cb) override;
  // Name resolution against "/logs/config" in ZooKeeper.
  void ResolveLog(const std::string& name,
                  std::function<void(Status, LogId)> cb) override;

  RpcEndpoint endpoint_;
  SimParams params_;
  ClusterView view_;
  ClientId client_id_;
  Rng rng_;  // jitter for retry backoff and replica routing; seeded per client
  RequestId next_request_id_ = 1;

  // Read scale-out (read_path.h): known-stable sub-reads are routed across replicas and
  // coalesced; reads at or above the cached stable tail (tails_) wait at the shard
  // primary.
  ReplicaRouter router_;
  ReadAheadCache readahead_;
  ReadCoalescer coalescer_;
  // PlaceRead -> IssueRuns scratch, reused: IssueRuns is done with it before any reply
  // (and so any nested read) can arrive.
  std::vector<ReadRun> read_runs_;

 private:
  void EnqueueRetry(std::shared_ptr<PendingAppend> p);
  // kOverloaded resend: in-place jittered backoff, no config probe (overload is not a
  // view problem). The shed budget applies only when the leader itself refused;
  // leader-admitted appends persist until the follower gates let them through.
  void EnqueueOverloadRetry(std::shared_ptr<PendingAppend> p, bool leader_admitted);
  // kQuotaExceeded resend: same in-place backoff; always leader-refused (quotas are
  // enforced at the leader only), so the small shed budget always applies.
  void EnqueueQuotaRetry(std::shared_ptr<PendingAppend> p);
  // True (and sheds the append locally with kQuotaExceeded) while `log` is muted by a
  // recent quota refusal; MuteQuota starts/extends the window.
  bool QuotaMuted(LogId log, AppendCallback& cb);
  void MuteQuota(LogId log);
  void ResolveConfig();
  // Probes replicas until an unsealed view at least as new as ours is found, adopts it,
  // then runs `then`. Retries use jittered exponential backoff (RetryBackoffNs) so a
  // herd of clients deposed by the same view change does not probe in lockstep.
  void ProbeThen(std::function<void()> then, int attempt = 0);
  // One check-tail attempt for `log`; only the default log's counts feed the tail cache.
  void CheckTailAttempt(LogId log, TailCallback cb, int attempt);
  void TrimAttempt(LogPos index, TrimCallback cb, int attempt);
  // Runs after the last run of an attempt replies: delivers the sorted records, or
  // retries the whole fetch (11 attempts) with the first failed run's status.
  void EndAttempt(const std::shared_ptr<ReadOp>& op);
  // One selective read through the index tier: a position lookup at an index node
  // (kIndexReadNext for `req`), then one non-waiting shard read per owning shard (a
  // length-1 range per position, ReadCoalescer::StableRead), routed like known-stable
  // reads. A failed index pull or shard fetch (e.g. a promoted shard primary the cached
  // view predates) refreshes "/shards/config" and retries on the shared jittered
  // backoff; after the fourth failure `scan` serves the read instead.
  void IndexRead(const IndexReadNextReq& req, ReadNextCallback cb,
                 std::function<void()> scan, int attempt);
  void PollStable(LogPos target, AppendCallback cb);
  // Prefetches the stable region past a sequential reader's cursor (one in flight).
  // Read calls it only when `from` equals next_sequential_.
  void MaybePrefetch(LogPos next);

  bool resolving_config_ = false;
  size_t probe_cursor_ = 0;
  uint64_t view_changes_ = 0;
  ViewId last_tail_view_ = 0;
  std::deque<std::shared_ptr<PendingAppend>> retry_queue_;
  // Per-log client-side quota mute (see MuteQuota).
  std::map<LogId, SimTime> quota_muted_until_;
  bool readahead_inflight_ = false;
  LogPos next_sequential_ = 0;  // where the previous Read ended
};

}  // namespace lazylog

#endif  // SRC_LAZYLOG_ERWIN_CLIENT_H_
