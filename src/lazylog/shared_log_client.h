// The shared-log client interface (the paper's Figure 2, extended with virtual logs).
// Erwin-m, Erwin-st, and the eager-ordering baselines (Corfu, Scalog, KafkaLite) all
// implement it, so the example applications and benches run unchanged on any of them.
//
// Applications talk to *logs*, not to the client object: `Open(name)` resolves a named
// virtual log ("phylog") to a LogHandle, and `log()` returns the default handle — the
// physical log itself, which preserves single-log behaviour exactly. All data-path
// operations (Append / Read / CheckTail / ReadNext / ReadTag / Trim) live on the
// handle:
//
//   append    - make the record durable; with LazyLog it is *not* yet bound to a
//               position (returns only a durability flag).
//   read      - records at positions [from, from+len) of *this log's* position space;
//               enforced to be the final, linearizable binding before it is served.
//   checkTail - number of durable records in this log.
//   trim      - garbage-collect positions below `index` (default log only).
//
// A named log's position space is dense and private to it: position i of phylog L is
// the i-th record of L in the shared total order (the rank in the index tier's per-log
// position list). ReadNext/ReadTag cursors stay in the shared substrate's global
// position space for every log — streams are an access path over the total order.
//
// All calls are asynchronous (the simulator is event-driven); completion callbacks fire
// on the simulated event loop.
#ifndef SRC_LAZYLOG_SHARED_LOG_CLIENT_H_
#define SRC_LAZYLOG_SHARED_LOG_CLIENT_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/params.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/rpc/rpc.h"
#include "src/seq/seq_messages.h"
#include "src/sim/event_loop.h"
#include "src/storage/shard_messages.h"

namespace lazylog {

class LogHandle;

// Jittered exponential backoff for client config re-resolution (STALE_VIEW / sealed /
// unreachable-leader retries). Pure so tests can assert the spread: `attempt` doubles
// the base up to a cap, and `jitter01` (uniform in [0, 1)) scatters concurrent clients
// so a view change does not produce a thundering herd of simultaneous probes.
inline uint64_t RetryBackoffNs(uint32_t attempt, double jitter01) {
  const uint64_t base =
      std::min<uint64_t>(8 * kMs, (250 * kUs) << std::min<uint32_t>(attempt, 5u));
  return base / 2 + static_cast<uint64_t>(static_cast<double>(base / 2) * jitter01);
}

// Jittered backoff for admission-control refusals, much shorter than RetryBackoffNs.
// A rejection is served in microseconds (before the sequencer's CPU charge), and the
// gate opens and closes in cycles a few hundred microseconds long as the ring drains;
// retries must return within one cycle or the freed slots sit idle on a core that has
// work waiting — client backoff becomes server idle time. The attempt still doubles
// the base so persistent overload thins the retry herd instead of hammering the gate.
inline uint64_t OverloadBackoffNs(uint32_t attempt, double jitter01) {
  const uint64_t base =
      std::min<uint64_t>(1 * kMs, (50 * kUs) << std::min<uint32_t>(attempt, 4u));
  return base / 2 + static_cast<uint64_t>(static_cast<double>(base / 2) * jitter01);
}

// Client-side read-path counters (replica routing, request coalescing, tail caching,
// readahead). Every SharedLogClient owns a set; the Erwin clients drive the full
// machinery, the eager baselines populate the subset that applies to them.
struct ReadPathStats {
  uint64_t routed_reads = 0;      // stable sub-reads sent through the replica router
  uint64_t backup_routed = 0;     // of those, picks that landed on a non-primary replica
  uint64_t primary_reads = 0;     // sub-reads pinned to the primary (above-stable / mode 0)
  uint64_t coalesced_batches = 0; // multi-range RPCs issued
  uint64_t coalesced_subs = 0;    // sub-reads folded into those RPCs
  uint64_t chunk_rpcs = 0;        // extra RPCs from splitting large ranges into chunks
  uint64_t clipped_resends = 0;   // clipped/failed sub-reads re-issued to the primary
  uint64_t tail_cache_hits = 0;   // CheckTail-equivalents answered from the tail cache
  uint64_t readahead_hits = 0;    // records served from the readahead cache
  uint64_t readahead_fetched = 0; // records speculatively prefetched
};

struct ReadPathStatsSnapshot {
  ReadPathStats counters;
  StatsFields Fields() const {
    return {
        {"routed_reads", static_cast<double>(counters.routed_reads)},
        {"backup_routed", static_cast<double>(counters.backup_routed)},
        {"primary_reads", static_cast<double>(counters.primary_reads)},
        {"coalesced_batches", static_cast<double>(counters.coalesced_batches)},
        {"coalesced_subs", static_cast<double>(counters.coalesced_subs)},
        {"chunk_rpcs", static_cast<double>(counters.chunk_rpcs)},
        {"clipped_resends", static_cast<double>(counters.clipped_resends)},
        {"tail_cache_hits", static_cast<double>(counters.tail_cache_hits)},
        {"readahead_hits", static_cast<double>(counters.readahead_hits)},
        {"readahead_fetched", static_cast<double>(counters.readahead_fetched)},
    };
  }
};

// Most recent durable/stable tail this client has heard — from CheckTail replies and
// from the piggyback every shard read reply carries. Both tails are monotone under one
// view, so a stale cached value is merely conservative, never wrong; `Get` additionally
// applies a freshness TTL for pollers that want a recent value.
class TailCache {
 public:
  void Note(SimTime now, LogPos durable, LogPos stable) {
    durable_ = std::max(durable_, durable);
    stable_ = std::max(stable_, stable);
    noted_at_ = now;
  }

  bool Get(SimTime now, uint64_t ttl_ns, LogPos* durable, LogPos* stable) const {
    if (noted_at_ == 0 || now - noted_at_ > ttl_ns) {
      return false;
    }
    *durable = durable_;
    *stable = stable_;
    return true;
  }

  LogPos stable() const { return stable_; }
  LogPos durable() const { return durable_; }

 private:
  LogPos durable_ = 0;
  LogPos stable_ = 0;
  SimTime noted_at_ = 0;
};

// Per-append options. The single Append entry point takes this instead of the old
// tagged/untagged overload pair; future per-append knobs slot in here without touching
// every implementation again. `log` is normally stamped by the LogHandle the append
// goes through.
struct AppendOptions {
  StreamTag tag = kNoTag;
  LogId log = kDefaultLog;
};

class SharedLogClient {
 public:
  // append: OK once the record is safely stored (LazyLog semantics: the position is
  // assigned later; conventional logs have it bound already). Error codes distinguish
  // why an append was given up on: kSealed / kStaleView (reconfiguration fenced the
  // view the client was writing into), kTimeout (no response within the retry budget),
  // kRejected (Erwin-st data arrived after the no-op decision — the append is lost),
  // kOverloaded (admission control shed the append and the in-place backoff budget ran
  // out — never returned for an append that was already acked; safe to retry later),
  // kQuotaExceeded (this log's per-tenant rate limit refused the append — the cluster
  // is healthy, the tenant is over its quota; retry after its bucket refills),
  // kInvalidArgument (append to a deleted log), or kUnavailable / kInternal for
  // generic failure.
  using AppendCallback = std::function<void(Status)>;
  // read: positioned records in ascending position order. For the default log the
  // positions are global; for a named log they are the log's own dense positions.
  // No-op records (Erwin-st client-failure resolutions) are delivered with no_op=true
  // on the default log; named-log reads never surface them (they own no rank).
  using ReadCallback = std::function<void(Status, std::vector<PositionedRecord>)>;
  // checkTail: `durable` = number of durable records; `stable` = prefix already bound
  // to final positions (stable == durable in eager-ordering logs).
  using TailCallback = std::function<void(Status, LogPos durable, LogPos stable)>;
  using TrimCallback = std::function<void(Status)>;
  // readNext: the stream-tag selective read. `records` are the records of the
  // requested stream in [from, next_from), in ascending position order — an exact,
  // gap-free projection of the global order over that range: every record of the
  // stream in [from, next_from) is included, none from outside it. `next_from` is the
  // resume cursor; next_from == from means no progress was possible yet (the index is
  // still catching up, or the stream has no stable records past `from`).
  using ReadNextCallback =
      std::function<void(Status, std::vector<PositionedRecord> records, LogPos next_from)>;
  // open: resolves a log name against the cluster's log registry. The handle is a
  // value; it stays valid as long as the client it came from.
  using OpenCallback = std::function<void(Status, LogHandle)>;

  virtual ~SharedLogClient() = default;

  // View that served the most recent successful checkTail. 0 where views do not apply
  // (the eager baselines run a single static configuration). The chaos oracles use this
  // to scope per-client durable-tail monotonicity per view: the durable tail may shrink
  // across a view change (an uncommitted suffix is legally dropped), never within one.
  virtual ViewId last_tail_view() const { return 0; }

  // Resolves `name` in the installed log registry (falling back to the
  // implementation's control-plane lookup) and hands back a bound LogHandle.
  void Open(const std::string& name, OpenCallback cb);

  // The default handle: the physical log itself. Single-log callers route everything
  // through this and observe exactly the pre-virtual-log behaviour (byte-identical
  // wire frames for untagged appends).
  LogHandle log();

  // Handle for an already-known log id (tests and benches that created the log through
  // the cluster/controller and hold its id).
  LogHandle handle(LogId id, std::string name = "");

  // Installs the registry snapshot used by Open() and quota-free name resolution.
  // Clients wired through a control plane refresh this from "/logs/config" on demand.
  void InstallLogRegistry(std::vector<LogRegistryEntry> entries) {
    log_registry_ = std::move(entries);
  }
  const std::vector<LogRegistryEntry>& log_registry() const { return log_registry_; }

  // Last tail piggybacked on a read reply or learned from CheckTail, if still within
  // client_read.tail_cache_ttl_ns; each answer counts a tail-cache hit. Pollers
  // (PeriodicTailReader) consult this before paying for a CheckTail round trip.
  bool CachedTail(LogPos* durable, LogPos* stable) {
    if (!tails_.Get(clock_->Now(), tail_cache_ttl_ns_, durable, stable)) {
      return false;
    }
    read_stats_.tail_cache_hits++;
    return true;
  }

  // Point-in-time copy of the client-side read-path counters (bench JSON / tests).
  ReadPathStatsSnapshot ReadPathSnapshot() const { return {read_stats_}; }

 protected:
  friend class LogHandle;

  // `clock` and `tail_cache_ttl_ns` bound the freshness of CachedTail answers.
  SharedLogClient(const EventLoop* clock, uint64_t tail_cache_ttl_ns)
      : clock_(clock), tail_cache_ttl_ns_(tail_cache_ttl_ns) {}

  // --- the per-implementation surface (reached through LogHandle) --------------------
  // The payload is a refcounted Buf handle; implementations thread it through to the
  // wire without copying the bytes. std::string arguments convert implicitly. The
  // options carry the stream tag and owning phylog (kNoTag / kDefaultLog appends are
  // byte-identical to the pre-options wire format).
  virtual void Append(const AppendOptions& options, Buf payload, AppendCallback cb) = 0;
  // Substrate (global position space) operations; the default log's data path.
  virtual void Read(LogPos from, uint64_t len, ReadCallback cb) = 0;
  virtual void CheckTail(TailCallback cb) = 0;
  virtual void Trim(LogPos index, TrimCallback cb) = 0;

  // Selective read: up to `max` records of stream (log, tag) at or after global
  // position `from`. The default scans — CheckTail, then ranged Reads filtered by
  // (log, tag) — which works on any implementation whose records carry the fields
  // (the eager baselines included) but costs reads proportional to the whole log. The
  // Erwin clients override it with an index-node position lookup + shard-direct
  // fetches.
  virtual void ReadNext(LogId log, StreamTag tag, LogPos from, uint32_t max,
                        ReadNextCallback cb) {
    ScanReadNext(log, tag, from, max, std::move(cb));
  }

  // Point read of one record of stream (log, tag) at global position `pos`. Served by
  // the plain read path; fails with kInvalidArgument if the record at `pos` belongs to
  // a different stream or log (or is untagged/no-op filler).
  virtual void ReadTag(LogId log, StreamTag tag, LogPos pos, ReadCallback cb);

  // Named-log ranged read: records at the log's own positions [from, from+len). The
  // default scans the stable prefix of the shared log and ranks log-owned records;
  // the Erwin clients override it with an index-tier rank lookup. Incompatible with
  // Trim (trimming shifts ranks); deployments that trim keep per-log read state in
  // the app, like the paper's single-log apps do.
  virtual void ReadLog(LogId log, LogPos from, uint64_t len, ReadCallback cb) {
    ScanReadLog(log, from, len, std::move(cb));
  }

  // Named-log tail: durable/stable counts of this log's records. The scan default
  // only sees the stable prefix, so it reports durable == stable == stable-rank-count;
  // the Erwin clients override it with the leader's per-log cursors.
  virtual void CheckTailOfLog(LogId log, TailCallback cb) {
    ScanCheckTailOfLog(log, std::move(cb));
  }

  // The scan fallback behind the default ReadNext; overrides use it when the index
  // tier is unreachable or absent.
  void ScanReadNext(LogId log, StreamTag tag, LogPos from, uint32_t max,
                    ReadNextCallback cb);
  // Scan fallbacks behind the named-log defaults (also used by the Erwin clients when
  // no index node is live).
  void ScanReadLog(LogId log, LogPos from, uint64_t len, ReadCallback cb);
  void ScanCheckTailOfLog(LogId log, TailCallback cb);

  // Fallback name resolution when the installed registry has no entry: the Erwin
  // clients fetch "/logs/config" from ZooKeeper here; the default fails.
  virtual void ResolveLog(const std::string& name,
                          std::function<void(Status, LogId)> cb) {
    cb(Status::InvalidArgument("unknown log: " + name), kDefaultLog);
  }

  // Read for stores that serve one record per call (the eager baselines): issues
  // `read_one` for every position of [from, from+len) at once and answers with the
  // records in position order, or with the first failure in position order.
  using ReadOneCallback = std::function<void(Status, PositionedRecord)>;
  using ReadOneFn = std::function<void(LogPos, ReadOneCallback)>;
  void ReadEach(LogPos from, uint64_t len, const ReadOneFn& read_one, ReadCallback cb);

  // Mutated by the implementation's read path (and the read_path.h helpers, which hold
  // a pointer to it).
  ReadPathStats read_stats_;
  // Every tail the implementation hears: CheckTail replies and read-reply piggybacks.
  TailCache tails_;

 private:
  struct ScanState;
  void ScanStable(std::shared_ptr<ScanState> st);
  void ScanStep(std::shared_ptr<ScanState> st);

  const EventLoop* clock_;
  uint64_t tail_cache_ttl_ns_;
  std::vector<LogRegistryEntry> log_registry_;
};

// A bound (client, log) pair: the application-facing face of one virtual log. Cheap
// value type — copy freely, but never outlive the client it came from. The default
// handle (id kDefaultLog) is the physical log; named handles project their own dense
// position space out of the shared order.
class LogHandle {
 public:
  LogHandle() = default;
  LogHandle(SharedLogClient* client, LogId id, std::string name)
      : client_(client), id_(id), name_(std::move(name)) {}

  bool valid() const { return client_ != nullptr; }
  LogId id() const { return id_; }
  const std::string& name() const { return name_; }
  SharedLogClient* client() const { return client_; }

  // Appends to this log. The options' `log` field is stamped with this handle's id;
  // the tag passes through (streams compose with virtual logs).
  void Append(AppendOptions options, Buf payload, SharedLogClient::AppendCallback cb) {
    options.log = id_;
    client_->Append(options, std::move(payload), std::move(cb));
  }
  void Append(Buf payload, SharedLogClient::AppendCallback cb) {
    Append(AppendOptions{}, std::move(payload), std::move(cb));
  }
  void Append(StreamTag tag, Buf payload, SharedLogClient::AppendCallback cb) {
    Append(AppendOptions{.tag = tag}, std::move(payload), std::move(cb));
  }

  // Records at this log's positions [from, from+len).
  void Read(LogPos from, uint64_t len, SharedLogClient::ReadCallback cb) {
    if (id_ == kDefaultLog) {
      client_->Read(from, len, std::move(cb));
    } else {
      client_->ReadLog(id_, from, len, std::move(cb));
    }
  }

  void CheckTail(SharedLogClient::TailCallback cb) {
    if (id_ == kDefaultLog) {
      client_->CheckTail(std::move(cb));
    } else {
      client_->CheckTailOfLog(id_, std::move(cb));
    }
  }

  // Selective read over this log's stream `tag`; cursors are global positions on
  // every log (see the header comment).
  void ReadNext(StreamTag tag, LogPos from, uint32_t max,
                SharedLogClient::ReadNextCallback cb) {
    client_->ReadNext(id_, tag, from, max, std::move(cb));
  }

  void ReadTag(StreamTag tag, LogPos pos, SharedLogClient::ReadCallback cb) {
    client_->ReadTag(id_, tag, pos, std::move(cb));
  }

  // Garbage-collection below `index`. Defined for the default log only: a named log's
  // rank space would shift under substrate truncation (per-tenant retention is the
  // ROADMAP's cold-tiering item).
  void Trim(LogPos index, SharedLogClient::TrimCallback cb) {
    if (id_ != kDefaultLog) {
      cb(Status::InvalidArgument("per-log trim not supported"));
      return;
    }
    client_->Trim(index, std::move(cb));
  }

 private:
  SharedLogClient* client_ = nullptr;
  LogId id_ = kDefaultLog;
  std::string name_;
};

inline LogHandle SharedLogClient::log() { return LogHandle(this, kDefaultLog, ""); }

inline LogHandle SharedLogClient::handle(LogId id, std::string name) {
  return LogHandle(this, id, std::move(name));
}

inline void SharedLogClient::Open(const std::string& name, OpenCallback cb) {
  for (const LogRegistryEntry& entry : log_registry_) {
    if (entry.name == name && !entry.deleted) {
      cb(Status::Ok(), LogHandle(this, entry.id, name));
      return;
    }
  }
  ResolveLog(name, [this, name, cb = std::move(cb)](Status s, LogId id) {
    if (!s.ok()) {
      cb(std::move(s), LogHandle());
      return;
    }
    cb(Status::Ok(), LogHandle(this, id, name));
  });
}

inline void SharedLogClient::ReadEach(LogPos from, uint64_t len, const ReadOneFn& read_one,
                                      ReadCallback cb) {
  if (len == 0) {
    cb(Status::Ok(), {});
    return;
  }
  auto records = std::make_shared<std::vector<PositionedRecord>>();
  auto gather = Gather::Create(len, [records, cb](const std::vector<Status>& ss) {
    for (const Status& s : ss) {
      if (!s.ok()) {
        cb(s, {});
        return;
      }
    }
    std::sort(records->begin(), records->end(),
              [](const PositionedRecord& a, const PositionedRecord& b) { return a.pos < b.pos; });
    cb(Status::Ok(), std::move(*records));
  });
  for (uint64_t i = 0; i < len; ++i) {
    read_one(from + i, [records, gather, i](Status s, PositionedRecord pr) {
      if (s.ok()) {
        records->push_back(std::move(pr));
      }
      gather->Complete(i, std::move(s));
    });
  }
}

// --- scan fallbacks --------------------------------------------------------------------

// The one chunked scan of the stable prefix behind every scan fallback: CheckTail, then
// 64-position Reads from `cursor` up to the stable prefix it reported. A tagged scan
// collects the records of (log, tag); a kNoTag scan ranks the log's records and collects
// ranks [from, from + want), labelled with their ranks. It ends at the stable prefix, on
// the first failure, or once `want` records are in (never for want == 0, a count-only
// scan); filling `want` mid-chunk leaves `cursor` just past the last position consumed.
struct SharedLogClient::ScanState {
  LogId log = kDefaultLog;
  StreamTag tag = kNoTag;
  LogPos from = 0;      // first rank collected (kNoTag scans)
  uint64_t want = 0;    // records to collect; 0 = count ranks only
  LogPos cursor = 0;    // next unscanned global position
  LogPos stable = 0;    // scan ceiling (stable prefix at CheckTail time)
  LogPos rank = 0;      // the log's records seen so far (kNoTag scans)
  std::vector<PositionedRecord> out;
  std::function<void(Status, ScanState*)> done;  // on failure `out` is empty

  bool full() const { return want > 0 && out.size() >= want; }
};

inline void SharedLogClient::ScanStable(std::shared_ptr<ScanState> st) {
  CheckTail([this, st](Status s, LogPos, LogPos stable) {
    if (!s.ok()) {
      st->done(std::move(s), st.get());
      return;
    }
    st->stable = stable;
    ScanStep(std::move(st));
  });
}

inline void SharedLogClient::ScanStep(std::shared_ptr<ScanState> st) {
  constexpr uint64_t kScanChunk = 64;
  if (st->cursor >= st->stable || st->full()) {
    st->done(Status::Ok(), st.get());
    return;
  }
  const uint64_t len = std::min<uint64_t>(kScanChunk, st->stable - st->cursor);
  const LogPos chunk_end = st->cursor + len;
  Read(st->cursor, len, [this, st, chunk_end](Status s, std::vector<PositionedRecord> recs) {
    if (!s.ok()) {
      st->out.clear();
      st->done(std::move(s), st.get());
      return;
    }
    bool truncated = false;
    for (PositionedRecord& pr : recs) {
      if (st->full()) {
        truncated = true;
        break;
      }
      st->cursor = pr.pos + 1;
      const Record& rec = pr.record;
      if (rec.no_op || rec.log != st->log || (st->tag != kNoTag && rec.tag != st->tag)) {
        continue;
      }
      if (st->tag == kNoTag) {
        const LogPos rank = st->rank++;
        if (st->want == 0 || rank < st->from) {
          continue;
        }
        pr.pos = rank;  // re-label with the per-log position
      }
      st->out.push_back(std::move(pr));
    }
    if (!truncated) {
      st->cursor = chunk_end;  // whole chunk inspected
    }
    ScanStep(std::move(st));
  });
}

inline void SharedLogClient::ScanReadNext(LogId log, StreamTag tag, LogPos from,
                                          uint32_t max, ReadNextCallback cb) {
  if (tag == kNoTag) {
    cb(Status::InvalidArgument("read-next requires a stream tag"), {}, from);
    return;
  }
  if (max == 0) {
    cb(Status::Ok(), {}, from);
    return;
  }
  auto st = std::make_shared<ScanState>();
  st->log = log;
  st->tag = tag;
  st->want = max;
  st->cursor = from;
  st->done = [cb = std::move(cb)](Status s, ScanState* scan) {
    cb(std::move(s), std::move(scan->out), scan->cursor);
  };
  ScanStable(std::move(st));
}

inline void SharedLogClient::ScanReadLog(LogId log, LogPos from, uint64_t len,
                                         ReadCallback cb) {
  if (len == 0) {
    cb(Status::Ok(), {});
    return;
  }
  auto st = std::make_shared<ScanState>();
  st->log = log;
  st->from = from;
  st->want = len;
  st->done = [cb = std::move(cb)](Status s, ScanState* scan) {
    cb(std::move(s), std::move(scan->out));
  };
  ScanStable(std::move(st));
}

inline void SharedLogClient::ScanCheckTailOfLog(LogId log, TailCallback cb) {
  auto st = std::make_shared<ScanState>();
  st->log = log;
  st->done = [cb = std::move(cb)](Status s, ScanState* scan) {
    // The scan only sees the stable prefix, so durable == stable == the rank count.
    const LogPos count = s.ok() ? scan->rank : 0;
    cb(std::move(s), count, count);
  };
  ScanStable(std::move(st));
}

inline void SharedLogClient::ReadTag(LogId log, StreamTag tag, LogPos pos, ReadCallback cb) {
  if (tag == kNoTag) {
    cb(Status::InvalidArgument("read-tag requires a stream tag"), {});
    return;
  }
  Read(pos, 1,
       [log, tag, pos, cb = std::move(cb)](Status s, std::vector<PositionedRecord> recs) {
         if (!s.ok()) {
           cb(std::move(s), {});
           return;
         }
         if (recs.size() != 1 || recs[0].pos != pos) {
           cb(Status::Internal("point read returned wrong record"), {});
           return;
         }
         if (recs[0].record.no_op || recs[0].record.tag != tag ||
             recs[0].record.log != log) {
           cb(Status::InvalidArgument("record at position belongs to a different stream"),
              {});
           return;
         }
         cb(Status::Ok(), std::move(recs));
       });
}

}  // namespace lazylog

#endif  // SRC_LAZYLOG_SHARED_LOG_CLIENT_H_
