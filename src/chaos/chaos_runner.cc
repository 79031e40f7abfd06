#include "src/chaos/chaos_runner.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/logging.h"

namespace lazylog {

namespace {

std::string ModeName(ErwinMode mode) {
  return mode == ErwinMode::kM ? "erwin-m" : "erwin-st";
}

// The runner proper. One instance per run; everything it does is a pure function of the
// options (all randomness flows from options.seed through dedicated Rng streams).
class ChaosRunner {
 public:
  explicit ChaosRunner(const ChaosOptions& options)
      : options_(options),
        inject_rng_(options.seed ^ 0x696e6a6563743021ULL),
        reader_rng_(options.seed ^ 0x7265616465723021ULL) {}

  ChaosReport Run();

 private:
  struct Workload {
    std::unique_ptr<SharedLogClient> client;
    LogHandle log;  // the virtual log this workload targets (default = physical)
    NodeId node = kInvalidNode;
    ClientId id = 0;
  };

  Workload MakeWorkloadClient();
  void AttachObservers();
  void AttachShardObserver(uint32_t s, uint32_t r);
  void ScheduleWriterAppend(uint32_t w);
  void ScheduleReaderOp(uint32_t r);
  void SchedulePerLogRead(uint32_t r, std::function<void()> next);
  void InjectHalfAppend();
  void SettlePhase();
  void SentinelPhase();
  void FinalReadback();
  // Runs the simulation in 1ms slices until *flag or the budget is exhausted.
  bool RunUntilFlag(const std::shared_ptr<bool>& flag, uint64_t budget_ns);

  std::string WriterPayload(uint32_t w, uint64_t n) const {
    std::ostringstream os;
    os << "s" << options_.seed << "w" << w << "n" << n;
    std::string p = os.str();
    if (p.size() < options_.payload_bytes) {
      p.resize(options_.payload_bytes, '.');
    }
    return p;
  }

  ChaosOptions options_;
  std::unique_ptr<ErwinCluster> cluster_;
  std::unique_ptr<ChaosHistory> history_;
  std::unique_ptr<Nemesis> nemesis_;

  std::vector<Workload> writers_;
  std::vector<Workload> readers_;
  Workload driver_;                       // sentinels, checkTail, final read-back
  std::unique_ptr<ErwinStClient> injector_;  // st half-appends (predictable ids)

  std::vector<Rng> writer_rngs_;
  Rng inject_rng_;
  Rng reader_rng_;

  SimTime write_end_ = 0;
  double burst_factor_ = 1.0;  // nemesis overload-burst arrival multiplier (1.0 = calm)
  uint64_t pending_appends_ = 0;
  uint64_t injector_reqs_ = 0;
  uint64_t write_counts_[64] = {};
  std::vector<LogId> named_logs_;  // multi-log mode: the registered tenants' ids
  std::vector<ChaosViolation> harness_violations_;
};

ChaosRunner::Workload ChaosRunner::MakeWorkloadClient() {
  Workload w;
  // Every shard read reply (routed backup reads and the index path's fetches included)
  // feeds the read-staleness oracle: the serving replica, the stable-gp it advertised,
  // and the records served.
  auto serve_observer = [this](NodeId server, LogPos advertised_stable,
                               const std::vector<PositionedRecord>& records) {
    LogPos max_pos = 0;
    for (const PositionedRecord& rec : records) {
      max_pos = std::max(max_pos, rec.pos);
    }
    history_->RecordReadServe(server, advertised_stable,
                              static_cast<uint32_t>(records.size()), max_pos);
  };
  auto c = cluster_->MakeClient();
  w.node = c->node_id();
  w.id = c->client_id();
  c->SetReadReplyObserver(serve_observer);
  w.client = std::move(c);
  w.log = w.client->log();
  return w;
}

void ChaosRunner::AttachShardObserver(uint32_t s, uint32_t r) {
  ShardServer& srv = cluster_->shard(s, r);
  const NodeId node = srv.node_id();
  srv.SetStableGpObserver([this, node, s](ViewId view, LogPos stable_gp) {
    history_->RecordShardGp(node, s, view, stable_gp);
  });
  if (options_.disable_read_gate) {
    srv.SetReadGateDisabledForTest(true);
  }
  if (options_.disable_fencing) {
    srv.SetFencingDisabledForTest(true);
  }
}

void ChaosRunner::AttachObservers() {
  for (uint32_t i = 0; i < cluster_->num_seq_replicas(); ++i) {
    SequencingReplica& rep = cluster_->seq_replica(i);
    const NodeId node = rep.node_id();
    rep.SetGpObserver([this, node](ViewId view, LogPos ordered_gp, LogPos stable_gp) {
      history_->RecordSeqGp(node, view, ordered_gp, stable_gp);
    });
  }
  for (uint32_t s = 0; s < cluster_->num_shards(); ++s) {
    for (uint32_t r = 0; r < cluster_->shard_replication(); ++r) {
      AttachShardObserver(s, r);
    }
  }
}

void ChaosRunner::ScheduleWriterAppend(uint32_t w) {
  EventLoop& loop = cluster_->loop();
  if (loop.Now() >= write_end_) {
    return;
  }
  // During an overload burst the nemesis multiplies the arrival rate: the round issues
  // ceil(factor) appends back to back and the think time shrinks by the factor, so even
  // this closed-loop workload genuinely pressures the admission gate.
  const uint32_t k = static_cast<uint32_t>(std::ceil(burst_factor_));
  for (uint32_t i = 0; i < k; ++i) {
    const uint64_t n = write_counts_[w]++;
    std::string payload = WriterPayload(w, n);
    const uint64_t hash = HashString(payload);
    // Each writer publishes to one of three streams, so tagged records interleave with
    // untagged sentinel/half-append traffic and the stream-projection oracle has real
    // multi-stream windows to replay.
    const StreamTag tag = static_cast<StreamTag>((w % 3) + 1);
    const uint64_t op = history_->BeginAppend(AppendOp::Kind::kNormal,
                                              payload.substr(0, 24), hash, tag,
                                              writers_[w].log.id());
    pending_appends_++;
    const bool drives_next = i == 0;  // exactly one continuation per round
    writers_[w].log.Append(tag, std::move(payload), [this, op, w, drives_next](Status s) {
      history_->EndAppend(op, std::move(s));
      pending_appends_--;
      if (!drives_next) {
        return;
      }
      const uint64_t base = 150 * kUs + writer_rngs_[w].Uniform(450 * kUs);
      const uint64_t think =
          std::max<uint64_t>(1, static_cast<uint64_t>(base / burst_factor_));
      cluster_->loop().Schedule(think, [this, w]() { ScheduleWriterAppend(w); });
    });
  }
}

void ChaosRunner::ScheduleReaderOp(uint32_t r) {
  EventLoop& loop = cluster_->loop();
  if (loop.Now() >= write_end_) {
    return;
  }
  const uint32_t client = static_cast<uint32_t>(readers_[r].id);
  readers_[r].client->log().CheckTail([this, r, client](Status s, LogPos durable, LogPos stable) {
    auto next = [this, r]() {
      const uint64_t think = 300 * kUs + reader_rng_.Uniform(1500 * kUs);
      cluster_->loop().Schedule(think, [this, r]() { ScheduleReaderOp(r); });
    };
    if (!s.ok()) {
      next();
      return;
    }
    history_->RecordTail(client, durable, stable, readers_[r].client->last_tail_view());
    // Multi-log mode: some ops read a named log in its own rank space — per-log
    // CheckTail, then a ranked window the log-projection oracle replays.
    if (options_.multi_log && !named_logs_.empty() && reader_rng_.Chance(0.3)) {
      SchedulePerLogRead(r, next);
      return;
    }
    // A third of the ops are selective reads: pick a stream and a start cursor and let
    // the client route through the index tier (or fall back to a scan under faults).
    if (stable > 0 && reader_rng_.Chance(0.35)) {
      const StreamTag tag = static_cast<StreamTag>(1 + reader_rng_.Uniform(3));
      const LogPos from = reader_rng_.Uniform(stable + 1);
      const uint32_t max = 1 + static_cast<uint32_t>(reader_rng_.Uniform(4));
      // Stream spaces are per-phylog: in multi-log mode the read targets a random
      // log's stream (ReadNext cursors stay in global position space on every log).
      LogHandle stream_log = readers_[r].client->log();
      if (options_.multi_log && !named_logs_.empty() && reader_rng_.Chance(0.5)) {
        stream_log = readers_[r].client->handle(
            named_logs_[reader_rng_.Uniform(named_logs_.size())]);
      }
      const uint64_t op = history_->BeginReadNext(tag, from, max, stream_log.id());
      auto done = std::make_shared<bool>(false);
      const LogId stream_log_id = stream_log.id();
      stream_log.ReadNext(
          tag, from, max,
          [this, op, tag, from, stream_log_id, done, next](
              Status rs, std::vector<PositionedRecord> recs, LogPos next_from) {
            if (*done) {
              return;
            }
            *done = true;
            if (!rs.ok()) {
              history_->RecordReadNextError(op);
            } else {
              std::vector<ObservedRecord> obs;
              for (const PositionedRecord& pr : recs) {
                obs.push_back(ObservedRecord{pr.pos, pr.record.id,
                                             HashString(pr.record.payload),
                                             pr.record.no_op, pr.record.tag,
                                             pr.record.log});
              }
              history_->RecordReadNextReturn(op, tag, from, std::move(obs), next_from,
                                             stream_log_id);
            }
            next();
          });
      // Same watchdog as plain reads: a selective read stuck behind a crashed index
      // node's RPC timeout must not wedge the reader loop.
      cluster_->loop().Schedule(60 * kMs, [this, op, done, next]() {
        if (*done) {
          return;
        }
        *done = true;
        history_->RecordReadNextError(op);
        next();
      });
      return;
    }
    // Pick a target: mostly stable-prefix reads; sometimes a gate-stress read just at
    // or past the stable frontier (legal — the shard parks it until stable passes).
    LogPos from = 0;
    if (durable > stable && reader_rng_.Chance(0.25)) {
      from = stable + reader_rng_.Uniform(durable - stable);
    } else if (stable > 0) {
      from = reader_rng_.Uniform(stable);
    } else {
      next();
      return;
    }
    const uint64_t len = 1 + reader_rng_.Uniform(3);
    const uint64_t op = history_->BeginRead(from, len);
    auto done = std::make_shared<bool>(false);
    readers_[r].client->log().Read(
        from, len, [this, op, done, next](Status rs, std::vector<PositionedRecord> recs) {
          if (*done) {
            return;  // the watchdog already abandoned this read
          }
          *done = true;
          if (!rs.ok()) {
            history_->RecordReadError(op);
          } else {
            std::vector<ObservedRecord> obs;
            for (const PositionedRecord& pr : recs) {
              obs.push_back(ObservedRecord{pr.pos, pr.record.id,
                                           HashString(pr.record.payload), pr.record.no_op,
                                           pr.record.tag, pr.record.log});
            }
            history_->RecordReadReturn(op, obs);
          }
          next();
        });
    // Reads carry no RPC timeout (gated reads may legally wait); a watchdog keeps a
    // read stuck behind a dropped stable-gp broadcast from wedging the reader loop.
    cluster_->loop().Schedule(60 * kMs, [this, op, done, next]() {
      if (*done) {
        return;
      }
      *done = true;
      history_->RecordReadError(op);
      next();
    });
  });
}

void ChaosRunner::SchedulePerLogRead(uint32_t r, std::function<void()> next) {
  const LogId log = named_logs_[reader_rng_.Uniform(named_logs_.size())];
  LogHandle handle = readers_[r].client->handle(log);
  handle.CheckTail([this, log, handle, next](Status s, LogPos, LogPos stable) mutable {
    if (!s.ok() || stable == 0) {
      next();
      return;
    }
    // `stable` is the leader's per-log stable count (an upper bound under Erwin-st
    // no-ops); short or empty windows are legal, over-claims are not.
    const LogPos from = reader_rng_.Uniform(stable);
    const uint64_t len = 1 + reader_rng_.Uniform(3);
    const uint64_t op = history_->BeginLogRead(log, from, len);
    auto done = std::make_shared<bool>(false);
    handle.Read(from, len,
                [this, op, log, from, done, next](Status rs,
                                                  std::vector<PositionedRecord> recs) {
                  if (*done) {
                    return;
                  }
                  *done = true;
                  if (!rs.ok()) {
                    history_->RecordLogReadError(op);
                  } else {
                    std::vector<ObservedRecord> obs;
                    for (const PositionedRecord& pr : recs) {
                      obs.push_back(ObservedRecord{pr.pos, pr.record.id,
                                                   HashString(pr.record.payload),
                                                   pr.record.no_op, pr.record.tag,
                                                   pr.record.log});
                    }
                    history_->RecordLogReadReturn(op, log, from, std::move(obs));
                  }
                  next();
                });
    cluster_->loop().Schedule(60 * kMs, [this, op, done, next]() {
      if (*done) {
        return;
      }
      *done = true;
      history_->RecordLogReadError(op);
      next();
    });
  });
}

void ChaosRunner::InjectHalfAppend() {
  // Erwin-st client-failure injection (§5.4): write exactly one half of an append. The
  // injector client does nothing else, so its next RecordId is predictable and the
  // no-op oracle can match the final log by id.
  const ShardId shard = static_cast<ShardId>(inject_rng_.Uniform(cluster_->num_shards()));
  const bool meta_only = inject_rng_.Chance(0.5);
  const RecordId id{injector_->client_id(), ++injector_reqs_};
  std::ostringstream key;
  key << (meta_only ? "half-meta-" : "half-data-") << injector_reqs_;
  const uint64_t op = history_->BeginAppend(
      meta_only ? AppendOp::Kind::kMetaOnly : AppendOp::Kind::kDataOnly, key.str(), 0);
  history_->SetAppendId(op, id);
  auto cb = [this, op](Status s) { history_->EndAppend(op, std::move(s)); };
  if (meta_only) {
    injector_->AppendMetadataOnly(shard, cb);
  } else {
    injector_->AppendDataOnly(shard, "orphaned-data-" + key.str(), cb);
  }
}

bool ChaosRunner::RunUntilFlag(const std::shared_ptr<bool>& flag, uint64_t budget_ns) {
  uint64_t spent = 0;
  while (!*flag && spent < budget_ns) {
    cluster_->RunFor(1 * kMs);
    spent += 1 * kMs;
  }
  return *flag;
}

void ChaosRunner::SettlePhase() {
  // Every append callback eventually fires (the clients cap their retries), so this
  // terminates; the budget is a backstop against harness bugs.
  uint64_t spent = 0;
  while (pending_appends_ > 0 && spent < 1000 * kMs) {
    cluster_->RunFor(2 * kMs);
    spent += 2 * kMs;
  }
  if (pending_appends_ > 0) {
    history_->RecordNote("settle: appends still pending");
    harness_violations_.push_back(
        ChaosViolation{"liveness", "appends still unresolved after the settle budget"});
  }
}

void ChaosRunner::SentinelPhase() {
  // Drive ordering rounds until the log is fully stable. Each sentinel append forces an
  // ordering round, which re-broadcasts stable-gp to every shard server — without this,
  // a stable-gp broadcast dropped during a loss window could gate the final reads
  // forever.
  const uint32_t client = static_cast<uint32_t>(driver_.id);
  for (int round = 0; round < 200; ++round) {
    auto done = std::make_shared<bool>(false);
    auto durable = std::make_shared<LogPos>(0);
    auto stable = std::make_shared<LogPos>(0);
    auto tail_ok = std::make_shared<bool>(false);
    driver_.client->log().CheckTail([=, this](Status s, LogPos d, LogPos st) {
      if (s.ok()) {
        *durable = d;
        *stable = st;
        *tail_ok = true;
        history_->RecordTail(client, d, st, driver_.client->last_tail_view());
      }
      *done = true;
    });
    RunUntilFlag(done, 200 * kMs);
    if (*tail_ok && *durable == *stable && pending_appends_ == 0 && *durable > 0) {
      return;
    }
    std::ostringstream key;
    key << "s" << options_.seed << "sentinel" << round;
    std::string payload = key.str();
    const uint64_t op =
        history_->BeginAppend(AppendOp::Kind::kNormal, payload, HashString(payload));
    pending_appends_++;
    driver_.client->log().Append(std::move(payload),
                           [this, op](Status s) {
                             history_->EndAppend(op, std::move(s));
                             pending_appends_--;
                           });
    cluster_->RunFor(4 * kMs);
  }
  history_->RecordNote("sentinel: log never fully stabilized");
  harness_violations_.push_back(
      ChaosViolation{"liveness", "stable-gp never caught up to the durable tail"});
}

void ChaosRunner::FinalReadback() {
  // Re-resolve the now-stable tail, then read the whole log back in chunks.
  auto done = std::make_shared<bool>(false);
  auto stable = std::make_shared<LogPos>(0);
  driver_.client->log().CheckTail([=](Status s, LogPos, LogPos st) {
    if (s.ok()) {
      *stable = st;
    }
    *done = true;
  });
  RunUntilFlag(done, 200 * kMs);

  std::vector<ObservedRecord> final_log;
  LogPos pos = 0;
  while (pos < *stable) {
    const uint64_t len = std::min<LogPos>(32, *stable - pos);
    bool chunk_ok = false;
    for (int attempt = 0; attempt < 5 && !chunk_ok; ++attempt) {
      const uint64_t op = history_->BeginRead(pos, len);
      auto read_done = std::make_shared<bool>(false);
      auto got = std::make_shared<std::vector<ObservedRecord>>();
      auto ok = std::make_shared<bool>(false);
      driver_.client->log().Read(pos, len,
                           [=, this](Status s, std::vector<PositionedRecord> recs) {
                             if (*read_done) {
                               return;
                             }
                             *read_done = true;
                             if (s.ok()) {
                               for (const PositionedRecord& pr : recs) {
                                 got->push_back(ObservedRecord{pr.pos, pr.record.id,
                                                               HashString(pr.record.payload),
                                                               pr.record.no_op,
                                                               pr.record.tag,
                                                               pr.record.log});
                               }
                               history_->RecordReadReturn(op, *got);
                               *ok = true;
                             } else {
                               history_->RecordReadError(op);
                             }
                           });
      RunUntilFlag(read_done, 100 * kMs);
      if (!*read_done) {
        *read_done = true;  // abandon; a late response is ignored
        history_->RecordReadError(op);
      }
      if (*ok) {
        for (ObservedRecord& rec : *got) {
          final_log.push_back(rec);
        }
        chunk_ok = true;
      } else {
        cluster_->RunFor(5 * kMs);
      }
    }
    if (!chunk_ok) {
      std::ostringstream os;
      os << "final read-back of [" << pos << "," << pos + len << ") failed repeatedly";
      history_->RecordNote(os.str());
      harness_violations_.push_back(ChaosViolation{"liveness", os.str()});
    }
    pos += len;
  }
  history_->RecordFinalLog(std::move(final_log));
}

ChaosReport ChaosRunner::Run() {
  LL_CHECK(options_.num_writers <= 64, "too many writers");

  ErwinClusterOptions copts;
  copts.mode = options_.mode;
  copts.num_shards = options_.num_shards;
  copts.shard_replication = options_.shard_replication;
  copts.with_control_plane = true;
  copts.params.seed = options_.seed;
  // The default watermarks (thousands of records) are sized for open-loop benchmark
  // load; 4 closed-loop writers can never fill them. Chaos-scale watermarks make the
  // nemesis's overload bursts genuinely trip the admission gate, so the overload
  // oracle exercises real rejects and real post-reject retries.
  copts.params.seq.ring_high_watermark = 48;
  copts.params.seq.ring_low_watermark = 24;
  // Two index aggregators: the nemesis can crash one (clients routed to it fall back
  // to scans) while selective reads keep exercising the surviving one.
  copts.num_index_nodes = 2;
  cluster_ = std::make_unique<ErwinCluster>(copts);
  history_ = std::make_unique<ChaosHistory>(&cluster_->loop());
  AttachObservers();

  if (options_.multi_log) {
    // Register the tenants' logs through the controller, then let the registry push
    // (ZK "/logs/config" + kSeqUpdateLogs) land on the replicas before load starts.
    named_logs_.push_back(cluster_->CreateLog("tenant-a"));
    named_logs_.push_back(cluster_->CreateLog("tenant-b"));
    history_->RecordNote("multi-log: tenant-a, tenant-b registered");
    cluster_->RunFor(5 * kMs);
  }

  for (uint32_t w = 0; w < options_.num_writers; ++w) {
    writers_.push_back(MakeWorkloadClient());
    writer_rngs_.emplace_back(options_.seed ^ (0x7772697465720000ULL + w));
    if (options_.multi_log && w % 3 != 0) {
      // Writers 1, 2 mod 3 publish into the named logs; 0 mod 3 stays on the physical
      // log, so every run interleaves tenant and plain traffic in the shared order.
      writers_[w].log = writers_[w].client->handle(named_logs_[w % 3 - 1]);
    }
  }
  for (uint32_t r = 0; r < options_.num_readers; ++r) {
    readers_.push_back(MakeWorkloadClient());
  }
  driver_ = MakeWorkloadClient();
  if (options_.mode == ErwinMode::kSt) {
    injector_ = cluster_->MakeStClient();
  }

  std::vector<NodeId> client_nodes;
  for (const Workload& w : writers_) {
    client_nodes.push_back(w.node);
  }
  for (const Workload& r : readers_) {
    client_nodes.push_back(r.node);
  }

  nemesis_ = std::make_unique<Nemesis>(cluster_.get(), history_.get(), options_.seed,
                                       options_.faults);
  nemesis_->SetReplaceHook(
      [this](uint32_t shard, uint32_t replica, NodeId old_node, NodeId new_node) {
        // The replacement is a brand-new ShardServer: re-attach the observer and the
        // test fixtures. Clients are NOT told directly — they discover the membership
        // change through the control plane ("/shards/config" refresh on retry).
        (void)old_node;
        (void)new_node;
        AttachShardObserver(shard, replica);
      });
  nemesis_->SetClientCrashHook([this]() { InjectHalfAppend(); });
  nemesis_->SetOverloadHook([this](double factor) { burst_factor_ = factor; });

  // --- timeline ---------------------------------------------------------------------
  EventLoop& loop = cluster_->loop();
  const SimTime t0 = loop.Now();
  write_end_ = t0 + 10 * kMs + options_.fault_phase_ns + 20 * kMs;

  for (uint32_t w = 0; w < options_.num_writers; ++w) {
    loop.Schedule(w * 200 * kUs, [this, w]() { ScheduleWriterAppend(w); });
  }
  for (uint32_t r = 0; r < options_.num_readers; ++r) {
    loop.Schedule(1 * kMs + r * 300 * kUs, [this, r]() { ScheduleReaderOp(r); });
  }
  if (!options_.forced_schedule.empty()) {
    std::vector<FaultAction> schedule;
    LL_CHECK(ParseSchedule(options_.forced_schedule, &schedule),
             "unparseable --schedule= value");
    nemesis_->ArmSchedule(std::move(schedule), client_nodes);
  } else {
    nemesis_->Arm(t0 + 10 * kMs, t0 + 10 * kMs + options_.fault_phase_ns, client_nodes);
  }

  cluster_->RunFor(write_end_ - t0);
  nemesis_->HealAll();
  SettlePhase();
  SentinelPhase();
  FinalReadback();

  // --- verdict ----------------------------------------------------------------------
  ChaosReport report;
  report.options = options_;
  report.violations = CheckAllInvariants(*history_, options_.mode);
  for (const ChaosViolation& v : harness_violations_) {
    report.violations.push_back(v);
  }
  report.digest = history_->digest();
  report.appends_issued = history_->appends().size();
  for (const AppendOp& op : history_->appends()) {
    report.appends_acked += op.acked ? 1 : 0;
  }
  report.reads_issued = history_->reads_issued();
  report.reads_failed = history_->reads_failed();
  report.final_log_size = history_->final_log().size();
  report.nemesis_actions = history_->nemesis_actions().size();
  report.nemesis_log = history_->nemesis_actions();
  report.schedule = SerializeSchedule(nemesis_->schedule());
  report.sim_time_ns = loop.Now();
  return report;
}

}  // namespace

std::string ChaosOptions::ToReproLine() const {
  std::ostringstream os;
  os << "chaos_runner --mode=" << ModeName(mode) << " --seed=" << seed
     << " --faults=" << faults.ToFlag() << " --shards=" << num_shards
     << " --replication=" << shard_replication << " --writers=" << num_writers
     << " --readers=" << num_readers << " --fault-phase-ms=" << fault_phase_ns / kMs
     << " --payload=" << payload_bytes;
  if (disable_read_gate) {
    os << " --disable-read-gate";
  }
  if (disable_fencing) {
    os << " --disable-fencing";
  }
  if (multi_log) {
    os << " --multi-log";
  }
  if (!forced_schedule.empty()) {
    os << " --schedule=" << forced_schedule;
  }
  return os.str();
}

std::string ChaosReport::Summary() const {
  std::ostringstream os;
  os << ModeName(options.mode) << " seed=" << options.seed << " digest=" << std::hex
     << digest << std::dec << " appends=" << appends_acked << "/" << appends_issued
     << " reads=" << reads_issued << " (" << reads_failed << " abandoned)"
     << " log=" << final_log_size << " faults=" << nemesis_actions
     << " violations=" << violations.size();
  return os.str();
}

ChaosReport RunChaos(const ChaosOptions& options) {
  ChaosRunner runner(options);
  return runner.Run();
}

}  // namespace lazylog
