// ShardServer tests, driven over the wire: black-box mode (ordered batches,
// replication, stable-gp gating, slow-path wakeup, trim), Erwin-st mode (unordered
// puts, metadata binding, no-op timeout and its replication, late-put rejection,
// position map, backup repair, a promoted primary's repair from its peers), and the
// ordering-window pipeline in both modes (span-order parking, retransmit re-acks and
// joins, the parked-window bound, seal, recovery overwrite).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "src/storage/shard_server.h"
#include "tests/test_util.h"

namespace lazylog {

// Names the mode in parameterized test names.
void PrintTo(ShardMode mode, std::ostream* os) {
  *os << (mode == ShardMode::kBlackBox ? "BlackBox" : "St");
}

namespace {

std::string Payload(uint64_t rid) { return "r" + std::to_string(rid); }

class ShardHarness {
 public:
  ShardHarness(ShardMode mode, uint32_t replicas = 2)
      : mode_(mode), net_(&loop_, params_.net, 1) {
    for (uint32_t r = 0; r < replicas; ++r) {
      servers_.push_back(
          std::make_unique<ShardServer>(&net_, params_, mode, /*shard_id=*/0,
                                        /*num_shards=*/1));
      ids_.push_back(servers_.back()->node_id());
    }
    for (auto& s : servers_) {
      s->SetReplicaSet(ids_);
    }
    client_ = std::make_unique<RpcEndpoint>(&net_);
  }

  // The shard's reply to one ordering window.
  struct WindowAck {
    bool done = false;
    Status status = Status::Internal("pending");
    LogPos watermark = 0;  // ShardOrderAckResp::applied_upto carried on the reply
  };

  // Sends an ordering window to the primary without waiting; the ack fills in when the
  // shard replies. A window with range_hi == 0 carries no span and is never parked.
  template <typename Req>
  std::shared_ptr<WindowAck> SendWindow(MethodId method, Req& req, ViewId view,
                                        bool overwrite, LogPos truncate_from,
                                        LogPos range_lo, LogPos range_hi) {
    req.view = view;
    req.overwrite = overwrite;
    req.truncate_from = truncate_from;
    req.range_lo = range_lo;
    req.range_hi = range_hi;
    auto ack = std::make_shared<WindowAck>();
    client_->CallMsg(ids_[0], method, req,
                     [ack](Status s, Decoder d) {
                       ShardOrderAckResp resp;
                       if (d.Remaining() > 0 && resp.Decode(d)) {
                         ack->watermark = resp.applied_upto;
                       }
                       ack->status = std::move(s);
                       ack->done = true;
                     },
                     30 * kSec);
    return ack;
  }

  std::shared_ptr<WindowAck> Wait(std::shared_ptr<WindowAck> ack,
                                  uint64_t budget_ns = 10 * kSec) {
    RunUntilDone(loop_, ack->done, budget_ns);
    return ack;
  }

  // Sends an ordered batch to the primary and waits for the ack.
  Status AppendBatch(ViewId view, std::vector<PositionedRecord> records,
                     bool overwrite = false, LogPos truncate_from = 0) {
    ShardAppendBatchReq req;
    req.records = std::move(records);
    return Wait(SendWindow(kShardAppendBatch, req, view, overwrite, truncate_from, 0, 0))
        ->status;
  }

  Status OrderMeta(ViewId view, std::vector<MetaEntry> entries, bool overwrite = false,
                   LogPos truncate_from = 0, uint64_t budget_ns = 10 * kSec) {
    ShardOrderMetaReq req;
    req.entries = std::move(entries);
    return Wait(SendWindow(kShardOrderMeta, req, view, overwrite, truncate_from, 0, 0),
                budget_ns)
        ->status;
  }

  // Mode-generic window: record `rid` (payload Payload(rid)) at each (pos, rid) pair —
  // the record itself on an Erwin-m shard, its metadata on an Erwin-st shard.
  std::shared_ptr<WindowAck> SendPlaced(ViewId view,
                                        const std::vector<std::pair<LogPos, uint64_t>>& placed,
                                        LogPos range_lo, LogPos range_hi,
                                        bool overwrite = false, LogPos truncate_from = 0) {
    if (mode_ == ShardMode::kBlackBox) {
      ShardAppendBatchReq req;
      for (const auto& [pos, rid] : placed) {
        req.records.push_back(PositionedRecord{pos, Record{RecordId{1, rid}, Payload(rid), false}});
      }
      return SendWindow(kShardAppendBatch, req, view, overwrite, truncate_from, range_lo,
                        range_hi);
    }
    ShardOrderMetaReq req;
    for (const auto& [pos, rid] : placed) {
      req.entries.push_back(MetaEntry{pos, RecordId{1, rid}, 0});
    }
    return SendWindow(kShardOrderMeta, req, view, overwrite, truncate_from, range_lo,
                      range_hi);
  }

  // Window covering [lo, hi) with record p + 1 at each position p.
  std::shared_ptr<WindowAck> SendSpan(ViewId view, LogPos lo, LogPos hi) {
    std::vector<std::pair<LogPos, uint64_t>> placed;
    for (LogPos p = lo; p < hi; ++p) {
      placed.emplace_back(p, p + 1);
    }
    return SendPlaced(view, placed, lo, hi);
  }

  // Erwin-st: writes the data of records lo + 1 .. hi (SendSpan's records for [lo, hi))
  // to every replica, as a client append does. Erwin-m data rides in the window.
  void PutSpan(LogPos lo, LogPos hi) {
    if (mode_ == ShardMode::kBlackBox) {
      return;
    }
    for (LogPos p = lo; p < hi; ++p) {
      for (size_t r = 0; r < ids_.size(); ++r) {
        ASSERT_TRUE(PutData(RecordId{1, p + 1}, Payload(p + 1), r).ok());
      }
    }
  }

  Status Seal(ViewId new_view) {
    ShardSealReq seal{new_view};
    Status out = Status::Internal("pending");
    bool done = false;
    client_->CallMsg(ids_[0], kShardSeal, seal,
                     [&](Status s, Decoder) {
                       out = std::move(s);
                       done = true;
                     },
                     kSec);
    RunUntilDone(loop_, done);
    return out;
  }

  Status PutData(const RecordId& id, const std::string& payload, size_t replica = 0) {
    ShardPutDataReq req{id, payload};
    Status out = Status::Internal("pending");
    bool done = false;
    client_->CallMsg(ids_[replica], kShardPutData, req,
                     [&](Status s, Decoder) {
                       out = std::move(s);
                       done = true;
                     },
                     kSec);
    RunUntilDone(loop_, done);
    return out;
  }

  void SetStable(ViewId view, LogPos stable) {
    for (NodeId id : ids_) {
      client_->Notify(id, kShardSetStableGp, StableGpMsg{view, stable});
    }
    loop_.RunUntil(loop_.Now() + 1 * kMs);
  }

  // Non-waiting read of one range via the wire; returns nullopt on error. The replica
  // clips the range at its stable-gp (or a trimmed/foreign start), so an unservable
  // range comes back empty.
  std::optional<std::vector<PositionedRecord>> Read(LogPos pos, uint32_t len,
                                                    size_t replica = 0,
                                                    uint64_t budget_ns = kSec) {
    std::optional<std::vector<PositionedRecord>> out;
    bool done = false;
    client_->CallMsg<ShardReadResp>(
        ids_[replica], kShardMultiRangeRead, ShardReadReq{{ReadRange{pos, len}}},
        [&](Status s, ShardReadResp resp) {
          if (s.ok()) {
            EXPECT_EQ(resp.counts,
                      std::vector<uint32_t>{static_cast<uint32_t>(resp.records.size())});
            out = std::move(resp.records);
          }
          done = true;
        },
        0);
    RunUntilDone(loop_, done, budget_ns);
    return out;
  }

  // The outcome of one read sent by StartWaitingRead, filled in when the shard replies.
  struct ReadReply {
    bool done = false;
    Status status = Status::Internal("pending");
    std::vector<PositionedRecord> records;
  };

  // Sends a waiting read of up to `len` records from `pos` to the primary without
  // running the loop.
  std::shared_ptr<ReadReply> StartWaitingRead(LogPos pos, uint32_t len) {
    auto out = std::make_shared<ReadReply>();
    client_->CallMsg<ShardReadResp>(ids_[0], kShardRead, ShardReadReq{{ReadRange{pos, len}}},
                                    [out](Status s, ShardReadResp resp) {
                                      out->status = std::move(s);
                                      out->records = std::move(resp.records);
                                      out->done = true;
                                    },
                                    0);
    return out;
  }

  // Installs the replica order `order` (indices into ids_, order[0] the new primary) at
  // each listed replica, the promoted one last, with `applied` as each one's reported
  // applied frontier, as the controller's promotion does after the seal.
  void Promote(uint64_t epoch, const std::vector<size_t>& order,
               const std::vector<LogPos>& applied) {
    ShardPromoteReq req;
    req.promo_epoch = epoch;
    for (size_t r : order) {
      req.order.push_back(ids_[r]);
    }
    req.peer_applied.assign(applied.begin(), applied.end());
    for (size_t i = order.size(); i-- > 0;) {
      bool done = false;
      client_->CallMsg(ids_[order[i]], kShardPromote, req,
                       [&](Status s, Decoder) {
                         EXPECT_TRUE(s.ok());
                         done = true;
                       },
                       kSec);
      RunUntilDone(loop_, done);
    }
  }

  // Asks one replica for the record bound at `pos` (the Erwin-st repair fetch).
  Status FetchRecord(LogPos pos, size_t replica, Record* out = nullptr) {
    Status result = Status::Internal("pending");
    bool done = false;
    client_->CallMsg<Record>(ids_[replica], kShardFetchRecord, FetchRecordReq{pos},
                             [&](Status s, Record rec) {
                               result = std::move(s);
                               if (out != nullptr) {
                                 *out = std::move(rec);
                               }
                               done = true;
                             },
                             kSec);
    RunUntilDone(loop_, done);
    return result;
  }

  void Trim(LogPos up_to) {
    bool done = false;
    client_->CallMsg(ids_[0], kShardTrim, TrimMsg{up_to},
                     [&](Status s, Decoder) {
                       EXPECT_TRUE(s.ok());
                       done = true;
                     },
                     kSec);
    RunUntilDone(loop_, done);
  }

  ShardMode mode_;
  EventLoop loop_;
  SimParams params_;
  Network net_;
  std::vector<std::unique_ptr<ShardServer>> servers_;
  std::vector<NodeId> ids_;
  std::unique_ptr<RpcEndpoint> client_;
};

PositionedRecord PR(LogPos pos, uint64_t rid, const std::string& payload) {
  return PositionedRecord{pos, Record{RecordId{1, rid}, payload, false}};
}

TEST(ShardBlackBox, AppendReplicatesToBackup) {
  ShardHarness h(ShardMode::kBlackBox);
  ASSERT_TRUE(h.AppendBatch(1, {PR(0, 1, "a"), PR(1, 2, "b")}).ok());
  EXPECT_EQ(h.servers_[0]->ordered_records(), 2u);
  EXPECT_EQ(h.servers_[1]->ordered_records(), 2u);
  ASSERT_NE(h.servers_[1]->RecordAt(1), nullptr);
  EXPECT_EQ(h.servers_[1]->RecordAt(1)->payload, "b");
}

TEST(ShardBlackBox, ReadGatedOnStableGp) {
  ShardHarness h(ShardMode::kBlackBox);
  ASSERT_TRUE(h.AppendBatch(1, {PR(0, 1, "a")}).ok());
  // Not stable yet: a non-waiting read serves nothing (count 0) instead of parking.
  auto r = h.Read(0, 1);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->empty());
  EXPECT_EQ(h.servers_[0]->stats().multirange_ranges_clipped, 1u);
  h.SetStable(1, 1);
  r = h.Read(0, 1);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].record.payload, "a");
  EXPECT_EQ(h.servers_[0]->stats().fast_reads, 2u);
  EXPECT_EQ(h.servers_[0]->stats().slow_reads, 0u);
}

TEST(ShardBlackBox, SlowPathWokenByStableAdvance) {
  ShardHarness h(ShardMode::kBlackBox);
  ASSERT_TRUE(h.AppendBatch(1, {PR(0, 1, "a")}).ok());
  bool done = false;
  std::vector<PositionedRecord> records;
  ShardReadReq req{{ReadRange{0, 1}}};
  h.client_->CallMsg(h.ids_[0], kShardRead, req,
                     [&](Status s, Decoder d) {
                       ASSERT_TRUE(s.ok());
                       ShardReadResp resp;
                       ASSERT_TRUE(resp.Decode(d));
                       records = std::move(resp.records);
                       done = true;
                     },
                     0);
  h.loop_.RunUntil(h.loop_.Now() + 10 * kMs);
  EXPECT_FALSE(done);  // still parked
  h.SetStable(1, 1);
  RunUntilDone(h.loop_, done);
  ASSERT_TRUE(done);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(h.servers_[0]->stats().slow_reads, 1u);
}

TEST(ShardBlackBox, RangedReadStopsAtStable) {
  ShardHarness h(ShardMode::kBlackBox);
  ASSERT_TRUE(h.AppendBatch(1, {PR(0, 1, "a"), PR(1, 2, "b"), PR(2, 3, "c")}).ok());
  h.SetStable(1, 2);  // only positions 0 and 1 stable
  auto r = h.Read(0, 3);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size(), 2u);
}

TEST(ShardBlackBox, DuplicatePushIsIdempotent) {
  ShardHarness h(ShardMode::kBlackBox);
  ASSERT_TRUE(h.AppendBatch(1, {PR(0, 1, "a")}).ok());
  ASSERT_TRUE(h.AppendBatch(1, {PR(0, 1, "a"), PR(1, 2, "b")}).ok());
  EXPECT_EQ(h.servers_[0]->ordered_records(), 2u);
}

TEST(ShardBlackBox, StaleViewRejected) {
  ShardHarness h(ShardMode::kBlackBox);
  ASSERT_TRUE(h.AppendBatch(5, {PR(0, 1, "a")}).ok());
  // The shard's view doubles as the epoch fence: an older view is told STALE_VIEW so it
  // re-resolves the configuration instead of treating the shard as misconfigured.
  EXPECT_EQ(h.AppendBatch(3, {PR(1, 2, "b")}).code(), StatusCode::kStaleView);
}

TEST(ShardBlackBox, SealFencesOldViewUntilRecoveryFlush) {
  ShardHarness h(ShardMode::kBlackBox);
  ASSERT_TRUE(h.AppendBatch(1, {PR(0, 1, "a")}).ok());

  // The controller seals the shard into view 2: the old leader's pushes must bounce
  // with STALE_VIEW even though nothing in view 2 has arrived yet.
  ASSERT_TRUE(h.Seal(2).ok());
  EXPECT_EQ(h.AppendBatch(1, {PR(1, 2, "b")}).code(), StatusCode::kStaleView);

  // The new view's recovery flush passes the fence and serves reads.
  ASSERT_TRUE(h.AppendBatch(2, {PR(1, 2, "b")}).ok());
  h.SetStable(2, 2);
  auto r = h.Read(0, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size(), 2u);
}

TEST(ShardBlackBox, TrimMakesPrefixUnreadable) {
  ShardHarness h(ShardMode::kBlackBox);
  std::vector<PositionedRecord> batch;
  for (uint64_t i = 0; i < 10; ++i) {
    batch.push_back(PR(i, i, "r" + std::to_string(i)));
  }
  ASSERT_TRUE(h.AppendBatch(1, batch).ok());
  h.SetStable(1, 10);
  TrimMsg trim{5};
  Encoder e;
  trim.Encode(e);
  bool done = false;
  h.client_->Call(h.ids_[0], kShardTrim, e.Take(),
                  [&](Status s, Decoder) {
                    EXPECT_TRUE(s.ok());
                    done = true;
                  },
                  kSec);
  RunUntilDone(h.loop_, done);
  auto trimmed = h.Read(3, 1);
  ASSERT_TRUE(trimmed.has_value());
  EXPECT_TRUE(trimmed->empty());
  auto r = h.Read(5, 1);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].record.payload, "r5");
}

// A waiting read is judged by its start: a trimmed start fails OUT_OF_RANGE at once
// instead of parking.
TEST(ShardBlackBox, WaitingReadOfTrimmedPositionFailsOutOfRange) {
  ShardHarness h(ShardMode::kBlackBox);
  std::vector<PositionedRecord> batch;
  for (uint64_t i = 0; i < 10; ++i) {
    batch.push_back(PR(i, i, "r" + std::to_string(i)));
  }
  ASSERT_TRUE(h.AppendBatch(1, batch).ok());
  h.SetStable(1, 10);
  h.Trim(5);
  auto read = h.StartWaitingRead(3, 1);
  RunUntilDone(h.loop_, read->done);
  ASSERT_TRUE(read->done);
  EXPECT_EQ(read->status.code(), StatusCode::kOutOfRange) << read->status.ToString();
  EXPECT_TRUE(read->records.empty());
  EXPECT_EQ(h.servers_[0]->stats().slow_reads, 0u);
}

// A parked read whose start is trimmed before stable-gp passes it stays parked until
// the next stable-gp advance, which fails it OUT_OF_RANGE.
TEST(ShardBlackBox, ParkedReadTrimmedBeforeStableFailsOutOfRange) {
  ShardHarness h(ShardMode::kBlackBox);
  std::vector<PositionedRecord> batch;
  for (uint64_t i = 0; i < 10; ++i) {
    batch.push_back(PR(i, i, "r" + std::to_string(i)));
  }
  ASSERT_TRUE(h.AppendBatch(1, batch).ok());
  h.SetStable(1, 2);
  auto read = h.StartWaitingRead(5, 2);
  h.loop_.RunUntil(h.loop_.Now() + 10 * kMs);
  EXPECT_FALSE(read->done);
  EXPECT_EQ(h.servers_[0]->stats().slow_reads, 1u);
  h.Trim(7);
  h.loop_.RunUntil(h.loop_.Now() + 10 * kMs);
  EXPECT_FALSE(read->done) << "a trim alone woke the parked read";
  h.SetStable(1, 10);
  RunUntilDone(h.loop_, read->done);
  ASSERT_TRUE(read->done);
  EXPECT_EQ(read->status.code(), StatusCode::kOutOfRange) << read->status.ToString();
  EXPECT_TRUE(read->records.empty());
}

// The index read's sparse fetch, one length-1 range per position, never waits: it
// serves the stable, untrimmed positions this replica stores, in request order, and
// gives every other position count 0.
TEST(ShardBlackBox, MultiReadOmitsUnstableTrimmedAndForeignPositions) {
  ShardHarness h(ShardMode::kBlackBox);
  // Position 3 belongs to another shard.
  ASSERT_TRUE(
      h.AppendBatch(1, {PR(0, 1, "a"), PR(1, 2, "b"), PR(2, 3, "c"), PR(4, 5, "e"),
                        PR(5, 6, "f")})
          .ok());
  h.SetStable(1, 5);
  bool trimmed = false;
  h.client_->CallMsg(h.ids_[0], kShardTrim, TrimMsg{1},
                     [&](Status s, Decoder) {
                       EXPECT_TRUE(s.ok());
                       trimmed = true;
                     },
                     kSec);
  RunUntilDone(h.loop_, trimmed);

  ShardReadReq req;
  for (LogPos p : {5, 2, 0, 3, 4, 1, 9}) {
    req.ranges.push_back(ReadRange{p, 1});
  }
  ShardReadResp resp;
  bool done = false;
  h.client_->CallMsg<ShardReadResp>(h.ids_[0], kShardMultiRangeRead, req,
                                    [&](Status s, ShardReadResp r) {
                                      EXPECT_TRUE(s.ok()) << s.ToString();
                                      resp = std::move(r);
                                      done = true;
                                    },
                                    kSec);
  RunUntilDone(h.loop_, done);
  ASSERT_TRUE(done);
  EXPECT_EQ(resp.counts, (std::vector<uint32_t>{0, 1, 0, 0, 1, 1, 0}));
  ASSERT_EQ(resp.records.size(), 3u);
  EXPECT_EQ(resp.records[0].pos, 2u);
  EXPECT_EQ(resp.records[0].record.payload, "c");
  EXPECT_EQ(resp.records[1].pos, 4u);
  EXPECT_EQ(resp.records[1].record.payload, "e");
  EXPECT_EQ(resp.records[2].pos, 1u);
  EXPECT_EQ(resp.records[2].record.payload, "b");
  EXPECT_EQ(resp.stable_gp, 5u);
}

// --- Erwin-st mode -----------------------------------------------------------------------

TEST(ShardSt, PutThenBindServesRead) {
  ShardHarness h(ShardMode::kStModified);
  ASSERT_TRUE(h.PutData(RecordId{7, 1}, "data", 0).ok());
  ASSERT_TRUE(h.PutData(RecordId{7, 1}, "data", 1).ok());
  ASSERT_TRUE(h.OrderMeta(1, {MetaEntry{0, RecordId{7, 1}, 0}}).ok());
  h.SetStable(1, 1);
  auto r = h.Read(0, 1);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].record.payload, "data");
  EXPECT_EQ(h.servers_[0]->unordered_pool_size(), 0u);  // moved out of the pool
  EXPECT_EQ(h.servers_[1]->unordered_pool_size(), 0u);
}

TEST(ShardSt, MetaForOtherShardOnlyExtendsPosMap) {
  ShardHarness h(ShardMode::kStModified);
  ASSERT_TRUE(h.OrderMeta(1, {MetaEntry{0, RecordId{7, 1}, 4}}).ok());
  EXPECT_EQ(h.servers_[0]->ordered_records(), 0u);
  EXPECT_EQ(h.servers_[0]->meta_log_size(), 1u);
}

TEST(ShardSt, MissingDataBecomesNoOpAfterTimeout) {
  ShardHarness h(ShardMode::kStModified);
  // Metadata arrives but the client "crashed" before the data write (§5.4).
  Status s = h.OrderMeta(1, {MetaEntry{0, RecordId{8, 1}, 0}});
  ASSERT_TRUE(s.ok());  // ack waits out the timeout and resolves to no-op
  h.SetStable(1, 1);
  auto r = h.Read(0, 1);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_TRUE((*r)[0].record.no_op);
  EXPECT_GE(h.servers_[0]->stats().noops_created, 1u);
  // The late data write must now be rejected.
  EXPECT_EQ(h.PutData(RecordId{8, 1}, "late", 0).code(), StatusCode::kRejected);
  // And the backup converged to a no-op as well.
  h.loop_.RunUntil(h.loop_.Now() + h.params_.seq.st_data_timeout_ns * 3);
  ASSERT_NE(h.servers_[1]->RecordAt(0), nullptr);
  EXPECT_TRUE(h.servers_[1]->RecordAt(0)->no_op);
}

TEST(ShardSt, NoOpWindowAckWaitsForBackupsToConfirm) {
  ShardHarness h(ShardMode::kStModified);
  // The data reaches only the backup, which binds the real record; the primary will
  // decide no-op. Its no-op to the backup is lost while the two are cut off.
  ASSERT_TRUE(h.PutData(RecordId{13, 1}, "only-backup", 1).ok());
  ShardOrderMetaReq req;
  req.entries = {MetaEntry{0, RecordId{13, 1}, 0}};
  auto ack = h.SendWindow(kShardOrderMeta, req, 1, false, 0, 0, 1);
  h.loop_.RunUntil(h.loop_.Now() + 1 * kMs);
  ASSERT_NE(h.servers_[1]->RecordAt(0), nullptr);
  EXPECT_FALSE(h.servers_[1]->RecordAt(0)->no_op);
  h.net_.SetPartitioned(h.ids_[0], h.ids_[1], true);
  h.loop_.RunUntil(h.loop_.Now() + 10 * kMs);
  EXPECT_EQ(h.servers_[0]->stats().noops_created, 1u);
  // Acking now would let stable-gp pass a position the backup still serves as real.
  EXPECT_FALSE(ack->done);
  h.net_.SetPartitioned(h.ids_[0], h.ids_[1], false);
  h.Wait(ack);
  ASSERT_TRUE(ack->status.ok());
  EXPECT_EQ(ack->watermark, 1u);
  EXPECT_TRUE(h.servers_[1]->RecordAt(0)->no_op);
}

TEST(ShardSt, RetransmitCannotOutrunUnconfirmedNoOp) {
  ShardHarness h(ShardMode::kStModified);
  // Record 1's data reaches only the backup; record 2's reaches both replicas.
  ASSERT_TRUE(h.PutData(RecordId{1, 1}, Payload(1), 1).ok());
  h.PutSpan(1, 2);
  // The window binding record 1 at position 0 is cut off from the backup: its
  // replicate is lost, and so is the no-op the primary decides once the data times out.
  h.net_.SetPartitioned(h.ids_[0], h.ids_[1], true);
  auto first = h.SendSpan(1, 0, 1);
  h.loop_.RunUntil(h.loop_.Now() + h.params_.seq.st_data_timeout_ns + 1 * kMs);
  ASSERT_EQ(h.servers_[0]->stats().noops_created, 1u);
  h.net_.SetPartitioned(h.ids_[0], h.ids_[1], false);
  // A cursor retry re-sends position 0 with the new position 1. Acked durable now, it
  // would let stable-gp pass position 0 while the backup serves record 1's data there,
  // until the no-op retry lands and flips it.
  auto again = h.Wait(h.SendSpan(1, 0, 2), 10 * kMs);
  ASSERT_TRUE(again->done);
  EXPECT_EQ(again->watermark, 0u);
  EXPECT_FALSE(again->status.ok());
  const Record* backup = h.servers_[1]->RecordAt(0);
  EXPECT_TRUE(backup == nullptr || backup->no_op);
  // Once the backup confirms the no-op, the next retry applies and both replicas agree.
  h.Wait(first, 4 * h.params_.rpc_timeout_ns);
  auto retry = h.Wait(h.SendSpan(1, 0, 2));
  ASSERT_TRUE(retry->status.ok());
  EXPECT_EQ(retry->watermark, 2u);
  for (const auto& server : h.servers_) {
    ASSERT_NE(server->RecordAt(0), nullptr);
    EXPECT_TRUE(server->RecordAt(0)->no_op);
    ASSERT_NE(server->RecordAt(1), nullptr);
    EXPECT_EQ(server->RecordAt(1)->payload, Payload(2));
  }
}

TEST(ShardSt, DataArrivingBeforeTimeoutResolvesBinding) {
  ShardHarness h(ShardMode::kStModified);
  // Order metadata first; data arrives shortly after (network race, §5.4).
  bool meta_done = false;
  ShardOrderMetaReq req;
  req.view = 1;
  req.entries = {MetaEntry{0, RecordId{9, 1}, 0}};
  h.client_->CallMsg(h.ids_[0], kShardOrderMeta, req,
                     [&](Status s, Decoder) {
                       EXPECT_TRUE(s.ok());
                       meta_done = true;
                     },
                     30 * kSec);
  h.loop_.RunUntil(h.loop_.Now() + 100 * kUs);
  EXPECT_FALSE(meta_done);  // binding pending on data
  ASSERT_TRUE(h.PutData(RecordId{9, 1}, "raced", 0).ok());
  ASSERT_TRUE(h.PutData(RecordId{9, 1}, "raced", 1).ok());
  RunUntilDone(h.loop_, meta_done);
  ASSERT_TRUE(meta_done);
  h.SetStable(1, 1);
  auto r = h.Read(0, 1);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_FALSE((*r)[0].record.no_op);
  EXPECT_EQ((*r)[0].record.payload, "raced");
  EXPECT_EQ(h.servers_[0]->stats().noops_created, 0u);
}

TEST(ShardSt, BackupRepairsFromPrimary) {
  ShardHarness h(ShardMode::kStModified);
  // Data reaches only the primary (client crashed mid-append); binding on the backup
  // must repair by fetching the record from the primary.
  ASSERT_TRUE(h.PutData(RecordId{10, 1}, "only-primary", 0).ok());
  ASSERT_TRUE(h.OrderMeta(1, {MetaEntry{0, RecordId{10, 1}, 0}}).ok());
  h.loop_.RunUntil(h.loop_.Now() + 4 * h.params_.seq.st_data_timeout_ns);
  ASSERT_NE(h.servers_[1]->RecordAt(0), nullptr);
  EXPECT_FALSE(h.servers_[1]->RecordAt(0)->no_op);
  EXPECT_EQ(h.servers_[1]->RecordAt(0)->payload, "only-primary");
}

TEST(ShardSt, BackupRepairOutlastsLostFetches) {
  ShardHarness h(ShardMode::kStModified);
  // The data reaches only the primary; the window reaches the backup, whose binding
  // waits on the data. Then the two are cut off for longer than two repair fetches
  // (each waits out the data timeout and then its rpc timeout).
  ASSERT_TRUE(h.PutData(RecordId{1, 1}, Payload(1), 0).ok());
  h.SendSpan(1, 0, 1);
  h.loop_.RunUntil(h.loop_.Now() + 500 * kUs);
  ASSERT_NE(h.servers_[1]->RecordAt(0), nullptr);
  ASSERT_TRUE(h.servers_[1]->RecordAt(0)->no_op);  // the placeholder
  h.net_.SetPartitioned(h.ids_[0], h.ids_[1], true);
  const uint64_t fetch_ns = h.params_.seq.st_data_timeout_ns + h.params_.rpc_timeout_ns;
  h.loop_.RunUntil(h.loop_.Now() + 2 * fetch_ns + 1 * kMs);
  h.net_.SetPartitioned(h.ids_[0], h.ids_[1], false);
  // The backup keeps asking while the binding is pending, so it ends with the record.
  h.loop_.RunUntil(h.loop_.Now() + 2 * fetch_ns);
  const Record* rec = h.servers_[1]->RecordAt(0);
  ASSERT_NE(rec, nullptr);
  EXPECT_FALSE(rec->no_op);
  EXPECT_EQ(rec->payload, Payload(1));
}

TEST(ShardSt, FetchOfPendingPositionIsUnavailable) {
  ShardHarness h(ShardMode::kStModified);
  EXPECT_EQ(h.FetchRecord(0, 0).code(), StatusCode::kUnavailable);  // nothing bound yet
  // Record 1's metadata beats its data: position 0 holds a placeholder on both replicas.
  h.SendSpan(1, 0, 1);
  h.loop_.RunUntil(h.loop_.Now() + 200 * kUs);
  ASSERT_NE(h.servers_[0]->RecordAt(0), nullptr);
  EXPECT_EQ(h.FetchRecord(0, 0).code(), StatusCode::kUnavailable);
  EXPECT_EQ(h.FetchRecord(0, 1).code(), StatusCode::kUnavailable);
  // Once the data settles the binding, the fetch returns the record.
  h.PutSpan(0, 1);
  Record rec;
  ASSERT_TRUE(h.FetchRecord(0, 0, &rec).ok());
  EXPECT_FALSE(rec.no_op);
  EXPECT_EQ(rec.payload, Payload(1));
  // A no-op decision is returned as the no-op record.
  h.SendSpan(1, 1, 2);
  h.loop_.RunUntil(h.loop_.Now() + h.params_.seq.st_data_timeout_ns + 1 * kMs);
  ASSERT_EQ(h.servers_[0]->stats().noops_created, 1u);
  ASSERT_TRUE(h.FetchRecord(1, 0, &rec).ok());
  EXPECT_TRUE(rec.no_op);
  EXPECT_EQ(rec.id, (RecordId{1, 2}));
}

TEST(ShardSt, PromotedPrimarySettlesPendingFromPeerData) {
  ShardHarness h(ShardMode::kStModified, 3);
  // Record 1's data reaches the primary and replica 2 but not replica 1, whose binding
  // of position 0 waits on it.
  ASSERT_TRUE(h.PutData(RecordId{1, 1}, Payload(1), 0).ok());
  ASSERT_TRUE(h.PutData(RecordId{1, 1}, Payload(1), 2).ok());
  h.SendSpan(1, 0, 1);
  h.loop_.RunUntil(h.loop_.Now() + 500 * kUs);
  ASSERT_NE(h.servers_[1]->RecordAt(0), nullptr);
  ASSERT_TRUE(h.servers_[1]->RecordAt(0)->no_op);  // the placeholder
  // The primary crashes before replica 1 repairs from it. Promoted, replica 1 settles
  // the binding with replica 2's bound record.
  h.net_.Crash(h.ids_[0]);
  h.Promote(1, {1, 2}, {1, 1});
  h.loop_.RunUntil(h.loop_.Now() + 1 * kMs);
  for (size_t r : {1, 2}) {
    const Record* rec = h.servers_[r]->RecordAt(0);
    ASSERT_NE(rec, nullptr);
    EXPECT_FALSE(rec->no_op);
    EXPECT_EQ(rec->payload, Payload(1));
  }
  EXPECT_EQ(h.servers_[1]->stats().noops_created, 0u);
  EXPECT_EQ(h.servers_[1]->stats().handoff_records_refetched, 1u);
}

TEST(ShardSt, PromotedPrimaryAdoptsPeerNoOp) {
  ShardHarness h(ShardMode::kStModified, 3);
  // Record 1's data never arrives. Replica 1 is cut off from the primary once the
  // window reached it, so it misses the primary's no-op decision; replica 2 gets it.
  h.SendSpan(1, 0, 1);
  h.loop_.RunUntil(h.loop_.Now() + 500 * kUs);
  h.net_.SetPartitioned(h.ids_[0], h.ids_[1], true);
  h.loop_.RunUntil(h.loop_.Now() + h.params_.seq.st_data_timeout_ns + 1 * kMs);
  ASSERT_EQ(h.servers_[0]->stats().noops_created, 1u);
  ASSERT_EQ(h.servers_[2]->stats().noops_created, 1u);
  ASSERT_EQ(h.servers_[1]->stats().noops_created, 0u);
  // The primary crashes. Promoted, replica 1 adopts replica 2's decision and replicates
  // it; late data stays rejected everywhere.
  h.net_.Crash(h.ids_[0]);
  h.Promote(1, {1, 2}, {1, 1});
  h.loop_.RunUntil(h.loop_.Now() + 1 * kMs);
  EXPECT_EQ(h.servers_[1]->stats().noops_created, 1u);
  EXPECT_EQ(h.servers_[1]->stats().handoff_records_refetched, 1u);
  for (size_t r : {1, 2}) {
    ASSERT_NE(h.servers_[r]->RecordAt(0), nullptr);
    EXPECT_TRUE(h.servers_[r]->RecordAt(0)->no_op);
    EXPECT_EQ(h.PutData(RecordId{1, 1}, "late", r).code(), StatusCode::kRejected);
  }
}

TEST(ShardSt, CatchUpCannotFlipAMissedNoOp) {
  ShardHarness h(ShardMode::kStModified, 3);
  // Record 1's data reaches only replica 2, which is cut off from the primary: it
  // misses both the window and the primary's no-op decision. Replica 1 gets both.
  ASSERT_TRUE(h.PutData(RecordId{1, 1}, Payload(1), 2).ok());
  h.net_.SetPartitioned(h.ids_[0], h.ids_[2], true);
  h.SendSpan(1, 0, 1);
  h.loop_.RunUntil(h.loop_.Now() + h.params_.seq.st_data_timeout_ns + 1 * kMs);
  ASSERT_EQ(h.servers_[1]->stats().noops_created, 1u);
  ASSERT_EQ(h.servers_[2]->RecordAt(0), nullptr);
  // The primary crashes; replica 1 is promoted and catches replica 2 up from 0. The
  // catch-up window names record 1, whose data replica 2 holds in its pool; binding
  // it would flip the promoted primary's no-op at a position stable-gp can now pass.
  h.net_.Crash(h.ids_[0]);
  h.Promote(1, {1, 2}, {1, 0});
  h.loop_.RunUntil(h.loop_.Now() + 5 * kMs);
  h.SetStable(1, 1);
  for (size_t r : {1, 2}) {
    auto read = h.Read(0, 1, r);
    ASSERT_TRUE(read.has_value());
    ASSERT_EQ(read->size(), 1u);
    EXPECT_TRUE((*read)[0].record.no_op) << "replica " << r;
  }
  EXPECT_EQ(h.PutData(RecordId{1, 1}, "late", 2).code(), StatusCode::kRejected);
}

TEST(ShardSt, PosMapServedUpToStable) {
  ShardHarness h(ShardMode::kStModified);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(h.PutData(RecordId{11, i + 1}, "d", 0).ok());
    ASSERT_TRUE(h.PutData(RecordId{11, i + 1}, "d", 1).ok());
  }
  std::vector<MetaEntry> entries;
  for (uint64_t i = 0; i < 4; ++i) {
    entries.push_back(MetaEntry{i, RecordId{11, i + 1}, static_cast<ShardId>(i % 2)});
  }
  ASSERT_TRUE(h.OrderMeta(1, entries).ok());
  h.SetStable(1, 3);  // only 3 stable
  ShardPosMapReq req{0, 10};
  std::vector<uint64_t> ids;
  bool done = false;
  h.client_->CallMsg(h.ids_[0], kShardPosMap, req,
                     [&](Status s, Decoder d) {
                       ASSERT_TRUE(s.ok());
                       ShardPosMapResp resp;
                       ASSERT_TRUE(resp.Decode(d));
                       ids = resp.shard_ids;
                       done = true;
                     },
                     kSec);
  RunUntilDone(h.loop_, done);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 0u);
  EXPECT_EQ(ids[1], 1u);
  EXPECT_EQ(ids[2], 0u);
}

TEST(ShardSt, OrphanedDataScrubbedEventually) {
  ShardHarness h(ShardMode::kStModified);
  ASSERT_TRUE(h.PutData(RecordId{12, 1}, "orphan", 0).ok());
  EXPECT_EQ(h.servers_[0]->unordered_pool_size(), 1u);
  // No metadata ever references it; the periodic scrubber collects it (§5.4).
  h.loop_.RunUntil(h.loop_.Now() + h.params_.seq.st_orphan_scrub_age_ns + 200 * kMs);
  EXPECT_EQ(h.servers_[0]->unordered_pool_size(), 0u);
}

// --- the ordering-window pipeline, both modes ------------------------------------------

class ShardWindow : public ::testing::TestWithParam<ShardMode> {};

TEST_P(ShardWindow, AheadOfGapWindowParksThenAppliesInSpanOrder) {
  ShardHarness h(GetParam());
  h.PutSpan(0, 8);
  auto later = h.SendSpan(1, 4, 8);
  h.loop_.RunUntil(h.loop_.Now() + 10 * kMs);
  EXPECT_FALSE(later->done);  // waits for the gap at [0, 4)
  EXPECT_EQ(h.servers_[0]->StatsSnapshot().parked_windows, 1u);
  EXPECT_EQ(h.servers_[0]->stats().windows_parked, 1u);
  EXPECT_EQ(h.servers_[0]->ordered_records(), 0u);

  auto first = h.SendSpan(1, 0, 4);
  h.Wait(first);
  h.Wait(later);
  ASSERT_TRUE(first->status.ok());
  ASSERT_TRUE(later->status.ok());
  EXPECT_EQ(std::max(first->watermark, later->watermark), 8u);
  for (const auto& server : h.servers_) {
    EXPECT_EQ(server->stats().windows_applied, 2u);
    EXPECT_EQ(server->order_durable(), 8u);
    for (LogPos p = 0; p < 8; ++p) {
      ASSERT_NE(server->RecordAt(p), nullptr);
      EXPECT_EQ(server->RecordAt(p)->payload, Payload(p + 1));
    }
  }
  EXPECT_EQ(h.servers_[0]->StatsSnapshot().parked_windows, 0u);
}

TEST_P(ShardWindow, DurableRetransmitIsReackedWithWatermark) {
  ShardHarness h(GetParam());
  h.PutSpan(0, 4);
  auto first = h.Wait(h.SendSpan(1, 0, 4));
  ASSERT_TRUE(first->status.ok());
  EXPECT_EQ(first->watermark, 4u);
  // A lost ack makes the cursor resend a window the shard already holds durably.
  auto again = h.Wait(h.SendSpan(1, 0, 4));
  ASSERT_TRUE(again->status.ok());
  EXPECT_EQ(again->watermark, 4u);
  EXPECT_EQ(h.servers_[0]->stats().windows_retransmitted, 1u);
  EXPECT_EQ(h.servers_[0]->stats().windows_applied, 1u);
  EXPECT_EQ(h.servers_[0]->ordered_records(), 4u);
}

TEST_P(ShardWindow, AppliedRetransmitJoinsPendingAck) {
  ShardHarness h(GetParam());
  h.PutSpan(0, 4);
  // A cursor retry resends a window the shard has applied but not yet made durable:
  // its backup replicate and disk write are still in flight when the copy arrives.
  auto first = h.SendSpan(1, 0, 4);
  auto again = h.SendSpan(1, 0, 4);
  h.Wait(first);
  h.Wait(again);
  ASSERT_TRUE(first->status.ok());
  ASSERT_TRUE(again->status.ok());
  EXPECT_EQ(again->watermark, 4u);
  // The copy joined the pending ack: applied, replicated and written once.
  EXPECT_EQ(h.servers_[0]->stats().windows_retransmitted, 1u);
  for (const auto& server : h.servers_) {
    EXPECT_EQ(server->stats().windows_applied, 1u);
    EXPECT_EQ(server->order_durable(), 4u);
  }
}

TEST_P(ShardWindow, JoinedRetransmitFailsWithItsWindowThenReapplies) {
  ShardHarness h(GetParam());
  h.PutSpan(0, 4);
  // The backup is unreachable, so the window's replicate times out and its ack fails;
  // the copy that joined it fails too rather than wait on a frontier that cannot move.
  h.net_.Crash(h.ids_[1]);
  auto first = h.SendSpan(1, 0, 4);
  auto again = h.SendSpan(1, 0, 4);
  h.Wait(first, 2 * h.params_.rpc_timeout_ns);
  h.Wait(again, kMs);
  EXPECT_EQ(first->status.code(), StatusCode::kInternal);
  EXPECT_EQ(again->status.code(), StatusCode::kInternal);
  EXPECT_EQ(again->watermark, 0u);
  // No pending window covers the span any more, so the next retry re-applies it.
  h.net_.Restart(h.ids_[1]);
  auto retry = h.Wait(h.SendSpan(1, 0, 4));
  ASSERT_TRUE(retry->status.ok());
  EXPECT_EQ(retry->watermark, 4u);
  EXPECT_EQ(h.servers_[0]->stats().windows_applied, 2u);
  EXPECT_EQ(h.servers_[1]->order_durable(), 4u);
}

TEST_P(ShardWindow, ReplicaSetChangeFailsJoinedRetransmits) {
  ShardHarness h(GetParam());
  h.PutSpan(0, 4);
  auto first = h.SendSpan(1, 0, 4);
  h.loop_.RunUntil(h.loop_.Now() + 50 * kUs);
  auto again = h.SendSpan(1, 0, 4);
  h.loop_.RunUntil(h.loop_.Now() + 50 * kUs);
  ASSERT_EQ(h.servers_[0]->stats().windows_retransmitted, 1u);  // joined, still pending
  ASSERT_FALSE(again->done);
  // The window replicated to the old replica set, which may hold a replica that is
  // gone; the joined copy fails at once, and the next copy applies afresh.
  h.servers_[0]->SetReplicaSet(h.ids_);
  h.Wait(again, kMs);
  EXPECT_EQ(again->status.code(), StatusCode::kUnavailable);
  auto retry = h.Wait(h.SendSpan(1, 0, 4));
  h.Wait(first);
  ASSERT_TRUE(first->status.ok());
  ASSERT_TRUE(retry->status.ok());
  EXPECT_EQ(retry->watermark, 4u);
  EXPECT_EQ(h.servers_[0]->stats().windows_applied, 2u);
}

TEST_P(ShardWindow, ParkedWindowBoundRefusesWithWatermark) {
  ShardHarness h(GetParam());
  h.PutSpan(0, 66);
  ASSERT_TRUE(h.Wait(h.SendSpan(1, 0, 1))->status.ok());
  // 64 one-position windows ahead of the gap at [1, 2) fill the parking bound.
  std::vector<std::shared_ptr<ShardHarness::WindowAck>> parked;
  for (LogPos p = 2; p < 66; ++p) {
    parked.push_back(h.SendSpan(1, p, p + 1));
  }
  h.loop_.RunUntil(h.loop_.Now() + 10 * kMs);
  ASSERT_EQ(h.servers_[0]->StatsSnapshot().parked_windows, 64u);
  auto refused = h.Wait(h.SendSpan(1, 66, 67));
  EXPECT_EQ(refused->status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(refused->watermark, 1u);
  EXPECT_EQ(h.servers_[0]->StatsSnapshot().parked_windows, 64u);

  // Filling the gap drains every parked window in span order.
  ASSERT_TRUE(h.Wait(h.SendSpan(1, 1, 2))->status.ok());
  for (const auto& ack : parked) {
    h.Wait(ack);
    EXPECT_TRUE(ack->status.ok());
  }
  EXPECT_EQ(h.servers_[0]->order_durable(), 66u);
  EXPECT_EQ(h.servers_[1]->order_durable(), 66u);
}

TEST_P(ShardWindow, SealRejectsParkedOldViewWindow) {
  ShardHarness h(GetParam());
  h.PutSpan(0, 8);
  auto parked = h.SendSpan(1, 4, 8);
  h.loop_.RunUntil(h.loop_.Now() + 10 * kMs);
  ASSERT_FALSE(parked->done);
  // The seal answers the deposed orderer's parked window at once, so its cursor
  // self-seals instead of waiting out a timeout.
  ASSERT_TRUE(h.Seal(2).ok());
  h.Wait(parked);
  ASSERT_TRUE(parked->done);
  EXPECT_EQ(parked->status.code(), StatusCode::kStaleView);
  EXPECT_EQ(parked->watermark, 0u);
  EXPECT_EQ(h.servers_[0]->StatsSnapshot().parked_windows, 0u);
}

TEST_P(ShardWindow, RecoveryOverwriteRewritesTail) {
  ShardHarness h(GetParam());
  h.PutSpan(0, 3);
  ASSERT_TRUE(h.Wait(h.SendSpan(1, 0, 3))->status.ok());
  // Recovery flush in view 2 rewrites positions >= 1 with records 2 and 3 swapped. On
  // an Erwin-st shard the truncation puts the bound data back in the pool, so the
  // rebind finds it without another data write.
  ASSERT_TRUE(h.Wait(h.SendPlaced(2, {{1, 3}, {2, 2}}, 1, 3, /*overwrite=*/true,
                                  /*truncate_from=*/1))
                  ->status.ok());
  h.SetStable(2, 3);
  auto r = h.Read(0, 3);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->size(), 3u);
  EXPECT_EQ((*r)[0].record.payload, Payload(1));
  EXPECT_EQ((*r)[1].record.payload, Payload(3));
  EXPECT_EQ((*r)[2].record.payload, Payload(2));
  // Backup converged too.
  ASSERT_NE(h.servers_[1]->RecordAt(1), nullptr);
  EXPECT_EQ(h.servers_[1]->RecordAt(1)->payload, Payload(3));
  EXPECT_EQ(h.servers_[1]->RecordAt(2)->payload, Payload(2));
  for (const auto& server : h.servers_) {
    EXPECT_EQ(server->stats().noops_created, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ShardWindow,
                         ::testing::Values(ShardMode::kBlackBox, ShardMode::kStModified),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace lazylog
