#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "src/common/codec.h"
#include "src/rpc/rpc.h"
#include "src/seq/seq_messages.h"
#include "src/storage/segmented_log.h"

namespace lazylog::perfbench {

double Percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  const size_t idx = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return static_cast<double>(v[idx]);
}

Counters Capture(ErwinCluster& cluster, const std::vector<const SharedLogClient*>& clients) {
  Counters c;
  c["events"] = static_cast<double>(cluster.loop().events_run());
  c["msgs"] = static_cast<double>(cluster.network().messages_sent());
  c["wire_bytes"] = static_cast<double>(cluster.network().bytes_sent());
  const BufStats& buf = GlobalBufStats();
  c["allocs"] = static_cast<double>(buf.allocations);
  c["copied_bytes"] = static_cast<double>(buf.payload_bytes_copied);

  const OrdererStatsSnapshot seq = cluster.leader().StatsSnapshot();
  c["seq_batches"] = static_cast<double>(seq.counters.batches);
  c["seq_batch_entries"] = static_cast<double>(seq.counters.batch_entries);
  c["seq_admitted"] = static_cast<double>(seq.counters.admitted);
  c["seq_overload_rejected"] = static_cast<double>(seq.counters.overload_rejected);
  for (const OrdererStats::PerShard& ps : seq.shards) {
    c["seq_push_retries"] += static_cast<double>(ps.retries);
  }

  for (uint32_t s = 0; s < cluster.num_shards(); ++s) {
    for (uint32_t r = 0; r < cluster.shard_size(s); ++r) {
      const ShardStats& st = cluster.shard(s, r).stats();
      c["fast_reads"] += static_cast<double>(st.fast_reads);
      c["slow_reads"] += static_cast<double>(st.slow_reads);
      c["backup_reads"] += static_cast<double>(st.backup_reads);
      c["multirange_reads"] += static_cast<double>(st.multirange_reads);
      c["ranges_clipped"] += static_cast<double>(st.multirange_ranges_clipped);
      c["noops"] += static_cast<double>(st.noops_created);
      c["windows_applied"] += static_cast<double>(st.windows_applied);
      c["windows_parked"] += static_cast<double>(st.windows_parked);
    }
  }
  for (uint32_t i = 0; i < cluster.num_index_nodes(); ++i) {
    const IndexStats& st = cluster.index_node(i).stats();
    c["delta_pulls"] += static_cast<double>(st.delta_pulls);
    c["merged_positions"] += static_cast<double>(st.merged_positions);
  }
  for (const SharedLogClient* client : clients) {
    const ReadPathStats rp = client->ReadPathSnapshot().counters;
    c["routed_reads"] += static_cast<double>(rp.routed_reads);
    c["backup_routed"] += static_cast<double>(rp.backup_routed);
    c["primary_reads"] += static_cast<double>(rp.primary_reads);
    c["coalesced_batches"] += static_cast<double>(rp.coalesced_batches);
    c["coalesced_subs"] += static_cast<double>(rp.coalesced_subs);
    c["clipped_resends"] += static_cast<double>(rp.clipped_resends);
    c["tail_cache_hits"] += static_cast<double>(rp.tail_cache_hits);
    c["readahead_hits"] += static_cast<double>(rp.readahead_hits);
  }
  return c;
}

Counters Delta(const Counters& before, const Counters& after) {
  Counters d;
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    d[k] = v - (it == before.end() ? 0.0 : it->second);
  }
  return d;
}

void Tracer::Attach() {
  cluster_->leader().SetGpObserver([this](ViewId, LogPos, LogPos stable_gp) {
    if (stable_timeline_.empty() || stable_timeline_.back().second < stable_gp) {
      stable_timeline_.emplace_back(cluster_->loop().Now(), stable_gp);
    }
  });
}

void Tracer::StartSampling(uint64_t period_ns, SimTime until) {
  cluster_->loop().Schedule(period_ns, [this, period_ns, until]() { Sample(period_ns, until); });
}

void Tracer::Sample(uint64_t period_ns, SimTime until) {
  ++sampler_events_;
  EventLoop& loop = cluster_->loop();
  const SimTime now = loop.Now();
  queue_peak = std::max<uint64_t>(queue_peak, loop.QueuedEvents());
  for (uint32_t s = 0; s < cluster_->num_shards(); ++s) {
    for (uint32_t r = 0; r < cluster_->shard_size(s); ++r) {
      const SimTime busy = cluster_->shard(s, r).disk().busy_until();
      disk_backlog_ns.push_back(busy > now ? busy - now : 0);
    }
  }
  SequencingReplica& leader = cluster_->leader();
  ring_occupancy.push_back(leader.ring_occupancy());
  for (const OrdererStats::PerShard& ps : leader.StatsSnapshot().shards) {
    watermark_lag_max = std::max<uint64_t>(watermark_lag_max, ps.watermark_lag);
  }
  for (uint32_t i = 0; i < cluster_->num_index_nodes(); ++i) {
    const IndexNode& ix = cluster_->index_node(i);
    index_lag.push_back(ix.stable_gp() > ix.indexed_upto() ? ix.stable_gp() - ix.indexed_upto()
                                                            : 0);
  }
  if (now + period_ns < until) {
    loop.Schedule(period_ns, [this, period_ns, until]() { Sample(period_ns, until); });
  }
}

std::vector<uint64_t> Tracer::StableLags(SimTime lo, SimTime hi) const {
  std::vector<uint64_t> lags;
  size_t j = 0;
  for (size_t k = 0; k < ack_times_.size(); ++k) {
    const SimTime acked = ack_times_[k];
    if (acked < lo || acked >= hi) {
      continue;
    }
    // k + 1 records acked: position k is stable once stable-gp counts k + 1.
    while (j < stable_timeline_.size() && stable_timeline_[j].second < k + 1) {
      ++j;
    }
    if (j == stable_timeline_.size()) {
      lags.push_back(kNever);
      continue;
    }
    const SimTime stable_at = stable_timeline_[j].first;
    lags.push_back(stable_at > acked ? stable_at - acked : 0);
  }
  return lags;
}

namespace {

// Median over `batches` of the wall ns per operation of `batch(ops)`.
template <typename Fn>
double MedianNsPerOp(int batches, uint64_t ops, Fn batch) {
  std::vector<uint64_t> per_op;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    batch(ops);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    per_op.push_back(static_cast<uint64_t>(ns) * 1000 / ops);  // in 1/1000 ns
  }
  return Percentile(per_op, 0.5) / 1000.0;
}

constexpr int kBatches = 7;

Buf RecordPayload() { return Buf::FromString(std::string(4096, 'p')); }

}  // namespace

double EventNs() {
  EventLoop loop;
  uint64_t fired = 0;
  const double ns = MedianNsPerOp(kBatches, 200'000, [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      loop.Schedule(0, [&fired]() { ++fired; });
      loop.RunOne();
    }
  });
  return fired == kBatches * 200'000ULL ? ns : -1;
}

double RpcCallNs() {
  constexpr MethodId kEcho = 0xBE00;
  EventLoop loop;
  NetworkParams zero{.propagation_ns = 0,
                     .bandwidth_bytes_per_sec = 1e18,
                     .jitter_ns = 0,
                     .per_message_overhead_bytes = 0};
  Network net(&loop, zero);
  RpcEndpoint client(&net);
  RpcEndpoint server(&net);
  server.Register(kEcho, [](NodeId, Decoder, Responder r) { r.Send(Status::Ok()); });
  uint64_t answered = 0;
  const double ns = MedianNsPerOp(kBatches, 20'000, [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      client.Call(server.node_id(), kEcho, Buf(), [&answered](Status s, Decoder) {
        answered += s.ok() ? 1 : 0;
      }, /*timeout_ns=*/0);
      loop.RunUntilIdle();
    }
  });
  return answered == kBatches * 20'000ULL ? ns : -1;
}

double CodecAppendNs() {
  SeqAppendReq req;
  req.view = 1;
  req.id = RecordId{7, 1};
  req.payload = RecordPayload();
  req.target_shard = 3;
  uint64_t decoded = 0;
  const double ns = MedianNsPerOp(kBatches, 100'000, [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      req.id.request_id = i;
      Encoder enc;
      req.Encode(enc);
      std::vector<Buf> atts = enc.TakeAtts();
      Decoder dec(enc.TakeBuf(), std::move(atts));
      SeqAppendReq out;
      decoded += out.Decode(dec) && out.payload.size() == req.payload.size() ? 1 : 0;
    }
  });
  return decoded == kBatches * 100'000ULL ? ns : -1;
}

double LogAppendNs() {
  const Buf payload = RecordPayload();
  // Each batch fills a fresh log; all are freed after timing so teardown is not timed.
  std::vector<SegmentedLog> logs;
  logs.reserve(kBatches);
  const double ns = MedianNsPerOp(kBatches, 20'000, [&](uint64_t n) {
    SegmentedLog& log = logs.emplace_back();
    for (uint64_t i = 0; i < n; ++i) {
      log.Append(Record{RecordId{1, i}, payload, false});
    }
  });
  uint64_t stored = 0;
  for (const SegmentedLog& log : logs) {
    stored += log.size();
  }
  return stored == kBatches * 20'000ULL ? ns : -1;
}

}  // namespace lazylog::perfbench
