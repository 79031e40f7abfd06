// Shared driver for Figures 8 and 9: matched-rate append+read workloads on Erwin-m
// and Corfu with a configurable read lag.
#ifndef BENCH_READLAG_COMMON_H_
#define BENCH_READLAG_COMMON_H_

#include "bench/bench_util.h"
#include "src/baselines/corfu/corfu.h"
#include "src/lazylog/erwin_cluster.h"

namespace lazylog {
namespace {

constexpr uint64_t kWarmup = 100 * kMs;
constexpr uint64_t kRun = 500 * kMs;
constexpr size_t kRecordBytes = 4096;
constexpr size_t kClients = 4;
constexpr uint64_t kLagNs = 3 * kMs;

struct ReadLagResult {
  Histogram append;
  Histogram read;
  uint64_t slow_reads = 0;
  uint64_t appends_issued = 0;  // whole run, warmup included
  uint64_t appends_acked = 0;

  double acked_frac() const {
    return appends_issued == 0 ? 0.0
                               : static_cast<double>(appends_acked) /
                                     static_cast<double>(appends_issued);
  }
};

ReadLagResult RunErwin(double rate, uint64_t lag_ns) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 1;
  opt.shard_replication = 3;
  opt.with_control_plane = false;
  ErwinCluster cluster(opt);
  std::vector<std::unique_ptr<SharedLogClient>> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.push_back(cluster.MakeMClient());
  }
  AppenderFleet fleet(&cluster.loop(), std::move(clients), rate, kRecordBytes, kWarmup);
  auto reader_client = cluster.MakeMClient();
  SequentialReader::Options ropt;
  ropt.batch = 1;
  ropt.lag_ns = lag_ns;
  ropt.warmup_ns = kWarmup;
  SequentialReader reader(&cluster.loop(), reader_client->log(), ropt);
  // All appenders feed one global ack stream; with one appender per fleet slot the
  // index order approximates position order well enough for a sequential reader.
  WireAckStream(fleet, reader);
  DriveAppendRead(cluster, fleet, reader, kRun);
  ReadLagResult res;
  res.append = fleet.MergedLatency();
  res.read = reader.latency();
  res.appends_issued = fleet.TotalIssued();
  res.appends_acked = fleet.TotalAcked();
  for (uint32_t r = 0; r < 3; ++r) {
    res.slow_reads += cluster.shard(0, r).StatsSnapshot().counters.slow_reads;
  }
  return res;
}

ReadLagResult RunCorfu(double rate, uint64_t lag_ns) {
  SimParams params;
  CorfuCluster cluster(1, 3, params);
  std::vector<std::unique_ptr<SharedLogClient>> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.push_back(cluster.MakeClient());
  }
  AppenderFleet fleet(&cluster.loop(), std::move(clients), rate, kRecordBytes, kWarmup);
  auto reader_client = cluster.MakeClient();
  SequentialReader::Options ropt;
  ropt.batch = 1;
  ropt.lag_ns = lag_ns;
  ropt.warmup_ns = kWarmup;
  SequentialReader reader(&cluster.loop(), reader_client->log(), ropt);
  WireAckStream(fleet, reader);
  DriveAppendRead(cluster, fleet, reader, kRun);
  ReadLagResult res;
  res.append = fleet.MergedLatency();
  res.read = reader.latency();
  return res;
}

}  // namespace
}  // namespace lazylog

#endif  // BENCH_READLAG_COMMON_H_
