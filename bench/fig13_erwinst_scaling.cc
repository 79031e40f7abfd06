// Figure 13: Erwin-st scalability vs Erwin-m. (a) Throughput as shards grow from 3 to
// 10 with 4KB and 8KB records: Erwin-m flattens (data through the sequencing layer)
// while Erwin-st scales (only 32B metadata through the layer; data goes straight to
// shards). The paper reports ~700K 4KB appends/s at 10 shards. (b) Throughput vs
// latency for Erwin-st at 10 shards / 4KB: ~29us at 700K appends/s.
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/lazylog/erwin_cluster.h"

namespace lazylog {
namespace {

constexpr uint64_t kWarmup = 50 * kMs;
constexpr uint64_t kRun = 200 * kMs;

struct Measurement {
  double rate = 0;
  double ordering_rate = 0;  // globally ordered records/s (the lazy pipeline's pace)
  Histogram latency;
  OrdererStatsSnapshot orderer;
};

Measurement MeasureAt(ErwinMode mode, uint32_t shards, size_t record_bytes, double offered,
                      uint32_t pipeline_depth = 0, uint64_t run_ns = kRun,
                      uint64_t warmup_ns = kWarmup, uint32_t max_batch = 0) {
  ErwinClusterOptions opt;
  opt.mode = mode;
  opt.num_shards = shards;
  opt.shard_replication = 2;
  opt.with_control_plane = false;
  if (pipeline_depth > 0) {
    opt.params.seq.order_pipeline_depth = pipeline_depth;
  }
  if (max_batch > 0) {
    opt.params.seq.max_order_batch = max_batch;
  }
  ErwinCluster cluster(opt);
  std::vector<std::unique_ptr<SharedLogClient>> clients;
  for (size_t i = 0; i < 24; ++i) {
    clients.push_back(cluster.MakeClient());
  }
  AppenderFleet fleet(&cluster.loop(), std::move(clients), offered, record_bytes, warmup_ns);
  fleet.Start();
  cluster.RunFor(run_ns);
  fleet.Stop();
  Measurement m;
  m.rate = fleet.MeasuredRate(cluster.loop().Now());
  m.latency = fleet.MergedLatency();
  m.orderer = cluster.seq_replica(0).StatsSnapshot();
  m.ordering_rate = static_cast<double>(m.orderer.ordered_gp) /
                    (static_cast<double>(cluster.loop().Now()) / 1e9);
  return m;
}

double Saturate(ErwinMode mode, uint32_t shards, size_t record_bytes) {
  // Analytic starting point: Erwin-m is bound by the sequencing layer's record
  // processing; Erwin-st by min(total shard disk bandwidth, metadata sequencing).
  const SimParams params;
  double capacity;
  if (mode == ErwinMode::kM) {
    capacity = 1e9 / (params.seq_cpu.fixed_ns +
                      record_bytes / params.seq_cpu.copy_bandwidth_bytes_per_sec * 1e9);
  } else {
    const double disk = shards * params.disk.write_bandwidth_bytes_per_sec / record_bytes;
    const double meta =
        1e9 / (params.seq_cpu.fixed_ns + kMetadataEntryBytes /
                                             params.seq_cpu.copy_bandwidth_bytes_per_sec * 1e9);
    capacity = std::min(disk, meta);
  }
  double offered = 0.7 * capacity;
  double best = 0;
  for (int i = 0; i < 5; ++i) {
    const Measurement m = MeasureAt(mode, shards, record_bytes, offered);
    best = std::max(best, m.rate);
    if (m.rate < offered * 0.95) {
      break;
    }
    offered *= 1.3;
  }
  return best;
}

}  // namespace
}  // namespace lazylog

int main(int argc, char** argv) {
  using namespace lazylog;
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    // CI smoke: Erwin-st at 16 shards, pipelined cursors (depth 4) vs the depth-1
    // configuration that serializes each shard's windows like the old single-batch
    // barrier. Windows are bounded (max_order_batch=64) so depth-1 cannot compensate
    // by growing one giant window per round-trip — it tops out at one window per
    // shard RTT while the pipeline keeps several in flight. One JSON line per run,
    // then the checks: both runs batch and keep stable-gp at or below assigned-gp, and
    // the pipelined orderer orders over 1.5x faster with a smaller stable-gp lag. Then
    // the disk-bound Erwin-m 8 KB cell at 3 shards, offered 130K: at least 90K acked/s
    // and no window retry. Exits nonzero on a violation.
    Measurement runs[2];
    for (int i = 0; i < 2; ++i) {
      const uint32_t depth = i == 0 ? 1 : 4;
      runs[i] = MeasureAt(ErwinMode::kSt, 16, 4096, 300e3, depth,
                          /*run_ns=*/80 * kMs, /*warmup_ns=*/20 * kMs,
                          /*max_batch=*/64);
      PrintStatsJson("orderer", runs[i].orderer.Fields(),
                     {{"order_pipeline_depth", static_cast<double>(depth)},
                      {"max_order_batch", 64.0},
                      {"ordering_throughput", runs[i].ordering_rate},
                      {"append_rate", runs[i].rate}});
    }
    const OrdererStatsSnapshot& barrier = runs[0].orderer;
    const OrdererStatsSnapshot& pipelined = runs[1].orderer;
    int rc = 0;
    auto expect = [&rc](bool ok, const char* what) {
      if (!ok) {
        std::fprintf(stderr, "SMOKE FAIL: %s\n", what);
        rc = 1;
      }
    };
    for (const OrdererStatsSnapshot* o : {&barrier, &pipelined}) {
      expect(o->counters.AvgBatchSize() > 1, "average ordering batch is 1 record or less");
      expect(o->stable_gp <= o->assigned_gp, "stable-gp passed assigned-gp");
    }
    expect(runs[1].ordering_rate > 1.5 * runs[0].ordering_rate,
           "pipelined ordering is not over 1.5x the barrier's");
    expect(pipelined.assigned_gp - pipelined.stable_gp < barrier.assigned_gp - barrier.stable_gp,
           "pipelined stable-gp lag is not below the barrier's");
    // The fig13a Erwin-m 8 KB cell at 3 shards, just past the shard disks' bandwidth:
    // window RTTs approach the push timeout there, and the cluster must plateau near
    // the offered rate instead of timing out every window.
    const Measurement disk_bound = MeasureAt(ErwinMode::kM, 3, 8192, 130e3);
    uint64_t disk_bound_retries = 0;
    for (const auto& ps : disk_bound.orderer.shards) {
      disk_bound_retries += ps.retries;
    }
    PrintStatsJson("orderer", disk_bound.orderer.Fields(),
                   {{"append_rate", disk_bound.rate}, {"record_bytes", 8192.0}});
    expect(disk_bound.rate >= 90e3, "Erwin-m 8 KB at 3 shards acked under 90K/s at 130K");
    expect(disk_bound_retries == 0, "Erwin-m 8 KB at 3 shards retried ordering windows");
    if (rc == 0) {
      std::printf("fig13 smoke OK: pipelined %.0f/s vs barrier %.0f/s; Erwin-m 8 KB x 3 "
                  "shards %.0f/s\n",
                  runs[1].ordering_rate, runs[0].ordering_rate, disk_bound.rate);
    }
    return rc;
  }
  PrintHeader("Figure 13a: Throughput vs #shards (Erwin-m vs Erwin-st, 4KB and 8KB)");
  std::printf("  %-8s %-16s %-16s %-16s %-16s\n", "#shards", "Erwin-m 4K", "Erwin-st 4K",
              "Erwin-m 8K", "Erwin-st 8K");
  for (uint32_t shards : {3u, 5u, 7u, 10u, 16u, 32u}) {
    const double m4 = Saturate(ErwinMode::kM, shards, 4096);
    const double st4 = Saturate(ErwinMode::kSt, shards, 4096);
    const double m8 = Saturate(ErwinMode::kM, shards, 8192);
    const double st8 = Saturate(ErwinMode::kSt, shards, 8192);
    std::printf("  %-8u %-16.0f %-16.0f %-16.0f %-16.0f\n", shards, m4, st4, m8, st8);
  }
  PrintPaperNote("Erwin-m flattens; Erwin-st scales with shards (~700K 4KB appends/s at");
  PrintPaperNote("10 shards in the paper), limited only by the metadata sequencing layer.");

  PrintHeader("Figure 13b: Throughput vs latency (Erwin-st, 10 shards, 4KB)");
  std::printf("  %-16s %-12s %-12s\n", "offered (K/s)", "mean", "p99");
  for (double offered : {150e3, 300e3, 450e3, 600e3, 700e3}) {
    Measurement m = MeasureAt(ErwinMode::kSt, 10, 4096, offered);
    std::printf("  %-16.0f %-12s %-12s\n", offered / 1000,
                FormatNanos(m.latency.Mean()).c_str(),
                FormatNanos(m.latency.Percentile(0.99)).c_str());
  }
  PrintPaperNote("Erwin-st keeps ~tens-of-us latency up to ~700K appends/s (29us at 700K");
  PrintPaperNote("in the paper) because data and metadata are written in 1 coordinated-free RTT.");

  PrintHeader(
      "Figure 13c: Ordering-pipeline depth (Erwin-st, 16 shards, 4KB, 300K/s, "
      "64-record windows)");
  std::printf("  %-8s %-18s %-16s %-18s %-14s\n", "depth", "ordering (K/s)", "append (K/s)",
              "stable-gp lag", "window retries");
  for (uint32_t depth : {1u, 2u, 4u, 8u}) {
    Measurement m = MeasureAt(ErwinMode::kSt, 16, 4096, 300e3, depth, kRun, kWarmup,
                              /*max_batch=*/64);
    double stable_lag = 0, retries = 0;
    for (const auto& [k, v] : m.orderer.Fields()) {
      if (k == "stable_gp_lag") stable_lag = v;
      if (k == "total_window_retries") retries = v;
    }
    std::printf("  %-8u %-18.0f %-16.0f %-18.0f %-14.0f\n", depth, m.ordering_rate / 1e3,
                m.rate / 1e3, stable_lag, retries);
  }
  PrintPaperNote("Depth 1 serializes each shard cursor on its ack round-trip — the old");
  PrintPaperNote("single-batch barrier's pace — so with bounded windows it tops out at one");
  PrintPaperNote("window per RTT and stable-gp lag grows without bound. Deeper pipelines");
  PrintPaperNote("overlap windows on the RTT so ordered-gp tracks the append rate.");
  return 0;
}
