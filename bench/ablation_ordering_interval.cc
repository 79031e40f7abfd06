// Ablation: background-ordering interval vs read latency and batch size (the design
// knob behind §4.3's "Erwin does this background work in batches"). A shorter interval
// reduces the slow-path penalty for aggressive readers but shrinks batches (more
// per-batch overhead at the shards); a longer interval amortizes better but makes the
// unordered window — and hence slow-path waits — longer. Appends are unaffected either
// way: that is the point of lazy ordering.
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/lazylog/erwin_cluster.h"

namespace lazylog {
namespace {

constexpr uint64_t kWarmup = 100 * kMs;
constexpr uint64_t kRun = 400 * kMs;

struct AblationResult {
  Histogram append;
  Histogram read;
  double avg_batch = 0;
  OrdererStatsSnapshot orderer;
};

AblationResult Run(uint64_t interval_ns, uint64_t warmup_ns = kWarmup,
                   uint64_t run_ns = kRun) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 1;
  opt.shard_replication = 2;
  opt.with_control_plane = false;
  opt.params.seq.ordering_interval_ns = interval_ns;
  ErwinCluster cluster(opt);
  std::vector<std::unique_ptr<SharedLogClient>> clients;
  for (size_t i = 0; i < 4; ++i) {
    clients.push_back(cluster.MakeMClient());
  }
  AppenderFleet fleet(&cluster.loop(), std::move(clients), 20'000, 4096, warmup_ns);
  auto reader_client = cluster.MakeMClient();
  SequentialReader::Options ropt;
  ropt.warmup_ns = warmup_ns;
  SequentialReader reader(&cluster.loop(), reader_client->log(), ropt);
  uint64_t acked = 0;
  for (size_t i = 0; i < fleet.size(); ++i) {
    fleet.appender(i).OnAck([&](uint64_t, SimTime t) { reader.NotifyAcked(acked++, t); });
  }
  reader.Start();
  fleet.Start();
  cluster.RunFor(run_ns);
  fleet.Stop();
  reader.Stop();
  AblationResult res;
  res.append = fleet.MergedLatency();
  res.read = reader.latency();
  res.orderer = cluster.seq_replica(0).StatsSnapshot();
  res.avg_batch = res.orderer.counters.AvgBatchSize();
  return res;
}

}  // namespace
}  // namespace lazylog

int main(int argc, char** argv) {
  using namespace lazylog;
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    // CI smoke: one short run at the default interval. Prints the orderer's JSON line,
    // then checks that the orderer batched, ordered something, and kept stable-gp at or
    // below the assignment frontier; exits nonzero on a violation.
    AblationResult r = Run(30 * kUs, /*warmup_ns=*/20 * kMs, /*run_ns=*/80 * kMs);
    PrintStatsJson("orderer", r.orderer.Fields(),
                   {{"ordering_interval_us", 30.0},
                    {"append_mean_ns", r.append.Mean()},
                    {"read_p99_ns", r.read.Percentile(0.99)}});
    int rc = 0;
    auto expect = [&rc](bool ok, const char* what) {
      if (!ok) {
        std::fprintf(stderr, "SMOKE FAIL: %s\n", what);
        rc = 1;
      }
    };
    expect(r.avg_batch > 1, "average ordering batch is 1 record or less");
    expect(r.orderer.ordered_gp > 0, "nothing was ordered");
    expect(r.orderer.stable_gp <= r.orderer.assigned_gp, "stable-gp passed assigned-gp");
    if (rc == 0) {
      std::printf("ablation smoke OK: avg batch %.1f, stable-gp lag %llu\n", r.avg_batch,
                  static_cast<unsigned long long>(r.orderer.assigned_gp - r.orderer.stable_gp));
    }
    return rc;
  }
  PrintHeader(
      "Ablation: background-ordering interval (Erwin-m, 20K appends/s, no-lag reader)");
  std::printf("  %-12s %-13s %-13s %-13s %-10s\n", "interval", "append mean", "read mean",
              "read p99", "avg batch");
  for (uint64_t interval_us : {10, 30, 100, 300, 1000, 3000, 10000}) {
    AblationResult r = Run(interval_us * kUs);
    std::printf("  %-12s %-13s %-13s %-13s %-10.1f\n",
                (std::to_string(interval_us) + "us").c_str(),
                FormatNanos(r.append.Mean()).c_str(), FormatNanos(r.read.Mean()).c_str(),
                FormatNanos(r.read.Percentile(0.99)).c_str(), r.avg_batch);
  }
  PrintPaperNote("Append latency is interval-independent: lazy ordering is entirely off");
  PrintPaperNote("the append critical path (§4.3).");
  PrintPaperNote("Below the shard-persistence cycle the orderer self-paces (a finished");
  PrintPaperNote("batch immediately starts the next while records are pending), so read");
  PrintPaperNote("latency and batch size are also insensitive; only intervals larger than");
  PrintPaperNote("the cycle begin to delay idle restarts, growing batches and slow paths.");
  return 0;
}
