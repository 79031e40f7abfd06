// Figure 11: impact of the append rate on read latency. An aggressive reader consumes
// whatever is available while appends run at 5-45K/s. Two regions emerge: while the
// reader keeps up (R_r == R_a), low rates mean small background-ordering batches and
// many slow-path reads; high rates mean large batches and mostly fast reads. The
// average ordering batch size (right axis of Fig 11a) is printed alongside, plus the
// read-latency CDFs at 5K and 45K (Fig 11b).
//
// --smoke runs the 5K, 25K and 45K rows and exits nonzero unless the table's shape
// holds: the average ordering batch grows with the rate, the 45K read mean is below the
// 5K one, and every row acks at least 95% of the appends it issues.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "src/lazylog/erwin_cluster.h"

namespace lazylog {
namespace {

constexpr uint64_t kWarmup = 100 * kMs;
constexpr uint64_t kRun = 600 * kMs;
constexpr size_t kRecordBytes = 4096;

struct RateResult {
  Histogram read;
  double avg_batch = 0;
  double read_rate = 0;
  double append_rate = 0;
  uint64_t slow_reads = 0;
  double acked_frac = 0;
};

RateResult Run(double rate) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 1;
  opt.shard_replication = 3;
  opt.with_control_plane = false;
  ErwinCluster cluster(opt);
  std::vector<std::unique_ptr<SharedLogClient>> clients;
  for (size_t i = 0; i < 4; ++i) {
    clients.push_back(cluster.MakeMClient());
  }
  AppenderFleet fleet(&cluster.loop(), std::move(clients), rate, kRecordBytes, kWarmup);
  auto reader_client = cluster.MakeMClient();
  SequentialReader::Options ropt;
  ropt.batch = 1;
  ropt.lag_ns = 0;
  ropt.warmup_ns = kWarmup;
  SequentialReader reader(&cluster.loop(), reader_client->log(), ropt);
  uint64_t acked = 0;
  for (size_t i = 0; i < fleet.size(); ++i) {
    fleet.appender(i).OnAck([&](uint64_t, SimTime t) { reader.NotifyAcked(acked++, t); });
  }
  reader.Start();
  fleet.Start();
  cluster.RunFor(kRun);
  fleet.Stop();
  reader.Stop();
  RateResult res;
  res.read = reader.latency();
  res.avg_batch = cluster.seq_replica(0).StatsSnapshot().counters.AvgBatchSize();
  res.read_rate = reader.MeasuredRate(cluster.loop().Now());
  res.append_rate = fleet.MeasuredRate(cluster.loop().Now());
  res.acked_frac = static_cast<double>(fleet.TotalAcked()) /
                   static_cast<double>(std::max<uint64_t>(fleet.TotalIssued(), 1));
  for (uint32_t r = 0; r < 3; ++r) {
    res.slow_reads += cluster.shard(0, r).StatsSnapshot().counters.slow_reads;
  }
  return res;
}

int Smoke() {
  int rc = 0;
  auto expect = [&rc](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "SMOKE FAIL: %s\n", what);
      rc = 1;
    }
  };
  std::vector<RateResult> rows;
  for (double rate : {5'000.0, 25'000.0, 45'000.0}) {
    rows.push_back(Run(rate));
    const RateResult& res = rows.back();
    std::printf("  %-10.0f read mean %-12s avg batch %-8.1f acked %.1f%%\n", rate / 1000,
                FormatNanos(res.read.Mean()).c_str(), res.avg_batch, 100.0 * res.acked_frac);
    expect(res.acked_frac >= 0.95, "a row acked under 95% of its appends");
    expect(res.read.count() > 0, "a row served no reads");
  }
  for (size_t i = 1; i < rows.size(); ++i) {
    expect(rows[i].avg_batch > rows[i - 1].avg_batch,
           "the average ordering batch does not grow with the append rate");
  }
  expect(rows.back().read.Mean() < rows.front().read.Mean(),
         "the 45K read mean is not below the 5K one");
  if (rc == 0) {
    std::printf("fig11 smoke OK: batch %.1f -> %.1f, read mean %s -> %s\n",
                rows.front().avg_batch, rows.back().avg_batch,
                FormatNanos(rows.front().read.Mean()).c_str(),
                FormatNanos(rows.back().read.Mean()).c_str());
  }
  return rc;
}

}  // namespace
}  // namespace lazylog

int main(int argc, char** argv) {
  using namespace lazylog;
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return Smoke();
  }
  PrintHeader("Figure 11: Append rate vs read latency (Erwin-m, aggressive reader)");
  std::printf("  %-10s %-12s %-12s %-12s %-12s %-10s\n", "rate", "read mean", "read p99",
              "avg batch", "slow reads", "R_r (K/s)");
  RateResult r5, r45;
  for (double rate : {5'000.0, 15'000.0, 25'000.0, 35'000.0, 45'000.0}) {
    RateResult res = Run(rate);
    std::printf("  %-10.0f %-12s %-12s %-12.1f %-12llu %-10.1f\n", rate / 1000,
                FormatNanos(res.read.Mean()).c_str(),
                FormatNanos(res.read.Percentile(0.99)).c_str(), res.avg_batch,
                static_cast<unsigned long long>(res.slow_reads), res.read_rate / 1000);
    if (rate == 5'000.0) {
      r5 = std::move(res);
    }
    if (rate == 45'000.0) {
      r45 = std::move(res);
    }
  }
  std::printf("\n");
  PrintCdf("reads @5K appends/s (Fig 11b)", r5.read);
  PrintCdf("reads @45K appends/s (Fig 11b)", r45.read);
  PrintPaperNote("Ordering batch size grows with the append rate; at 5K almost all reads");
  PrintPaperNote("take the slow path, at 45K almost all take the fast path (Fig 11).");
  return 0;
}
