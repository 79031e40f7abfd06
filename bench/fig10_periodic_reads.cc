// Figure 10: performance with periodic reads. The application periodically checkTails
// and reads everything up to the tail, at varying periods (0.25-3 ms) and append rates
// (20K and 32K). Longer periods accumulate more appends, which background ordering has
// already bound by read time — so latencies fall as the period grows; the higher rate
// is cheaper at every period thanks to larger ordering batches.
//
// --smoke runs periods 250 us and 3 ms at both rates and exits nonzero unless both
// trends hold: at each rate the 3 ms mean is below the 250 us mean, and at each period
// the 32K mean is below the 20K mean.
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/lazylog/erwin_cluster.h"

namespace lazylog {
namespace {

constexpr uint64_t kWarmup = 100 * kMs;
constexpr uint64_t kRun = 600 * kMs;
constexpr size_t kRecordBytes = 4096;

Histogram Run(double rate, uint64_t period_ns) {
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
  PeriodicTailReader::Options ropt;
  ropt.period_ns = period_ns;
  ropt.warmup_ns = kWarmup;
  PeriodicTailReader reader(&cluster.loop(), reader_client->log(), ropt);
  DriveAppendRead(cluster, fleet, reader, kRun);
  return reader.latency();
}

int Smoke() {
  const double m20_short = Run(20'000, 250 * kUs).Mean();
  const double m32_short = Run(32'000, 250 * kUs).Mean();
  const double m20_long = Run(20'000, 3 * kMs).Mean();
  const double m32_long = Run(32'000, 3 * kMs).Mean();
  std::printf("  %-12s %-14s %-14s\n", "period", "20K rate mean", "32K rate mean");
  std::printf("  %-12s %-14s %-14s\n", FormatNanos(250 * kUs).c_str(),
              FormatNanos(m20_short).c_str(), FormatNanos(m32_short).c_str());
  std::printf("  %-12s %-14s %-14s\n", FormatNanos(3 * kMs).c_str(),
              FormatNanos(m20_long).c_str(), FormatNanos(m32_long).c_str());
  int rc = 0;
  auto expect = [&rc](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "SMOKE FAIL: %s\n", what);
      rc = 1;
    }
  };
  expect(m20_long < m20_short, "20K: 3 ms period mean not below 250 us mean");
  expect(m32_long < m32_short, "32K: 3 ms period mean not below 250 us mean");
  expect(m32_short < m20_short, "250 us period: 32K mean not below 20K mean");
  expect(m32_long < m20_long, "3 ms period: 32K mean not below 20K mean");
  if (rc == 0) {
    std::printf("fig10 smoke OK: longer periods and the higher rate both lower the read "
                "mean\n");
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
  PrintHeader("Figure 10: Periodic checkTail+read-to-tail, read latency vs period (Erwin-m)");
  std::printf("  %-12s %-14s %-14s\n", "period", "20K rate mean", "32K rate mean");
  for (uint64_t period_us : {250, 500, 1000, 1500, 2000, 2500, 3000}) {
    Histogram h20 = Run(20'000, period_us * kUs);
    Histogram h32 = Run(32'000, period_us * kUs);
    std::printf("  %-12s %-14s %-14s\n", FormatNanos(period_us * kUs).c_str(),
                FormatNanos(h20.Mean()).c_str(), FormatNanos(h32.Mean()).c_str());
  }
  PrintPaperNote("Longer periods -> more accumulated (already-ordered) records -> low read");
  PrintPaperNote("latency; the 32K rate is lower than 20K from larger ordering batches (Fig 10).");
  return 0;
}
