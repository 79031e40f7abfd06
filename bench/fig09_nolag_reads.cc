// Figure 9: no lag between appends and reads — readers aggressively read records the
// moment they are acknowledged (a bad case for LazyLog). Erwin appends stay low, but
// reads now pay the deferred ordering cost. At the higher rate (45K) background
// batches are large, so only the first read into the unordered portion is slow and
// read latency approaches Corfu's; at lower rates more reads take the slow path.
// Either way LazyLog preserves the conventional log's overall cost: Corfu pays the
// ordering on appends, Erwin on reads.
//
// --smoke runs only the 45K row and exits nonzero unless Erwin acks at least 95% of
// the appends it issues and its read mean stays within 2x Corfu's: the top-rate row
// is where an orderer that cannot keep pace with the shard disk shows first.
#include <cstdio>
#include <cstring>

#include "bench/readlag_common.h"

namespace lazylog {
namespace {

int Smoke() {
  constexpr double kRate = 45'000.0;
  const ReadLagResult erwin = RunErwin(kRate, /*lag_ns=*/0);
  const ReadLagResult corfu = RunCorfu(kRate, /*lag_ns=*/0);
  PrintLatencyRow("Erwin append", erwin.append);
  PrintLatencyRow("Erwin read", erwin.read);
  PrintLatencyRow("Corfu read", corfu.read);
  const double acked_frac = erwin.acked_frac();
  int rc = 0;
  auto expect = [&rc](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "SMOKE FAIL: %s\n", what);
      rc = 1;
    }
  };
  expect(acked_frac >= 0.95, "Erwin acked under 95% of its appends at 45K");
  expect(erwin.read.count() > 0, "Erwin served no reads at 45K");
  expect(corfu.read.count() > 0, "Corfu served no reads at 45K");
  expect(erwin.read.Mean() <= 2.0 * corfu.read.Mean(),
         "Erwin read mean above 2x Corfu's at 45K");
  if (rc == 0) {
    std::printf("fig09 smoke OK: 45K acked %.1f%% of %llu appends, read mean %s vs Corfu %s\n",
                100.0 * acked_frac, static_cast<unsigned long long>(erwin.appends_issued),
                FormatNanos(erwin.read.Mean()).c_str(), FormatNanos(corfu.read.Mean()).c_str());
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
  PrintHeader("Figure 9: No lag between appends and reads, Erwin-m vs Corfu (4KB, 1 shard)");
  for (double rate : {15'000.0, 30'000.0, 45'000.0}) {
    std::printf("\n-- append+read rate %.0fK ops/s --\n", rate / 1000);
    ReadLagResult erwin = RunErwin(rate, /*lag_ns=*/0);
    ReadLagResult corfu = RunCorfu(rate, /*lag_ns=*/0);
    PrintLatencyRow("Erwin append", erwin.append);
    PrintLatencyRow("Corfu append", corfu.append);
    PrintLatencyRow("Erwin read", erwin.read);
    PrintLatencyRow("Corfu read", corfu.read);
    std::printf("  Erwin slow-path reads: %llu (of %llu)\n",
                static_cast<unsigned long long>(erwin.slow_reads),
                static_cast<unsigned long long>(erwin.read.count()));
  }
  PrintPaperNote("Without lag Erwin reads pay the ordering cost; with larger batching at");
  PrintPaperNote("45K only the first read into the unordered portion is slow (Fig 9).");
  return 0;
}
