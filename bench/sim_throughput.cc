// Harness-throughput bench: wall-clock cost of the simulator itself on a fig13-style
// workload (Erwin-st, 16 shards, 4 KB records), not a simulated-time figure. Two runs
// of the identical seeded workload are compared:
//
//   zero-copy   - the Buf record path as shipped: every hop after the client's encode
//                 moves a refcounted handle; no payload byte is memcpy'd again.
//   force-copy  - SetBufForceCopy(true): every alias point deep-copies, reproducing the
//                 old string-per-hop behaviour with an identical wire format.
//
// Because the wire format, charged wire bytes, and event order are identical, both runs
// produce the same simulated latencies/throughput — only wall-clock time and the
// copy/allocation counters differ. That makes the A/B a pure measurement of the record
// path's memory traffic. `--smoke` prints one JSON line per mode and checks them
// itself, exiting nonzero on a violation: zero-copy copies 0 payload bytes per append,
// force-copy copies about one record per append, both modes simulate identically,
// zero-copy stays under a ceiling of heap allocations per append (global operator new
// calls during the measured window, counted by this file's replacement of it), and the
// run stays under a ceiling of simulator events per acked append.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "bench/bench_util.h"
#include "src/lazylog/erwin_cluster.h"

// Global operator new for this binary: forwards to malloc and counts calls while
// g_count_news is set (the measured window of a run).
namespace {
bool g_count_news = false;
uint64_t g_news = 0;

void* CountedNew(std::size_t n) {
  if (g_count_news) {
    ++g_news;
  }
  return std::malloc(n == 0 ? 1 : n);
}
void* CountedNewOrThrow(std::size_t n) {
  if (void* p = CountedNew(n)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedNewOrThrow(n); }
void* operator new[](std::size_t n) { return CountedNewOrThrow(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedNew(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedNew(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace lazylog {
namespace {

// Zero-copy heap allocations per acked append allowed by --smoke. Release builds
// measure 33.6; the ceiling leaves headroom for standard-library differences while
// still failing if RPC frames, reply callbacks or reply tokens allocate per message
// again, or the sequencing replicas' duplicate filter goes back to a heap node per id.
constexpr double kMaxHeapAllocsPerAppend = 40;
// Simulator events per acked append allowed by --smoke. The count is deterministic:
// 21.0 with one-way notifications, 23.3 when the stable-gp broadcast was answered, so
// the check fails if notifications start taking replies again.
constexpr double kMaxEventsPerAppend = 22;

constexpr uint32_t kShards = 16;
constexpr size_t kRecordBytes = 4096;
constexpr double kOfferedRate = 300e3;

struct RunResult {
  double wall_ms = 0;           // real time spent inside cluster.RunFor
  uint64_t events = 0;          // simulator events executed
  double events_per_sec = 0;    // events / wall second (the harness-throughput metric)
  uint64_t acked = 0;           // appends acknowledged during the measured window
  double sim_rate = 0;          // simulated appends/s (must match across modes)
  double sim_mean_ns = 0;       // simulated append latency (must match across modes)
  double sim_p99_ns = 0;
  BufStats buf;                 // record-path counters for the whole run
  uint64_t heap_allocs = 0;     // global operator new calls in the measured window
};

RunResult RunOnce(bool force_copy, uint64_t run_ns, uint64_t warmup_ns) {
  SetBufForceCopy(force_copy);
  GlobalBufStats().Reset();

  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kSt;
  opt.num_shards = kShards;
  opt.shard_replication = 2;
  opt.with_control_plane = false;
  ErwinCluster cluster(opt);
  std::vector<std::unique_ptr<SharedLogClient>> clients;
  for (size_t i = 0; i < 24; ++i) {
    clients.push_back(cluster.MakeClient());
  }
  AppenderFleet fleet(&cluster.loop(), std::move(clients), kOfferedRate, kRecordBytes,
                      warmup_ns);

  const uint64_t events_before = cluster.loop().events_run();
  g_news = 0;
  g_count_news = true;
  const auto wall_start = std::chrono::steady_clock::now();
  fleet.Start();
  cluster.RunFor(run_ns);
  fleet.Stop();
  const auto wall_end = std::chrono::steady_clock::now();
  g_count_news = false;

  RunResult r;
  r.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(wall_end - wall_start)
          .count();
  r.events = cluster.loop().events_run() - events_before;
  r.events_per_sec = r.wall_ms > 0 ? r.events / (r.wall_ms / 1e3) : 0;
  r.acked = fleet.TotalAcked();
  r.sim_rate = fleet.MeasuredRate(cluster.loop().Now());
  const Histogram lat = fleet.MergedLatency();
  r.sim_mean_ns = lat.Mean();
  r.sim_p99_ns = static_cast<double>(lat.Percentile(0.99));
  r.buf = GlobalBufStats();
  r.heap_allocs = g_news;
  SetBufForceCopy(false);
  return r;
}

double PerAppend(uint64_t total, uint64_t acked) {
  return acked > 0 ? static_cast<double>(total) / static_cast<double>(acked) : 0;
}

void PrintJson(const char* mode, const RunResult& r) {
  PrintStatsJson("sim_throughput", r.buf.Fields(),
                 {{"force_copy", std::strcmp(mode, "force-copy") == 0 ? 1.0 : 0.0},
                  {"shards", static_cast<double>(kShards)},
                  {"record_bytes", static_cast<double>(kRecordBytes)},
                  {"wall_ms", r.wall_ms},
                  {"events", static_cast<double>(r.events)},
                  {"events_per_sec_wall", r.events_per_sec},
                  {"appends_acked", static_cast<double>(r.acked)},
                  {"sim_append_rate", r.sim_rate},
                  {"sim_mean_latency_ns", r.sim_mean_ns},
                  {"sim_p99_latency_ns", r.sim_p99_ns},
                  {"copied_per_append", PerAppend(r.buf.payload_bytes_copied, r.acked)},
                  {"aliased_per_append", PerAppend(r.buf.payload_bytes_aliased, r.acked)},
                  {"allocs_per_append", PerAppend(r.buf.allocations, r.acked)},
                  {"heap_allocs_per_append", PerAppend(r.heap_allocs, r.acked)}});
}

// The A/B is only valid if the simulation itself is unchanged: same events, acks and
// simulated latencies in both modes.
bool SameSimulation(const RunResult& zc, const RunResult& fc) {
  return zc.acked == fc.acked && zc.events == fc.events && zc.sim_mean_ns == fc.sim_mean_ns &&
         zc.sim_p99_ns == fc.sim_p99_ns;
}

// --smoke's checks; prints each violation to stderr and returns the exit code.
int CheckSmoke(const RunResult& zc, const RunResult& fc) {
  int rc = 0;
  auto expect = [&rc](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "SMOKE FAIL: %s\n", what);
      rc = 1;
    }
  };
  expect(zc.acked > 1000, "zero-copy acked 1000 appends or fewer");
  expect(zc.buf.payload_bytes_copied == 0, "zero-copy copied payload bytes");
  expect(PerAppend(fc.buf.payload_bytes_copied, fc.acked) > 0.9 * kRecordBytes,
         "force-copy copied under 0.9 records per append");
  expect(SameSimulation(zc, fc), "zero-copy and force-copy simulated differently");
  const double heap = PerAppend(zc.heap_allocs, zc.acked);
  expect(heap <= kMaxHeapAllocsPerAppend, "zero-copy heap allocations per append over ceiling");
  const double events = PerAppend(zc.events, zc.acked);
  expect(events <= kMaxEventsPerAppend, "simulator events per append over ceiling");
  if (rc == 0) {
    std::printf(
        "sim_throughput smoke OK: 0 B copied/append zero-copy vs %.0f B force-copy, "
        "%.2f heap allocs/append, %.2f events/append\n",
        PerAppend(fc.buf.payload_bytes_copied, fc.acked), heap, events);
  }
  return rc;
}

}  // namespace
}  // namespace lazylog

int main(int argc, char** argv) {
  using namespace lazylog;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const uint64_t run_ns = smoke ? 60 * kMs : 300 * kMs;
  const uint64_t warmup_ns = smoke ? 15 * kMs : 50 * kMs;

  const RunResult zc = RunOnce(/*force_copy=*/false, run_ns, warmup_ns);
  const RunResult fc = RunOnce(/*force_copy=*/true, run_ns, warmup_ns);

  if (smoke) {
    PrintJson("zero-copy", zc);
    PrintJson("force-copy", fc);
    return CheckSmoke(zc, fc);
  }

  PrintHeader("Harness throughput: zero-copy record path vs per-hop copies");
  std::printf("  workload: Erwin-st, %u shards, %zu B records, %.0fK appends/s offered\n\n",
              kShards, kRecordBytes, kOfferedRate / 1e3);
  std::printf("  %-12s %-10s %-12s %-14s %-14s %-14s %-12s\n", "mode", "wall ms",
              "events/s", "copied/app", "aliased/app", "allocs/app", "sim mean");
  for (const auto* pair : {&zc, &fc}) {
    const RunResult& r = *pair;
    std::printf("  %-12s %-10.0f %-12.3g %-14.0f %-14.0f %-14.2f %-12s\n",
                pair == &zc ? "zero-copy" : "force-copy", r.wall_ms, r.events_per_sec,
                PerAppend(r.buf.payload_bytes_copied, r.acked),
                PerAppend(r.buf.payload_bytes_aliased, r.acked),
                PerAppend(r.buf.allocations, r.acked),
                FormatNanos(static_cast<uint64_t>(r.sim_mean_ns)).c_str());
  }
  std::printf("\n  wall-clock speedup (events/s): %.2fx\n",
              fc.events_per_sec > 0 ? zc.events_per_sec / fc.events_per_sec : 0.0);
  std::printf("  payload memcpy reduction per append: %.1f%% (%.0f B -> %.0f B)\n",
              fc.buf.payload_bytes_copied > 0
                  ? 100.0 * (1.0 - static_cast<double>(zc.buf.payload_bytes_copied) /
                                       static_cast<double>(fc.buf.payload_bytes_copied))
                  : 0.0,
              PerAppend(fc.buf.payload_bytes_copied, fc.acked),
              PerAppend(zc.buf.payload_bytes_copied, zc.acked));
  const bool identical = SameSimulation(zc, fc);
  std::printf("  simulated behaviour identical across modes: %s\n", identical ? "yes" : "NO");
  return identical ? 0 : 1;
}
