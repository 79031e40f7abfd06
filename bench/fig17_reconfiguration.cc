// Figure 17: reconfiguration under node failures (§6.10). Three phases:
//   (a/b) erwin-m: a sequencing follower is crashed mid-workload; the control plane
//         detects it via ZooKeeperLite session expiry, seals the view, flushes the
//         recovery replica's unordered log, persists the new configuration, and starts
//         the new view. Prints the throughput timeline (~15 ms dip in the paper) and
//         the breakdown dominated by detection + view persistence.
//   (c)   erwin-st baseline: the same follower crash on a 1-shard st cluster, where
//         appends require every sequencing replica — the availability dip is the
//         yardstick the shard-failover dip is compared against.
//   (d)   erwin-st shard-primary failover: the shard primary is crashed; the controller
//         seals the survivors under a bumped promotion epoch, promotes the most-complete
//         backup with an ordered handoff of the acked-but-unordered tail, and republishes
//         the config. Prints the detect/seal/handoff/open breakdown plus JSON stats.
//
// --smoke runs the same phases and then checks the Fig 17b breakdown (the
// reconfiguration completes, detection takes at least the ZK session timeout, the
// new-view step at least one ZK write, and the total stays under 20 ms) and the failover
// shape: promotion completed once, total failover < 50 ms with seal + handoff + open
// < 10 ms, and a shard dip at most 2x the seq-crash dip. Exits nonzero on a violation.
#include <cstdio>
#include <cstring>
#include <functional>

#include "bench/bench_util.h"
#include "src/lazylog/erwin_cluster.h"

namespace lazylog {
namespace {

constexpr size_t kRecordBytes = 1024;
constexpr uint64_t kWindowNs = 5 * kMs;
constexpr int kNumWindows = 40;
constexpr int kCrashWindow = 20;

// Runs a 1-shard erwin-st cluster under open-loop load, fires `fault` at the crash
// window, prints the per-window throughput timeline, and returns the availability dip:
// total milliseconds of post-crash windows below half the pre-crash mean.
double RunStTimeline(const char* title, const std::function<void(ErwinCluster&)>& fault,
                     const std::function<void(ErwinCluster&)>& after) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kSt;
  opt.num_shards = 1;
  opt.shard_replication = 3;
  opt.with_control_plane = true;
  ErwinCluster cluster(opt);

  std::vector<std::unique_ptr<ErwinStClient>> clients;
  std::vector<std::unique_ptr<OpenLoopAppender>> appenders;
  const double offered = 50'000;
  const size_t n_clients = 8;
  uint64_t window_acked = 0;
  for (size_t i = 0; i < n_clients; ++i) {
    clients.push_back(cluster.MakeStClient());
    OpenLoopAppender::Options aopt;
    aopt.rate_per_sec = offered / n_clients;
    aopt.record_bytes = kRecordBytes;
    appenders.push_back(std::make_unique<OpenLoopAppender>(&cluster.loop(),
                                                           clients[i]->log(), aopt, 40 + i));
    appenders.back()->OnAck([&](uint64_t, SimTime) { window_acked++; });
    appenders.back()->Start();
  }

  std::printf("\n  -- %s (5 ms windows; fault at t=100ms) --\n", title);
  std::printf("  %-10s %-16s\n", "time", "throughput (K/s)");
  std::vector<double> tput;
  for (int w = 0; w < kNumWindows; ++w) {
    if (w == kCrashWindow) {
      fault(cluster);
    }
    window_acked = 0;
    cluster.RunFor(kWindowNs);
    tput.push_back(static_cast<double>(window_acked) /
                   (static_cast<double>(kWindowNs) / 1e9));
    std::printf("  %-10s %-16.1f%s\n", (std::to_string((w + 1) * 5) + "ms").c_str(),
                tput.back() / 1000, w == kCrashWindow ? "   <- fault injected" : "");
  }
  cluster.RunFor(100 * kMs);
  if (after) {
    after(cluster);
  }

  double base = 0;
  for (int w = 4; w < kCrashWindow; ++w) {
    base += tput[w];
  }
  base /= kCrashWindow - 4;
  double dip_ms = 0;
  for (int w = kCrashWindow; w < kNumWindows; ++w) {
    if (tput[w] < 0.5 * base) {
      dip_ms += static_cast<double>(kWindowNs) / 1e6;
    }
  }
  std::printf("  availability dip: %.0f ms of windows below half the pre-fault rate\n",
              dip_ms);
  return dip_ms;
}

}  // namespace
}  // namespace lazylog

int main(int argc, char** argv) {
  using namespace lazylog;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  PrintHeader("Figure 17: Sequencing-layer reconfiguration under a replica crash");

  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 2;
  opt.shard_replication = 2;
  opt.with_control_plane = true;
  ErwinCluster cluster(opt);

  std::vector<std::unique_ptr<ErwinMClient>> clients;
  std::vector<std::unique_ptr<OpenLoopAppender>> appenders;
  const double offered = 50'000;
  const size_t n_clients = 8;
  uint64_t window_acked = 0;
  for (size_t i = 0; i < n_clients; ++i) {
    clients.push_back(cluster.MakeMClient());
    OpenLoopAppender::Options aopt;
    aopt.rate_per_sec = offered / n_clients;
    aopt.record_bytes = kRecordBytes;
    appenders.push_back(std::make_unique<OpenLoopAppender>(&cluster.loop(),
                                                           clients[i]->log(), aopt, 40 + i));
    appenders.back()->OnAck([&](uint64_t, SimTime) { window_acked++; });
    appenders.back()->Start();
  }

  SimTime crash_at = 0;
  ReconfigTiming timing;
  bool have_timing = false;
  cluster.controller()->OnReconfigured([&](const ReconfigTiming& t) {
    timing = t;
    have_timing = true;
  });

  std::printf("  -- throughput timeline (5 ms windows; follower crashed at t=100ms) --\n");
  std::printf("  %-10s %-16s\n", "time", "throughput (K/s)");
  const uint64_t kWindow = 5 * kMs;
  for (int w = 0; w < 40; ++w) {
    if (w == 20) {
      crash_at = cluster.loop().Now();
      cluster.CrashSeqReplica(2);  // a follower
    }
    window_acked = 0;
    cluster.RunFor(kWindow);
    std::printf("  %-10s %-16.1f%s\n", (std::to_string((w + 1) * 5) + "ms").c_str(),
                static_cast<double>(window_acked) / (static_cast<double>(kWindow) / 1e9) / 1000,
                w == 20 ? "   <- crash injected" : "");
  }
  cluster.RunFor(50 * kMs);

  std::printf("\n  -- reconfiguration breakdown (Fig 17b) --\n");
  const bool reconfigured = have_timing && timing.complete;
  double seq_detect = 0, seq_view = 0, seq_total = 0;
  if (reconfigured) {
    seq_detect = static_cast<double>(timing.detected_at - crash_at) / 1e6;
    const double seal = static_cast<double>(timing.sealed_at - timing.detected_at) / 1e6;
    const double flush = static_cast<double>(timing.flushed_at - timing.sealed_at) / 1e6;
    seq_view = static_cast<double>(timing.view_written_at - timing.flushed_at) / 1e6;
    const double start = static_cast<double>(timing.new_view_at - timing.view_written_at) / 1e6;
    seq_total = seq_detect + seal + flush + seq_view + start;
    std::printf("  detect     %8.2f ms   (ZooKeeper session expiry + watch)\n", seq_detect);
    std::printf("  seal       %8.2f ms\n", seal);
    std::printf("  flush      %8.2f ms\n", flush);
    std::printf("  new-view   %8.2f ms   (ZooKeeper config write)\n", seq_view);
    std::printf("  start-view %8.2f ms\n", start);
    std::printf("  total      %8.2f ms   (core recovery seal+flush: %.0f us)\n", seq_total,
                (seal + flush) * 1000);
  } else {
    std::printf("  reconfiguration did not complete!\n");
  }
  PrintPaperNote("~15 ms outage, dominated by ZooKeeper detection and view persistence;");
  PrintPaperNote("core recovery is ~600 us — a faster coordination service would cut the");
  PrintPaperNote("outage to ~1 ms (Fig 17).");

  // --- (c) erwin-st baseline: sequencing-follower crash -------------------------------
  // St appends need acks from every sequencing replica, so this dip measures the same
  // append-path dependency structure the shard-primary failover disturbs.
  const double seq_dip_ms = RunStTimeline(
      "erwin-st seq-follower crash",
      [](ErwinCluster& c) { c.CrashSeqReplica(2); }, nullptr);
  PrintStatsJson("seq_reconfig_st", {{"dip_ms", seq_dip_ms}});

  // --- (d) erwin-st shard-primary failover --------------------------------------------
  SimTime shard_crash_at = 0;
  ShardFailoverTiming fo;
  ControllerStatsSnapshot ctrl_snap;
  ShardStatsSnapshot promoted_snap;
  const double shard_dip_ms = RunStTimeline(
      "erwin-st shard-primary crash (backup promotion)",
      [&](ErwinCluster& c) {
        shard_crash_at = c.loop().Now();
        c.CrashShardPrimary(0);
      },
      [&](ErwinCluster& c) {
        fo = c.controller()->last_failover_timing();
        ctrl_snap = c.controller()->StatsSnapshot();
        promoted_snap = c.shard(0, 0).StatsSnapshot();
      });

  std::printf("\n  -- shard-primary failover breakdown --\n");
  double detect = -1, seal = 0, handoff = 0, open = 0;
  if (fo.complete) {
    detect = static_cast<double>(fo.detected_at - shard_crash_at) / 1e6;
    seal = static_cast<double>(fo.sealed_at - fo.detected_at) / 1e6;
    handoff = static_cast<double>(fo.handoff_at - fo.sealed_at) / 1e6;
    open = static_cast<double>(fo.opened_at - fo.handoff_at) / 1e6;
    std::printf("  detect     %8.2f ms   (2 session heartbeats of silence)\n", detect);
    std::printf("  seal       %8.2f ms   (promo-seal fence + completeness reports)\n", seal);
    std::printf("  handoff    %8.2f ms   (promote + metadata re-push to new primary)\n",
                handoff);
    std::printf("  open       %8.2f ms   (seq cursor reset + config publish)\n", open);
    std::printf("  total      %8.2f ms\n", detect + seal + handoff + open);
    PrintStatsJson("shard_failover", {{"detect_ms", detect},
                                      {"seal_ms", seal},
                                      {"handoff_ms", handoff},
                                      {"open_ms", open},
                                      {"total_ms", detect + seal + handoff + open},
                                      {"dip_ms", shard_dip_ms}});
  } else {
    std::printf("  shard-primary failover did not complete!\n");
    PrintStatsJson("shard_failover", {{"detect_ms", -1}, {"dip_ms", shard_dip_ms}});
  }
  PrintStatsJson("controller", ctrl_snap.Fields());
  PrintStatsJson("promoted_shard", promoted_snap.Fields());
  PrintPaperNote("the shard failover rides the same detect-dominated budget as the seq");
  PrintPaperNote("reconfiguration; the metadata-only handoff keeps seal->open sub-ms.");
  if (!smoke) {
    return 0;
  }

  int rc = 0;
  auto expect = [&rc](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "SMOKE FAIL: %s\n", what);
      rc = 1;
    }
  };
  expect(reconfigured, "sequencing reconfiguration did not complete");
  expect(seq_detect >= static_cast<double>(kZkSessionTimeoutNs) / 1e6,
         "reconfiguration detect took less than the ZK session timeout");
  expect(seq_view >= static_cast<double>(kZkWriteLatencyNs) / 1e6,
         "reconfiguration new-view took less than one ZK write");
  expect(seq_total < 20, "sequencing reconfiguration took 20 ms or more");
  const double seal_to_open = seal + handoff + open;
  expect(detect >= 0, "shard-primary failover did not complete");
  expect(detect + seal_to_open < 50, "shard failover took 50 ms or more");
  expect(seal_to_open < 10, "seal + handoff + open took 10 ms or more");
  expect(shard_dip_ms <= 2 * seq_dip_ms, "shard dip exceeds 2x the seq-crash dip");
  expect(ctrl_snap.promotions == 1, "controller did not promote exactly once");
  expect(promoted_snap.counters.promotions == 1, "promoted shard did not promote exactly once");
  expect(promoted_snap.counters.seal_to_open_ns > 0, "promoted shard recorded no seal->open");
  if (rc == 0) {
    std::printf("fig17 smoke OK: reconfiguration %.2fms, shard dip %.0fms vs seq dip %.0fms, "
                "seal->open %.2fms\n", seq_total, shard_dip_ms, seq_dip_ms, seal_to_open);
  }
  return rc;
}
