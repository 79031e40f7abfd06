// Figure 16: seamlessly adding a shard in Erwin-st (§6.9). Like Scalog (and unlike
// Corfu), Erwin-st lets clients choose shards, so a new shard joins without downtime:
// mid-workload we add one, clients start writing to it, and throughput steps up. The
// workload is closed-loop (a fixed number of outstanding appends), so the acked rate
// tracks the deployment's capacity — which the new shard raises.
//
// --smoke runs the same timeline and exits nonzero unless every window after the add
// acks appends and the mean rate after the add is at least 1.15x the rate before it.
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/lazylog/erwin_cluster.h"

namespace lazylog {
namespace {

constexpr size_t kRecordBytes = 4096;
constexpr uint64_t kWindow = 250 * kMs;
constexpr int kChains = 96;  // concurrent closed-loop append chains
constexpr double kMinStepUp = 1.15;  // --smoke: post-add over pre-add mean rate

}  // namespace
}  // namespace lazylog

int main(int argc, char** argv) {
  using namespace lazylog;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  PrintHeader("Figure 16: Seamlessly adding a shard in Erwin-st (throughput timeline)");

  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kSt;
  opt.num_shards = 4;
  opt.shard_replication = 2;
  opt.with_control_plane = false;
  ErwinCluster cluster(opt);
  std::vector<std::unique_ptr<ErwinStClient>> clients;
  for (int i = 0; i < 16; ++i) {
    clients.push_back(cluster.MakeStClient());
  }
  uint64_t window_acked = 0;
  const std::string payload(kRecordBytes, 'x');
  // Closed-loop chains: each issues the next append as soon as the previous acks.
  std::function<void(int)> chain = [&](int i) {
    clients[i % clients.size()]->log().Append(payload, [&, i](Status s) {
      if (s.ok()) {
        window_acked++;
      }
      chain(i);
    });
  };
  for (int i = 0; i < kChains; ++i) {
    chain(i);
  }

  std::printf("  %-10s %-18s %-10s\n", "time", "throughput (K/s)", "#shards");
  bool added = false;
  double rate_sum[2] = {0, 0};  // K/s summed over the windows before / after the add
  int windows[2] = {0, 0};
  bool idle_after_add = false;
  for (int w = 0; w < 10; ++w) {
    window_acked = 0;
    cluster.RunFor(kWindow);
    const double rate =
        static_cast<double>(window_acked) / (static_cast<double>(kWindow) / 1e9) / 1000;
    std::printf("  %-10s %-18.1f %-10u%s\n", (std::to_string((w + 1) * 250) + "ms").c_str(),
                rate, cluster.num_shards(), (!added && w == 4) ? "   <- shard added" : "");
    rate_sum[added] += rate;
    windows[added]++;
    idle_after_add |= added && window_acked == 0;
    if (!added && w == 4) {
      // Add the shard with zero downtime: clients learn of it and immediately include
      // it in their placement choice.
      std::vector<NodeId> replicas = cluster.AddShard();
      for (auto& c : clients) {
        c->AddShard(replicas);
      }
      added = true;
    }
  }
  PrintPaperNote("Throughput steps up after the new shard joins; no downtime (Fig 16).");
  if (!smoke) {
    return 0;
  }
  const double before = rate_sum[0] / windows[0];
  const double after = rate_sum[1] / windows[1];
  if (idle_after_add || after < kMinStepUp * before) {
    std::printf("fig16 smoke FAILED: %.1fK/s before the add, %.1fK/s after (need >= %.2fx)%s\n",
                before, after, kMinStepUp, idle_after_add ? ", a window after it acked 0" : "");
    return 1;
  }
  std::printf("fig16 smoke OK: %.1fK/s before the add -> %.1fK/s after (%.2fx), no idle window\n",
              before, after, after / before);
  return 0;
}
