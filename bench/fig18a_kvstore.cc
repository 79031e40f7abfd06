// Figure 18a: shared-log-backed KV store (Firescroll-style, writer/reader decoupled)
// on Corfu vs Erwin-m. YCSB Load (write-only), A (write-heavy 50/50), B (read-heavy
// 5/95); 24B keys, 1KB values; one writer server, one reader server, one shard with
// three replicas. Puts are dominated by the shared-log append, so Erwin helps most on
// write-only (3.4x in the paper), considerably on write-heavy (~2.5x), and little on
// read-heavy (reads cost the same on both).
//
// --smoke prints the same table and exits nonzero unless the shape holds: the Erwin
// gain is >= 1.5x on Load and on YCSB-A, and the YCSB-B gain is >= 0.8x and below both
// write gains. The KV reader follows the log with CheckTail and stable reads, so this
// also guards the client's coalesced read path end to end.
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/apps/kvstore.h"
#include "src/baselines/corfu/corfu.h"
#include "src/lazylog/erwin_cluster.h"
#include "src/workload/ycsb.h"

namespace lazylog {
namespace {

constexpr uint64_t kRun = 400 * kMs;
constexpr uint64_t kWarmup = 50 * kMs;
constexpr int kConcurrency = 8;

// Drives the store closed-loop with `kConcurrency` clients and returns the mean request
// latency over all ops.
Histogram DriveStore(EventLoop& loop, Network& net, const SimParams& params,
                     NodeId write_server, NodeId read_server, YcsbWorkload workload) {
  std::vector<std::unique_ptr<KvClient>> clients;
  std::vector<std::unique_ptr<YcsbGenerator>> gens;
  auto hist = std::make_shared<Histogram>();
  for (int i = 0; i < kConcurrency; ++i) {
    clients.push_back(std::make_unique<KvClient>(&net, params, write_server, read_server));
    gens.push_back(std::make_unique<YcsbGenerator>(workload, 100'000, 17 + i));
    KvClient* client = clients.back().get();
    YcsbGenerator* gen = gens.back().get();
    auto next = std::make_shared<std::function<void()>>();
    uint64_t salt = i;
    *next = [&loop, hist, client, gen, next, salt]() mutable {
      const YcsbOp op = gen->Next();
      const SimTime start = loop.Now();
      auto record = [&loop, hist, start, next]() {
        if (start >= kWarmup) {
          hist->Add(loop.Now() - start);
        }
        (*next)();
      };
      if (op.kind == YcsbOp::Kind::kPut) {
        client->Put(op.key, YcsbGenerator::MakeValue(salt++), [record](bool) { record(); });
      } else {
        client->Get(op.key, [record](Status, std::string) { record(); });
      }
    };
    (*next)();
  }
  loop.RunUntil(loop.Now() + kRun);
  return *hist;
}

Histogram RunErwin(YcsbWorkload workload) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 1;
  opt.shard_replication = 3;
  opt.with_control_plane = false;
  ErwinCluster cluster(opt);
  KvWriteServer writer(&cluster.network(), cluster.params(), cluster.MakeMClient());
  KvReadServer reader(&cluster.network(), cluster.params(), cluster.MakeMClient());
  return DriveStore(cluster.loop(), cluster.network(), cluster.params(), writer.node_id(),
                    reader.node_id(), workload);
}

Histogram RunCorfu(YcsbWorkload workload) {
  SimParams params;
  CorfuCluster cluster(1, 3, params);
  KvWriteServer writer(&cluster.network(), params, cluster.MakeClient());
  KvReadServer reader(&cluster.network(), params, cluster.MakeClient());
  return DriveStore(cluster.loop(), cluster.network(), params, writer.node_id(),
                    reader.node_id(), workload);
}

}  // namespace
}  // namespace lazylog

int main(int argc, char** argv) {
  using namespace lazylog;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  PrintHeader("Figure 18a: KV store (writer/reader decoupled), Corfu vs Erwin-m");
  std::printf("  %-26s %-14s %-14s %-8s\n", "workload", "KV-Corfu mean", "KV-Erwin mean",
              "gain");
  double gain[3] = {};
  int i = 0;
  for (YcsbWorkload w : {YcsbWorkload::kLoad, YcsbWorkload::kA, YcsbWorkload::kB}) {
    Histogram corfu = RunCorfu(w);
    Histogram erwin = RunErwin(w);
    gain[i] = corfu.Mean() / erwin.Mean();
    std::printf("  %-26s %-14s %-14s %.2fx\n", YcsbWorkloadName(w),
                FormatNanos(corfu.Mean()).c_str(), FormatNanos(erwin.Mean()).c_str(),
                gain[i++]);
  }
  if (smoke) {
    int rc = 0;
    auto expect = [&rc](bool ok, const char* what) {
      if (!ok) {
        std::fprintf(stderr, "SMOKE FAIL: %s\n", what);
        rc = 1;
      }
    };
    expect(gain[0] >= 1.5, "Load: Erwin gain below 1.5x");
    expect(gain[1] >= 1.5, "YCSB-A: Erwin gain below 1.5x");
    expect(gain[2] >= 0.8, "YCSB-B: Erwin gain below 0.8x");
    expect(gain[2] < gain[0] && gain[2] < gain[1],
           "YCSB-B: read-heavy gain not below both write gains");
    if (rc == 0) {
      std::printf("fig18a smoke OK: Erwin wins on writes, near parity on read-heavy\n");
    }
    return rc;
  }
  PrintPaperNote("Paper: 3.4x lower latency write-only, ~2.5x write-heavy, ~parity");
  PrintPaperNote("read-heavy (Fig 18a) — puts are dominated by the shared-log append.");
  return 0;
}
