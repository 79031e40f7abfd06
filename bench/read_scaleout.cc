// Read-path scale-out: aggregate read throughput vs reader count, load-aware routing
// (client_read.read_routing_mode=2, the default) vs primary-pinned (mode 0), on
// Erwin-st with 3-replica shards. Every reader scans the stable prefix in a closed
// loop; pinned mode funnels all of that onto the shard primaries, while p2c routing
// spreads it over every replica — with R-way replication the read capacity ceiling is
// R times the pinned one. A second table reruns Figure 10's periodic tail-reader
// workload in both modes: routing must not cost tail-read latency (the CheckTail
// piggyback/tail cache in fact removes a round trip per period). `--smoke` runs 4 and
// 24 readers, prints machine-parseable JSON rows, and exits nonzero unless at 24
// readers routed reaches >= 2.5x the pinned throughput with a backup share >= 0.4,
// backups serve reads and the routed mean is no worse than pinned, and the fig10
// routed mean stays within 5% of pinned with tail-cache hits.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/lazylog/erwin_cluster.h"

namespace lazylog {
namespace {

constexpr size_t kRecordBytes = 4096;
constexpr uint32_t kShards = 4;
constexpr uint32_t kReplication = 3;
constexpr double kPopulateRate = 60'000;   // appends/s during the populate phase
constexpr uint64_t kPopulate = 250 * kMs;  // build the stable prefix the readers scan
constexpr uint64_t kMeasure = 300 * kMs;   // closed-loop read measurement window
constexpr uint64_t kReadBatch = 16;        // records per Read call

// Closed-loop scanner over the stable prefix [0, limit): issues Read(pos, batch),
// advances, wraps, repeats until stopped. One per reader client (own simulated NIC).
class LoopReader {
 public:
  LoopReader(EventLoop* loop, LogHandle log, LogPos limit, LogPos start)
      : loop_(loop), log_(log), limit_(limit), pos_(start % limit) {}

  void Start() {
    running_ = true;
    Issue();
  }
  void Stop() { running_ = false; }
  uint64_t records() const { return records_; }
  const Histogram& latency() const { return latency_; }

 private:
  void Issue() {
    if (!running_) {
      return;
    }
    const uint64_t batch = std::min<uint64_t>(kReadBatch, limit_ - pos_);
    const SimTime t0 = loop_->Now();
    log_.Read(pos_, batch, [this, t0](Status s, std::vector<PositionedRecord> recs) {
      if (!running_) {
        return;
      }
      if (s.ok()) {
        records_ += recs.size();
        latency_.Add(loop_->Now() - t0);
        pos_ += recs.size();
        if (pos_ + kReadBatch > limit_) {
          pos_ = 0;
        }
        Issue();
        return;
      }
      loop_->Schedule(500 * kUs, [this]() { Issue(); });
    });
  }

  EventLoop* loop_;
  LogHandle log_;
  LogPos limit_;
  LogPos pos_;
  bool running_ = false;
  uint64_t records_ = 0;
  Histogram latency_;
};

struct ScaleoutResult {
  double tput = 0;           // aggregate records/s across all readers
  double mean_latency = 0;   // per Read call, merged across readers
  double backup_share = 0;   // fraction of routed picks that landed on a backup
  uint64_t backup_reads = 0; // server-side: reads served by non-primaries
};

ScaleoutResult RunScaleout(uint32_t readers, uint32_t routing_mode) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kSt;
  opt.num_shards = kShards;
  opt.shard_replication = kReplication;
  opt.with_control_plane = false;
  opt.params.client_read.read_routing_mode = routing_mode;
  // Measure server-served reads only: client-side prefetch would hide part of the
  // replica load this bench is about.
  opt.params.client_read.readahead_records = 0;
  ErwinCluster cluster(opt);

  // Populate a stable prefix, then quiesce so the measurement is read-only.
  {
    std::vector<std::unique_ptr<SharedLogClient>> writers;
    for (size_t i = 0; i < 8; ++i) {
      writers.push_back(cluster.MakeStClient());
    }
    AppenderFleet fleet(&cluster.loop(), std::move(writers), kPopulateRate, kRecordBytes,
                        /*warmup_ns=*/0);
    fleet.Start();
    cluster.RunFor(kPopulate);
    fleet.Stop();
    cluster.RunFor(50 * kMs);  // let background ordering stabilize the tail
  }
  auto tail_client = cluster.MakeStClient();
  LogPos stable = 0;
  bool tail_done = false;
  tail_client->log().CheckTail([&](Status s, LogPos, LogPos st) {
    stable = s.ok() ? st : 0;
    tail_done = true;
  });
  while (!tail_done) {
    cluster.RunFor(1 * kMs);
  }
  if (stable < kReadBatch) {
    return {};
  }

  std::vector<std::unique_ptr<ErwinStClient>> clients;
  std::vector<std::unique_ptr<LoopReader>> loops;
  for (uint32_t r = 0; r < readers; ++r) {
    clients.push_back(cluster.MakeStClient());
    loops.push_back(std::make_unique<LoopReader>(
        &cluster.loop(), clients.back()->log(), stable,
        /*start=*/(stable / readers) * r));
  }
  for (auto& l : loops) {
    l->Start();
  }
  cluster.RunFor(kMeasure);
  for (auto& l : loops) {
    l->Stop();
  }

  ScaleoutResult res;
  Histogram merged;
  uint64_t routed = 0, backup = 0;
  for (uint32_t r = 0; r < readers; ++r) {
    res.tput += static_cast<double>(loops[r]->records());
    merged.Merge(loops[r]->latency());
    const ReadPathStats& c = clients[r]->ReadPathSnapshot().counters;
    routed += c.routed_reads;
    backup += c.backup_routed;
  }
  res.tput /= static_cast<double>(kMeasure) / 1e9;
  res.mean_latency = merged.Mean();
  res.backup_share = routed > 0 ? static_cast<double>(backup) / routed : 0;
  for (uint32_t s = 0; s < cluster.num_shards(); ++s) {
    for (uint32_t r = 0; r < cluster.shard_size(s); ++r) {
      res.backup_reads += cluster.shard(s, r).stats().backup_reads;
    }
  }
  return res;
}

// Figure 10's workload (periodic checkTail + read-to-tail, Erwin-m) in both routing
// modes: the routed read path must not make tail reads slower.
struct TailResult {
  double mean = 0;
  uint64_t tail_cache_hits = 0;
};

TailResult RunFig10(uint32_t routing_mode) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 1;
  opt.shard_replication = kReplication;
  opt.with_control_plane = false;
  opt.params.client_read.read_routing_mode = routing_mode;
  ErwinCluster cluster(opt);
  std::vector<std::unique_ptr<SharedLogClient>> clients;
  for (size_t i = 0; i < 4; ++i) {
    clients.push_back(cluster.MakeMClient());
  }
  constexpr uint64_t kWarmup = 100 * kMs;
  AppenderFleet fleet(&cluster.loop(), std::move(clients), 20'000, kRecordBytes, kWarmup);
  auto reader_client = cluster.MakeMClient();
  PeriodicTailReader::Options ropt;
  ropt.period_ns = 1 * kMs;
  ropt.warmup_ns = kWarmup;
  PeriodicTailReader reader(&cluster.loop(), reader_client->log(), ropt);
  DriveAppendRead(cluster, fleet, reader, 600 * kMs);
  TailResult res;
  res.mean = reader.latency().Mean();
  res.tail_cache_hits = reader_client->ReadPathSnapshot().counters.tail_cache_hits;
  return res;
}

}  // namespace
}  // namespace lazylog

int main(int argc, char** argv) {
  using namespace lazylog;
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  PrintHeader("Read scale-out: aggregate read throughput, routed (p2c) vs primary-pinned");
  std::printf("  Erwin-st, %u shards x %u replicas, %llu-record reads over the stable prefix\n",
              kShards, kReplication, static_cast<unsigned long long>(kReadBatch));
  std::printf("  %-10s %-18s %-18s %-10s %-14s\n", "readers", "routed (rec/s)",
              "pinned (rec/s)", "speedup", "backup share");
  const std::vector<uint32_t> sweep =
      smoke ? std::vector<uint32_t>{4, 24} : std::vector<uint32_t>{1, 2, 4, 8, 16, 24, 32};
  ScaleoutResult routed24, pinned24;
  for (uint32_t readers : sweep) {
    const ScaleoutResult routed = RunScaleout(readers, /*routing_mode=*/2);
    const ScaleoutResult pinned = RunScaleout(readers, /*routing_mode=*/0);
    const double speedup = pinned.tput > 0 ? routed.tput / pinned.tput : 0;
    if (readers == 24) {
      routed24 = routed;
      pinned24 = pinned;
    }
    std::printf("  %-10u %-18.0f %-18.0f %-10.2fx %-14.2f\n", readers, routed.tput,
                pinned.tput, speedup, routed.backup_share);
    if (smoke) {
      PrintStatsJson("read_scaleout",
                     StatsFields{
                         {"readers", static_cast<double>(readers)},
                         {"routed_tput", routed.tput},
                         {"pinned_tput", pinned.tput},
                         {"speedup", speedup},
                         {"routed_mean_latency_ns", routed.mean_latency},
                         {"pinned_mean_latency_ns", pinned.mean_latency},
                         {"backup_share", routed.backup_share},
                         {"backup_reads", static_cast<double>(routed.backup_reads)},
                     });
    }
  }
  PrintPaperNote("Pinned reads funnel into the shard primaries; p2c routing spreads the");
  PrintPaperNote("same scan over every replica, so aggregate read capacity approaches");
  PrintPaperNote("replication-factor times the pinned ceiling once readers saturate it.");

  std::printf("\n-- Figure 10 workload (periodic checkTail + read-to-tail), routed vs pinned --\n");
  const TailResult routed_tail = RunFig10(/*routing_mode=*/2);
  const TailResult pinned_tail = RunFig10(/*routing_mode=*/0);
  std::printf("  routed  mean=%-10s tail-cache hits=%llu\n",
              FormatNanos(routed_tail.mean).c_str(),
              static_cast<unsigned long long>(routed_tail.tail_cache_hits));
  std::printf("  pinned  mean=%-10s tail-cache hits=%llu\n",
              FormatNanos(pinned_tail.mean).c_str(),
              static_cast<unsigned long long>(pinned_tail.tail_cache_hits));
  if (smoke) {
    PrintStatsJson("read_tail_latency",
                   StatsFields{
                       {"routed_mean_ns", routed_tail.mean},
                       {"pinned_mean_ns", pinned_tail.mean},
                       {"routed_tail_cache_hits",
                        static_cast<double>(routed_tail.tail_cache_hits)},
                   });
  }
  PrintPaperNote("Read replies piggyback the durable/stable tail, so the periodic reader");
  PrintPaperNote("skips the CheckTail round trip in either mode; routing adds no latency.");
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
  const double speedup24 = pinned24.tput > 0 ? routed24.tput / pinned24.tput : 0;
  expect(speedup24 >= 2.5, "routed throughput under 2.5x pinned at 24 readers");
  expect(routed24.backup_share >= 0.4, "backup share of routed reads under 0.4 at 24 readers");
  expect(routed24.backup_reads > 0, "no backup served a read at 24 readers");
  expect(routed24.mean_latency <= pinned24.mean_latency,
         "routed read mean above pinned at 24 readers");
  expect(routed_tail.mean <= 1.05 * pinned_tail.mean,
         "fig10 routed tail-read mean more than 5% above pinned");
  expect(routed_tail.tail_cache_hits > 0, "fig10 routed reader never hit the tail cache");
  if (rc == 0) {
    std::printf(
        "read_scaleout smoke OK: %.2fx over pinned at 24 readers, fig10 %.0fns vs %.0fns\n",
        speedup24, routed_tail.mean, pinned_tail.mean);
  }
  return rc;
}
