// Figure 15: total order across Kafka shards with low latency (Erwin-m's black-box
// bolt-on, §6.8). Standalone KafkaLite appends pay producer linger batching plus
// acks=all durable replication (~ms); Erwin-m with KafkaLite as its shards finishes
// appends at the sequencing layer in 1 RTT (~us) and pushes to Kafka in the background
// — a ~3-orders-of-magnitude latency reduction while adding linearizable total order
// across shards.
//
// --smoke runs the same configs and exits nonzero unless, at each, standalone Kafka's
// mean is at least 5 ms, Erwin-m's over Kafka at most 20 us, and the reduction at least
// 300x: the shape that Kafka's linger and broker cost set.
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/baselines/kafkalite/kafkalite.h"
#include "src/lazylog/erwin_m_client.h"
#include "src/seq/sequencing_replica.h"

namespace lazylog {
namespace {

constexpr uint64_t kWarmup = 200 * kMs;
constexpr uint64_t kRun = 1'000 * kMs;
constexpr size_t kRecordBytes = 1024;

Histogram RunStandaloneKafka(uint32_t partitions, double rate) {
  SimParams params;
  KafkaCluster cluster(partitions, /*replication=*/2, params);
  struct ProducerLoad {
    std::unique_ptr<KafkaProducer> producer;
  };
  std::vector<std::unique_ptr<KafkaProducer>> producers;
  for (uint32_t p = 0; p < partitions; ++p) {
    for (int i = 0; i < 4; ++i) {
      producers.push_back(cluster.MakeProducer(p));
    }
  }
  Histogram h;
  // Open-loop produce load spread over the producers.
  const double per = rate / producers.size();
  const uint64_t interval = static_cast<uint64_t>(1e9 / per);
  Rng rng(5);
  for (size_t i = 0; i < producers.size(); ++i) {
    KafkaProducer* prod = producers[i].get();
    auto issue = std::make_shared<std::function<void()>>();
    *issue = [&cluster, &h, prod, interval, issue]() {
      const SimTime start = cluster.loop().Now();
      prod->Produce(std::string(kRecordBytes, 'k'), [&cluster, &h, start](Status s) {
        if (s.ok() && start >= kWarmup) {
          h.Add(cluster.loop().Now() - start);
        }
      });
      cluster.loop().Schedule(interval, [issue]() { (*issue)(); });
    };
    cluster.loop().Schedule(rng.Uniform(interval), [issue]() { (*issue)(); });
  }
  cluster.RunFor(kRun);
  return h;
}

Histogram RunErwinOnKafka(uint32_t partitions, double rate) {
  // Hand-assembled Erwin-m deployment whose "shards" are KafkaShardAdapters over
  // KafkaLite partitions (leader + 1 follower each).
  SimParams params;
  EventLoop loop;
  Network net(&loop, params.net, params.seed);
  std::vector<std::unique_ptr<KafkaBroker>> brokers;
  std::vector<std::unique_ptr<KafkaShardAdapter>> adapters;
  std::vector<NodeId> adapter_ids;
  for (uint32_t p = 0; p < partitions; ++p) {
    auto leader = std::make_unique<KafkaBroker>(&net, params, p, true);
    auto follower = std::make_unique<KafkaBroker>(&net, params, p, false);
    leader->SetFollowers({follower->node_id()});
    adapters.push_back(
        std::make_unique<KafkaShardAdapter>(&net, params, p, leader->node_id()));
    adapter_ids.push_back(adapters.back()->node_id());
    brokers.push_back(std::move(leader));
    brokers.push_back(std::move(follower));
  }
  std::vector<std::unique_ptr<SequencingReplica>> seq;
  std::vector<NodeId> seq_ids;
  for (int i = 0; i < params.seq.num_replicas; ++i) {
    seq.push_back(std::make_unique<SequencingReplica>(&net, params, ErwinMode::kM, i));
    seq_ids.push_back(seq.back()->node_id());
  }
  for (auto& rep : seq) {
    rep->Start(seq_ids, adapter_ids, adapter_ids);
  }
  ClusterView view;
  view.seq_config = seq_ids;
  for (NodeId a : adapter_ids) {
    view.shards.push_back({a});
  }
  std::vector<std::unique_ptr<SharedLogClient>> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(std::make_unique<ErwinMClient>(&net, params, view, 100 + i));
  }
  AppenderFleet fleet(&loop, std::move(clients), rate, kRecordBytes, kWarmup);
  fleet.Start();
  loop.RunUntil(kRun);
  fleet.Stop();
  return fleet.MergedLatency();
}

}  // namespace
}  // namespace lazylog

int main(int argc, char** argv) {
  using namespace lazylog;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  int rc = 0;
  PrintHeader("Figure 15: Total order across Kafka shards (standalone Kafka vs Erwin-m+Kafka)");
  struct Config {
    uint32_t shards;
    double rate;
    const char* label;
  };
  for (const Config& c : {Config{1, 70'000, "1-shard @70K ops/s"},
                          Config{3, 128'000, "3-shards @128K ops/s"}}) {
    std::printf("\n-- %s --\n", c.label);
    Histogram kafka = RunStandaloneKafka(c.shards, c.rate);
    Histogram erwin = RunErwinOnKafka(c.shards, c.rate);
    PrintLatencyRow("Kafka stand-alone (per-shard order)", kafka);
    PrintLatencyRow("Erwin-m w/ Kafka shards (total order)", erwin);
    std::printf("  reduction: mean %.0fx\n", kafka.Mean() / erwin.Mean());
    if (smoke && (kafka.Mean() < 5 * kMs || erwin.Mean() > 20 * kUs ||
                  kafka.Mean() < 300 * erwin.Mean())) {
      std::fprintf(stderr, "SMOKE FAIL: %s: Kafka mean %s, Erwin-m mean %s (want >= 5ms, "
                   "<= 20us and a reduction >= 300x)\n", c.label,
                   FormatNanos(kafka.Mean()).c_str(), FormatNanos(erwin.Mean()).c_str());
      rc = 1;
    }
  }
  PrintPaperNote("Erwin-m reduces latency by ~3 orders of magnitude while upgrading");
  PrintPaperNote("per-shard order to linearizable total order across Kafka shards (Fig 15).");
  if (smoke && rc == 0) {
    std::printf("fig15 smoke OK: Kafka mean >= 5ms, Erwin-m mean <= 20us, reduction >= 300x "
                "at 1 and 3 shards\n");
  }
  return rc;
}
