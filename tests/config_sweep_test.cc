// Configuration sweeps: the protocols must be correct for any sequencing-layer size
// (f+1 replicas for f failures), shard replication factor, and shard count — in both
// Erwin variants. Each configuration runs a small sequential workload and checks
// order, tail accounting, and GC convergence.
#include <gtest/gtest.h>

#include "src/lazylog/erwin_cluster.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

struct SweepParams {
  ErwinMode mode;
  int seq_replicas;
  uint32_t shards;
  uint32_t shard_replication;
};

class ConfigSweepTest : public ::testing::TestWithParam<SweepParams> {};

TEST_P(ConfigSweepTest, SequentialWorkloadIsCorrect) {
  const SweepParams p = GetParam();
  ErwinClusterOptions opt;
  opt.mode = p.mode;
  opt.num_shards = p.shards;
  opt.shard_replication = p.shard_replication;
  opt.with_control_plane = false;
  opt.params.seq.num_replicas = p.seq_replicas;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeClient();

  constexpr int kN = 12;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "r" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);

  // Tail accounting.
  TailResult tail = TailSyncly(cluster.loop(), *client);
  ASSERT_TRUE(tail.status.ok());
  EXPECT_EQ(tail.durable, static_cast<LogPos>(kN));
  EXPECT_EQ(tail.stable, static_cast<LogPos>(kN));

  // Real-time order preserved.
  auto records = ReadSyncly(cluster.loop(), *client, 0, kN, 10 * kSec);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ((*records)[i].pos, static_cast<LogPos>(i));
    EXPECT_EQ((*records)[i].record.payload, "r" + std::to_string(i));
  }

  // GC converged on every sequencing replica.
  for (uint32_t i = 0; i < cluster.num_seq_replicas(); ++i) {
    EXPECT_EQ(cluster.seq_replica(i).unordered_size(), 0u);
    EXPECT_EQ(cluster.seq_replica(i).ordered_gp(), static_cast<LogPos>(kN));
  }
  // Every shard replica of every shard converged to the same contents.
  for (uint32_t s = 0; s < p.shards; ++s) {
    for (uint32_t r = 1; r < p.shard_replication; ++r) {
      EXPECT_EQ(cluster.shard(s, r).ordered_records(), cluster.shard(s, 0).ordered_records());
    }
  }
}

std::vector<SweepParams> AllConfigs() {
  std::vector<SweepParams> out;
  for (ErwinMode mode : {ErwinMode::kM, ErwinMode::kSt}) {
    for (int seq : {1, 2, 3, 5}) {
      out.push_back(SweepParams{mode, seq, 2, 2});
    }
    for (uint32_t shards : {1u, 5u}) {
      out.push_back(SweepParams{mode, 3, shards, 2});
    }
    for (uint32_t repl : {1u, 3u}) {
      out.push_back(SweepParams{mode, 3, 2, repl});
    }
  }
  return out;
}

std::string Name(const ::testing::TestParamInfo<SweepParams>& info) {
  const SweepParams& p = info.param;
  return std::string(p.mode == ErwinMode::kM ? "M" : "St") + "_seq" +
         std::to_string(p.seq_replicas) + "_shards" + std::to_string(p.shards) + "_repl" +
         std::to_string(p.shard_replication);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConfigSweepTest, ::testing::ValuesIn(AllConfigs()), Name);

// Second sweep axis: the ordering tick and admission-control knobs. The protocols must
// stay correct across the tick's range — a 5 us or a 200 us tick — with the gate
// disabled outright, and with a toy watermark band. (Overload *dynamics* are covered
// by overload_test.cc; this guards bare correctness of the knob space.)
struct KnobParams {
  const char* name;
  bool admission;
  uint64_t interval_ns;
  uint64_t ring_high;
  uint64_t ring_low;
};

// Print a row by its name. Without this gtest prints the raw struct bytes, and the
// `name` pointer makes the listed test names depend on where the linker placed the
// string literals.
void PrintTo(const KnobParams& k, std::ostream* os) { *os << k.name; }

class OrderingKnobSweepTest : public ::testing::TestWithParam<KnobParams> {};

TEST_P(OrderingKnobSweepTest, SequentialWorkloadIsCorrect) {
  const KnobParams k = GetParam();
  for (ErwinMode mode : {ErwinMode::kM, ErwinMode::kSt}) {
    ErwinClusterOptions opt;
    opt.mode = mode;
    opt.num_shards = 2;
    opt.shard_replication = 2;
    opt.with_control_plane = false;
    opt.params.seq.admission_control = k.admission;
    opt.params.seq.ordering_interval_ns = k.interval_ns;
    opt.params.seq.ring_high_watermark = k.ring_high;
    opt.params.seq.ring_low_watermark = k.ring_low;
    ErwinCluster cluster(opt);
    auto client = cluster.MakeClient();

    constexpr int kN = 12;
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "r" + std::to_string(i)));
    }
    cluster.RunFor(100 * kMs);

    auto records = ReadSyncly(cluster.loop(), *client, 0, kN, 10 * kSec);
    ASSERT_TRUE(records.has_value()) << k.name;
    ASSERT_EQ(records->size(), static_cast<size_t>(kN)) << k.name;
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ((*records)[i].pos, static_cast<LogPos>(i));
      EXPECT_EQ((*records)[i].record.payload, "r" + std::to_string(i));
    }
    for (uint32_t i = 0; i < cluster.num_seq_replicas(); ++i) {
      EXPECT_EQ(cluster.seq_replica(i).unordered_size(), 0u) << k.name;
      EXPECT_EQ(cluster.seq_replica(i).ordered_gp(), static_cast<LogPos>(kN)) << k.name;
    }
    // With roomy watermarks a sequential workload must never trip the gate. (The
    // tiny_band row legitimately can: the ring holds entries until shards ack the
    // ordered windows, so even one-outstanding-append occupancy tracks that RTT.)
    if (k.ring_high >= 64) {
      EXPECT_EQ(cluster.seq_replica(0).StatsSnapshot().counters.overload_rejected, 0u) << k.name;
    }
  }
}

std::vector<KnobParams> AllKnobs() {
  return {
      {"tight_floor", true, 5 * kUs, 4096, 2048},
      {"pinned_ceiling", true, 200 * kUs, 4096, 2048},
      {"static_arm", true, 30 * kUs, 4096, 2048},
      {"gate_off", false, 30 * kUs, 4096, 2048},
      {"tiny_band", true, 30 * kUs, 8, 4},
  };
}

std::string KnobName(const ::testing::TestParamInfo<KnobParams>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Knobs, OrderingKnobSweepTest, ::testing::ValuesIn(AllKnobs()),
                         KnobName);

}  // namespace
}  // namespace lazylog
