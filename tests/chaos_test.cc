// Chaos subsystem tests: seed-replay determinism, violation-free smoke sweeps for both
// Erwin variants, and the oracle self-test — a deliberately weakened read gate must be
// caught, and its repro options must replay the identical violating execution.
#include <gtest/gtest.h>

#include "src/chaos/chaos_runner.h"
#include "src/chaos/shrink.h"

namespace lazylog {
namespace {

ChaosOptions QuickOptions(ErwinMode mode, uint64_t seed) {
  ChaosOptions opts;
  opts.mode = mode;
  opts.seed = seed;
  opts.fault_phase_ns = 60 * kMs;
  return opts;
}

std::string Explain(const ChaosReport& report) {
  std::string out = report.ReproLine();
  for (const auto& v : report.violations) {
    out += "\n  [" + v.oracle + "] " + v.detail;
  }
  return out;
}

TEST(ChaosDeterminism, SameSeedSameDigest) {
  const ChaosOptions opts = QuickOptions(ErwinMode::kM, 3);
  const ChaosReport a = RunChaos(opts);
  const ChaosReport b = RunChaos(opts);
  EXPECT_EQ(a.digest, b.digest) << "same seed must replay byte-identically";
  EXPECT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.final_log_size, b.final_log_size);
  EXPECT_EQ(a.nemesis_actions, b.nemesis_actions);
}

TEST(ChaosDeterminism, DifferentSeedsDiverge) {
  const ChaosReport a = RunChaos(QuickOptions(ErwinMode::kM, 1));
  const ChaosReport b = RunChaos(QuickOptions(ErwinMode::kM, 2));
  EXPECT_NE(a.digest, b.digest) << "different seeds should explore different executions";
}

// Pins the default-option digests `chaos_runner --mode=both --seeds=3` prints. A change
// that must preserve event order (event loop, network, RPC, storage bookkeeping) keeps
// these values; a change that alters an execution on purpose updates them and says why.
TEST(ChaosDeterminism, GoldenDigests) {
  struct Golden {
    ErwinMode mode;
    uint64_t seed;
    uint64_t digest;
  };
  const Golden kGolden[] = {
      {ErwinMode::kM, 1, 0x90a8f22424493b00ULL},  {ErwinMode::kM, 2, 0x1319a337dadf99c6ULL},
      {ErwinMode::kM, 3, 0x06b5cabafcff0634ULL},  {ErwinMode::kSt, 1, 0xf600dabc6269908bULL},
      {ErwinMode::kSt, 2, 0x722fff407b5377f7ULL}, {ErwinMode::kSt, 3, 0x05dcad9bd267c024ULL},
  };
  for (const Golden& g : kGolden) {
    ChaosOptions opts;
    opts.mode = g.mode;
    opts.seed = g.seed;
    const ChaosReport report = RunChaos(opts);
    EXPECT_EQ(report.digest, g.digest) << report.Summary();
  }
}

TEST(ChaosSweep, ErwinMSmoke) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const ChaosReport report = RunChaos(QuickOptions(ErwinMode::kM, seed));
    EXPECT_TRUE(report.ok()) << Explain(report);
    EXPECT_GT(report.appends_acked, 0u);
    EXPECT_GT(report.final_log_size, 0u);
  }
}

TEST(ChaosSweep, ErwinStSmoke) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const ChaosReport report = RunChaos(QuickOptions(ErwinMode::kSt, seed));
    EXPECT_TRUE(report.ok()) << Explain(report);
    EXPECT_GT(report.appends_acked, 0u);
    EXPECT_GT(report.final_log_size, 0u);
  }
}

// Index-tier fault focus: with the nemesis restricted to index-node crashes and
// index<->shard partitions (plus loss to stress the delta pulls), selective reads keep
// flowing — through the surviving aggregator or the scan fallback — and every ReadNext
// window passes the stream-projection oracle.
TEST(ChaosSweep, IndexFaultsSmoke) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    ChaosOptions opts = QuickOptions(ErwinMode::kM, seed);
    ASSERT_TRUE(
        NemesisPolicy::FromFlag("index-crash,index-partition,loss", &opts.faults));
    const ChaosReport report = RunChaos(opts);
    EXPECT_TRUE(report.ok()) << Explain(report);
    EXPECT_GT(report.appends_acked, 0u);
    EXPECT_GT(report.reads_issued, 0u);
  }
}

// The oracle self-test: with the shard-side stable-gp read gate switched off, readers
// receive ordered-but-unstable records, and the read-gating oracle must flag the run.
// The repro options must then replay the identical violating execution.
TEST(ChaosOracles, WeakenedReadGateIsCaughtAndReproducible) {
  ChaosOptions violating;
  bool caught = false;
  for (uint64_t seed = 1; seed <= 5 && !caught; ++seed) {
    ChaosOptions opts = QuickOptions(ErwinMode::kM, seed);
    opts.disable_read_gate = true;
    const ChaosReport report = RunChaos(opts);
    for (const auto& v : report.violations) {
      if (v.oracle == "read-gating") {
        caught = true;
        violating = opts;
        break;
      }
    }
  }
  ASSERT_TRUE(caught) << "the weakened read gate was never detected over 5 seeds";

  // Replaying the repro options yields the same digest and the same verdict.
  const ChaosReport first = RunChaos(violating);
  const ChaosReport replay = RunChaos(violating);
  EXPECT_EQ(first.digest, replay.digest);
  ASSERT_EQ(first.violations.size(), replay.violations.size());
  for (size_t i = 0; i < first.violations.size(); ++i) {
    EXPECT_EQ(first.violations[i].oracle, replay.violations[i].oracle);
    EXPECT_EQ(first.violations[i].detail, replay.violations[i].detail);
  }
}

// The nemesis schedule itself is a pure function of the seed: planning twice against
// identically-shaped clusters yields the identical fault list.
TEST(ChaosNemesis, ScheduleIsSeedDeterministic) {
  auto plan = [](uint64_t seed) {
    ErwinClusterOptions copts;
    copts.params.seed = seed;
    ErwinCluster cluster(copts);
    ChaosHistory history(&cluster.loop());
    Nemesis nemesis(&cluster, &history, seed, NemesisPolicy{});
    nemesis.Arm(10 * kMs, 100 * kMs, {});
    std::vector<std::string> described;
    for (const FaultAction& a : nemesis.schedule()) {
      described.push_back(a.Describe());
    }
    return described;
  };
  const auto a = plan(42);
  const auto b = plan(42);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a, plan(43));
}

// Fencing self-test: with the shard epoch fence switched off, a sequencing leader cut
// off from ZK (but still client/shard-reachable) keeps ordering after its deposition —
// the oracles must catch the split-brain, and the delta-debugged schedule must be a
// smaller-or-equal repro that still violates deterministically.
TEST(ChaosOracles, DisabledFencingIsCaughtAndShrunk) {
  ChaosOptions violating;
  ChaosReport violating_report;
  bool caught = false;
  for (uint64_t seed = 1; seed <= 6 && !caught; ++seed) {
    ChaosOptions opts = QuickOptions(ErwinMode::kM, seed);
    opts.fault_phase_ns = 120 * kMs;
    opts.disable_fencing = true;
    ASSERT_TRUE(NemesisPolicy::FromFlag("seq-zk-partition,loss", &opts.faults));
    const ChaosReport report = RunChaos(opts);
    if (!report.ok()) {
      caught = true;
      violating = opts;
      violating_report = report;
    }
  }
  ASSERT_TRUE(caught) << "disabled fencing was never detected over 6 seeds";

  const ShrinkResult shrunk = ShrinkSchedule(violating, violating_report.schedule);
  EXPECT_LE(shrunk.minimal_actions, shrunk.original_actions);
  EXPECT_GE(shrunk.minimal_actions, 1u);
  EXPECT_FALSE(shrunk.violation.empty());

  // The minimal repro replays deterministically and still violates; the identical
  // schedule with the fence restored is clean — the fence is what prevents the
  // split-brain, not a lucky interleaving.
  const ChaosReport a = RunChaos(shrunk.minimal);
  const ChaosReport b = RunChaos(shrunk.minimal);
  EXPECT_FALSE(a.ok());
  EXPECT_EQ(a.digest, b.digest);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].detail, b.violations[i].detail);
  }
  ChaosOptions fenced = shrunk.minimal;
  fenced.disable_fencing = false;
  EXPECT_TRUE(RunChaos(fenced).ok())
      << "the minimal split-brain schedule must be harmless with fencing on";
}

// Fault schedules round-trip through their textual form, so a repro line's --schedule=
// replays the exact planned actions (including virtual-slot targets and magnitudes).
TEST(ChaosNemesis, ScheduleSerializationRoundTrips) {
  ErwinClusterOptions copts;
  copts.params.seed = 42;
  ErwinCluster cluster(copts);
  ChaosHistory history(&cluster.loop());
  Nemesis nemesis(&cluster, &history, 42, NemesisPolicy{});
  nemesis.Arm(10 * kMs, 100 * kMs, {});
  ASSERT_FALSE(nemesis.schedule().empty());

  const std::string text = SerializeSchedule(nemesis.schedule());
  std::vector<FaultAction> parsed;
  ASSERT_TRUE(ParseSchedule(text, &parsed)) << text;
  ASSERT_EQ(parsed.size(), nemesis.schedule().size());
  EXPECT_EQ(SerializeSchedule(parsed), text);
  for (size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].Describe(), nemesis.schedule()[i].Describe());
  }

  // The empty schedule has a sentinel form distinct from "plan from seed".
  std::vector<FaultAction> empty;
  EXPECT_EQ(SerializeSchedule(empty), "none");
  ASSERT_TRUE(ParseSchedule("none", &parsed));
  EXPECT_TRUE(parsed.empty());
  ASSERT_TRUE(ParseSchedule("", &parsed));
  EXPECT_TRUE(parsed.empty());
  EXPECT_FALSE(ParseSchedule("garbage@", &parsed));
}

TEST(ChaosNemesis, FaultsFlagRoundTrips) {
  NemesisPolicy all;
  EXPECT_EQ(all.ToFlag(), "all");
  NemesisPolicy parsed;
  ASSERT_TRUE(NemesisPolicy::FromFlag("seq-crash,loss,delay", &parsed));
  EXPECT_TRUE(parsed.allows(FaultKind::kCrashSeqReplica));
  EXPECT_TRUE(parsed.allows(FaultKind::kLossWindow));
  EXPECT_TRUE(parsed.allows(FaultKind::kDelaySpike));
  EXPECT_FALSE(parsed.allows(FaultKind::kReplaceShardReplica));
  EXPECT_FALSE(parsed.allows(FaultKind::kClientPartition));
  EXPECT_FALSE(parsed.allows(FaultKind::kDiskSlowdown));
  EXPECT_FALSE(parsed.allows(FaultKind::kClientCrashAppend));
  EXPECT_EQ(parsed.ToFlag(), "seq-crash,loss,delay");
  ASSERT_TRUE(NemesisPolicy::FromFlag("index-crash,index-partition", &parsed));
  EXPECT_TRUE(parsed.allows(FaultKind::kCrashIndexNode));
  EXPECT_TRUE(parsed.allows(FaultKind::kIndexPartition));
  EXPECT_FALSE(parsed.allows(FaultKind::kCrashSeqReplica));
  EXPECT_EQ(parsed.ToFlag(), "index-crash,index-partition");
  ASSERT_TRUE(NemesisPolicy::FromFlag("none", &parsed));
  EXPECT_EQ(parsed.ToFlag(), "none");
  EXPECT_FALSE(NemesisPolicy::FromFlag("bogus", &parsed));
}

}  // namespace
}  // namespace lazylog
