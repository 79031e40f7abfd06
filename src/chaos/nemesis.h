// Seeded nemesis: plans and injects a schedule of composable faults against a live
// ErwinCluster. The schedule is a pure function of (seed, policy, cluster shape), so a
// same-seed replay injects the identical faults at the identical simulated times.
//
// Fault planning is cursor-based: actions are laid out sequentially in time with
// randomized gaps, so heavyweight actions never overlap (a loss window during a shard
// state-copy would abort the copy, which is outside the system's fault model).
// Sequencing-layer depositions — crashes and ZK-partitions alike — are capped at
// f = num_seq_replicas - 1, the designed fault bound.
//
// A schedule also round-trips through text (SerializeSchedule / ParseSchedule), which
// is what the shrinker (shrink.h) and the --schedule= repro flag build on.
#ifndef SRC_CHAOS_NEMESIS_H_
#define SRC_CHAOS_NEMESIS_H_

#include <bitset>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/chaos/history.h"
#include "src/common/random.h"
#include "src/lazylog/erwin_cluster.h"

namespace lazylog {

enum class FaultKind : uint8_t {
  kCrashSeqReplica,      // permanent crash of one sequencing replica (<= f total)
  kReplaceShardReplica,  // crash + state-copy replacement of a non-primary shard replica
  kClientPartition,      // temporary client<->server partition, healed after a window
  kLossWindow,           // uniform message-loss probability for a window
  kDelaySpike,           // extra one-way delay on every message for a window
  kDiskSlowdown,         // one shard server's disk runs N x slower for a window
  kClientCrashAppend,    // Erwin-st half-append (client dies mid-append); runner hook
  // Asymmetric partitions (the fence's reason to exist): the victim stays reachable
  // from everyone *except* the cut peers.
  kSeqZkPartition,   // one seq replica loses ZK + controller > session timeout: it is
                     // deposed while still serving clients (consumes the <= f budget)
  kCtrlZkPartition,  // the controller loses ZK for a window (blind, must catch up)
  kServerPartition,  // one server<->server link cut for a window (seq/shard/controller)
  kOverloadBurst,    // writer arrival-rate multiplier for a window (admission control
                     // under fire); runner hook scales the workload
  kCrashIndexNode,   // permanent crash of one index aggregator (>= 1 kept alive);
                     // selective reads routed to it fall back to scans
  kIndexPartition,   // one index node cut from every shard primary for a window: its
                     // delta pulls stall, so indexed_upto freezes while the log grows
  // Shard-primary failover (promotion): both shrink the shard's replica set by one
  // permanently (the deposed primary is dropped from the committed order).
  kShardPrimaryCrash,  // crash a shard primary; the controller promotes a backup
  kPrimaryIsolation,   // isolate a shard primary (server links cut, process alive):
                       // the zombie keeps firing no-op timers into the partition,
                       // which the promotion epoch + sender fence must render harmless
};

inline constexpr size_t kNumFaultKinds = static_cast<size_t>(FaultKind::kPrimaryIsolation) + 1;

// Which fault kinds the nemesis may draw from (all by default). Serializes to/from the
// repro line's --faults= flag: "all", "none", or a comma list of kind names in enum
// order ("seq-crash", "shard-replace", ..., "primary-isolation").
struct NemesisPolicy {
  std::bitset<kNumFaultKinds> kinds = std::bitset<kNumFaultKinds>().set();

  bool allows(FaultKind k) const { return kinds.test(static_cast<size_t>(k)); }
  std::string ToFlag() const;
  // Parses "all" / "none" / "seq-crash,loss,...". Returns false on an unknown name.
  static bool FromFlag(const std::string& flag, NemesisPolicy* out);
};

// One planned fault. `at` is absolute simulated time; window faults heal at
// `at + duration_ns`.
struct FaultAction {
  FaultKind kind = FaultKind::kLossWindow;
  SimTime at = 0;
  uint64_t duration_ns = 0;
  uint32_t target = 0;    // seq replica index / shard index / client slot / server slot
  uint32_t target2 = 0;   // shard replica index / virtual server slot (partitions)
  double magnitude = 0;   // loss probability / delay ns / disk slowdown factor

  std::string Describe() const;
  // Exact text round-trip: "kind@at:dur:t1:t2:mag" with the magnitude in hexfloat.
  std::string ToString() const;
  static bool FromString(const std::string& text, FaultAction* out);
};

// Comma-separated FaultAction::ToString list; "" for an empty schedule.
std::string SerializeSchedule(const std::vector<FaultAction>& schedule);
bool ParseSchedule(const std::string& text, std::vector<FaultAction>* out);

class Nemesis {
 public:
  // `client_nodes` are the workload clients' network node ids (partition targets).
  Nemesis(ErwinCluster* cluster, ChaosHistory* history, uint64_t seed, NemesisPolicy policy);

  // Called after a shard-replica replacement so the runner can re-attach observers to
  // the fresh ShardServer (clients discover the change through the control plane).
  using ReplaceHook = std::function<void(uint32_t shard, uint32_t replica_index,
                                         NodeId old_node, NodeId new_node)>;
  void SetReplaceHook(ReplaceHook hook) { replace_hook_ = std::move(hook); }
  // Called to inject an Erwin-st half-append (the runner owns the injector client).
  using ClientCrashHook = std::function<void()>;
  void SetClientCrashHook(ClientCrashHook hook) { client_crash_hook_ = std::move(hook); }
  // Called with the burst arrival multiplier when an overload burst starts, and with
  // 1.0 when it heals (the runner scales its writers' issue rate by the factor).
  using OverloadHook = std::function<void(double factor)>;
  void SetOverloadHook(OverloadHook hook) { overload_hook_ = std::move(hook); }

  // Plans the fault schedule for [start, end) and arms it on the cluster's event loop.
  void Arm(SimTime start, SimTime end, std::vector<NodeId> client_nodes);
  // Arms a pre-planned schedule verbatim (shrinker replays, --schedule= repros). The
  // policy is ignored; the schedule is trusted as-is.
  void ArmSchedule(std::vector<FaultAction> schedule, std::vector<NodeId> client_nodes);

  // Heals every window fault immediately (safety net called after the fault phase; the
  // planned heal events are idempotent with this).
  void HealAll();

  const std::vector<FaultAction>& schedule() const { return schedule_; }
  uint32_t seq_crashes_planned() const { return seq_crashes_planned_; }

 private:
  void Plan(SimTime start, SimTime end);
  void ArmEvents();
  void Execute(const FaultAction& a);
  void Heal(const FaultAction& a);
  std::vector<FaultKind> DrawableKinds() const;
  // Seq replica indexes not yet deposed (crashed or ZK-partitioned) by the schedule.
  std::vector<uint32_t> UndeposedSeqReplicas() const;
  // Index node indexes not yet crashed by the schedule (>= 1 must stay alive).
  std::vector<uint32_t> UncrashedIndexNodes() const;
  // Shards that would still have a backup to promote after the already-planned
  // primary depositions (each one permanently shrinks the replica set by one).
  std::vector<uint32_t> PromotableShards() const;
  // Resolves a virtual server slot (seq replicas first, then shard (s, r) slots, then
  // the controller) to the node currently occupying it; kInvalidNode if out of range.
  NodeId ResolveServerSlot(uint32_t slot) const;
  uint32_t NumServerSlots() const;

  ErwinCluster* cluster_;
  ChaosHistory* history_;
  Rng rng_;
  NemesisPolicy policy_;
  ReplaceHook replace_hook_;
  ClientCrashHook client_crash_hook_;
  OverloadHook overload_hook_;
  std::vector<NodeId> client_nodes_;
  std::vector<std::pair<NodeId, NodeId>> partitioned_pairs_;  // live link cuts
  std::vector<FaultAction> schedule_;
  uint32_t seq_crashes_planned_ = 0;
  uint32_t seq_crash_budget_ = 0;
};

}  // namespace lazylog

#endif  // SRC_CHAOS_NEMESIS_H_
