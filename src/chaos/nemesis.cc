#include "src/chaos/nemesis.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "src/common/logging.h"

namespace lazylog {

namespace {

const char* KindName(FaultKind k) {
  switch (k) {
    case FaultKind::kCrashSeqReplica: return "seq-crash";
    case FaultKind::kReplaceShardReplica: return "shard-replace";
    case FaultKind::kClientPartition: return "partition";
    case FaultKind::kLossWindow: return "loss";
    case FaultKind::kDelaySpike: return "delay";
    case FaultKind::kDiskSlowdown: return "disk-slow";
    case FaultKind::kClientCrashAppend: return "client-crash";
    case FaultKind::kSeqZkPartition: return "seq-zk-partition";
    case FaultKind::kCtrlZkPartition: return "ctrl-zk-partition";
    case FaultKind::kServerPartition: return "server-partition";
    case FaultKind::kOverloadBurst: return "overload-burst";
    case FaultKind::kCrashIndexNode: return "index-crash";
    case FaultKind::kIndexPartition: return "index-partition";
    case FaultKind::kShardPrimaryCrash: return "shard-primary-crash";
    case FaultKind::kPrimaryIsolation: return "primary-isolation";
  }
  return "?";
}

bool KindFromName(const std::string& name, FaultKind* out) {
  for (size_t k = 0; k < kNumFaultKinds; ++k) {
    if (name == KindName(static_cast<FaultKind>(k))) {
      *out = static_cast<FaultKind>(k);
      return true;
    }
  }
  return false;
}

}  // namespace

std::string NemesisPolicy::ToFlag() const {
  if (kinds.all()) {
    return "all";
  }
  std::string out;
  for (size_t k = 0; k < kNumFaultKinds; ++k) {
    if (kinds.test(k)) {
      out += out.empty() ? "" : ",";
      out += KindName(static_cast<FaultKind>(k));
    }
  }
  return out.empty() ? "none" : out;
}

bool NemesisPolicy::FromFlag(const std::string& flag, NemesisPolicy* out) {
  NemesisPolicy p;
  if (flag != "all") {
    p.kinds.reset();
  }
  if (flag != "all" && flag != "none") {
    size_t pos = 0;
    while (pos <= flag.size()) {
      const size_t comma = flag.find(',', pos);
      FaultKind kind;
      if (!KindFromName(flag.substr(pos, comma == std::string::npos ? std::string::npos
                                                                    : comma - pos),
                        &kind)) {
        return false;
      }
      p.kinds.set(static_cast<size_t>(kind));
      if (comma == std::string::npos) {
        break;
      }
      pos = comma + 1;
    }
  }
  *out = p;
  return true;
}

std::string FaultAction::Describe() const {
  std::ostringstream os;
  os << KindName(kind) << "@" << at / kUs << "us";
  switch (kind) {
    case FaultKind::kCrashSeqReplica:
      os << " replica=" << target;
      break;
    case FaultKind::kReplaceShardReplica:
      os << " shard=" << target << " replica=" << target2;
      break;
    case FaultKind::kClientPartition:
      os << " client-slot=" << target << " server-slot=" << target2 << " for "
         << duration_ns / kUs << "us";
      break;
    case FaultKind::kLossWindow:
      os << " p=" << magnitude << " for " << duration_ns / kUs << "us";
      break;
    case FaultKind::kDelaySpike:
      os << " +" << static_cast<uint64_t>(magnitude) / kUs << "us for "
         << duration_ns / kUs << "us";
      break;
    case FaultKind::kDiskSlowdown:
      os << " shard=" << target << " replica=" << target2 << " x" << magnitude << " for "
         << duration_ns / kUs << "us";
      break;
    case FaultKind::kClientCrashAppend:
      break;
    case FaultKind::kSeqZkPartition:
      os << " replica=" << target << " cut from zk+controller for " << duration_ns / kUs
         << "us";
      break;
    case FaultKind::kCtrlZkPartition:
      os << " controller cut from zk for " << duration_ns / kUs << "us";
      break;
    case FaultKind::kServerPartition:
      os << " server-slot=" << target << " <-> server-slot=" << target2 << " for "
         << duration_ns / kUs << "us";
      break;
    case FaultKind::kOverloadBurst:
      os << " x" << magnitude << " arrival rate for " << duration_ns / kUs << "us";
      break;
    case FaultKind::kCrashIndexNode:
      os << " index-node=" << target;
      break;
    case FaultKind::kIndexPartition:
      os << " index-node=" << target << " cut from shard primaries for "
         << duration_ns / kUs << "us";
      break;
    case FaultKind::kShardPrimaryCrash:
      os << " shard=" << target << " (primary crashed; backup promotion)";
      break;
    case FaultKind::kPrimaryIsolation:
      os << " shard=" << target << " (primary isolated; backup promotion)";
      break;
  }
  return os.str();
}

std::string FaultAction::ToString() const {
  // Hexfloat keeps the magnitude bit-exact across the text round-trip.
  char mag[64];
  std::snprintf(mag, sizeof(mag), "%a", magnitude);
  std::ostringstream os;
  os << KindName(kind) << "@" << at << ":" << duration_ns << ":" << target << ":"
     << target2 << ":" << mag;
  return os.str();
}

bool FaultAction::FromString(const std::string& text, FaultAction* out) {
  const size_t at_pos = text.find('@');
  if (at_pos == std::string::npos) {
    return false;
  }
  FaultAction a;
  if (!KindFromName(text.substr(0, at_pos), &a.kind)) {
    return false;
  }
  std::vector<std::string> fields;
  size_t pos = at_pos + 1;
  while (pos <= text.size()) {
    const size_t colon = text.find(':', pos);
    fields.push_back(
        text.substr(pos, colon == std::string::npos ? std::string::npos : colon - pos));
    if (colon == std::string::npos) {
      break;
    }
    pos = colon + 1;
  }
  if (fields.size() != 5) {
    return false;
  }
  char* end = nullptr;
  a.at = std::strtoull(fields[0].c_str(), &end, 10);
  if (*end != '\0') return false;
  a.duration_ns = std::strtoull(fields[1].c_str(), &end, 10);
  if (*end != '\0') return false;
  a.target = static_cast<uint32_t>(std::strtoul(fields[2].c_str(), &end, 10));
  if (*end != '\0') return false;
  a.target2 = static_cast<uint32_t>(std::strtoul(fields[3].c_str(), &end, 10));
  if (*end != '\0') return false;
  a.magnitude = std::strtod(fields[4].c_str(), &end);
  if (*end != '\0') return false;
  *out = a;
  return true;
}

std::string SerializeSchedule(const std::vector<FaultAction>& schedule) {
  // "none" (not "") so an empty schedule survives the trip through
  // ChaosOptions::forced_schedule, where "" means "plan from the seed".
  if (schedule.empty()) {
    return "none";
  }
  std::string out;
  for (const FaultAction& a : schedule) {
    out += out.empty() ? "" : ",";
    out += a.ToString();
  }
  return out;
}

bool ParseSchedule(const std::string& text, std::vector<FaultAction>* out) {
  out->clear();
  if (text.empty() || text == "none") {
    return true;
  }
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t comma = text.find(',', pos);
    const std::string one =
        text.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    FaultAction a;
    if (!FaultAction::FromString(one, &a)) {
      return false;
    }
    out->push_back(a);
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return true;
}

Nemesis::Nemesis(ErwinCluster* cluster, ChaosHistory* history, uint64_t seed,
                 NemesisPolicy policy)
    : cluster_(cluster),
      history_(history),
      rng_(seed ^ 0x6e656d6573697321ULL),
      policy_(policy) {
  // The sequencing layer tolerates f = n-1 deposition failures (appends require all
  // live view members; a view excluding the deposed replicas continues). A replica
  // partitioned from ZK past the session timeout is deposed exactly like a crash — it
  // just stays up to tempt clients, which is the case the fence exists for.
  const uint32_t f =
      cluster_->num_seq_replicas() > 0 ? cluster_->num_seq_replicas() - 1 : 0;
  seq_crash_budget_ = f;
}

std::vector<uint32_t> Nemesis::UncrashedIndexNodes() const {
  std::vector<uint32_t> alive;
  for (uint32_t i = 0; i < cluster_->num_index_nodes(); ++i) {
    bool crashed = false;
    for (const FaultAction& prev : schedule_) {
      crashed |= prev.kind == FaultKind::kCrashIndexNode && prev.target == i;
    }
    if (!crashed) {
      alive.push_back(i);
    }
  }
  return alive;
}

std::vector<uint32_t> Nemesis::PromotableShards() const {
  std::vector<uint32_t> out;
  for (uint32_t s = 0; s < cluster_->num_shards(); ++s) {
    // Each planned primary deposition permanently drops one replica from the shard's
    // committed order; keep planning only while a backup would remain to promote.
    uint32_t killed = 0;
    for (const FaultAction& prev : schedule_) {
      killed += (prev.kind == FaultKind::kShardPrimaryCrash ||
                 prev.kind == FaultKind::kPrimaryIsolation) &&
                prev.target == s;
    }
    if (cluster_->shard_replication() - killed >= 2) {
      out.push_back(s);
    }
  }
  return out;
}

std::vector<uint32_t> Nemesis::UndeposedSeqReplicas() const {
  std::vector<uint32_t> alive;
  for (uint32_t i = 0; i < cluster_->num_seq_replicas(); ++i) {
    bool deposed = false;
    for (const FaultAction& prev : schedule_) {
      deposed |= (prev.kind == FaultKind::kCrashSeqReplica ||
                  prev.kind == FaultKind::kSeqZkPartition) &&
                 prev.target == i;
    }
    if (!deposed) {
      alive.push_back(i);
    }
  }
  return alive;
}

uint32_t Nemesis::NumServerSlots() const {
  return cluster_->num_seq_replicas() +
         cluster_->num_shards() * cluster_->shard_replication() +
         (cluster_->controller() != nullptr ? 1 : 0);
}

NodeId Nemesis::ResolveServerSlot(uint32_t slot) const {
  const uint32_t num_seq = cluster_->num_seq_replicas();
  if (slot < num_seq) {
    return cluster_->seq_replica(slot).node_id();
  }
  slot -= num_seq;
  const uint32_t shard_slots = cluster_->num_shards() * cluster_->shard_replication();
  if (slot < shard_slots) {
    const uint32_t s = slot / cluster_->shard_replication();
    const uint32_t r = slot % cluster_->shard_replication();
    // A primary failover may have shrunk the shard below its initial replication; a
    // slot pointing past the current set resolves to nothing.
    if (r >= cluster_->shard_size(s)) {
      return kInvalidNode;
    }
    return cluster_->shard(s, r).node_id();
  }
  slot -= shard_slots;
  if (slot == 0 && cluster_->controller() != nullptr) {
    return cluster_->controller()->node_id();
  }
  return kInvalidNode;
}

std::vector<FaultKind> Nemesis::DrawableKinds() const {
  const bool has_controller = cluster_->controller() != nullptr;
  const bool seq_budget_left = seq_crashes_planned_ < seq_crash_budget_ && has_controller;
  std::vector<FaultKind> kinds;
  for (size_t k = 0; k < kNumFaultKinds; ++k) {
    const FaultKind kind = static_cast<FaultKind>(k);
    bool drawable = true;
    switch (kind) {
      case FaultKind::kCrashSeqReplica:
      case FaultKind::kSeqZkPartition:
        drawable = seq_budget_left;
        break;
      case FaultKind::kReplaceShardReplica:
        drawable = cluster_->shard_replication() > 1;
        break;
      case FaultKind::kClientPartition:
        drawable = !client_nodes_.empty();
        break;
      case FaultKind::kLossWindow:
      case FaultKind::kDelaySpike:
      case FaultKind::kDiskSlowdown:
        break;
      case FaultKind::kClientCrashAppend:  // Erwin-st half-appends
        drawable = cluster_->mode() == ErwinMode::kSt && client_crash_hook_;
        break;
      case FaultKind::kCtrlZkPartition:
        drawable = has_controller;
        break;
      case FaultKind::kServerPartition:
        drawable = has_controller && NumServerSlots() >= 2;
        break;
      case FaultKind::kOverloadBurst:
        drawable = static_cast<bool>(overload_hook_);
        break;
      case FaultKind::kCrashIndexNode:
        // Keep at least one index aggregator alive so selective reads are exercised
        // against the index tier (not only the scan fallback) for the whole run.
        drawable = UncrashedIndexNodes().size() >= 2;
        break;
      case FaultKind::kIndexPartition:
        drawable = cluster_->num_index_nodes() > 0;
        break;
      case FaultKind::kShardPrimaryCrash:
      case FaultKind::kPrimaryIsolation:
        // Only while the planned shard still has a backup left to promote.
        drawable = has_controller && !PromotableShards().empty();
        break;
    }
    if (policy_.allows(kind) && drawable) {
      kinds.push_back(kind);
    }
  }
  return kinds;
}

void Nemesis::Plan(SimTime start, SimTime end) {
  // Sequential layout: `cursor` is the earliest time the next action may start; each
  // action advances it past its own window plus recovery slack, so window faults (loss,
  // partitions, delay) can never overlap a state-copy or a view change in flight.
  SimTime cursor = start;
  while (true) {
    cursor += 4 * kMs + rng_.Uniform(12 * kMs);  // inter-action gap
    if (cursor >= end) {
      break;
    }
    const std::vector<FaultKind> kinds = DrawableKinds();
    if (kinds.empty()) {
      break;
    }
    FaultAction a;
    a.kind = kinds[rng_.Uniform(kinds.size())];
    a.at = cursor;
    switch (a.kind) {
      case FaultKind::kCrashSeqReplica: {
        // Crash any replica index not yet deposed; the control plane reconfigures
        // around it (~15-30ms), so leave a generous settle gap.
        const std::vector<uint32_t> alive = UndeposedSeqReplicas();
        LL_CHECK(alive.size() >= 2, "seq deposition budget exceeded the fault bound");
        a.target = alive[rng_.Uniform(alive.size())];
        seq_crashes_planned_++;
        cursor += 80 * kMs;  // detection + seal + new view + client re-resolution
        break;
      }
      case FaultKind::kReplaceShardReplica:
        a.target = static_cast<uint32_t>(rng_.Uniform(cluster_->num_shards()));
        a.target2 =
            1 + static_cast<uint32_t>(rng_.Uniform(cluster_->shard_replication() - 1));
        cursor += 15 * kMs;  // state copy + re-replication catch-up
        break;
      case FaultKind::kClientPartition:
        a.target = static_cast<uint32_t>(rng_.Uniform(client_nodes_.size()));
        // The server side is a virtual slot resolved at execution time, so shard
        // replacements between planning and execution stay transparent.
        a.target2 = static_cast<uint32_t>(rng_.Uniform(NumServerSlots()));
        a.duration_ns = 8 * kMs + rng_.Uniform(17 * kMs);  // well under the retry budget
        cursor += a.duration_ns + 5 * kMs;
        break;
      case FaultKind::kLossWindow:
        // Modest probability and short window: heavy sustained loss could starve the
        // control plane's 2ms heartbeats into a false suspicion, which (by design)
        // permanently consumes fault budget.
        a.magnitude = 0.02 + 0.1 * rng_.NextDouble();
        a.duration_ns = 4 * kMs + rng_.Uniform(6 * kMs);
        cursor += a.duration_ns + 10 * kMs;  // let retries drain before the next fault
        break;
      case FaultKind::kDelaySpike:
        a.magnitude = static_cast<double>(100 * kUs + rng_.Uniform(400 * kUs));
        a.duration_ns = 5 * kMs + rng_.Uniform(10 * kMs);
        cursor += a.duration_ns + 5 * kMs;
        break;
      case FaultKind::kDiskSlowdown:
        a.target = static_cast<uint32_t>(rng_.Uniform(cluster_->num_shards()));
        a.target2 = static_cast<uint32_t>(rng_.Uniform(cluster_->shard_replication()));
        a.magnitude = 2.0 + 6.0 * rng_.NextDouble();
        a.duration_ns = 10 * kMs + rng_.Uniform(20 * kMs);
        cursor += a.duration_ns + 5 * kMs;
        break;
      case FaultKind::kClientCrashAppend:
        cursor += 3 * kMs;
        break;
      case FaultKind::kSeqZkPartition: {
        // Long enough that the ZK session must expire (8ms timeout): the replica is
        // deposed while still reachable from clients — the split-brain the fence stops.
        const std::vector<uint32_t> alive = UndeposedSeqReplicas();
        LL_CHECK(alive.size() >= 2, "seq deposition budget exceeded the fault bound");
        a.target = alive[rng_.Uniform(alive.size())];
        a.duration_ns = 12 * kMs + rng_.Uniform(18 * kMs);
        seq_crashes_planned_++;
        cursor += a.duration_ns + 80 * kMs;  // deposition + reconfiguration + settle
        break;
      }
      case FaultKind::kCtrlZkPartition:
        // Shorter than anything that needs the controller to act; ReconcilePoll catches
        // up on whatever ZK events it went blind to.
        a.duration_ns = 8 * kMs + rng_.Uniform(12 * kMs);
        cursor += a.duration_ns + 15 * kMs;
        break;
      case FaultKind::kServerPartition: {
        const uint32_t n = NumServerSlots();
        a.target = static_cast<uint32_t>(rng_.Uniform(n));
        a.target2 = static_cast<uint32_t>(rng_.Uniform(n - 1));
        if (a.target2 >= a.target) {
          a.target2++;
        }
        a.duration_ns = 4 * kMs + rng_.Uniform(11 * kMs);
        cursor += a.duration_ns + 12 * kMs;
        break;
      }
      case FaultKind::kOverloadBurst:
        // 4-16x the steady arrival rate: far past the chaos-scale admission watermarks,
        // so the reject + in-place-backoff path genuinely runs. The settle gap lets the
        // shed retries drain before the next fault compounds them.
        a.magnitude = 4.0 + 12.0 * rng_.NextDouble();
        a.duration_ns = 10 * kMs + rng_.Uniform(15 * kMs);
        cursor += a.duration_ns + 10 * kMs;
        break;
      case FaultKind::kCrashIndexNode: {
        const std::vector<uint32_t> alive = UncrashedIndexNodes();
        LL_CHECK(alive.size() >= 2, "index crash would take the last aggregator");
        a.target = alive[rng_.Uniform(alive.size())];
        cursor += 10 * kMs;  // routed ReadNexts time out and fall back to scans
        break;
      }
      case FaultKind::kIndexPartition:
        a.target = static_cast<uint32_t>(rng_.Uniform(cluster_->num_index_nodes()));
        a.duration_ns = 8 * kMs + rng_.Uniform(12 * kMs);
        cursor += a.duration_ns + 8 * kMs;  // let stalled delta pulls catch back up
        break;
      case FaultKind::kShardPrimaryCrash:
      case FaultKind::kPrimaryIsolation: {
        const std::vector<uint32_t> shards = PromotableShards();
        LL_CHECK(!shards.empty(), "primary deposition planned with no backup left");
        a.target = shards[rng_.Uniform(shards.size())];
        // Detection (2 heartbeats of silence) + seal/promote rounds + handoff +
        // config publish + client re-resolution, with generous settle slack.
        cursor += 120 * kMs;
        break;
      }
    }
    schedule_.push_back(a);
  }
}

void Nemesis::ArmEvents() {
  EventLoop& loop = cluster_->loop();
  for (const FaultAction& a : schedule_) {
    loop.ScheduleAt(a.at, [this, a]() { Execute(a); });
    if (a.duration_ns > 0) {
      loop.ScheduleAt(a.at + a.duration_ns, [this, a]() { Heal(a); });
    }
  }
}

void Nemesis::Arm(SimTime start, SimTime end, std::vector<NodeId> client_nodes) {
  client_nodes_ = std::move(client_nodes);
  Plan(start, end);
  ArmEvents();
}

void Nemesis::ArmSchedule(std::vector<FaultAction> schedule,
                          std::vector<NodeId> client_nodes) {
  client_nodes_ = std::move(client_nodes);
  schedule_ = std::move(schedule);
  seq_crashes_planned_ = 0;
  for (const FaultAction& a : schedule_) {
    if (a.kind == FaultKind::kCrashSeqReplica || a.kind == FaultKind::kSeqZkPartition) {
      seq_crashes_planned_++;
    }
  }
  ArmEvents();
}

void Nemesis::Execute(const FaultAction& a) {
  history_->RecordNemesis(a.Describe());
  Network& net = cluster_->network();
  auto cut = [this, &net](NodeId x, NodeId y) {
    if (x == kInvalidNode || y == kInvalidNode || x == y) {
      return;
    }
    partitioned_pairs_.push_back({x, y});
    net.SetPartitioned(x, y, true);
  };
  switch (a.kind) {
    case FaultKind::kCrashSeqReplica:
      cluster_->CrashSeqReplica(a.target);
      break;
    case FaultKind::kReplaceShardReplica: {
      if (a.target2 >= cluster_->shard_size(a.target)) {
        return;  // an earlier promotion shrank the shard below this replica slot
      }
      const NodeId old_node = cluster_->shard(a.target, a.target2).node_id();
      const NodeId new_node = cluster_->ReplaceShardReplica(a.target, a.target2);
      if (replace_hook_) {
        replace_hook_(a.target, a.target2, old_node, new_node);
      }
      break;
    }
    case FaultKind::kClientPartition: {
      const NodeId client = client_nodes_[a.target];
      const NodeId server = ResolveServerSlot(a.target2);
      if (server == kInvalidNode || !net.IsUp(server)) {
        return;
      }
      cut(client, server);
      break;
    }
    case FaultKind::kLossWindow:
      net.SetLossProbability(a.magnitude);
      break;
    case FaultKind::kDelaySpike:
      net.SetExtraDelayNs(static_cast<uint64_t>(a.magnitude));
      break;
    case FaultKind::kDiskSlowdown:
      if (a.target2 >= cluster_->shard_size(a.target)) {
        return;
      }
      cluster_->shard(a.target, a.target2).disk().SetSlowdownFactor(a.magnitude);
      break;
    case FaultKind::kClientCrashAppend:
      client_crash_hook_();
      break;
    case FaultKind::kSeqZkPartition: {
      // Asymmetric: the replica is cut from ZK (its session will expire) and from the
      // controller (it cannot be sealed directly), but stays reachable from clients and
      // from the storage shards — which is exactly why the shard fence must hold.
      const NodeId victim = cluster_->seq_replica(a.target).node_id();
      cut(victim, cluster_->zookeeper()->node_id());
      if (cluster_->controller() != nullptr) {
        cut(victim, cluster_->controller()->node_id());
      }
      break;
    }
    case FaultKind::kCtrlZkPartition:
      if (cluster_->controller() != nullptr) {
        cut(cluster_->controller()->node_id(), cluster_->zookeeper()->node_id());
      }
      break;
    case FaultKind::kServerPartition:
      cut(ResolveServerSlot(a.target), ResolveServerSlot(a.target2));
      break;
    case FaultKind::kOverloadBurst:
      if (overload_hook_) {
        overload_hook_(a.magnitude);
      }
      break;
    case FaultKind::kCrashIndexNode:
      if (a.target < cluster_->num_index_nodes()) {
        cluster_->CrashIndexNode(a.target);
      }
      break;
    case FaultKind::kIndexPartition: {
      if (a.target >= cluster_->num_index_nodes()) {
        return;
      }
      const NodeId ix = cluster_->index_node(a.target).node_id();
      if (!net.IsUp(ix)) {
        return;  // already crashed by an earlier action
      }
      for (uint32_t s = 0; s < cluster_->num_shards(); ++s) {
        cut(ix, cluster_->shard(s, 0).node_id());
      }
      break;
    }
    case FaultKind::kShardPrimaryCrash:
    case FaultKind::kPrimaryIsolation: {
      // Re-check against live state: an earlier deposition (or a failed promotion)
      // may have left the shard without a backup, and the slot-0 primary must still
      // be up for the deposition to mean anything.
      if (a.target >= cluster_->num_shards() || cluster_->shard_size(a.target) < 2 ||
          cluster_->controller() == nullptr ||
          !net.IsUp(cluster_->shard(a.target, 0).node_id())) {
        return;
      }
      if (a.kind == FaultKind::kShardPrimaryCrash) {
        cluster_->CrashShardPrimary(a.target);
      } else {
        cluster_->IsolateShardPrimary(a.target);
      }
      break;
    }
  }
}

void Nemesis::Heal(const FaultAction& a) {
  Network& net = cluster_->network();
  switch (a.kind) {
    case FaultKind::kClientPartition:
    case FaultKind::kSeqZkPartition:
    case FaultKind::kCtrlZkPartition:
    case FaultKind::kServerPartition:
    case FaultKind::kIndexPartition:
      // Actions are laid out sequentially, so every live cut belongs to this window.
      for (const auto& [x, y] : partitioned_pairs_) {
        net.SetPartitioned(x, y, false);
      }
      partitioned_pairs_.clear();
      break;
    case FaultKind::kLossWindow:
      net.SetLossProbability(0.0);
      break;
    case FaultKind::kDelaySpike:
      net.SetExtraDelayNs(0);
      break;
    case FaultKind::kDiskSlowdown:
      if (a.target2 >= cluster_->shard_size(a.target)) {
        return;
      }
      cluster_->shard(a.target, a.target2).disk().SetSlowdownFactor(1.0);
      break;
    case FaultKind::kOverloadBurst:
      if (overload_hook_) {
        overload_hook_(1.0);
      }
      break;
    default:
      break;
  }
}

void Nemesis::HealAll() {
  Network& net = cluster_->network();
  for (const auto& [x, y] : partitioned_pairs_) {
    net.SetPartitioned(x, y, false);
  }
  partitioned_pairs_.clear();
  net.SetLossProbability(0.0);
  net.SetExtraDelayNs(0);
  for (uint32_t s = 0; s < cluster_->num_shards(); ++s) {
    for (uint32_t r = 0; r < cluster_->shard_size(s); ++r) {
      cluster_->shard(s, r).disk().SetSlowdownFactor(1.0);
    }
  }
  if (overload_hook_) {
    overload_hook_(1.0);
  }
}

}  // namespace lazylog
