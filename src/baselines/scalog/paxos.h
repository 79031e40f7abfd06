// Multi-slot Paxos used by the Scalog baseline's ordering layer to make global cuts
// fault-tolerant (§2.2, Figure 1a). The ordering leader is the distinguished proposer:
// in steady state it runs phase 2 only; phase 1 (Prepare/Promise) is implemented for
// leader change and exercised by the tests.
#ifndef SRC_BASELINES_SCALOG_PAXOS_H_
#define SRC_BASELINES_SCALOG_PAXOS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/params.h"
#include "src/common/status.h"
#include "src/rpc/rpc.h"
#include "src/rpc/rpc_methods.h"
#include "src/sim/resources.h"

namespace lazylog {

// Phase 1 request: promise `ballot` for `slot`.
struct PaxosPrepareReq {
  uint64_t ballot = 0;
  uint64_t slot = 0;
  template <class Ar> void Wire(Ar& ar) { ar(ballot, slot); }
};
// Phase 1 reply: the value accepted at the slot so far (ballot 0 = none).
struct PaxosPromise {
  uint64_t accepted_ballot = 0;
  std::string accepted_value;
  template <class Ar> void Wire(Ar& ar) { ar(accepted_ballot, accepted_value); }
};
// Phase 2 request: accept `value` for `slot` under `ballot`.
struct PaxosAcceptReq {
  uint64_t ballot = 0;
  uint64_t slot = 0;
  std::string value;
  template <class Ar> void Wire(Ar& ar) { ar(ballot, slot, value); }
};

// One Paxos acceptor node.
class PaxosAcceptor {
 public:
  explicit PaxosAcceptor(Network* net);

  NodeId node_id() const { return endpoint_.node_id(); }
  // Highest slot with an accepted value (tests).
  uint64_t accepted_slots() const { return slots_.size(); }

 private:
  struct SlotState {
    uint64_t promised = 0;
    uint64_t accepted_ballot = 0;
    std::string accepted_value;
  };

  RpcEndpoint endpoint_;
  ServerCpu cpu_;
  std::map<uint64_t, SlotState> slots_;
};

// Proposer driver bound to a caller-supplied endpoint (the ordering leader's).
class PaxosProposer {
 public:
  PaxosProposer(RpcEndpoint* endpoint, std::vector<NodeId> acceptors, uint64_t ballot,
                uint64_t rpc_timeout_ns)
      : endpoint_(endpoint), acceptors_(std::move(acceptors)), ballot_(ballot),
        rpc_timeout_ns_(rpc_timeout_ns) {}

  using CommitCallback = std::function<void(Status)>;
  using RecoverCallback = std::function<void(Status, bool had_value, std::string value)>;

  // Phase 2: propose `value` at `slot`; commits once a majority accepts.
  void Propose(uint64_t slot, std::string value, CommitCallback cb);

  // Phase 1 for `slot` with a fresh ballot: learns any previously accepted value (used
  // by a new leader to recover in-flight cuts).
  void Prepare(uint64_t slot, RecoverCallback cb);

  uint64_t ballot() const { return ballot_; }

 private:
  RpcEndpoint* endpoint_;
  std::vector<NodeId> acceptors_;
  uint64_t ballot_;
  uint64_t rpc_timeout_ns_;
};

}  // namespace lazylog

#endif  // SRC_BASELINES_SCALOG_PAXOS_H_
