#include "src/baselines/scalog/paxos.h"

#include "src/common/logging.h"

namespace lazylog {

PaxosAcceptor::PaxosAcceptor(Network* net)
    : endpoint_(net),
      cpu_(net->loop(), CpuParams{.fixed_ns = 800, .copy_bandwidth_bytes_per_sec = 5e9}) {
  endpoint_.Handle<PaxosPrepareReq>(kPaxosPrepare, [this](NodeId, PaxosPrepareReq req,
                                                           Responder r) {
    cpu_.Execute(cpu_.CostFor(0), [this, req, r]() mutable {
      SlotState& s = slots_[req.slot];
      if (req.ballot <= s.promised) {
        r.Send(Status::Rejected("ballot too low"));
        return;
      }
      s.promised = req.ballot;
      r.Ok(PaxosPromise{s.accepted_ballot, s.accepted_value});
    });
  });
  endpoint_.Handle<PaxosAcceptReq>(kPaxosAccept, [this](NodeId, PaxosAcceptReq req,
                                                         Responder r) {
    // Fixed admission cost only (the accepted value lands in memory).
    cpu_.ExecuteFor(0, [this, req = std::move(req), r]() mutable {
      SlotState& s = slots_[req.slot];
      if (req.ballot < s.promised) {
        r.Send(Status::Rejected("ballot too low"));
        return;
      }
      s.promised = req.ballot;
      s.accepted_ballot = req.ballot;
      s.accepted_value = std::move(req.value);
      r.Send(Status::Ok());
    });
  });
}

void PaxosProposer::Propose(uint64_t slot, std::string value, CommitCallback cb) {
  const PaxosAcceptReq req{ballot_, slot, std::move(value)};
  const size_t n = acceptors_.size();
  const size_t majority = n / 2 + 1;
  struct State {
    size_t acks = 0;
    size_t done = 0;
    bool fired = false;
  };
  auto state = std::make_shared<State>();
  for (size_t i = 0; i < n; ++i) {
    endpoint_->CallMsg(acceptors_[i], kPaxosAccept, req,
                       [state, majority, n, cb](Status s, Decoder) {
                         state->done++;
                         if (s.ok()) {
                           state->acks++;
                         }
                         if (!state->fired && state->acks >= majority) {
                           state->fired = true;
                           cb(Status::Ok());
                         } else if (!state->fired && state->done == n &&
                                    state->acks < majority) {
                           state->fired = true;
                           cb(Status::Unavailable("no majority"));
                         }
                       },
                       rpc_timeout_ns_);
  }
}

void PaxosProposer::Prepare(uint64_t slot, RecoverCallback cb) {
  const PaxosPrepareReq req{ballot_, slot};
  const size_t n = acceptors_.size();
  const size_t majority = n / 2 + 1;
  struct State {
    size_t acks = 0;
    size_t done = 0;
    bool fired = false;
    uint64_t best_ballot = 0;
    std::string best_value;
    bool has_value = false;
  };
  auto state = std::make_shared<State>();
  for (size_t i = 0; i < n; ++i) {
    endpoint_->CallMsg<PaxosPromise>(
        acceptors_[i], kPaxosPrepare, req,
        [state, majority, n, cb](Status s, PaxosPromise promise) {
          state->done++;
          if (s.ok()) {
            state->acks++;
            if (promise.accepted_ballot > 0 &&
                promise.accepted_ballot >= state->best_ballot) {
              state->best_ballot = promise.accepted_ballot;
              state->best_value = std::move(promise.accepted_value);
              state->has_value = true;
            }
          }
          if (!state->fired && state->acks >= majority) {
            state->fired = true;
            cb(Status::Ok(), state->has_value, state->best_value);
          } else if (!state->fired && state->done == n &&
                     state->acks < majority) {
            state->fired = true;
            cb(Status::Unavailable("no majority"), false, "");
          }
        },
        rpc_timeout_ns_);
  }
}

}  // namespace lazylog
