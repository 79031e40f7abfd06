// Request/response RPC over the simulated network, mirroring eRPC's role in the paper's
// implementation: method dispatch, per-call ids, response matching, and timeouts.
// Server handlers may respond asynchronously (slow-path reads hold the responder until
// stable-gp advances past the requested position).
#ifndef SRC_RPC_RPC_H_
#define SRC_RPC_RPC_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/common/codec.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/sim/network.h"

namespace lazylog {

// Identifies a server method. Each subsystem owns a disjoint range (see rpc_methods.h).
using MethodId = uint16_t;

class RpcEndpoint;

// Capability to answer one inbound request. Copies share one send-once token (handlers
// routinely capture responders into deferred std::function work); responding twice is a
// checked bug. Dropping all copies without responding leaves the caller to time out
// (used when a sealed replica must stay silent).
class Responder {
 public:
  Responder() = default;

  // Sends the response. `body` is the encoded reply payload (empty allowed); `atts`
  // are zero-copy payload segments produced by Encoder::PutAttached.
  void Send(const Status& status, Buf body = {}, std::vector<Buf> atts = {});
  // Convenience for OK + encoded body (collects the encoder's attachments).
  void Ok(Encoder& enc) {
    auto atts = enc.TakeAtts();
    Send(Status::Ok(), enc.TakeBuf(), std::move(atts));
  }
  // OK + `msg` (a struct with a Wire field list) as the body; mirrors CallMsg.
  template <typename Msg>
  void Ok(const Msg& msg) {
    Encoder enc;
    WireEncode(enc, msg);
    Ok(enc);
  }

  bool valid() const { return inner_ != nullptr && inner_->endpoint != nullptr; }
  NodeId caller() const { return inner_ ? inner_->caller : kInvalidNode; }

 private:
  friend class RpcEndpoint;
  struct Inner {
    RpcEndpoint* endpoint = nullptr;
    NodeId caller = kInvalidNode;
    uint64_t rpc_id = 0;
  };
  Responder(RpcEndpoint* endpoint, NodeId caller, uint64_t rpc_id)
      : inner_(std::make_shared<Inner>(Inner{endpoint, caller, rpc_id})) {}

  std::shared_ptr<Inner> inner_;
};

// Outcome counters per endpoint. Fault-injection tests (src/chaos/) read these to see
// how much of a run was absorbed by timeouts and retries rather than clean responses.
struct RpcStats {
  uint64_t calls_issued = 0;
  uint64_t responses_received = 0;
  uint64_t timeouts = 0;
  uint64_t cancelled = 0;
};

// One endpoint == one simulated node. Servers register handlers; clients Call().
class RpcEndpoint {
 public:
  // Handler receives the caller id, a decoder over the request body, and the responder.
  // The decoder owns its backing buffer and the message attachments, so it (and any Buf
  // decoded out of it) stays valid if the handler defers work to the event loop.
  using Handler = std::function<void(NodeId caller, Decoder body, Responder responder)>;
  // Client completion: status (OK / Timeout / server-provided error) and a decoder over
  // the reply body (owning the backing + attachments; empty on timeout/cancel).
  using ResponseCallback = std::function<void(Status, Decoder body)>;

  explicit RpcEndpoint(Network* net);

  NodeId node_id() const { return node_id_; }
  Network* network() const { return net_; }
  EventLoop* loop() const { return net_->loop(); }

  // Registers the handler for `method` (replacing any existing one).
  void Register(MethodId method, Handler handler);

  // Issues a call. `timeout_ns` == 0 means no timeout (the callback may never fire if
  // the destination is down — callers that pass 0 must handle that themselves).
  // `atts` are zero-copy payload segments referenced by length markers in `body`.
  void Call(NodeId dest, MethodId method, Buf body, ResponseCallback cb,
            uint64_t timeout_ns, std::vector<Buf> atts = {});

  // Encodes `req` (a struct with a Wire field list) and issues the call.
  template <typename Req>
  void CallMsg(NodeId dest, MethodId method, const Req& req, ResponseCallback cb,
               uint64_t timeout_ns) {
    Encoder enc;
    WireEncode(enc, req);
    auto atts = enc.TakeAtts();
    Call(dest, method, enc.TakeBuf(), std::move(cb), timeout_ns, std::move(atts));
  }

  // Cancels all outstanding calls with Status::Unavailable (client teardown).
  void CancelAll();

  const RpcStats& stats() const { return stats_; }

 private:
  friend class Responder;

  struct Pending {
    ResponseCallback cb;
    EventHandle timeout;
  };

  void OnMessage(NetMessage&& msg);
  void SendResponse(NodeId dest, uint64_t rpc_id, const Status& status, Buf body,
                    std::vector<Buf> atts);

  Network* net_;
  NodeId node_id_;
  uint64_t next_rpc_id_ = 1;
  RpcStats stats_;
  std::unordered_map<MethodId, Handler> handlers_;
  std::unordered_map<uint64_t, Pending> pending_;
};

// Fan-out helper: issues `n` calls and invokes `done` exactly once when all have
// completed. `done` receives the per-call statuses. Used for the parallel,
// coordination-free writes to all sequencing replicas / shard replicas.
class Gather : public std::enable_shared_from_this<Gather> {
 public:
  using DoneCallback = std::function<void(const std::vector<Status>&)>;

  static std::shared_ptr<Gather> Create(size_t n, DoneCallback done) {
    return std::shared_ptr<Gather>(new Gather(n, std::move(done)));
  }

  // Returns the completion callback for slot `i`; safe to call after *this would
  // otherwise be destroyed because the shared_ptr is captured.
  RpcEndpoint::ResponseCallback Slot(size_t i) {
    auto self = shared_from_this();
    return [self, i](Status s, Decoder) { self->Complete(i, std::move(s)); };
  }

 private:
  Gather(size_t n, DoneCallback done) : statuses_(n), remaining_(n), done_(std::move(done)) {}

  void Complete(size_t i, Status s) {
    statuses_[i] = std::move(s);
    if (--remaining_ == 0 && done_) {
      auto d = std::move(done_);
      d(statuses_);
    }
  }

  std::vector<Status> statuses_;
  size_t remaining_;
  DoneCallback done_;
};

}  // namespace lazylog

#endif  // SRC_RPC_RPC_H_
