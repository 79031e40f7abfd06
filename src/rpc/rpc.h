// Request/response RPC over the simulated network, mirroring eRPC's role in the paper's
// implementation: method dispatch, per-call ids, response matching, and timeouts.
// Server handlers may respond asynchronously (slow-path reads hold the responder until
// stable-gp advances past the requested position).
#ifndef SRC_RPC_RPC_H_
#define SRC_RPC_RPC_H_

#include <concepts>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>

#include "src/common/codec.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/sim/network.h"

namespace lazylog {

// Identifies a server method. Each subsystem owns a disjoint range (see rpc_methods.h).
using MethodId = uint16_t;

class RpcEndpoint;

// Body of a request that carries nothing (a probe or a state pull): encodes to zero
// bytes, and decodes from any body because the handler reads none of it.
struct NoBody {
  template <class Ar>
  void Wire(Ar&) {}
};

// A request encoded once for a fan-out: every destination's call shares the frame body
// and the payload attachments (refcount bumps, not bytes).
struct EncodedMsg {
  Buf body;
  std::vector<Buf> atts;
};

template <typename Msg>
EncodedMsg EncodeMsg(const Msg& msg) {
  Encoder enc;
  WireEncode(enc, msg);
  auto atts = enc.TakeAtts();
  return EncodedMsg{enc.TakeBuf(), std::move(atts)};
}

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

// One endpoint == one simulated node. Servers bind each method to its request type with
// Handle(); clients CallMsg() with a request struct, and name the reply type to get it
// decoded. Register()/Call() are the raw byte-level forms underneath.
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

  // Typed registration: the endpoint decodes each request body into a `Req` (a struct
  // with a Wire field list, or one scalar or string) and calls fn(caller, req,
  // responder). A body that fails to decode is answered InvalidArgument here and never
  // reaches `fn`, so the registration site is the method's request type.
  template <typename Req, typename Fn>
  void Handle(MethodId method, Fn fn) {
    Register(method, [fn = std::move(fn)](NodeId caller, Decoder body, Responder r) {
      Req req{};
      if (!WireDecode(body, req)) {
        r.Send(Status::InvalidArgument("malformed request"));
        return;
      }
      fn(caller, std::move(req), std::move(r));
    });
  }
  // Member handlers `void T::f(Req, Responder)` or `void T::f(NodeId caller, Req,
  // Responder)`; Req (by value or const&) is deduced from the signature.
  template <typename T, typename Arg>
  void Handle(MethodId method, T* self, void (T::*f)(Arg, Responder)) {
    Handle<std::decay_t<Arg>>(method, [self, f](NodeId, std::decay_t<Arg> req, Responder r) {
      (self->*f)(std::move(req), std::move(r));
    });
  }
  template <typename T, typename Arg>
  void Handle(MethodId method, T* self, void (T::*f)(NodeId, Arg, Responder)) {
    Handle<std::decay_t<Arg>>(method, [self, f](NodeId caller, std::decay_t<Arg> req,
                                                Responder r) {
      (self->*f)(caller, std::move(req), std::move(r));
    });
  }

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
  // Sends a request already encoded for a fan-out (see EncodedMsg).
  void CallMsg(NodeId dest, MethodId method, const EncodedMsg& msg, ResponseCallback cb,
               uint64_t timeout_ns) {
    Call(dest, method, msg.body, std::move(cb), timeout_ns, msg.atts);
  }

  // Typed reply: an OK reply's body is decoded into a `Resp` and the callback gets
  // (status, resp). An OK reply that fails to decode arrives as Status::Internal; on
  // any other status `resp` is default-constructed.
  template <typename Resp, typename Req, typename Fn>
    requires std::invocable<Fn&, Status, Resp>
  void CallMsg(NodeId dest, MethodId method, const Req& req, Fn cb, uint64_t timeout_ns) {
    CallMsg(dest, method, req,
            [cb = std::move(cb)](Status s, Decoder body) mutable {
              Resp resp{};
              if (s.ok() && !WireDecode(body, resp)) {
                s = Status::Internal("malformed reply");
              }
              cb(std::move(s), std::move(resp));
            },
            timeout_ns);
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
