// Request/response RPC over the simulated network, mirroring eRPC's role in the paper's
// implementation: method dispatch, per-call ids, response matching, and timeouts.
// Server handlers may respond asynchronously (slow-path reads hold the responder until
// stable-gp advances past the requested position). Background one-way traffic (the
// stable-gp broadcast, fences, cut and tail reports, heartbeats) goes out as
// notifications: request frames with rpc id 0 that no endpoint answers.
#ifndef SRC_RPC_RPC_H_
#define SRC_RPC_RPC_H_

#include <concepts>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/common/codec.h"
#include "src/common/inline_fn.h"
#include "src/common/slab.h"
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

// Reply tokens of one endpoint (see Responder). The endpoint owns the table; once it
// is destroyed, the table lives on until the last Responder (say, one parked in an
// event the loop destroys later) drops its token, and replying fails the send-once
// check.
class ReplyTokens {
 public:
  struct Token {
    NodeId caller = kInvalidNode;
    uint64_t rpc_id = 0;
    uint32_t gen = 0;   // bumped by the reply, so every copy of the token goes stale
    uint32_t refs = 0;  // Responder copies alive; the token is reused once this is 0
  };

  explicit ReplyTokens(RpcEndpoint* endpoint) : endpoint_(endpoint) {}

  RpcEndpoint* endpoint() const { return endpoint_; }
  Token& operator[](uint32_t slot) { return tokens_[slot]; }
  // A token for one inbound request, held once.
  uint32_t Acquire(NodeId caller, uint64_t rpc_id);
  void Ref(uint32_t slot) { tokens_[slot].refs++; }
  // Drops one hold; may delete the table if its endpoint is gone.
  void Unref(uint32_t slot);
  // Called by the endpoint's destructor.
  void Orphan();

 private:
  RpcEndpoint* endpoint_;  // null once the endpoint is destroyed
  Slab<Token> tokens_;
  size_t held_ = 0;  // tokens with refs > 0
};

// Capability to answer one inbound request: a generation-checked token in its
// endpoint's ReplyTokens. Copies share the token (handlers routinely capture responders
// into deferred work); responding twice is a checked bug. Dropping all copies without
// responding leaves the caller to time out (used when a sealed replica must stay
// silent).
class Responder {
 public:
  Responder() = default;
  Responder(const Responder& o) : table_(o.table_), slot_(o.slot_), gen_(o.gen_) {
    if (table_ != nullptr) {
      table_->Ref(slot_);
    }
  }
  Responder(Responder&& o) noexcept : table_(o.table_), slot_(o.slot_), gen_(o.gen_) {
    o.table_ = nullptr;
  }
  Responder& operator=(Responder o) noexcept {
    std::swap(table_, o.table_);
    std::swap(slot_, o.slot_);
    std::swap(gen_, o.gen_);
    return *this;
  }
  ~Responder() {
    if (table_ != nullptr) {
      table_->Unref(slot_);
    }
  }

  // Sends the response. `body` is the encoded reply payload (empty allowed); `atts`
  // are zero-copy payload segments produced by Encoder::PutAttached.
  void Send(const Status& status, Buf body = {}, std::vector<Buf> atts = {});
  // Convenience for OK + encoded body (collects the encoder's attachments).
  void Ok(Encoder& enc);
  // OK + `msg` (a struct with a Wire field list) as the body, encoded straight into
  // the reply frame; mirrors CallMsg.
  template <typename Msg>
  void Ok(const Msg& msg);

  bool valid() const {
    return table_ != nullptr && table_->endpoint() != nullptr && token().gen == gen_;
  }
  NodeId caller() const { return table_ != nullptr ? token().caller : kInvalidNode; }

 private:
  friend class RpcEndpoint;
  // Takes over the one hold that ReplyTokens::Acquire made.
  Responder(ReplyTokens* table, uint32_t slot)
      : table_(table), slot_(slot), gen_((*table)[slot].gen) {}

  ReplyTokens::Token& token() const { return (*table_)[slot_]; }
  // Checks that the token is live, spends it, and returns its endpoint, or null if the
  // request was a notification (rpc id 0), whose reply nobody reads.
  RpcEndpoint* Claim();

  ReplyTokens* table_ = nullptr;
  uint32_t slot_ = 0;
  uint32_t gen_ = 0;
};

// One endpoint == one simulated node. Servers bind each method to its request type with
// Handle(); clients CallMsg() with a request struct, and name the reply type to get it
// decoded, or Notify() when nobody reads a reply. Register()/Call() are the raw
// byte-level forms underneath.
class RpcEndpoint {
 public:
  // Handler receives the caller id, a decoder over the request body, and the responder.
  // The decoder owns its backing buffer and the message attachments, so it (and any Buf
  // decoded out of it) stays valid if the handler defers work to the event loop.
  using Handler = std::function<void(NodeId caller, Decoder body, Responder responder)>;
  // Client completion: status (OK / Timeout / server-provided error) and a decoder over
  // the reply body (owning the backing + attachments; empty on timeout/cancel). Stored
  // inline up to InlineFn::kInlineBytes of capture.
  using ResponseCallback = InlineFn<void(Status, Decoder body)>;

  explicit RpcEndpoint(Network* net);
  ~RpcEndpoint();
  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  NodeId node_id() const { return node_id_; }
  Network* network() const { return net_; }
  EventLoop* loop() const { return net_->loop(); }

  // Registers the handler for `method` (replacing any existing one).
  void Register(MethodId method, Handler handler);

  // Typed registration: the endpoint decodes each request body into a `Req` (a struct
  // with a Wire field list, or one scalar or string) and calls fn(caller, req,
  // responder), or fn(caller, req) for a method only notifications reach (the request
  // goes unanswered, so a call to it times out). A body that fails to decode is
  // answered InvalidArgument here and never reaches `fn`, so the registration site is
  // the method's request type.
  template <typename Req, typename Fn>
  void Handle(MethodId method, Fn fn) {
    Register(method, [fn = std::move(fn)](NodeId caller, Decoder body, Responder r) {
      Req req{};
      if (!WireDecode(body, req)) {
        r.Send(Status::InvalidArgument("malformed request"));
        return;
      }
      if constexpr (std::invocable<Fn&, NodeId, Req>) {
        fn(caller, std::move(req));
      } else {
        fn(caller, std::move(req), std::move(r));
      }
    });
  }
  // Member handlers `void T::f([NodeId caller,] Req[, Responder])`; Req (by value or
  // const&) is deduced from the signature, and a handler without a Responder is
  // reply-less as above.
  template <typename T, typename Arg, typename... R>
  void Handle(MethodId method, T* self, void (T::*f)(Arg, R...)) {
    Handle<std::decay_t<Arg>>(method, [self, f](NodeId, std::decay_t<Arg> req, R... r) {
      (self->*f)(std::move(req), std::move(r)...);
    });
  }
  template <typename T, typename Arg, typename... R>
  void Handle(MethodId method, T* self, void (T::*f)(NodeId, Arg, R...)) {
    Handle<std::decay_t<Arg>>(method, [self, f](NodeId caller, std::decay_t<Arg> req,
                                                R... r) {
      (self->*f)(caller, std::move(req), std::move(r)...);
    });
  }

  // Issues a call. `cb` must be set (a message nobody answers is a Notify).
  // `timeout_ns` == 0 means no timeout (the callback may never fire if the destination
  // is down — callers that pass 0 must handle that themselves). `atts` are zero-copy
  // payload segments referenced by length markers in `body`.
  void Call(NodeId dest, MethodId method, Buf body, ResponseCallback cb,
            uint64_t timeout_ns, std::vector<Buf> atts = {});

  // Encodes `req` (a struct with a Wire field list) straight into the request frame
  // and issues the call.
  template <typename Req>
  void CallMsg(NodeId dest, MethodId method, const Req& req, ResponseCallback cb,
               uint64_t timeout_ns) {
    const uint64_t rpc_id = NewCall();
    Frame frame = RequestFrame(method, rpc_id, req);
    auto atts = frame.enc.TakeAtts();
    Issue(dest, method, rpc_id, std::move(frame), std::move(atts), std::move(cb),
          timeout_ns);
  }
  // Sends `msg` one way: a request frame with rpc id 0, on the call's NIC lane and with
  // its bytes, but it takes no pending slot and arms no timer, and the receiver sends
  // no reply (not even an error).
  template <typename Msg>
  void Notify(NodeId dest, MethodId method, const Msg& msg) {
    Frame frame = RequestFrame(method, 0, msg);
    auto atts = frame.enc.TakeAtts();
    SendRequest(dest, method, std::move(frame), std::move(atts));
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

 private:
  friend class Responder;

  // A frame being written into its one backing: the header is in, the body follows.
  // `end` is the size the frame reaches once the body of the sized extent is written.
  struct Frame {
    Encoder enc;
    size_t end = 0;
  };
  // A slot of pending_. An outstanding call's rpc id is its slot's generation (high 32
  // bits) and index (low 32 bits), so a late reply to a slot since reused mismatches.
  struct Pending {
    uint64_t rpc_id = 0;  // 0 while the slot is free
    uint32_t gen = 0;
    ResponseCallback cb;
    EventHandle timeout;
  };
  // Frame layouts:
  //   request:  u8 kind=1, u32 method, u64 rpc_id, u32 body_len, body
  //   response: u8 kind=2, u64 rpc_id, u8 status code, u32 len + status message,
  //             u32 body_len, body
  static Frame RequestFrame(MethodId method, uint64_t rpc_id, WireExtent body);
  // A request frame with `msg` written as its body.
  template <typename Msg>
  static Frame RequestFrame(MethodId method, uint64_t rpc_id, const Msg& msg) {
    Frame frame = RequestFrame(method, rpc_id, WireSize(msg));
    WireWriter ar(frame.enc);
    ar(msg);
    return frame;
  }
  static Frame ResponseFrame(uint64_t rpc_id, const Status& status, WireExtent body);
  void Issue(NodeId dest, MethodId method, uint64_t rpc_id, Frame frame,
             std::vector<Buf> atts, ResponseCallback cb, uint64_t timeout_ns);
  void SendRequest(NodeId dest, MethodId method, Frame frame, std::vector<Buf> atts);
  void SendResponse(NodeId dest, Frame frame, std::vector<Buf> atts);
  void OnMessage(NetMessage&& msg);

  // Reserves a pending_ slot for a new call and returns the call's rpc id.
  uint64_t NewCall();
  // Removes the call and returns its slot's contents (rpc_id 0 if it is not pending).
  Pending TakePending(uint64_t rpc_id);

  Network* net_;
  NodeId node_id_;
  std::unordered_map<MethodId, Handler> handlers_;
  Slab<Pending> pending_;  // outstanding calls
  ReplyTokens* replies_;  // owned; see ReplyTokens::Orphan
};

template <typename Msg>
void Responder::Ok(const Msg& msg) {
  RpcEndpoint* ep = Claim();
  if (ep == nullptr) {
    return;
  }
  const WireExtent body = WireSize(msg);
  RpcEndpoint::Frame frame = RpcEndpoint::ResponseFrame(token().rpc_id, Status::Ok(), body);
  WireWriter ar(frame.enc);
  ar(msg);
  auto atts = frame.enc.TakeAtts();
  ep->SendResponse(token().caller, std::move(frame), std::move(atts));
}

// Fan-out helper: issues `n` calls and invokes `done` exactly once when all have
// completed. `done` receives the per-call statuses. Used for the parallel,
// coordination-free writes to all sequencing replicas / shard replicas.
class Gather : public std::enable_shared_from_this<Gather> {
  struct Private {};

 public:
  using DoneCallback = InlineFn<void(const std::vector<Status>&)>;

  static std::shared_ptr<Gather> Create(size_t n, DoneCallback done) {
    return std::make_shared<Gather>(Private{}, n, std::move(done));
  }
  Gather(Private, size_t n, DoneCallback done)
      : statuses_(n), remaining_(n), done_(std::move(done)) {}

  // Returns the completion callback for slot `i`; safe to call after *this would
  // otherwise be destroyed because the shared_ptr is captured. The capture (a
  // shared_ptr and an index) is stored inline in the callback.
  RpcEndpoint::ResponseCallback Slot(size_t i) {
    return [self = shared_from_this(), i](Status s, Decoder) {
      self->Complete(i, std::move(s));
    };
  }

  // Completes slot `i` directly (for callers that are not RPC callbacks).

  void Complete(size_t i, Status s) {
    statuses_[i] = std::move(s);
    if (--remaining_ == 0 && done_) {
      auto d = std::move(done_);
      d(statuses_);
    }
  }

 private:

  std::vector<Status> statuses_;
  size_t remaining_;
  DoneCallback done_;
};

}  // namespace lazylog

#endif  // SRC_RPC_RPC_H_
