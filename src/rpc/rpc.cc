#include "src/rpc/rpc.h"

#include <limits>

#include "src/common/logging.h"
#include "src/rpc/rpc_methods.h"

namespace lazylog {

namespace {
constexpr uint8_t kKindRequest = 1;
constexpr uint8_t kKindResponse = 2;
constexpr size_t kRequestHeaderBytes = 1 + 4 + 8 + 4;
constexpr size_t kResponseHeaderBytes = 1 + 8 + 1 + 4 + 4;  // + the status message
}  // namespace

uint32_t ReplyTokens::Acquire(NodeId caller, uint64_t rpc_id) {
  const uint32_t slot = tokens_.Acquire();
  Token& t = tokens_[slot];
  t.caller = caller;
  t.rpc_id = rpc_id;
  t.refs = 1;
  held_++;
  return slot;
}

void ReplyTokens::Unref(uint32_t slot) {
  if (--tokens_[slot].refs > 0) {
    return;
  }
  tokens_.Release(slot);
  if (--held_ == 0 && endpoint_ == nullptr) {
    delete this;
  }
}

void ReplyTokens::Orphan() {
  endpoint_ = nullptr;
  if (held_ == 0) {
    delete this;
  }
}

RpcEndpoint* Responder::Claim() {
  LL_CHECK(valid(), "responding twice or with an empty Responder");
  token().gen++;
  return token().rpc_id != 0 ? table_->endpoint() : nullptr;
}

void Responder::Send(const Status& status, Buf body, std::vector<Buf> atts) {
  RpcEndpoint* ep = Claim();
  if (ep == nullptr) {
    return;
  }
  RpcEndpoint::Frame frame =
      RpcEndpoint::ResponseFrame(token().rpc_id, status, {body.size(), 0});
  frame.enc.PutRaw(body.data(), body.size());
  ep->SendResponse(token().caller, std::move(frame), std::move(atts));
}

void Responder::Ok(Encoder& enc) {
  auto atts = enc.TakeAtts();
  Send(Status::Ok(), enc.TakeBuf(), std::move(atts));
}

RpcEndpoint::RpcEndpoint(Network* net) : net_(net), replies_(new ReplyTokens(this)) {
  node_id_ = net_->AddNode([this](NetMessage&& m) { OnMessage(std::move(m)); });
}

RpcEndpoint::~RpcEndpoint() { replies_->Orphan(); }

void RpcEndpoint::Register(MethodId method, Handler handler) {
  handlers_[method] = std::move(handler);
}

RpcEndpoint::Frame RpcEndpoint::RequestFrame(MethodId method, uint64_t rpc_id,
                                             WireExtent body) {
  Frame f;
  f.end = kRequestHeaderBytes + body.bytes;
  f.enc.Reserve({f.end, body.atts});
  f.enc.PutU8(kKindRequest);
  f.enc.PutU32(method);
  f.enc.PutU64(rpc_id);
  f.enc.PutU32(static_cast<uint32_t>(body.bytes));
  return f;
}

RpcEndpoint::Frame RpcEndpoint::ResponseFrame(uint64_t rpc_id, const Status& status,
                                              WireExtent body) {
  Frame f;
  f.end = kResponseHeaderBytes + status.message().size() + body.bytes;
  f.enc.Reserve({f.end, body.atts});
  f.enc.PutU8(kKindResponse);
  f.enc.PutU64(rpc_id);
  f.enc.PutU8(static_cast<uint8_t>(status.code()));
  f.enc.PutBytes(status.message());
  f.enc.PutU32(static_cast<uint32_t>(body.bytes));
  return f;
}

void RpcEndpoint::Call(NodeId dest, MethodId method, Buf body, ResponseCallback cb,
                       uint64_t timeout_ns, std::vector<Buf> atts) {
  const uint64_t rpc_id = NewCall();
  Frame frame = RequestFrame(method, rpc_id, {body.size(), 0});
  frame.enc.PutRaw(body.data(), body.size());
  Issue(dest, method, rpc_id, std::move(frame), std::move(atts), std::move(cb), timeout_ns);
}

void RpcEndpoint::Issue(NodeId dest, MethodId method, uint64_t rpc_id, Frame frame,
                        std::vector<Buf> atts, ResponseCallback cb, uint64_t timeout_ns) {
  LL_CHECK(cb, "a call needs a callback; send a message nobody answers with Notify");
  // The frame holds only the header and the (attachment-stripped) body; payload bytes
  // ride as separate segments, so framing never re-touches record data. The NIC still
  // charges frame + attachment bytes (Network::Send default), which equals the old
  // inline encoding byte-for-byte.
  EventHandle timeout;
  if (timeout_ns > 0) {
    timeout = loop()->Schedule(timeout_ns, [this, rpc_id]() {
      Pending p = TakePending(rpc_id);
      if (p.rpc_id != 0) {
        p.cb(Status::Timeout(), Decoder());
      }
    });
  }
  Pending& p = pending_[static_cast<uint32_t>(rpc_id)];
  p.cb = std::move(cb);
  p.timeout = timeout;
  SendRequest(dest, method, std::move(frame), std::move(atts));
}

void RpcEndpoint::SendRequest(NodeId dest, MethodId method, Frame frame,
                              std::vector<Buf> atts) {
  LL_CHECK(frame.enc.size() == frame.end, "request body does not match its WireSize");
  net_->Send(node_id_, dest, frame.enc.TakeBuf(), 0, std::move(atts),
             IsOrderingWindowMethod(method));
}

uint64_t RpcEndpoint::NewCall() {
  const uint32_t slot = pending_.Acquire();
  Pending& p = pending_[slot];
  p.rpc_id = (static_cast<uint64_t>(++p.gen) << 32) | slot;
  return p.rpc_id;
}

RpcEndpoint::Pending RpcEndpoint::TakePending(uint64_t rpc_id) {
  const uint32_t slot = static_cast<uint32_t>(rpc_id);
  if (rpc_id == 0 || slot >= pending_.size() || pending_[slot].rpc_id != rpc_id) {
    return {};
  }
  Pending& p = pending_[slot];
  Pending taken{rpc_id, p.gen, std::move(p.cb), p.timeout};
  p.rpc_id = 0;
  pending_.Release(slot);
  return taken;
}

void RpcEndpoint::CancelAll() {
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].rpc_id != 0) {
      ids.push_back(pending_[i].rpc_id);
    }
  }
  for (uint64_t id : ids) {
    Pending p = TakePending(id);
    p.timeout.Cancel();
    p.cb(Status::Unavailable("call cancelled"), Decoder());
  }
}

void RpcEndpoint::SendResponse(NodeId dest, Frame frame, std::vector<Buf> atts) {
  LL_CHECK(frame.enc.size() == frame.end, "reply body does not match its WireSize");
  net_->Send(node_id_, dest, frame.enc.TakeBuf(), 0, std::move(atts));
}

void RpcEndpoint::OnMessage(NetMessage&& msg) {
  // The frame decoder owns the message backing; the body is sliced out of it (no copy)
  // and handed to the handler/callback together with the attachment handles.
  Decoder d(std::move(msg.payload));
  uint8_t kind = 0;
  if (!d.GetU8(&kind)) {
    LLOG(kWarn) << "malformed rpc frame from node " << msg.from;
    return;
  }
  if (kind == kKindRequest) {
    uint32_t method = 0;
    uint64_t rpc_id = 0;
    Buf body;
    if (!d.GetU32(&method) || !d.GetU64(&rpc_id) || !d.GetBufView(&body)) {
      LLOG(kWarn) << "malformed rpc request from node " << msg.from;
      return;
    }
    // A notification (rpc id 0) gets a responder too; whatever answers it, a handler's
    // reply or one of the errors below, is dropped there (Responder::Claim).
    Responder responder(replies_, replies_->Acquire(msg.from, rpc_id));
    // A method id wider than MethodId names no handler (it must not alias one).
    auto it = method <= std::numeric_limits<MethodId>::max()
                  ? handlers_.find(static_cast<MethodId>(method))
                  : handlers_.end();
    if (it == handlers_.end()) {
      responder.Send(Status::Unavailable("no handler for method"));
      return;
    }
    it->second(msg.from, Decoder(std::move(body), std::move(msg.atts)), std::move(responder));
    return;
  }
  if (kind == kKindResponse) {
    uint64_t rpc_id = 0;
    uint8_t code = 0;
    std::string message;
    Buf body;
    if (!d.GetU64(&rpc_id) || !d.GetU8(&code) || !d.GetBytes(&message) || !d.GetBufView(&body)) {
      LLOG(kWarn) << "malformed rpc response from node " << msg.from;
      return;
    }
    Pending p = TakePending(rpc_id);
    if (p.rpc_id == 0) {
      return;  // late response after timeout; drop
    }
    p.timeout.Cancel();
    if (code > static_cast<uint8_t>(kLastStatusCode)) {
      p.cb(Status::Internal("malformed reply"), Decoder());
      return;
    }
    p.cb(Status(static_cast<StatusCode>(code), std::move(message)),
         Decoder(std::move(body), std::move(msg.atts)));
    return;
  }
  LLOG(kWarn) << "unknown rpc frame kind " << static_cast<int>(kind);
}

}  // namespace lazylog
