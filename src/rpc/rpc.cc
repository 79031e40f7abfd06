#include "src/rpc/rpc.h"

#include "src/common/logging.h"
#include "src/rpc/rpc_methods.h"

namespace lazylog {

namespace {
constexpr uint8_t kKindRequest = 1;
constexpr uint8_t kKindResponse = 2;
}  // namespace

void Responder::Send(const Status& status, Buf body, std::vector<Buf> atts) {
  LL_CHECK(inner_ != nullptr && inner_->endpoint != nullptr,
           "responding twice or with an empty Responder");
  inner_->endpoint->SendResponse(inner_->caller, inner_->rpc_id, status, std::move(body),
                                 std::move(atts));
  inner_->endpoint = nullptr;
}

RpcEndpoint::RpcEndpoint(Network* net) : net_(net) {
  node_id_ = net_->AddNode([this](NetMessage&& m) { OnMessage(std::move(m)); });
}

void RpcEndpoint::Register(MethodId method, Handler handler) {
  handlers_[method] = std::move(handler);
}

void RpcEndpoint::Call(NodeId dest, MethodId method, Buf body, ResponseCallback cb,
                       uint64_t timeout_ns, std::vector<Buf> atts) {
  const uint64_t rpc_id = next_rpc_id_++;
  stats_.calls_issued++;
  // The frame holds only the header and the (attachment-stripped) body; payload bytes
  // ride as separate segments, so framing never re-touches record data. The NIC still
  // charges frame + attachment bytes (Network::Send default), which equals the old
  // inline encoding byte-for-byte.
  Encoder enc;
  enc.PutU8(kKindRequest);
  enc.PutU32(method);
  enc.PutU64(rpc_id);
  enc.PutBytes(body.data(), body.size());

  Pending pending;
  pending.cb = std::move(cb);
  if (timeout_ns > 0) {
    pending.timeout = loop()->Schedule(timeout_ns, [this, rpc_id]() {
      auto it = pending_.find(rpc_id);
      if (it == pending_.end()) {
        return;
      }
      auto cb2 = std::move(it->second.cb);
      pending_.erase(it);
      stats_.timeouts++;
      if (cb2) {
        cb2(Status::Timeout(), Decoder());
      }
    });
  }
  pending_.emplace(rpc_id, std::move(pending));
  net_->Send(node_id_, dest, enc.TakeBuf(), 0, std::move(atts), IsOrderingWindowMethod(method));
}

void RpcEndpoint::CancelAll() {
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& [id, p] : pending) {
    p.timeout.Cancel();
    stats_.cancelled++;
    if (p.cb) {
      p.cb(Status::Unavailable("call cancelled"), Decoder());
    }
  }
}

void RpcEndpoint::SendResponse(NodeId dest, uint64_t rpc_id, const Status& status, Buf body,
                               std::vector<Buf> atts) {
  Encoder enc;
  enc.PutU8(kKindResponse);
  enc.PutU64(rpc_id);
  enc.PutU8(static_cast<uint8_t>(status.code()));
  enc.PutBytes(status.message());
  enc.PutBytes(body.data(), body.size());
  net_->Send(node_id_, dest, enc.TakeBuf(), 0, std::move(atts));
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
    auto it = handlers_.find(static_cast<MethodId>(method));
    Responder responder(this, msg.from, rpc_id);
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
    auto it = pending_.find(rpc_id);
    if (it == pending_.end()) {
      return;  // late response after timeout; drop
    }
    it->second.timeout.Cancel();
    auto cb = std::move(it->second.cb);
    pending_.erase(it);
    stats_.responses_received++;
    if (cb) {
      cb(Status(static_cast<StatusCode>(code), std::move(message)),
         Decoder(std::move(body), std::move(msg.atts)));
    }
    return;
  }
  LLOG(kWarn) << "unknown rpc frame kind " << static_cast<int>(kind);
}

}  // namespace lazylog
