#include "src/apps/kvstore.h"

#include "src/common/codec.h"
#include "src/common/logging.h"

namespace lazylog {

std::string EncodeKvUpdate(const std::string& key, const std::string& value) {
  Encoder e;
  WireEncode(e, KvPutReq{key, value});
  return e.Take();
}

namespace {
bool DecodeKvUpdate(Decoder d, std::string* key, std::string* value) {
  KvPutReq update;
  if (!WireDecode(d, update)) {
    return false;
  }
  *key = std::move(update.key);
  *value = std::move(update.value);
  return true;
}
}  // namespace

bool DecodeKvUpdate(const std::string& record, std::string* key, std::string* value) {
  return DecodeKvUpdate(Decoder(record), key, value);
}

bool DecodeKvUpdate(const Buf& record, std::string* key, std::string* value) {
  return DecodeKvUpdate(Decoder(record.data(), record.size()), key, value);
}

// --- write server ---------------------------------------------------------------------

KvWriteServer::KvWriteServer(Network* net, const SimParams& params,
                             std::unique_ptr<SharedLogClient> log, LogId log_id)
    : endpoint_(net),
      cpu_(net->loop(), CpuParams{.fixed_ns = 500, .copy_bandwidth_bytes_per_sec = 4e9}),
      client_(std::move(log)),
      handle_(client_->handle(log_id)) {
  endpoint_.Handle<KvPutReq>(kKvPut, [this](NodeId, KvPutReq req, Responder r) {
    // Validate + serialize, then append; the ack waits only for log durability — the
    // dominant cost of a put in this application (§6.11).
    const size_t bytes = req.key.size() + req.value.size();
    cpu_.ExecuteFor(bytes, [this, req = std::move(req), r]() mutable {
      handle_.Append(EncodeKvUpdate(req.key, req.value), [this, r](Status s) mutable {
        puts_++;
        r.Send(s.ok() ? Status::Ok() : Status::Unavailable("log append failed"));
      });
    });
  });
}

// --- read server -----------------------------------------------------------------------

KvReadServer::KvReadServer(Network* net, const SimParams& params,
                           std::unique_ptr<SharedLogClient> log, uint64_t poll_interval_ns,
                           LogId log_id)
    : endpoint_(net),
      cpu_(net->loop(), CpuParams{.fixed_ns = 400, .copy_bandwidth_bytes_per_sec = 4e9}),
      client_(std::move(log)),
      handle_(client_->handle(log_id)),
      poll_interval_ns_(poll_interval_ns) {
  endpoint_.Handle<std::string>(kKvGet, [this](NodeId, std::string key, Responder r) {
    const size_t bytes = key.size();
    cpu_.ExecuteFor(bytes, [this, key = std::move(key), r]() mutable {
      auto it = state_.find(key);
      r.Ok(it == state_.end() ? std::string() : it->second);
    });
  });
  PollLoop();
}

void KvReadServer::PollLoop() {
  // "Consume the log at their own pace" (§3.1): check the stable prefix and apply
  // anything new, then sleep.
  if (poll_busy_) {
    endpoint_.loop()->Schedule(poll_interval_ns_, [this]() { PollLoop(); });
    return;
  }
  poll_busy_ = true;
  handle_.CheckTail([this](Status s, LogPos, LogPos stable) {
    if (!s.ok() || stable <= cursor_) {
      poll_busy_ = false;
      endpoint_.loop()->Schedule(poll_interval_ns_, [this]() { PollLoop(); });
      return;
    }
    const LogPos from = cursor_;
    const uint64_t len = std::min<uint64_t>(stable - cursor_, 1024);
    cursor_ = from + len;
    handle_.Read(from, len, [this](Status rs, std::vector<PositionedRecord> records) {
      if (rs.ok()) {
        for (const PositionedRecord& pr : records) {
          if (pr.record.no_op) {
            continue;
          }
          std::string key, value;
          if (DecodeKvUpdate(pr.record.payload, &key, &value)) {
            state_[key] = value;
            applied_++;
          }
        }
      }
      poll_busy_ = false;
      endpoint_.loop()->Schedule(poll_interval_ns_, [this]() { PollLoop(); });
    });
  });
}

// --- client ------------------------------------------------------------------------------

KvClient::KvClient(Network* net, const SimParams& params, NodeId write_server,
                   NodeId read_server)
    : endpoint_(net), params_(params), write_server_(write_server), read_server_(read_server) {}

void KvClient::Put(const std::string& key, const std::string& value, PutCallback cb) {
  endpoint_.CallMsg(write_server_, kKvPut, KvPutReq{key, value},
                    [cb](Status s, Decoder) {
                      if (cb) {
                        cb(s.ok());
                      }
                    },
                    params_.rpc_timeout_ns);
}

void KvClient::Get(const std::string& key, GetCallback cb) {
  endpoint_.CallMsg<std::string>(read_server_, kKvGet, key, cb, params_.rpc_timeout_ns);
}

}  // namespace lazylog
