// Writer/reader-decoupled key-value store modeled after Firescroll (§6.11, Fig 18a).
// Put-s go to a write-processing server that validates, serializes, appends to the
// shared log, and acknowledges; read servers consume the log at their own pace, build
// local state, and serve eventually consistent get-s without synchronizing with the log.
#ifndef SRC_APPS_KVSTORE_H_
#define SRC_APPS_KVSTORE_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "src/common/params.h"
#include "src/lazylog/shared_log_client.h"
#include "src/rpc/rpc.h"
#include "src/rpc/rpc_methods.h"
#include "src/sim/resources.h"

namespace lazylog {

// A put request; its bytes are also the log record of the update.
struct KvPutReq {
  std::string key;
  std::string value;
  template <class Ar> void Wire(Ar& ar) { ar(key, value); }
};

// Serialization of one KV update as a log record.
std::string EncodeKvUpdate(const std::string& key, const std::string& value);
bool DecodeKvUpdate(const std::string& record, std::string* key, std::string* value);
bool DecodeKvUpdate(const Buf& record, std::string* key, std::string* value);

// Accepts Put requests, appends them to the shared log, acks once durable.
class KvWriteServer {
 public:
  // `log_id` binds the store to one virtual log (kDefaultLog = the physical log), so
  // several tenants' stores can share a cluster without seeing each other's updates.
  KvWriteServer(Network* net, const SimParams& params, std::unique_ptr<SharedLogClient> log,
                LogId log_id = kDefaultLog);

  NodeId node_id() const { return endpoint_.node_id(); }
  uint64_t puts() const { return puts_; }

 private:
  RpcEndpoint endpoint_;
  ServerCpu cpu_;
  std::unique_ptr<SharedLogClient> client_;  // owns the connection; handle_ is the face
  LogHandle handle_;
  uint64_t puts_ = 0;
};

// Consumes the log in the background and serves Get requests from local state.
class KvReadServer {
 public:
  KvReadServer(Network* net, const SimParams& params, std::unique_ptr<SharedLogClient> log,
               uint64_t poll_interval_ns = 200 * kUs, LogId log_id = kDefaultLog);

  NodeId node_id() const { return endpoint_.node_id(); }
  uint64_t applied() const { return applied_; }
  size_t keys() const { return state_.size(); }

 private:
  void PollLoop();

  RpcEndpoint endpoint_;
  ServerCpu cpu_;
  std::unique_ptr<SharedLogClient> client_;
  LogHandle handle_;
  uint64_t poll_interval_ns_;
  LogPos cursor_ = 0;
  bool poll_busy_ = false;
  std::unordered_map<std::string, std::string> state_;
  uint64_t applied_ = 0;
};

// End-user client of the store.
class KvClient {
 public:
  KvClient(Network* net, const SimParams& params, NodeId write_server, NodeId read_server);

  using PutCallback = std::function<void(bool ok)>;
  using GetCallback = std::function<void(Status, std::string value)>;

  void Put(const std::string& key, const std::string& value, PutCallback cb);
  void Get(const std::string& key, GetCallback cb);

 private:
  RpcEndpoint endpoint_;
  SimParams params_;
  NodeId write_server_;
  NodeId read_server_;
};

}  // namespace lazylog

#endif  // SRC_APPS_KVSTORE_H_
