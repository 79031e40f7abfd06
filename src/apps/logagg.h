// Audit-logging for a transaction-processing application (§6.11, Fig 18b). Each
// transaction server processes account operations against a local database (a
// RocksDB-calibrated in-memory store) and synchronously logs an audit record to the
// shared log before acknowledging — audit logs are read only offline, so the log is
// write-only in the measured workload.
#ifndef SRC_APPS_LOGAGG_H_
#define SRC_APPS_LOGAGG_H_

#include <memory>
#include <unordered_map>

#include "src/common/params.h"
#include "src/lazylog/shared_log_client.h"
#include "src/rpc/rpc.h"
#include "src/rpc/rpc_methods.h"
#include "src/sim/resources.h"

namespace lazylog {

enum class TxnType : uint8_t {
  kCreateAccount = 0,
  kDeposit = 1,
  kWithdraw = 2,
  kTransfer = 3,
  kBalanceQuery = 4,
  kStatusQuery = 5,
};

// A transaction request; its bytes also open the transaction's audit record.
struct TxnReq {
  uint8_t type = 0;  // a TxnType
  uint64_t account = 0;
  uint64_t amount = 0;  // int64_t, two's complement
  template <class Ar> void Wire(Ar& ar) { ar(type, account, amount); }
};

inline bool TxnIsWrite(TxnType t) {
  return t == TxnType::kCreateAccount || t == TxnType::kDeposit || t == TxnType::kWithdraw ||
         t == TxnType::kTransfer;
}

// One shard of the transaction-processing application.
class TxnServer {
 public:
  // Execution costs calibrated to the paper: write txns ~23 us, read txns ~4 us.
  struct Costs {
    uint64_t write_exec_ns = 23 * kUs;
    uint64_t read_exec_ns = 4 * kUs;
  };

  // `log_id` selects the virtual log the audit records go to (kDefaultLog = the
  // physical log); multi-tenant deployments give each application its own phylog.
  TxnServer(Network* net, const SimParams& params, std::unique_ptr<SharedLogClient> audit_log,
            Costs costs, LogId log_id = kDefaultLog);
  TxnServer(Network* net, const SimParams& params, std::unique_ptr<SharedLogClient> audit_log);

  NodeId node_id() const { return endpoint_.node_id(); }
  uint64_t committed() const { return committed_; }

 private:
  void HandleTxn(const TxnReq& req, Responder r);

  RpcEndpoint endpoint_;
  ServerCpu cpu_;
  std::unique_ptr<SharedLogClient> client_;  // owns the connection; audit_log_ is the face
  LogHandle audit_log_;
  Costs costs_;
  std::unordered_map<uint64_t, int64_t> balances_;  // the local "RocksDB"
  uint64_t committed_ = 0;
};

class TxnClient {
 public:
  TxnClient(Network* net, const SimParams& params, NodeId server);

  using TxnCallback = std::function<void(bool ok)>;
  void Execute(TxnType type, uint64_t account, int64_t amount, TxnCallback cb);

 private:
  RpcEndpoint endpoint_;
  SimParams params_;
  NodeId server_;
};

}  // namespace lazylog

#endif  // SRC_APPS_LOGAGG_H_
