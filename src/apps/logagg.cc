#include "src/apps/logagg.h"

#include "src/common/codec.h"

namespace lazylog {

TxnServer::TxnServer(Network* net, const SimParams& params,
                     std::unique_ptr<SharedLogClient> audit_log)
    : TxnServer(net, params, std::move(audit_log), Costs()) {}

TxnServer::TxnServer(Network* net, const SimParams& params,
                     std::unique_ptr<SharedLogClient> audit_log, Costs costs, LogId log_id)
    : endpoint_(net),
      cpu_(net->loop(), CpuParams{.fixed_ns = 300, .copy_bandwidth_bytes_per_sec = 4e9}),
      client_(std::move(audit_log)),
      audit_log_(client_->handle(log_id)),
      costs_(costs) {
  endpoint_.Handle(kTxnExecute, this, &TxnServer::HandleTxn);
}

void TxnServer::HandleTxn(const TxnReq& req, Responder r) {
  const TxnType type = static_cast<TxnType>(req.type);
  const uint64_t account = req.account;
  const int64_t amount = static_cast<int64_t>(req.amount);
  const uint64_t exec_ns = TxnIsWrite(type) ? costs_.write_exec_ns : costs_.read_exec_ns;
  // Execute against the local database, then synchronously log the audit record (§6.11:
  // "since audits are critical, logging happens synchronously").
  cpu_.Execute(exec_ns, [this, type, account, amount, r]() mutable {
    switch (type) {
      case TxnType::kCreateAccount:
        balances_.emplace(account, 0);
        break;
      case TxnType::kDeposit:
        balances_[account] += amount;
        break;
      case TxnType::kWithdraw:
        balances_[account] -= amount;
        break;
      case TxnType::kTransfer:
        balances_[account] -= amount;
        balances_[account ^ 1] += amount;
        break;
      case TxnType::kBalanceQuery:
      case TxnType::kStatusQuery:
        (void)balances_[account];
        break;
    }
    Encoder audit;
    WireEncode(audit, TxnReq{static_cast<uint8_t>(type), account, static_cast<uint64_t>(amount)});
    std::string record = audit.Take();
    record.resize(128, 'a');  // audit records carry context; ~128 B on the wire
    audit_log_.Append(std::move(record), [this, r](Status s) mutable {
      committed_++;
      r.Send(s.ok() ? Status::Ok() : Status::Unavailable("audit append failed"));
    });
  });
}

TxnClient::TxnClient(Network* net, const SimParams& params, NodeId server)
    : endpoint_(net), params_(params), server_(server) {}

void TxnClient::Execute(TxnType type, uint64_t account, int64_t amount, TxnCallback cb) {
  endpoint_.CallMsg(server_, kTxnExecute,
                    TxnReq{static_cast<uint8_t>(type), account, static_cast<uint64_t>(amount)},
                    [cb](Status s, Decoder) { cb(s.ok()); }, params_.rpc_timeout_ns);
}

}  // namespace lazylog
