// Erwin-m client library (§4). Appends write the record to every sequencing replica in
// parallel and complete when all acknowledge — 1 RTT, no coordination. Reads go to the
// shard owning the position (p mod n); the shard gates them on stable-gp. Everything
// but the append fan-out and the position->shard resolution is the shared ErwinClient.
#ifndef SRC_LAZYLOG_ERWIN_M_CLIENT_H_
#define SRC_LAZYLOG_ERWIN_M_CLIENT_H_

#include <memory>

#include "src/lazylog/erwin_client.h"

namespace lazylog {

class ErwinMClient : public ErwinClient {
 public:
  ErwinMClient(Network* net, const SimParams& params, ClusterView view, ClientId client_id)
      : ErwinClient(net, params, std::move(view), client_id) {}

 protected:
  void SendAppend(std::shared_ptr<PendingAppend> p) override;
  void PlaceRead(std::shared_ptr<ReadOp> op) override;
};

}  // namespace lazylog

#endif  // SRC_LAZYLOG_ERWIN_M_CLIENT_H_
