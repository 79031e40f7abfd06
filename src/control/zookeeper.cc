#include "src/control/zookeeper.h"

#include "src/common/logging.h"

namespace lazylog {

ZooKeeperLite::ZooKeeperLite(Network* net, const ControlParams& params)
    : endpoint_(net),
      cpu_(net->loop(), CpuParams{.fixed_ns = 1'000, .copy_bandwidth_bytes_per_sec = 5e9}),
      params_(params) {
  endpoint_.Handle(kZkCreateSession, this, &ZooKeeperLite::HandleCreateSession);
  endpoint_.Handle(kZkHeartbeat, this, &ZooKeeperLite::HandleHeartbeat);
  endpoint_.Handle(kZkCreate, this, &ZooKeeperLite::HandleCreate);
  endpoint_.Handle(kZkSetData, this, &ZooKeeperLite::HandleSetData);
  endpoint_.Handle(kZkGetData, this, &ZooKeeperLite::HandleGetData);
  endpoint_.Handle(kZkDelete, this, &ZooKeeperLite::HandleDelete);
  endpoint_.Handle(kZkList, this, &ZooKeeperLite::HandleList);
  endpoint_.Handle(kZkWatch, this, &ZooKeeperLite::HandleWatch);
  // Session expiry scan.
  endpoint_.loop()->Schedule(params_.session_heartbeat_ns, [this]() { CheckSessions(); });
}

std::string ZooKeeperLite::DataOf(const std::string& path) const {
  auto it = znodes_.find(path);
  return it == znodes_.end() ? std::string() : it->second.data;
}

void ZooKeeperLite::HandleCreateSession(NodeId caller, NoBody, Responder r) {
  const uint64_t id = next_session_id_++;
  sessions_[id] = Session{id, caller, endpoint_.loop()->Now()};
  r.Ok(id);
}

void ZooKeeperLite::HandleHeartbeat(uint64_t id) {
  auto it = sessions_.find(id);
  if (it != sessions_.end()) {
    it->second.last_heartbeat = endpoint_.loop()->Now();
  }
}

void ZooKeeperLite::HandleCreate(ZkPathData req, Responder r) {
  cpu_.Execute(params_.zk_write_latency_ns, [this, req = std::move(req), r = std::move(r)]() mutable {
    if (znodes_.count(req.path) > 0) {
      r.Send(Status::Duplicate("znode exists"));
      return;
    }
    // An ephemeral create races with its session's expiry across the write queue: if
    // the session died first the znode must not be born (it would be a zombie nothing
    // ever deletes, so its deletion watch would never fire). Real ZooKeeper fails the
    // create the same way; the session owner re-establishes and retries.
    if (req.arg != 0 && sessions_.count(req.arg) == 0) {
      r.Send(Status::Unavailable("session expired"));
      return;
    }
    znodes_[req.path] = Znode{req.data, 0, req.arg};
    FireWatches(req.path, ZkEvent::kCreated);
    r.Send(Status::Ok());
  });
}

void ZooKeeperLite::HandleSetData(ZkPathData req, Responder r) {
  cpu_.Execute(params_.zk_write_latency_ns, [this, req = std::move(req), r = std::move(r)]() mutable {
    auto it = znodes_.find(req.path);
    if (it == znodes_.end()) {
      // ZooKeeper would fail; we upsert for convenience of config paths.
      znodes_[req.path] = Znode{req.data, 0, 0};
      FireWatches(req.path, ZkEvent::kCreated);
      r.Ok(uint64_t{0});
      return;
    }
    if (req.arg != UINT64_MAX && req.arg != it->second.version) {
      r.Send(Status::Rejected("bad version"));
      return;
    }
    it->second.data = req.data;
    it->second.version++;
    FireWatches(req.path, ZkEvent::kDataChanged);
    r.Ok(it->second.version);
  });
}

void ZooKeeperLite::HandleGetData(std::string path, Responder r) {
  cpu_.Execute(params_.zk_read_latency_ns, [this, path, r = std::move(r)]() mutable {
    auto it = znodes_.find(path);
    if (it == znodes_.end()) {
      r.Send(Status::OutOfRange("no such znode"));
      return;
    }
    r.Ok(ZkDataResp{it->second.data, it->second.version});
  });
}

void ZooKeeperLite::HandleDelete(std::string path, Responder r) {
  cpu_.Execute(params_.zk_write_latency_ns, [this, path, r = std::move(r)]() mutable {
    if (znodes_.erase(path) == 0) {
      r.Send(Status::OutOfRange("no such znode"));
      return;
    }
    FireWatches(path, ZkEvent::kDeleted);
    r.Send(Status::Ok());
  });
}

void ZooKeeperLite::HandleList(std::string prefix, Responder r) {
  cpu_.Execute(params_.zk_read_latency_ns, [this, prefix, r = std::move(r)]() mutable {
    std::vector<std::string> paths;
    for (auto it = znodes_.lower_bound(prefix); it != znodes_.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) {
        break;
      }
      paths.push_back(it->first);
    }
    r.Ok(paths);
  });
}

void ZooKeeperLite::HandleWatch(NodeId caller, std::string prefix) {
  watches_.push_back(Watch{caller, std::move(prefix)});
}

void ZooKeeperLite::CheckSessions() {
  const SimTime now = endpoint_.loop()->Now();
  std::vector<uint64_t> expired;
  for (const auto& [id, s] : sessions_) {
    if (now - s.last_heartbeat > params_.session_timeout_ns) {
      expired.push_back(id);
    }
  }
  for (uint64_t id : expired) {
    ExpireSession(id);
  }
  endpoint_.loop()->Schedule(params_.session_heartbeat_ns, [this]() { CheckSessions(); });
}

void ZooKeeperLite::ExpireSession(uint64_t session_id) {
  LLOG(kInfo) << "zk: session " << session_id << " expired";
  sessions_.erase(session_id);
  std::vector<std::string> to_delete;
  for (const auto& [path, z] : znodes_) {
    if (z.ephemeral_session == session_id) {
      to_delete.push_back(path);
    }
  }
  for (const auto& path : to_delete) {
    znodes_.erase(path);
    FireWatches(path, ZkEvent::kDeleted);
  }
}

void ZooKeeperLite::FireWatches(const std::string& path, ZkEvent event) {
  for (const Watch& w : watches_) {
    if (path.compare(0, w.prefix.size(), w.prefix) == 0) {
      endpoint_.Notify(w.watcher, kZkWatchFire, ZkWatchEvent{path, static_cast<uint8_t>(event)});
    }
  }
}

// --- ZkSession -----------------------------------------------------------------------

ZkSession::ZkSession(RpcEndpoint* endpoint, NodeId zk_node, const ControlParams& params)
    : endpoint_(endpoint), zk_node_(zk_node), params_(params) {}

void ZkSession::Start(const std::string& ephemeral_path, std::function<void()> on_ready) {
  endpoint_->CallMsg<uint64_t>(
      zk_node_, kZkCreateSession, NoBody{},
      [this, ephemeral_path, on_ready](Status s, uint64_t session_id) {
        if (!s.ok()) {
          LLOG(kWarn) << "zk session create failed: " << s.ToString();
          return;
        }
        session_id_ = session_id;
        HeartbeatLoop();
        if (ephemeral_path.empty()) {
          if (on_ready) {
            on_ready();
          }
          return;
        }
        endpoint_->CallMsg(zk_node_, kZkCreate, ZkPathData{ephemeral_path, "", session_id_},
                           [this, ephemeral_path, on_ready](Status s2, Decoder) {
                             if (s2.ok()) {
                               if (on_ready) {
                                 on_ready();
                               }
                               return;
                             }
                             // The session can expire under ZK's write queue before the
                             // ephemeral lands (the create is then refused). Start over
                             // with a fresh session so liveness registration eventually
                             // sticks.
                             LLOG(kWarn) << "zk ephemeral create failed (" << s2.ToString()
                                         << "); re-establishing session";
                             heartbeat_event_.Cancel();
                             endpoint_->loop()->Schedule(
                                 params_.session_heartbeat_ns,
                                 [this, ephemeral_path, on_ready]() {
                                   if (!stopped_) {
                                     Start(ephemeral_path, on_ready);
                                   }
                                 });
                           },
                           0);
      },
      0);
}

void ZkSession::Stop() {
  stopped_ = true;
  heartbeat_event_.Cancel();
}

void ZkSession::HeartbeatLoop() {
  if (stopped_) {
    return;
  }
  endpoint_->Notify(zk_node_, kZkHeartbeat, session_id_);
  heartbeat_event_ =
      endpoint_->loop()->Schedule(params_.session_heartbeat_ns, [this]() { HeartbeatLoop(); });
}

// --- ZkClient ------------------------------------------------------------------------

void ZkClient::Create(const std::string& path, const std::string& data,
                      uint64_t ephemeral_session, DoneCallback cb, uint64_t timeout_ns) {
  endpoint_->CallMsg(zk_node_, kZkCreate, ZkPathData{path, data, ephemeral_session},
                     [cb](Status s, Decoder) {
                       if (cb) {
                         cb(std::move(s));
                       }
                     },
                     timeout_ns);
}

void ZkClient::SetData(const std::string& path, const std::string& data,
                       uint64_t expected_version, DoneCallback cb, uint64_t timeout_ns) {
  endpoint_->CallMsg(zk_node_, kZkSetData, ZkPathData{path, data, expected_version},
                     [cb](Status s, Decoder) {
                       if (cb) {
                         cb(std::move(s));
                       }
                     },
                     timeout_ns);
}

void ZkClient::GetData(const std::string& path, DataCallback cb, uint64_t timeout_ns) {
  endpoint_->CallMsg<ZkDataResp>(zk_node_, kZkGetData, path,
                                 [cb](Status s, ZkDataResp resp) {
                                   cb(std::move(s), std::move(resp.data), resp.version);
                                 },
                                 timeout_ns);
}

void ZkClient::Delete(const std::string& path, DoneCallback cb, uint64_t timeout_ns) {
  endpoint_->CallMsg(zk_node_, kZkDelete, path,
                     [cb](Status s, Decoder) {
                       if (cb) {
                         cb(std::move(s));
                       }
                     },
                     timeout_ns);
}

void ZkClient::List(const std::string& prefix, ListCallback cb, uint64_t timeout_ns) {
  endpoint_->CallMsg<std::vector<std::string>>(zk_node_, kZkList, prefix, std::move(cb),
                                               timeout_ns);
}

void ZkClient::Watch(const std::string& prefix, WatchCallback cb) {
  watch_cb_ = std::move(cb);
  endpoint_->Handle<ZkWatchEvent>(kZkWatchFire, [this](NodeId, const ZkWatchEvent& ev) {
    if (watch_cb_) {
      watch_cb_(ev.path, static_cast<ZkEvent>(ev.event));
    }
  });
  endpoint_->Notify(zk_node_, kZkWatch, prefix);
}

}  // namespace lazylog
