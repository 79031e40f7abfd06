#include "src/control/zookeeper.h"

#include "src/common/logging.h"

namespace lazylog {

namespace {
// Wire helpers local to the ZK protocol.
struct ZkPathData {
  std::string path;
  std::string data;
  uint64_t arg = 0;  // ephemeral session / expected version
  template <class Ar> void Wire(Ar& ar) { ar(path, data, arg); }
};
}  // namespace

ZooKeeperLite::ZooKeeperLite(Network* net, const ControlParams& params)
    : endpoint_(net),
      cpu_(net->loop(), CpuParams{.fixed_ns = 1'000, .copy_bandwidth_bytes_per_sec = 5e9}),
      params_(params) {
  endpoint_.Register(kZkCreateSession, [this](NodeId c, Decoder d, Responder r) {
    HandleCreateSession(c, d, std::move(r));
  });
  endpoint_.Register(kZkHeartbeat, [this](NodeId c, Decoder d, Responder r) {
    HandleHeartbeat(c, d, std::move(r));
  });
  endpoint_.Register(kZkCreate, [this](NodeId c, Decoder d, Responder r) {
    HandleCreate(c, d, std::move(r));
  });
  endpoint_.Register(kZkSetData, [this](NodeId c, Decoder d, Responder r) {
    HandleSetData(c, d, std::move(r));
  });
  endpoint_.Register(kZkGetData, [this](NodeId c, Decoder d, Responder r) {
    HandleGetData(c, d, std::move(r));
  });
  endpoint_.Register(kZkDelete, [this](NodeId c, Decoder d, Responder r) {
    HandleDelete(c, d, std::move(r));
  });
  endpoint_.Register(kZkList, [this](NodeId c, Decoder d, Responder r) {
    HandleList(c, d, std::move(r));
  });
  endpoint_.Register(kZkWatch, [this](NodeId c, Decoder d, Responder r) {
    HandleWatch(c, d, std::move(r));
  });
  // Session expiry scan.
  endpoint_.loop()->Schedule(params_.session_heartbeat_ns, [this]() { CheckSessions(); });
}

std::string ZooKeeperLite::DataOf(const std::string& path) const {
  auto it = znodes_.find(path);
  return it == znodes_.end() ? std::string() : it->second.data;
}

void ZooKeeperLite::HandleCreateSession(NodeId caller, Decoder d, Responder r) {
  const uint64_t id = next_session_id_++;
  sessions_[id] = Session{id, caller, endpoint_.loop()->Now()};
  Encoder e;
  e.PutU64(id);
  r.Ok(e);
}

void ZooKeeperLite::HandleHeartbeat(NodeId caller, Decoder d, Responder r) {
  uint64_t id = 0;
  if (!d.GetU64(&id)) {
    r.Send(Status::InvalidArgument("bad heartbeat"));
    return;
  }
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    r.Send(Status::Unavailable("session expired"));
    return;
  }
  it->second.last_heartbeat = endpoint_.loop()->Now();
  r.Send(Status::Ok());
}

void ZooKeeperLite::HandleCreate(NodeId caller, Decoder d, Responder r) {
  ZkPathData req;
  if (!WireDecode(d, req)) {
    r.Send(Status::InvalidArgument("bad create"));
    return;
  }
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

void ZooKeeperLite::HandleSetData(NodeId caller, Decoder d, Responder r) {
  ZkPathData req;
  if (!WireDecode(d, req)) {
    r.Send(Status::InvalidArgument("bad setData"));
    return;
  }
  cpu_.Execute(params_.zk_write_latency_ns, [this, req = std::move(req), r = std::move(r)]() mutable {
    auto it = znodes_.find(req.path);
    if (it == znodes_.end()) {
      // ZooKeeper would fail; we upsert for convenience of config paths.
      znodes_[req.path] = Znode{req.data, 0, 0};
      FireWatches(req.path, ZkEvent::kCreated);
      Encoder e;
      e.PutU64(0);
      r.Ok(e);
      return;
    }
    if (req.arg != UINT64_MAX && req.arg != it->second.version) {
      r.Send(Status::Rejected("bad version"));
      return;
    }
    it->second.data = req.data;
    it->second.version++;
    FireWatches(req.path, ZkEvent::kDataChanged);
    Encoder e;
    e.PutU64(it->second.version);
    r.Ok(e);
  });
}

void ZooKeeperLite::HandleGetData(NodeId caller, Decoder d, Responder r) {
  std::string path;
  if (!d.GetBytes(&path)) {
    r.Send(Status::InvalidArgument("bad getData"));
    return;
  }
  cpu_.Execute(params_.zk_read_latency_ns, [this, path, r = std::move(r)]() mutable {
    auto it = znodes_.find(path);
    if (it == znodes_.end()) {
      r.Send(Status::OutOfRange("no such znode"));
      return;
    }
    Encoder e;
    e.PutBytes(it->second.data);
    e.PutU64(it->second.version);
    r.Ok(e);
  });
}

void ZooKeeperLite::HandleDelete(NodeId caller, Decoder d, Responder r) {
  std::string path;
  if (!d.GetBytes(&path)) {
    r.Send(Status::InvalidArgument("bad delete"));
    return;
  }
  cpu_.Execute(params_.zk_write_latency_ns, [this, path, r = std::move(r)]() mutable {
    if (znodes_.erase(path) == 0) {
      r.Send(Status::OutOfRange("no such znode"));
      return;
    }
    FireWatches(path, ZkEvent::kDeleted);
    r.Send(Status::Ok());
  });
}

void ZooKeeperLite::HandleList(NodeId caller, Decoder d, Responder r) {
  std::string prefix;
  if (!d.GetBytes(&prefix)) {
    r.Send(Status::InvalidArgument("bad list"));
    return;
  }
  cpu_.Execute(params_.zk_read_latency_ns, [this, prefix, r = std::move(r)]() mutable {
    Encoder e;
    std::vector<std::string> paths;
    for (auto it = znodes_.lower_bound(prefix); it != znodes_.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) {
        break;
      }
      paths.push_back(it->first);
    }
    e.PutU32(static_cast<uint32_t>(paths.size()));
    for (const auto& p : paths) {
      e.PutBytes(p);
    }
    r.Ok(e);
  });
}

void ZooKeeperLite::HandleWatch(NodeId caller, Decoder d, Responder r) {
  std::string prefix;
  if (!d.GetBytes(&prefix)) {
    r.Send(Status::InvalidArgument("bad watch"));
    return;
  }
  watches_.push_back(Watch{caller, prefix});
  r.Send(Status::Ok());
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
      Encoder e;
      e.PutBytes(path);
      e.PutU8(static_cast<uint8_t>(event));
      // Fire-and-forget notification; the watcher's handler responds OK and we ignore it.
      endpoint_.Call(w.watcher, kZkWatchFire, e.Take(), nullptr, 0);
    }
  }
}

// --- ZkSession -----------------------------------------------------------------------

ZkSession::ZkSession(RpcEndpoint* endpoint, NodeId zk_node, const ControlParams& params)
    : endpoint_(endpoint), zk_node_(zk_node), params_(params) {}

void ZkSession::Start(const std::string& ephemeral_path, std::function<void()> on_ready) {
  endpoint_->Call(
      zk_node_, kZkCreateSession, "",
      [this, ephemeral_path, on_ready](Status s, Decoder d) {
        if (!s.ok()) {
          LLOG(kWarn) << "zk session create failed: " << s.ToString();
          return;
        }
        d.GetU64(&session_id_);
        HeartbeatLoop();
        if (ephemeral_path.empty()) {
          if (on_ready) {
            on_ready();
          }
          return;
        }
        Encoder e;
        WireEncode(e, ZkPathData{ephemeral_path, "", session_id_});
        endpoint_->Call(zk_node_, kZkCreate, e.Take(),
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
  Encoder e;
  e.PutU64(session_id_);
  endpoint_->Call(zk_node_, kZkHeartbeat, e.Take(), nullptr, 0);
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
  Encoder e;
  e.PutBytes(path);
  endpoint_->Call(zk_node_, kZkGetData, e.Take(),
                  [cb](Status s, Decoder d) {
                    std::string data;
                    uint64_t version = 0;
                    if (s.ok()) {
                      d.GetBytes(&data);
                      d.GetU64(&version);
                    }
                    cb(std::move(s), std::move(data), version);
                  },
                  timeout_ns);
}

void ZkClient::Delete(const std::string& path, DoneCallback cb, uint64_t timeout_ns) {
  Encoder e;
  e.PutBytes(path);
  endpoint_->Call(zk_node_, kZkDelete, e.Take(),
                  [cb](Status s, Decoder) {
                    if (cb) {
                      cb(std::move(s));
                    }
                  },
                  timeout_ns);
}

void ZkClient::List(const std::string& prefix, ListCallback cb, uint64_t timeout_ns) {
  Encoder e;
  e.PutBytes(prefix);
  endpoint_->Call(zk_node_, kZkList, e.Take(),
                  [cb](Status s, Decoder d) {
                    std::vector<std::string> paths;
                    if (s.ok()) {
                      uint32_t n = 0;
                      d.GetU32(&n);
                      for (uint32_t i = 0; i < n; ++i) {
                        std::string p;
                        if (!d.GetBytes(&p)) {
                          break;
                        }
                        paths.push_back(std::move(p));
                      }
                    }
                    cb(std::move(s), std::move(paths));
                  },
                  timeout_ns);
}

void ZkClient::Watch(const std::string& prefix, WatchCallback cb) {
  watch_cb_ = std::move(cb);
  endpoint_->Register(kZkWatchFire, [this](NodeId, Decoder d, Responder r) {
    std::string path;
    uint8_t event = 0;
    if (d.GetBytes(&path) && d.GetU8(&event) && watch_cb_) {
      watch_cb_(path, static_cast<ZkEvent>(event));
    }
    r.Send(Status::Ok());
  });
  Encoder e;
  e.PutBytes(prefix);
  endpoint_->Call(zk_node_, kZkWatch, e.Take(), nullptr, 0);
}

}  // namespace lazylog
