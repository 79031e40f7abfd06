// Per-node resource models: a FIFO single-core CPU and a bandwidth-limited disk.
// Servers funnel their request handling through these so that latency grows with load
// and throughput saturates at the modeled capacity — the mechanism behind every
// latency-vs-throughput curve in the evaluation.
#ifndef SRC_SIM_RESOURCES_H_
#define SRC_SIM_RESOURCES_H_

#include "src/common/params.h"
#include "src/sim/event_loop.h"

namespace lazylog {

// Single-core FIFO service queue. Execute(cost, fn) runs fn once the core has finished
// everything scheduled before it plus `cost_ns` of its own service time.
class ServerCpu {
 public:
  ServerCpu(EventLoop* loop, const CpuParams& params) : loop_(loop), params_(params) {}

  // Service time for a request carrying `bytes` of payload.
  uint64_t CostFor(uint64_t bytes) const {
    return params_.fixed_ns +
           static_cast<uint64_t>(static_cast<double>(bytes) /
                                 params_.copy_bandwidth_bytes_per_sec * 1e9);
  }

  // Queues work costing `cost_ns`; `fn` runs at completion time.
  void Execute(uint64_t cost_ns, EventFn fn);

  // Convenience: Execute(CostFor(bytes), fn).
  void ExecuteFor(uint64_t bytes, EventFn fn) {
    Execute(CostFor(bytes), std::move(fn));
  }

  // Time at which the core becomes free (>= Now when busy).
  SimTime busy_until() const { return busy_until_; }
  // Drops queued work conceptually by resetting the availability horizon (crash/restart).
  void Reset() { busy_until_ = loop_->Now(); }

 private:
  EventLoop* loop_;
  CpuParams params_;
  SimTime busy_until_ = 0;
};

// Bandwidth-limited disk. Writes are admitted FIFO; completion fires when the device
// has drained all earlier writes plus this one. Models the SATA SSD that caps shard
// ingest throughput.
class Disk {
 public:
  Disk(EventLoop* loop, const DiskParams& params) : loop_(loop), params_(params) {}

  // Persists `bytes`; `fn` (optional) runs at durability time.
  void Write(uint64_t bytes, EventFn fn = nullptr);

  // Nanoseconds until the queued writes are durable (for backpressure decisions and tests).
  uint64_t QueueDepthNs() const;

  SimTime busy_until() const { return busy_until_; }
  void Reset() { busy_until_ = loop_->Now(); }

  // Multiplies transfer time of subsequent writes (>= 1.0 slows the device down;
  // chaos disk-slowdown windows set this and restore it to 1.0 on heal).
  void SetSlowdownFactor(double factor) { slowdown_ = factor < 1.0 ? 1.0 : factor; }
  double slowdown_factor() const { return slowdown_; }

 private:
  EventLoop* loop_;
  DiskParams params_;
  SimTime busy_until_ = 0;
  double slowdown_ = 1.0;
};

}  // namespace lazylog

#endif  // SRC_SIM_RESOURCES_H_
