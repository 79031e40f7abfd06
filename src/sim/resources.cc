#include "src/sim/resources.h"

#include <algorithm>

namespace lazylog {

void ServerCpu::Execute(uint64_t cost_ns, EventFn fn) {
  const SimTime start = std::max(loop_->Now(), busy_until_);
  busy_until_ = start + cost_ns;
  loop_->ScheduleAt(busy_until_, std::move(fn));
}

void Disk::Write(uint64_t bytes, EventFn fn) {
  const SimTime start = std::max(loop_->Now(), busy_until_);
  const uint64_t xfer_ns = static_cast<uint64_t>(
      static_cast<double>(bytes) / params_.write_bandwidth_bytes_per_sec * 1e9 * slowdown_);
  busy_until_ = start + xfer_ns;
  const SimTime done = busy_until_ + params_.write_latency_ns;
  if (fn) {
    loop_->ScheduleAt(done, std::move(fn));
  }
}

uint64_t Disk::QueueDepthNs() const {
  const SimTime now = loop_->Now();
  return busy_until_ > now ? busy_until_ - now : 0;
}

}  // namespace lazylog
