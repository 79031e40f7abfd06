// Per-layer probes for the traced pass. Everything here observes the simulator from
// outside: public stats snapshots read at the window edges, gauges sampled by extra
// events on the event loop, the sequencing leader's public gp observer, and wall-clock
// timings of public calls. None of it feeds back into the simulation, so a traced run's
// simulated metrics equal the untraced run's (run.py checks this).
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/lazylog/erwin_cluster.h"
#include "src/lazylog/shared_log_client.h"

namespace lazylog::perfbench {

// Latency sample of an operation that failed or never completed: it misses every limit.
inline constexpr uint64_t kNever = UINT64_MAX;

// Nearest-rank percentile of `v` (q in (0, 1]); 0 for an empty sample.
double Percentile(std::vector<uint64_t> v, double q);

// Named counter totals across the cluster (and the benchmark's own clients) at one
// instant: loop events, network traffic, Buf allocations, the leader's orderer, every
// shard replica, the index nodes and the clients' read paths.
using Counters = std::map<std::string, double>;

Counters Capture(ErwinCluster& cluster, const std::vector<const SharedLogClient*>& clients);
// after - before, key by key.
Counters Delta(const Counters& before, const Counters& after);

// Gauges and timelines gathered while the traced window runs.
class Tracer {
 public:
  explicit Tracer(ErwinCluster* cluster) : cluster_(cluster) {}

  // Subscribes to the leader's gp timeline; call before any traffic.
  void Attach();
  // Samples gauges every `period_ns` of simulated time until `until`.
  void StartSampling(uint64_t period_ns, SimTime until);

  // The global ack stream: the k-th call is the k-th acknowledged append.
  void OnAck(SimTime t) { ack_times_.push_back(t); }
  // Ordering lag of every append acked inside [lo, hi): time from its ack until the
  // leader's stable-gp counts as many records as had been acked by then.
  std::vector<uint64_t> StableLags(SimTime lo, SimTime hi) const;

  uint64_t sampler_events() const { return sampler_events_; }
  std::vector<uint64_t> append_call_ns;
  std::vector<uint64_t> read_call_ns;
  uint64_t queue_peak = 0;
  std::vector<uint64_t> disk_backlog_ns;
  std::vector<uint64_t> ring_occupancy;
  uint64_t watermark_lag_max = 0;
  std::vector<uint64_t> index_lag;

 private:
  void Sample(uint64_t period_ns, SimTime until);

  ErwinCluster* cluster_;
  uint64_t sampler_events_ = 0;
  std::vector<SimTime> ack_times_;
  std::vector<std::pair<SimTime, LogPos>> stable_timeline_;
};

// Wall-clock micro-timings of single module entry points on private instances, each
// the median ns per operation over several batches.
double EventNs();        // EventLoop::Schedule + RunOne
double RpcCallNs();      // RpcEndpoint::Call round trip on a zero-delay network
double CodecAppendNs();  // SeqAppendReq encode + decode with a 4 KB payload
double LogAppendNs();    // SegmentedLog::Append of a 4 KB record

}  // namespace lazylog::perfbench

#endif  // PERFBENCH_PROBES_H_
