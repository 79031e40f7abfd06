// Shared helpers for the figure-reproduction benches: multi-client open-loop load
// generation and table printing. Each bench binary reproduces one figure of the paper's
// evaluation (§6) and prints the series the figure plots, plus the paper's reference
// numbers where the text states them.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/lazylog/shared_log_client.h"
#include "src/workload/drivers.h"

namespace lazylog {

// A fleet of open-loop appenders, each with its own client (own simulated NIC), jointly
// producing `total_rate` appends/s — mirroring the paper's multi-machine load generators.
class AppenderFleet {
 public:
  // num_streams > 0 makes every appender publish round-robin across that many tagged
  // streams (selective-read benches); 0 keeps the legacy untagged workload.
  AppenderFleet(EventLoop* loop, std::vector<std::unique_ptr<SharedLogClient>> clients,
                double total_rate, size_t record_bytes, uint64_t warmup_ns,
                uint64_t num_streams = 0) {
    const double per = total_rate / static_cast<double>(clients.size());
    clients_ = std::move(clients);
    for (size_t i = 0; i < clients_.size(); ++i) {
      OpenLoopAppender::Options opt;
      opt.rate_per_sec = per;
      opt.record_bytes = record_bytes;
      opt.warmup_ns = warmup_ns;
      opt.num_streams = num_streams;
      appenders_.push_back(
          std::make_unique<OpenLoopAppender>(loop, clients_[i]->log(), opt, 100 + i));
    }
  }

  void Start() {
    for (auto& a : appenders_) {
      a->Start();
    }
  }
  void Stop() {
    for (auto& a : appenders_) {
      a->Stop();
    }
  }

  Histogram MergedLatency() const {
    Histogram h;
    for (const auto& a : appenders_) {
      h.Merge(a->latency());
    }
    return h;
  }
  uint64_t TotalIssued() const {
    uint64_t n = 0;
    for (const auto& a : appenders_) {
      n += a->issued();
    }
    return n;
  }
  uint64_t TotalAcked() const {
    uint64_t n = 0;
    for (const auto& a : appenders_) {
      n += a->acked();
    }
    return n;
  }
  double MeasuredRate(SimTime now) const {
    double r = 0;
    for (const auto& a : appenders_) {
      r += a->MeasuredRate(now);
    }
    return r;
  }
  OpenLoopAppender& appender(size_t i) { return *appenders_[i]; }
  size_t size() const { return appenders_.size(); }

 private:
  std::vector<std::unique_ptr<SharedLogClient>> clients_;
  std::vector<std::unique_ptr<OpenLoopAppender>> appenders_;
};

// Feeds every appender's acks into one merged durable-record stream for a sequential
// reader. The counter outlives this call (the hooks fire during the run), so it lives
// on the heap, shared by all hooks.
inline void WireAckStream(AppenderFleet& fleet, SequentialReader& reader) {
  auto acked = std::make_shared<uint64_t>(0);
  for (size_t i = 0; i < fleet.size(); ++i) {
    fleet.appender(i).OnAck(
        [&reader, acked](uint64_t, SimTime t) { reader.NotifyAcked((*acked)++, t); });
  }
}

// The matched append+read measurement loop shared by the read benches (Figures 8, 9,
// 10 and selective_reads): start the reader and the load, run the cluster for `run_ns`,
// and tear down in reverse order so no new work is issued into a stopped reader.
template <typename Cluster, typename Reader>
void DriveAppendRead(Cluster& cluster, AppenderFleet& fleet, Reader& reader,
                     uint64_t run_ns) {
  reader.Start();
  fleet.Start();
  cluster.RunFor(run_ns);
  fleet.Stop();
  reader.Stop();
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void PrintLatencyRow(const std::string& label, const Histogram& h) {
  std::printf("  %-34s mean=%-10s p50=%-10s p99=%-10s n=%llu\n", label.c_str(),
              FormatNanos(h.Mean()).c_str(), FormatNanos(h.Percentile(0.5)).c_str(),
              FormatNanos(h.Percentile(0.99)).c_str(),
              static_cast<unsigned long long>(h.count()));
}

inline void PrintCdf(const std::string& label, const Histogram& h, size_t points = 12) {
  std::printf("  CDF %s:\n", label.c_str());
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999}) {
    std::printf("    p%-6.1f %s\n", q * 100, FormatNanos(h.Percentile(q)).c_str());
  }
}

inline void PrintPaperNote(const std::string& note) {
  std::printf("  [paper] %s\n", note.c_str());
}

// Machine-parseable stats dump: one JSON object per line, built from a component
// snapshot's Fields() (ShardStatsSnapshot, OrdererStatsSnapshot, ...). CI smoke steps
// grep lines starting with '{' and assert specific fields parse; `extra` lets a bench
// prepend run parameters (offered rate, knob values) next to the counters.
inline void PrintStatsJson(const std::string& component, const StatsFields& fields,
                           const StatsFields& extra = {}) {
  std::printf("{\"component\":\"%s\"", component.c_str());
  for (const auto& [k, v] : extra) {
    std::printf(",\"%s\":%.6g", k.c_str(), v);
  }
  for (const auto& [k, v] : fields) {
    std::printf(",\"%s\":%.6g", k.c_str(), v);
  }
  std::printf("}\n");
}

}  // namespace lazylog

#endif  // BENCH_BENCH_UTIL_H_
