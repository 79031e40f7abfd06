// Selective reads: per-stream consumer throughput vs. total stream count, index tier
// vs. scan fallback. Writers publish round-robin across S tagged streams while one
// consumer drains a single stream's backlog through ReadNext(tag, from) windows. With
// the index tier the drain cost is proportional to the *stream's* size, so per-stream
// throughput stays flat as S grows; the scan fallback pays for the whole interleaved
// log and collapses roughly as 1/S. `--smoke` runs 16 and 64 streams, prints
// machine-parseable JSON rows, and exits nonzero unless the index drain beats the scan
// by >= 10x at 64 streams and the index node did the work (delta pulls and merges,
// coverage never past stable-gp) in every run.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/lazylog/erwin_cluster.h"

namespace lazylog {
namespace {

constexpr size_t kRecordBytes = 512;
constexpr size_t kClients = 4;
constexpr double kRate = 20'000;          // appends/s across the fleet
constexpr uint64_t kPopulate = 250 * kMs;  // backlog build-up before the drain starts
constexpr uint64_t kDrainBudget = 400 * kMs;

// Closed-loop drain of one stream through ReadNext windows. Idles through the populate
// phase, then drains from position 0 as fast as round trips allow; the first
// no-progress response after real progress means the consumer caught up with its
// stream, which ends the measurement. Start/Stop-shaped so it plugs into the same
// DriveAppendRead loop as the fig08-10 readers.
class StreamDrainReader {
 public:
  struct Options {
    StreamTag tag = 1;
    uint64_t start_delay_ns = 0;
    uint32_t window = 32;
  };

  StreamDrainReader(EventLoop* loop, LogHandle log, Options options)
      : loop_(loop), log_(log), options_(options) {}

  void Start() {
    running_ = true;
    loop_->Schedule(options_.start_delay_ns, [this]() {
      first_issue_at_ = loop_->Now();
      Issue();
    });
  }
  void Stop() { running_ = false; }

  uint64_t records() const { return records_; }
  bool caught_up() const { return caught_up_; }
  // Seconds between the first issue and the last progress the drain made.
  double ActiveSeconds() const {
    if (records_ == 0) {
      return 0;
    }
    return static_cast<double>(std::max<uint64_t>(last_progress_at_ - first_issue_at_,
                                                  kUs)) /
           1e9;
  }

 private:
  void Issue() {
    if (!running_ || caught_up_) {
      return;
    }
    log_.ReadNext(
        options_.tag, from_, options_.window,
        [this](Status s, std::vector<PositionedRecord> recs, LogPos next) {
          if (!running_) {
            return;
          }
          if (!s.ok() || next == from_) {
            if (s.ok() && records_ > 0) {
              caught_up_ = true;  // drained up to the stream's stable frontier
              return;
            }
            // Index still warming up (or a transient error): retry shortly.
            loop_->Schedule(500 * kUs, [this]() { Issue(); });
            return;
          }
          from_ = next;
          records_ += recs.size();
          last_progress_at_ = loop_->Now();
          Issue();
        });
  }

  EventLoop* loop_;
  LogHandle log_;
  Options options_;
  bool running_ = false;
  bool caught_up_ = false;
  LogPos from_ = 0;
  uint64_t records_ = 0;
  SimTime first_issue_at_ = 0;
  SimTime last_progress_at_ = 0;
};

struct RunResult {
  double per_stream_tput = 0;  // records/s drained from the measured stream
  uint64_t records = 0;
  bool caught_up = false;
  IndexStatsSnapshot index;    // the index node at the end of the run (use_index only)
};

RunResult Run(uint64_t streams, bool use_index, bool smoke_json) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = 3;
  opt.shard_replication = 2;
  opt.with_control_plane = false;
  opt.num_index_nodes = use_index ? 1 : 0;  // 0 forces the client's scan fallback
  ErwinCluster cluster(opt);
  std::vector<std::unique_ptr<SharedLogClient>> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.push_back(cluster.MakeMClient());
  }
  AppenderFleet fleet(&cluster.loop(), std::move(clients), kRate, kRecordBytes,
                      /*warmup_ns=*/0, streams);
  auto reader_client = cluster.MakeMClient();
  StreamDrainReader::Options ropt;
  ropt.tag = 1;
  ropt.start_delay_ns = kPopulate;
  StreamDrainReader reader(&cluster.loop(), reader_client->log(), ropt);
  DriveAppendRead(cluster, fleet, reader, kPopulate + kDrainBudget);

  RunResult res;
  res.records = reader.records();
  res.caught_up = reader.caught_up();
  if (reader.ActiveSeconds() > 0) {
    res.per_stream_tput = static_cast<double>(res.records) / reader.ActiveSeconds();
  }
  if (use_index) {
    res.index = cluster.index_node(0).StatsSnapshot();
    if (smoke_json) {
      PrintStatsJson("index_node", res.index.Fields(),
                     {{"streams", static_cast<double>(streams)}});
    }
  }
  return res;
}

void PrintRow(uint64_t streams, const RunResult& sel, const RunResult& scan) {
  const double speedup =
      scan.per_stream_tput > 0 ? sel.per_stream_tput / scan.per_stream_tput : 0;
  std::printf("  %-10llu %-18.0f %-18.0f %-10.1fx %s\n",
              static_cast<unsigned long long>(streams), sel.per_stream_tput,
              scan.per_stream_tput, speedup, sel.caught_up ? "" : "(index not drained)");
}

}  // namespace
}  // namespace lazylog

int main(int argc, char** argv) {
  using namespace lazylog;
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  PrintHeader("Selective reads: per-stream drain throughput vs stream count (Erwin-m)");
  std::printf("  %-10s %-18s %-18s %-10s\n", "streams", "index (rec/s)", "scan (rec/s)",
              "speedup");
  const std::vector<uint64_t> sweep =
      smoke ? std::vector<uint64_t>{16, 64} : std::vector<uint64_t>{4, 8, 16, 32, 64};
  int rc = 0;
  auto expect = [&rc](bool ok, const char* what, uint64_t streams) {
    if (!ok) {
      std::fprintf(stderr, "SMOKE FAIL: %s at %llu streams\n", what,
                   static_cast<unsigned long long>(streams));
      rc = 1;
    }
  };
  double speedup64 = 0;
  for (uint64_t streams : sweep) {
    RunResult sel = Run(streams, /*use_index=*/true, smoke);
    RunResult scan = Run(streams, /*use_index=*/false, /*smoke_json=*/false);
    PrintRow(streams, sel, scan);
    if (smoke) {
      const double speedup =
          scan.per_stream_tput > 0 ? sel.per_stream_tput / scan.per_stream_tput : 0;
      // The index node must have done the work, so a silent scan-everywhere
      // regression cannot pass on fallback throughput alone.
      expect(sel.index.counters.delta_pulls > 0, "index node pulled no deltas", streams);
      expect(sel.index.counters.merged_positions > 0, "index node merged no positions",
             streams);
      expect(sel.index.indexed_upto <= sel.index.stable_gp,
             "index coverage ran past stable-gp", streams);
      if (streams == 64) {
        speedup64 = speedup;
        expect(sel.records > 0, "selective drain read no records", streams);
        expect(speedup >= 10, "selective drain under 10x the scan", streams);
      }
      PrintStatsJson("selective_reads",
                     StatsFields{
                         {"streams", static_cast<double>(streams)},
                         {"selective_per_stream_tput", sel.per_stream_tput},
                         {"scan_per_stream_tput", scan.per_stream_tput},
                         {"speedup", speedup},
                         {"selective_records", static_cast<double>(sel.records)},
                         {"scan_records", static_cast<double>(scan.records)},
                     });
    }
  }
  PrintPaperNote("Index-tier drains touch only the stream's own records, so per-stream");
  PrintPaperNote("throughput is flat in the stream count; the scan fallback re-reads the");
  PrintPaperNote("whole interleaved log and falls off roughly as 1/streams.");
  if (smoke && rc == 0) {
    std::printf("selective smoke OK: %.1fx over scan at 64 streams\n", speedup64);
  }
  return rc;
}
