// One repetition of one LazyLog benchmark workload on the deterministic simulator.
//
//   lazylog_bench --workload <st-append|m-tail-read|st-scan> --seed <n> --trace <0|1>
//
// Builds the workload's cluster, runs its phases, checks every output, and prints a
// summary line followed by one JSON object on the last line: the simulated end-to-end
// metrics (exact functions of the seed), the wall-clock ones, the output-check failures
// and, with --trace 1, the per-layer metrics. perfbench/run.py runs repetitions of this
// binary and aggregates them; perfbench/NOTES.md explains the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "probes.h"
#include "src/common/random.h"
#include "src/lazylog/erwin_cluster.h"

namespace lazylog::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kRecordBytes = 4096;
constexpr char kMagic[] = "LLBP";  // first bytes of every payload the benchmark appends
constexpr uint64_t kScanBatch = 16;
constexpr uint64_t kCheckPeriod = 1 * kMs;
constexpr uint64_t kDrain = 30 * kMs;
constexpr uint64_t kSamplePeriod = 50 * kUs;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Runs `fn` and, when `sink` is set, records its wall time in ns.
template <typename Fn>
void Timed(std::vector<uint64_t>* sink, Fn&& fn) {
  if (sink == nullptr) {
    fn();
    return;
  }
  const auto t0 = Clock::now();
  fn();
  sink->push_back(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count()));
}

struct Spec {
  ErwinMode mode = ErwinMode::kM;
  uint32_t shards = 1;
  uint32_t replication = 3;
  uint32_t appenders = 0;
  double append_rate = 0;  // total appends/s, Poisson arrivals
  uint64_t streams = 0;    // > 0: append i of each appender is tagged 1 + i % streams
  uint64_t warmup_ns = 0;
  uint64_t window_ns = 0;  // the measured window
  bool nolag_reader = false;
  bool periodic_reader = false;
  uint32_t scanners = 0;  // closed-loop readers during the window
  // st-scan: the set-up phase appends a prefix and lets ordering settle.
  uint64_t populate_ns = 0;
  uint64_t settle_ns = 0;
  // st-append: after the window, closed-loop readers read back what was appended.
  uint32_t readback_scanners = 0;
  uint64_t readback_ns = 0;
};

bool SpecFor(const std::string& name, Spec* spec) {
  Spec s;
  if (name == "st-append") {
    s.mode = ErwinMode::kSt;
    s.shards = 16;
    s.replication = 2;
    s.appenders = 24;
    s.append_rate = 300e3;
    s.streams = 64;
    s.warmup_ns = 20 * kMs;
    s.window_ns = 100 * kMs;
    s.readback_scanners = 8;
    s.readback_ns = 40 * kMs;
  } else if (name == "m-tail-read") {
    s.mode = ErwinMode::kM;
    s.shards = 1;
    s.replication = 3;
    s.appenders = 4;
    s.append_rate = 30e3;
    s.warmup_ns = 100 * kMs;
    s.window_ns = 600 * kMs;
    s.nolag_reader = true;
    s.periodic_reader = true;
  } else if (name == "st-scan") {
    s.mode = ErwinMode::kSt;
    s.shards = 4;
    s.replication = 3;
    s.appenders = 8;
    s.append_rate = 60e3;
    s.warmup_ns = 50 * kMs;
    s.populate_ns = 250 * kMs;
    s.settle_ns = 50 * kMs;
    s.scanners = 24;
    s.window_ns = 150 * kMs;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

// Output-check failures (the first few are kept verbatim).
struct Failures {
  uint64_t count = 0;
  std::vector<std::string> first;
  void Add(std::string msg) {
    if (count++ < 8) {
      first.push_back(std::move(msg));
    }
  }
};

struct Window {
  SimTime lo = 0;
  SimTime hi = 0;
  bool Contains(SimTime t) const { return t >= lo && t < hi; }
  double seconds() const { return static_cast<double>(hi - lo) / 1e9; }
};

// One operation kind's sample. An operation belongs to the window that contains its due
// time; its latency runs from that due time to completion. A failed or never-completed
// operation counts as failed and enters the sample as kNever.
struct OpStats {
  Window win;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t records = 0;
  std::vector<uint64_t> lat;

  void Due(SimTime due) { attempted += win.Contains(due) ? 1 : 0; }
  void Done(SimTime due, SimTime now, bool ok, uint64_t n) {
    if (!win.Contains(due)) {
      return;
    }
    ++completed;
    if (ok) {
      records += n;
      lat.push_back(now - due);
    } else {
      ++failed;
      lat.push_back(kNever);
    }
  }
  // Charges every attempted operation that never completed as failed.
  void Close() {
    const uint64_t lost = attempted - completed;
    failed += lost;
    lat.insert(lat.end(), lost, kNever);
    completed = attempted;
  }
};

Buf MakePayload() {
  std::string s(kRecordBytes, 'x');
  std::memcpy(s.data(), kMagic, 4);
  return Buf::FromString(std::move(s));
}

// Validates read replies: exactly the requested positions in ascending order, 4 KB
// payloads written by this benchmark (no-op filler flagged as such), each position
// bound to one record for good, no record at two positions, and nothing at or above the
// leader's stable-gp at completion.
class ReadChecker {
 public:
  ReadChecker(ErwinCluster* cluster, Failures* failures)
      : cluster_(cluster), failures_(failures) {}

  bool Check(LogPos from, uint64_t len, const std::vector<PositionedRecord>& recs) {
    if (recs.size() != len) {
      failures_->Add("read @" + std::to_string(from) + " returned " +
                     std::to_string(recs.size()) + " of " + std::to_string(len));
      return false;
    }
    const LogPos stable = cluster_->leader().stable_gp();
    for (size_t i = 0; i < recs.size(); ++i) {
      const PositionedRecord& pr = recs[i];
      const LogPos pos = from + i;
      if (pr.pos != pos) {
        failures_->Add("read @" + std::to_string(from) + " has position " +
                       std::to_string(pr.pos) + " in slot " + std::to_string(i));
        return false;
      }
      if (pos >= stable) {
        failures_->Add("read returned position " + std::to_string(pos) +
                       " at or above stable " + std::to_string(stable));
        return false;
      }
      if (pr.record.no_op) {
        ++noops_;
      } else if (pr.record.payload.size() != kRecordBytes ||
                 std::memcmp(pr.record.payload.data(), kMagic, 4) != 0) {
        failures_->Add("bad payload at position " + std::to_string(pos));
        return false;
      }
      if (!Bind(pos, pr.record)) {
        return false;
      }
    }
    read_end_ = std::max<LogPos>(read_end_, from + len);
    return true;
  }

  // One past the highest position any completed read returned.
  LogPos read_end() const { return read_end_; }
  uint64_t noops() const { return noops_; }

 private:
  bool Bind(LogPos pos, const Record& rec) {
    if (pos >= bound_.size()) {
      bound_.resize(pos + 1);
      seen_.resize(pos + 1, false);
    }
    if (seen_[pos]) {
      if (!(bound_[pos] == rec.id)) {
        failures_->Add("position " + std::to_string(pos) + " changed its record");
        return false;
      }
      return true;
    }
    seen_[pos] = true;
    bound_[pos] = rec.id;
    if (!rec.no_op && !where_.emplace(rec.id, pos).second) {
      failures_->Add("record bound at positions " + std::to_string(where_[rec.id]) +
                     " and " + std::to_string(pos));
      return false;
    }
    return true;
  }

  ErwinCluster* cluster_;
  Failures* failures_;
  std::vector<RecordId> bound_;
  std::vector<bool> seen_;
  std::unordered_map<RecordId, LogPos, RecordIdHash> where_;
  LogPos read_end_ = 0;
  uint64_t noops_ = 0;
};

// Open-loop Poisson appender on its own client. Arrivals are scheduled in simulated
// time, so every append is issued exactly when due.
class Appender {
 public:
  Appender(EventLoop* loop, LogHandle log, OpStats* stats, Failures* failures,
           double rate, uint64_t streams, uint64_t seed, std::function<void()> on_ack,
           std::vector<uint64_t>* call_ns)
      : loop_(loop), log_(log), stats_(stats), failures_(failures),
        mean_gap_ns_(1e9 / rate), streams_(streams), rng_(seed),
        on_ack_(std::move(on_ack)), call_ns_(call_ns), payload_(MakePayload()) {}

  void Start() {
    running_ = true;
    next_ = loop_->Now() + static_cast<SimTime>(rng_.Exponential(mean_gap_ns_));
    tick_ = loop_->ScheduleAt(next_, [this]() { Tick(); });
  }
  void Stop() {
    running_ = false;
    tick_.Cancel();
  }

 private:
  void Tick() {
    while (running_ && next_ <= loop_->Now()) {
      Issue(next_);
      next_ += static_cast<SimTime>(rng_.Exponential(mean_gap_ns_));
    }
    if (running_) {
      tick_ = loop_->ScheduleAt(next_, [this]() { Tick(); });
    }
  }

  void Issue(SimTime due) {
    const uint64_t i = issued_++;
    stats_->Due(due);
    auto cb = [this, due](Status s) {
      stats_->Done(due, loop_->Now(), s.ok(), 1);
      if (!s.ok()) {
        failures_->Add("append failed: " + s.ToString());
        return;
      }
      on_ack_();
    };
    const StreamTag tag = streams_ > 0 ? 1 + i % streams_ : kNoTag;
    Timed(call_ns_, [&]() { log_.Append(tag, payload_, std::move(cb)); });
  }

  EventLoop* loop_;
  LogHandle log_;
  OpStats* stats_;
  Failures* failures_;
  double mean_gap_ns_;
  uint64_t streams_;
  Rng rng_;
  std::function<void()> on_ack_;
  std::vector<uint64_t>* call_ns_;
  Buf payload_;  // one backing shared by every append of this appender
  bool running_ = false;
  SimTime next_ = 0;
  uint64_t issued_ = 0;
  EventHandle tick_;
};

// Shared plumbing of the readers: issue one Read, check and record its reply.
struct ReadPlumbing {
  EventLoop* loop;
  OpStats* stats;
  ReadChecker* checker;
  Failures* failures;
  std::vector<uint64_t>* call_ns;

  void Read(LogHandle log, LogPos from, uint64_t len, SimTime due,
            std::function<void()> then) {
    stats->Due(due);
    auto cb = [this, from, len, due, then = std::move(then)](
                  Status s, std::vector<PositionedRecord> recs) {
      bool ok = s.ok();
      if (!ok) {
        failures->Add("read @" + std::to_string(from) + " failed: " + s.ToString());
      } else {
        ok = checker->Check(from, len, recs);
      }
      stats->Done(due, loop->Now(), ok, recs.size());
      then();
    };
    Timed(call_ns, [&]() { log.Read(from, len, std::move(cb)); });
  }
};

// Fig 9's no-lag reader: reads position p as soon as p + 1 appends have been acked
// (the log then holds position p), one read in flight. Position p is due at that ack.
class NoLagReader {
 public:
  NoLagReader(ReadPlumbing io, LogHandle log) : io_(io), log_(log) {}

  void OnAck() {
    const SimTime now = io_.loop->Now();
    if (now >= cutoff_) {
      return;
    }
    due_.push_back(now);
    MaybeIssue();
  }
  // Positions that become due at or after `t` are not read.
  void StopAt(SimTime t) { cutoff_ = t; }
  // Due positions never issued by the end of the run.
  void Abandon() {
    for (SimTime due : due_) {
      io_.stats->Due(due);
    }
    due_.clear();
  }

 private:
  void MaybeIssue() {
    if (inflight_ || due_.empty()) {
      return;
    }
    inflight_ = true;
    const SimTime due = due_.front();
    due_.pop_front();
    io_.Read(log_, next_++, 1, due, [this]() {
      inflight_ = false;
      MaybeIssue();
    });
  }

  ReadPlumbing io_;
  LogHandle log_;
  SimTime cutoff_ = UINT64_MAX;
  std::deque<SimTime> due_;
  LogPos next_ = 0;
  bool inflight_ = false;
};

// Fig 10's periodic reader: every period, learn the durable tail (from the client's
// tail cache when fresh, else CheckTail) and read one record at a time up to it. Each
// read of a pass is due at the pass's tick.
class PeriodicReader {
 public:
  PeriodicReader(ReadPlumbing io, SharedLogClient* client, uint64_t period_ns)
      : io_(io), client_(client), log_(client->log()), period_ns_(period_ns) {}

  void Start() { tick_ = io_.loop->Schedule(period_ns_, [this]() { Tick(); }); }
  void Stop() { tick_.Cancel(); }
  // Ticks inside `win` (the per-layer tail-cache denominator).
  uint64_t polls(const Window& win) const {
    return static_cast<uint64_t>(
        std::count_if(poll_times_.begin(), poll_times_.end(),
                      [&win](SimTime t) { return win.Contains(t); }));
  }

 private:
  void Tick() {
    tick_ = io_.loop->Schedule(period_ns_, [this]() { Tick(); });
    if (busy_) {
      return;
    }
    busy_ = true;
    const SimTime due = io_.loop->Now();
    poll_times_.push_back(due);
    LogPos durable = 0;
    LogPos stable = 0;
    if (client_->CachedTail(&durable, &stable)) {
      ReadTo(durable, due);
      return;
    }
    log_.CheckTail([this, due](Status s, LogPos durable, LogPos) {
      if (!s.ok()) {
        io_.failures->Add("periodic CheckTail failed: " + s.ToString());
        busy_ = false;
        return;
      }
      ReadTo(durable, due);
    });
  }

  void ReadTo(LogPos until, SimTime due) {
    if (cursor_ >= until) {
      busy_ = false;
      return;
    }
    io_.Read(log_, cursor_++, 1, due, [this, until, due]() { ReadTo(until, due); });
  }

  ReadPlumbing io_;
  SharedLogClient* client_;
  LogHandle log_;
  uint64_t period_ns_;
  EventHandle tick_;
  bool busy_ = false;
  LogPos cursor_ = 0;
  std::vector<SimTime> poll_times_;
};

// Closed-loop reader: Read(16 records) at a seeded uniform offset of [0, limit), the
// next one as soon as the previous completes.
class Scanner {
 public:
  Scanner(ReadPlumbing io, LogHandle log, uint64_t seed) : io_(io), log_(log), rng_(seed) {}

  void Start(LogPos limit) {
    limit_ = limit;
    running_ = true;
    Issue();
  }
  void Stop() { running_ = false; }

 private:
  void Issue() {
    if (!running_) {
      return;
    }
    const LogPos from = rng_.Uniform(limit_ - kScanBatch + 1);
    io_.Read(log_, from, kScanBatch, io_.loop->Now(), [this]() { Issue(); });
  }

  ReadPlumbing io_;
  LogHandle log_;
  Rng rng_;
  LogPos limit_ = 0;
  bool running_ = false;
};

// Issues CheckTail every period from its own client and checks what it reports: stable
// never above durable, neither going backwards, and every read completed before the
// call at or below stable.
class TailChecker {
 public:
  TailChecker(EventLoop* loop, LogHandle log, const ReadChecker* reads, Failures* failures)
      : loop_(loop), log_(log), reads_(reads), failures_(failures) {}

  void Start() { tick_ = loop_->Schedule(kCheckPeriod, [this]() { Tick(); }); }
  void Stop() { tick_.Cancel(); }

  // Synchronous CheckTail: runs the loop until the reply arrives.
  bool TailNow(LogPos* durable, LogPos* stable) {
    bool done = false;
    bool ok = false;
    Call([&](bool call_ok, LogPos d, LogPos s) {
      done = true;
      ok = call_ok;
      *durable = d;
      *stable = s;
    });
    while (!done && loop_->RunOne()) {
    }
    return ok;
  }

  const std::vector<uint64_t>& latency() const { return lat_; }

 private:
  void Tick() {
    tick_ = loop_->Schedule(kCheckPeriod, [this]() { Tick(); });
    if (!inflight_) {
      Call([](bool, LogPos, LogPos) {});
    }
  }

  void Call(std::function<void(bool, LogPos, LogPos)> then) {
    inflight_ = true;
    const LogPos read_end = reads_->read_end();
    const SimTime t0 = loop_->Now();
    log_.CheckTail([this, read_end, t0, then = std::move(then)](Status s, LogPos durable,
                                                                LogPos stable) {
      inflight_ = false;
      if (!s.ok()) {
        failures_->Add("CheckTail failed: " + s.ToString());
        then(false, 0, 0);
        return;
      }
      lat_.push_back(loop_->Now() - t0);
      if (stable > durable || stable < stable_ || durable < durable_) {
        failures_->Add("CheckTail went backwards or reported stable above durable");
      }
      if (read_end > stable) {
        failures_->Add("a read returned position " + std::to_string(read_end - 1) +
                       " but a later CheckTail reports stable " + std::to_string(stable));
      }
      stable_ = std::max(stable_, stable);
      durable_ = std::max(durable_, durable);
      then(true, durable, stable);
    });
  }

  EventLoop* loop_;
  LogHandle log_;
  const ReadChecker* reads_;
  Failures* failures_;
  EventHandle tick_;
  bool inflight_ = false;
  LogPos stable_ = 0;
  LogPos durable_ = 0;
  std::vector<uint64_t> lat_;
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Prints `"key":{...},` with every value at full precision.
void PrintJsonObject(const char* key, const std::vector<std::pair<std::string, double>>& kv) {
  std::printf("\"%s\":{", key);
  for (size_t i = 0; i < kv.size(); ++i) {
    std::printf("%s\"%s\":%.17g", i == 0 ? "" : ",", kv[i].first.c_str(), kv[i].second);
  }
  std::printf("},");
}

class Bench {
 public:
  Bench(const std::string& name, const Spec& spec, uint64_t seed, bool traced,
        Clock::time_point started)
      : name_(name), spec_(spec), seed_(seed), traced_(traced), started_(started) {}

  void Run();

 private:
  ErwinClusterOptions Options() const {
    ErwinClusterOptions opt;
    opt.mode = spec_.mode;
    opt.num_shards = spec_.shards;
    opt.shard_replication = spec_.replication;
    opt.with_control_plane = false;
    opt.params.seed = seed_;
    return opt;
  }
  SharedLogClient* NewClient() {
    clients_.push_back(cluster_->MakeClient());
    return clients_.back().get();
  }
  ReadPlumbing Plumbing() {
    return ReadPlumbing{&cluster_->loop(), &reads_, checker_.get(), &failures_,
                        traced_ ? &tracer_->read_call_ns : nullptr};
  }
  void OnAck() {
    ++acked_total_;
    if (tracer_) {
      tracer_->OnAck(cluster_->loop().Now());
    }
    if (nolag_) {
      nolag_->OnAck();
    }
  }
  void StartAppenders(double rate);
  void StopAppenders() {
    for (auto& a : appenders_) {
      a->Stop();
    }
  }
  std::vector<const SharedLogClient*> ClientViews() const {
    std::vector<const SharedLogClient*> views;
    for (const auto& c : clients_) {
      views.push_back(c.get());
    }
    return views;
  }
  // Starts `n` closed-loop scanners over [0, stable); returns the first one's index.
  size_t StartScanners(uint32_t n, uint64_t stream_base);
  void StopScanners(size_t first) {
    for (size_t i = first; i < scanners_.size(); ++i) {
      scanners_[i]->Stop();
    }
  }
  void Report(double setup_s, double wall_s, const Window& main);

  std::string name_;
  Spec spec_;
  uint64_t seed_;
  bool traced_;
  Clock::time_point started_;

  Failures failures_;
  OpStats appends_;
  OpStats reads_;
  uint64_t acked_total_ = 0;
  // Destruction order: load generators and readers, then clients, then the cluster.
  std::unique_ptr<ErwinCluster> cluster_;
  std::vector<std::unique_ptr<SharedLogClient>> clients_;
  std::unique_ptr<ReadChecker> checker_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<TailChecker> tail_;
  std::vector<std::unique_ptr<Appender>> appenders_;
  std::unique_ptr<NoLagReader> nolag_;
  std::unique_ptr<PeriodicReader> periodic_;
  std::vector<std::unique_ptr<Scanner>> scanners_;
  Counters layer_;  // counter deltas over the main window (traced)
  uint64_t window_events_ = 0;  // simulator events in the main window, samplers excluded
};

void Bench::StartAppenders(double rate) {
  const double per = rate / spec_.appenders;
  for (uint32_t i = 0; i < spec_.appenders; ++i) {
    appenders_.push_back(std::make_unique<Appender>(
        &cluster_->loop(), NewClient()->log(), &appends_, &failures_, per, spec_.streams,
        Mix(seed_, 100 + i), [this]() { OnAck(); },
        traced_ ? &tracer_->append_call_ns : nullptr));
  }
  for (auto& a : appenders_) {
    a->Start();
  }
}

size_t Bench::StartScanners(uint32_t n, uint64_t stream_base) {
  const size_t first = scanners_.size();
  if (n == 0) {
    return first;
  }
  LogPos durable = 0;
  LogPos stable = 0;
  if (!tail_->TailNow(&durable, &stable) || stable < kScanBatch) {
    failures_.Add("no stable prefix to scan");
    return first;
  }
  for (uint32_t i = 0; i < n; ++i) {
    scanners_.push_back(
        std::make_unique<Scanner>(Plumbing(), NewClient()->log(), Mix(seed_, stream_base + i)));
  }
  for (size_t i = first; i < scanners_.size(); ++i) {
    scanners_[i]->Start(stable);
  }
  return first;
}


void Bench::Run() {
  cluster_ = std::make_unique<ErwinCluster>(Options());
  EventLoop& loop = cluster_->loop();
  checker_ = std::make_unique<ReadChecker>(cluster_.get(), &failures_);
  if (traced_) {
    tracer_ = std::make_unique<Tracer>(cluster_.get());
    tracer_->Attach();
  }
  tail_ = std::make_unique<TailChecker>(&loop, NewClient()->log(), checker_.get(), &failures_);
  tail_->Start();

  const SimTime t0 = loop.Now();
  Window main;
  if (spec_.populate_ns > 0) {
    // st-scan set-up: append a prefix (its appends are the workload's append sample),
    // let ordering settle, then scan it read-only.
    appends_.win = {t0 + spec_.warmup_ns, t0 + spec_.populate_ns};
    StartAppenders(spec_.append_rate);
    cluster_->RunFor(spec_.populate_ns);
    StopAppenders();
    cluster_->RunFor(spec_.settle_ns);
    main = {loop.Now(), loop.Now() + spec_.window_ns};
    reads_.win = main;
  } else {
    main = {t0 + spec_.warmup_ns, t0 + spec_.warmup_ns + spec_.window_ns};
    appends_.win = main;
    reads_.win = main;
    if (spec_.nolag_reader) {
      nolag_ = std::make_unique<NoLagReader>(Plumbing(), NewClient()->log());
    }
    if (spec_.periodic_reader) {
      periodic_ = std::make_unique<PeriodicReader>(Plumbing(), NewClient(), 1 * kMs);
      periodic_->Start();
    }
    StartAppenders(spec_.append_rate);
    cluster_->RunFor(spec_.warmup_ns);
  }

  // The measured window.
  if (traced_) {
    tracer_->StartSampling(kSamplePeriod, main.hi);
  }
  const size_t first_scanner = StartScanners(spec_.scanners, 1000);
  const Counters before = traced_ ? Capture(*cluster_, ClientViews()) : Counters{};
  const uint64_t events0 = loop.events_run();
  const auto wall0 = Clock::now();
  const double setup_s = Seconds(wall0 - started_);
  cluster_->RunFor(main.hi - loop.Now());
  const double wall_s = Seconds(Clock::now() - wall0);
  StopScanners(first_scanner);
  window_events_ = loop.events_run() - events0 - (traced_ ? tracer_->sampler_events() : 0);
  if (traced_) {
    layer_ = Delta(before, Capture(*cluster_, ClientViews()));
  }

  // Wind down: no new operations; everything in flight completes.
  StopAppenders();
  if (nolag_) {
    nolag_->StopAt(main.hi);
  }
  if (periodic_) {
    periodic_->Stop();
  }
  cluster_->RunFor(kDrain);
  if (spec_.readback_scanners > 0) {
    // st-append: read back what the window appended.
    reads_.win = {loop.Now(), loop.Now() + spec_.readback_ns};
    const size_t first = StartScanners(spec_.readback_scanners, 2000);
    cluster_->RunFor(reads_.win.hi - loop.Now());
    StopScanners(first);
    cluster_->RunFor(kDrain);
  }
  tail_->Stop();
  if (nolag_) {
    nolag_->Abandon();
  }
  LogPos durable = 0;
  LogPos stable = 0;
  if (!tail_->TailNow(&durable, &stable)) {
    failures_.Add("final CheckTail failed");
  } else if (durable < acked_total_) {
    failures_.Add("durable tail " + std::to_string(durable) + " below " +
                  std::to_string(acked_total_) + " acked appends");
  }
  appends_.Close();
  reads_.Close();
  Report(setup_s, wall_s, main);
}

void Bench::Report(double setup_s, double wall_s, const Window& main) {
  const double append_p50 = Percentile(appends_.lat, 0.50) / 1e3;
  const double append_p99 = Percentile(appends_.lat, 0.99) / 1e3;
  const double read_p50 = Percentile(reads_.lat, 0.50) / 1e3;
  const double read_p99 = Percentile(reads_.lat, 0.99) / 1e3;
  const uint64_t attempted = appends_.attempted + reads_.attempted;
  const uint64_t failed = appends_.failed + reads_.failed;
  if (failed > 0) {
    failures_.Add(std::to_string(failed) + " of " + std::to_string(attempted) +
                  " operations failed");
  }
  if (appends_.attempted == 0 || reads_.attempted == 0) {
    failures_.Add("a workload phase issued no operations");
  }
  const std::vector<std::pair<std::string, double>> sim = {
      {"append_p50_us", append_p50},
      {"append_p99_us", append_p99},
      {"read_p50_us", read_p50},
      {"read_p99_us", read_p99},
      {"append_kops", static_cast<double>(appends_.completed - appends_.failed) /
                          appends_.win.seconds() / 1e3},
      {"read_krec_s", static_cast<double>(reads_.records) / reads_.win.seconds() / 1e3},
      {"failed_frac", Ratio(static_cast<double>(failed), static_cast<double>(attempted))},
      {"append_n", static_cast<double>(appends_.attempted)},
      {"read_n", static_cast<double>(reads_.attempted)},
      {"attempted", static_cast<double>(attempted)},
      {"failed", static_cast<double>(failed)},
      {"noop_records_read", static_cast<double>(checker_->noops())},
      {"window_events", static_cast<double>(window_events_)},
  };
  const std::vector<std::pair<std::string, double>> wall = {
      {"wall_s", wall_s}, {"setup_s", setup_s}, {"peak_rss_mb", PeakRssMb()}};

  std::vector<std::pair<std::string, double>> layer;
  if (traced_) {
    const Counters& d = layer_;
    auto at = [&d](const char* k) {
      const auto it = d.find(k);
      return it == d.end() ? 0.0 : it->second;
    };
    const double ops = static_cast<double>(
        (appends_.win.lo == main.lo ? appends_.completed - appends_.failed : 0) +
        (reads_.win.lo == main.lo ? reads_.completed - reads_.failed : 0));
    const double events = static_cast<double>(window_events_);
    const double reads_served = at("fast_reads") + at("slow_reads");
    const double bench_reads = reads_.win.lo == main.lo
                                   ? static_cast<double>(reads_.completed) : 0.0;
    const double bench_records = reads_.win.lo == main.lo
                                     ? static_cast<double>(reads_.records) : 0.0;
    const std::vector<uint64_t> lags =
        tracer_->StableLags(appends_.win.lo, appends_.win.hi);
    layer = {
        {"sim.events_per_op", Ratio(events, ops)},
        {"sim.queue_peak", static_cast<double>(tracer_->queue_peak)},
        {"sim.msgs_per_op", Ratio(at("msgs"), ops)},
        {"sim.wire_bytes_per_op", Ratio(at("wire_bytes"), ops)},
        {"sim.disk_backlog_p99_us", Percentile(tracer_->disk_backlog_ns, 0.99) / 1e3},
        {"sim.event_ns", EventNs()},
        {"rpc.call_ns", RpcCallNs()},
        {"common.allocs_per_op", Ratio(at("allocs"), ops)},
        {"common.copied_bytes_per_op", Ratio(at("copied_bytes"), ops)},
        {"common.codec_append_ns", CodecAppendNs()},
        {"seq.stable_lag_p50_us", Percentile(lags, 0.50) / 1e3},
        {"seq.stable_lag_p99_us", Percentile(lags, 0.99) / 1e3},
        {"seq.avg_batch", Ratio(at("seq_batch_entries"), at("seq_batches"))},
        {"seq.ring_p99", Percentile(tracer_->ring_occupancy, 0.99)},
        {"seq.push_retries", at("seq_push_retries")},
        {"seq.watermark_lag_max", static_cast<double>(tracer_->watermark_lag_max)},
        {"seq.overload_rejected_frac",
         Ratio(at("seq_overload_rejected"), at("seq_admitted") + at("seq_overload_rejected"))},
        {"seq.checktail_p50_us", Percentile(tail_->latency(), 0.50) / 1e3},
        {"storage.slow_read_frac", Ratio(at("slow_reads"), reads_served)},
        {"storage.backup_read_frac", Ratio(at("backup_reads"), reads_served)},
        {"storage.multirange_per_read", Ratio(at("multirange_reads"), bench_reads)},
        {"storage.clipped_frac", Ratio(at("ranges_clipped"), at("coalesced_subs"))},
        {"storage.windows_parked_frac", Ratio(at("windows_parked"), at("windows_applied"))},
        {"storage.noops", at("noops")},
        {"storage.log_append_ns", LogAppendNs()},
        {"index.lag_p99", Percentile(tracer_->index_lag, 0.99)},
        {"index.delta_pulls_per_op", Ratio(at("delta_pulls"), ops)},
        {"index.merged_per_op", Ratio(at("merged_positions"), ops)},
        {"lazylog.tail_cache_hit_frac",
         periodic_ ? Ratio(at("tail_cache_hits"), static_cast<double>(periodic_->polls(main)))
                   : 0.0},
        {"lazylog.readahead_hit_frac", Ratio(at("readahead_hits"), bench_records)},
        {"lazylog.backup_routed_frac", Ratio(at("backup_routed"), at("routed_reads"))},
        {"lazylog.coalesce_ratio", Ratio(at("coalesced_subs"), at("coalesced_batches"))},
        {"lazylog.clipped_resend_frac",
         Ratio(at("clipped_resends"), at("routed_reads") + at("primary_reads"))},
        {"lazylog.append_call_ns", Percentile(tracer_->append_call_ns, 0.50)},
        {"lazylog.read_call_ns", Percentile(tracer_->read_call_ns, 0.50)},
    };
  }

  std::printf("%s seed=%llu%s: append p50=%.3fus p99=%.3fus n=%llu | read p50=%.3fus "
              "p99=%.3fus n=%llu | failed %llu/%llu | wall %.3fs setup %.3fs\n",
              name_.c_str(), static_cast<unsigned long long>(seed_), traced_ ? " traced" : "",
              append_p50, append_p99, static_cast<unsigned long long>(appends_.attempted),
              read_p50, read_p99, static_cast<unsigned long long>(reads_.attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted), wall_s, setup_s);
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%d,", name_.c_str(),
              static_cast<unsigned long long>(seed_), traced_ ? 1 : 0);
  PrintJsonObject("sim", sim);
  PrintJsonObject("wall", wall);
  PrintJsonObject("layer", layer);
  std::printf("\"failures\":%llu,\"first_failures\":[",
              static_cast<unsigned long long>(failures_.count));
  for (size_t i = 0; i < failures_.first.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ",", failures_.first[i].c_str());
  }
  std::printf("]}\n");
}

}  // namespace
}  // namespace lazylog::perfbench

int main(int argc, char** argv) {
  using namespace lazylog::perfbench;
  const auto started = Clock::now();
  std::string workload;
  uint64_t seed = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    }
  }
  Spec spec;
  if (!SpecFor(workload, &spec) || trace < 0) {
    std::fprintf(stderr,
                 "usage: lazylog_bench --workload <st-append|m-tail-read|st-scan> "
                 "--seed <n> --trace <0|1>\n");
    return 2;
  }
  Bench bench(workload, spec, seed, trace == 1, started);
  bench.Run();
  return 0;
}
