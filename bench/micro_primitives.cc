// Micro-benchmarks (google-benchmark) for the hot primitives underlying the simulator
// and protocol implementations: wire codec, histogram recording, segmented log, event
// loop scheduling, and zipfian generation. `--smoke` skips google-benchmark and prints
// one JSON line per codec configuration (record size x alias/force-copy) for CI.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "src/common/codec.h"
#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/sim/event_loop.h"
#include "src/storage/segmented_log.h"

namespace lazylog {
namespace {

void BM_CodecEncodeRecord(benchmark::State& state) {
  Record rec{RecordId{1, 2}, std::string(static_cast<size_t>(state.range(0)), 'x'), false};
  for (auto _ : state) {
    Encoder e;
    WireEncode(e, rec);
    benchmark::DoNotOptimize(e.view());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_CodecEncodeRecord)->Arg(100)->Arg(4096);

void BM_CodecDecodeRecord(benchmark::State& state) {
  Record rec{RecordId{1, 2}, std::string(static_cast<size_t>(state.range(0)), 'x'), false};
  Encoder e;
  WireEncode(e, rec);
  const std::string buf = e.data();
  for (auto _ : state) {
    Decoder d(buf);
    Record out;
    WireDecode(d, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_CodecDecodeRecord)->Arg(100)->Arg(4096);

// Full encode->decode round trip through the attachment path. range(0) = record bytes,
// range(1) = force-copy mode (1 reproduces the old copy-per-hop behaviour). Reports
// bytes copied/aliased per round trip alongside the timing.
void BM_CodecRoundTripRecord(benchmark::State& state) {
  SetBufForceCopy(state.range(1) != 0);
  GlobalBufStats().Reset();
  const Record rec{RecordId{1, 2},
                   Buf::FromString(std::string(static_cast<size_t>(state.range(0)), 'x')),
                   false};
  for (auto _ : state) {
    Encoder e;
    WireEncode(e, rec);
    Decoder d(e.TakeBuf(), e.TakeAtts());
    Record out;
    WireDecode(d, out);
    benchmark::DoNotOptimize(out);
  }
  const BufStats& bs = GlobalBufStats();
  const double iters = static_cast<double>(state.iterations());
  state.counters["bytes_copied_per_op"] = static_cast<double>(bs.payload_bytes_copied) / iters;
  state.counters["bytes_aliased_per_op"] = static_cast<double>(bs.payload_bytes_aliased) / iters;
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
  SetBufForceCopy(false);
}
BENCHMARK(BM_CodecRoundTripRecord)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({65536, 0})
    ->Args({65536, 1});

void BM_HistogramAdd(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (auto _ : state) {
    h.Add(rng.Uniform(1'000'000));
  }
  benchmark::DoNotOptimize(h.Mean());
}
BENCHMARK(BM_HistogramAdd);

void BM_HistogramPercentile(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (int i = 0; i < 100'000; ++i) {
    h.Add(rng.Uniform(1'000'000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Percentile(0.99));
  }
}
BENCHMARK(BM_HistogramPercentile);

void BM_SegmentedLogAppend(benchmark::State& state) {
  SegmentedLog log;
  const Record rec{RecordId{1, 1}, std::string(128, 'x'), false};
  for (auto _ : state) {
    log.Append(rec);
  }
  benchmark::DoNotOptimize(log.size());
}
BENCHMARK(BM_SegmentedLogAppend);

void BM_SegmentedLogGet(benchmark::State& state) {
  SegmentedLog log;
  for (int i = 0; i < 100'000; ++i) {
    log.Append(Record{RecordId{1, static_cast<uint64_t>(i)}, "x", false});
  }
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Get(rng.Uniform(100'000)));
  }
}
BENCHMARK(BM_SegmentedLogGet);

void BM_EventLoopScheduleRun(benchmark::State& state) {
  EventLoop loop;
  uint64_t sink = 0;
  for (auto _ : state) {
    loop.Schedule(1, [&sink]() { sink++; });
    loop.RunOne();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventLoopScheduleRun);

void BM_Zipfian(benchmark::State& state) {
  ZipfianGenerator zipf(1'000'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next());
  }
}
BENCHMARK(BM_Zipfian);

// CI smoke: measure the codec round trip directly (not through google-benchmark), emit
// one JSON line per (size, mode), and check that the zero-copy path really copies
// nothing (and aliases the payload at both hops) while the force-copy baseline copies
// the payload at both the encode and decode hop. Exits nonzero on a violation.
int RunCodecSmoke() {
  int rc = 0;
  for (const size_t size : {size_t{128}, size_t{4096}, size_t{65536}}) {
    for (const bool force : {false, true}) {
      SetBufForceCopy(force);
      GlobalBufStats().Reset();
      const Record rec{RecordId{1, 2}, Buf::FromString(std::string(size, 'x')), false};
      // Keep total touched bytes roughly constant so the 64 KB rows do not dominate.
      const uint64_t iters = std::max<uint64_t>(512, (16ull << 20) / size);
      const auto t0 = std::chrono::steady_clock::now();
      for (uint64_t i = 0; i < iters; ++i) {
        Encoder e;
        WireEncode(e, rec);
        Decoder d(e.TakeBuf(), e.TakeAtts());
        Record out;
        if (!WireDecode(d, out) || out.payload.size() != size) {
          std::fprintf(stderr, "codec smoke: round trip failed at %zu bytes\n", size);
          return 1;
        }
        benchmark::DoNotOptimize(out);
      }
      const auto t1 = std::chrono::steady_clock::now();
      const double ns_per_op =
          std::chrono::duration_cast<std::chrono::duration<double, std::nano>>(t1 - t0)
              .count() /
          static_cast<double>(iters);
      const BufStats& bs = GlobalBufStats();
      std::printf(
          "{\"component\":\"codec_roundtrip\",\"record_bytes\":%zu,\"force_copy\":%d,"
          "\"ns_per_op\":%.1f,\"bytes_copied_per_op\":%.1f,\"bytes_aliased_per_op\":%.1f,"
          "\"allocs_per_op\":%.2f}\n",
          size, force ? 1 : 0, ns_per_op,
          static_cast<double>(bs.payload_bytes_copied) / static_cast<double>(iters),
          static_cast<double>(bs.payload_bytes_aliased) / static_cast<double>(iters),
          static_cast<double>(bs.allocations) / static_cast<double>(iters));
      const uint64_t both_hops = 2 * size * iters;
      const bool ok = force ? bs.payload_bytes_copied == both_hops
                            : bs.payload_bytes_copied == 0 && bs.payload_bytes_aliased == both_hops;
      if (!ok) {
        std::fprintf(stderr, "SMOKE FAIL: %s round trip at %zu bytes copied %llu, aliased %llu\n",
                     force ? "force-copy" : "zero-copy", size,
                     static_cast<unsigned long long>(bs.payload_bytes_copied),
                     static_cast<unsigned long long>(bs.payload_bytes_aliased));
        rc = 1;
      }
    }
  }
  SetBufForceCopy(false);
  if (rc == 0) {
    std::printf("codec smoke OK: 0 bytes copied per aliased round trip at all sizes\n");
  }
  return rc;
}

}  // namespace
}  // namespace lazylog

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return lazylog::RunCodecSmoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
