// Calibration constants for the simulated testbed. Values are derived from the paper's
// CloudLab x1170 cluster (Intel E5-2640v4, 25 Gb ConnectX-4, SATA SSD) and from the
// absolute numbers the paper reports; see DESIGN.md §8 for the derivations. SimParams
// holds only knobs some bench, test or chaos flag varies; each experiment copies and
// tweaks one. A fixed calibration is a named constant: here if the sequencing layer
// and the shards share it, otherwise in the one module that uses it.
#ifndef SRC_COMMON_PARAMS_H_
#define SRC_COMMON_PARAMS_H_

#include <cstdint>

namespace lazylog {

// Nanosecond helpers for readability at call sites.
constexpr uint64_t kUs = 1'000;
constexpr uint64_t kMs = 1'000'000;
constexpr uint64_t kSec = 1'000'000'000;

// Retry timeout for the orderer's window pushes to the shards (and a shard primary's
// no-op decision to its backups). Much shorter than the generic rpc timeout: a lost push stalls
// the shard's ordering pipeline (30us cadence) until the retry fires, so a 50 ms
// timeout would turn one dropped packet into a 50 ms stable-gp stall.
constexpr uint64_t kOrderPushTimeoutNs = 5 * kMs;
// Initial backoff before a failed shard cursor retries its window; doubles per
// consecutive failure up to kOrderPushTimeoutNs.
constexpr uint64_t kOrderRetryBackoffNs = 60 * kUs;
// Size of one Erwin-st metadata entry, the <record-id, shard-id> tuple (§5): what
// the sequencing CPU copies per append and the shard stores per window entry.
constexpr uint64_t kMetadataEntryBytes = 32;
// Client append timeout: short enough that a sequencing-replica crash pushes clients
// into config re-resolution on the timescale of the control plane's recovery (the
// ZK session timeout, Fig 17).
constexpr uint64_t kClientAppendTimeoutNs = 8 * kMs;

// Network model: per-message delivery time = one-way propagation + size/bandwidth
// (serialized on the sender NIC, so concurrent sends queue) + uniform jitter.
struct NetworkParams {
  uint64_t propagation_ns = 3'500;           // one-way incl. switch + eRPC stack
  double bandwidth_bytes_per_sec = 3.125e9;  // 25 Gb/s NIC
  uint64_t jitter_ns = 600;                  // uniform [0, jitter)
  uint64_t per_message_overhead_bytes = 256;  // headers + DMA descriptors
};

// Server CPU model: requests at a node are serviced FIFO by a single simulated core;
// each request charges fixed_ns + bytes / copy_bandwidth. The copy bandwidth on the
// sequencing replicas is what makes Erwin-m flatten with big records (Fig 12).
struct CpuParams {
  uint64_t fixed_ns = 950;                      // fits ~1M x 100B appends/s (Fig 12)
  double copy_bandwidth_bytes_per_sec = 1.6e9;  // flattens Erwin-m near ~280K x 4KB
};

// Shard storage model: appends consume disk bandwidth (long-term durability);
// the effective ~300 MB/s cap yields ~30K x 4KB appends/s per shard (§6.1) and
// isolation latencies of ~700-800 us under load.
struct DiskParams {
  double write_bandwidth_bytes_per_sec = 300e6;
  uint64_t write_latency_ns = 500 * kUs;  // SATA-SSD-class durable write latency
};

// Sequencing layer + background ordering.
struct SeqParams {
  int num_replicas = 3;                    // 1 leader + 2 followers (f=2 with f+1... paper: f+1)
  uint64_t ordering_interval_ns = 30 * kUs;  // background ordering tick, fixed
  // Per-shard ordering pipeline (§4.3 redesign): each shard cursor keeps up to this
  // many ordering windows in flight independently of the other shards, so a slow shard
  // no longer stalls the others and retries are per shard instead of whole-batch.
  uint32_t order_pipeline_depth = 4;
  // Maximum positions covered by one ordering window pushed to a shard. Also the most
  // positions one tick assigns, the size of a "full" window that pacing never holds,
  // and the per-tick DRR share split across the logs with a backlog.
  uint64_t max_order_batch = 16384;

  // --- Admission control (bounded unordered ring) ---
  // When enabled, appends arriving while ring occupancy (unordered entries + appends
  // queued for the sequencer CPU) is at or above the high watermark are refused with
  // kOverloaded before they consume sequencer CPU; admission resumes only once the
  // ring drains below the low watermark (hysteresis, so the gate does not flap).
  bool admission_control = true;
  // High watermark: at ~1us of sequencer CPU per metadata append, a full ring adds
  // ~4ms of queueing delay — safely under kClientAppendTimeoutNs (8ms), so admitted
  // appends never time out merely because they queued behind a full ring.
  uint64_t ring_high_watermark = 4096;
  uint64_t ring_low_watermark = 2048;

  // --- Multi-tenant fairness + quotas (virtual-log layer) ---
  // Deficit-round-robin fairness across phylogs inside the admission gate: each
  // ordering tick replenishes every active log's deficit with an equal share of
  // max_order_batch; once ring occupancy reaches the low watermark, an append from a
  // log with no deficit left is refused kOverloaded while logs within their share
  // keep being admitted. Always on; a lone tenant is never throttled by it.
  // Deficit accumulation cap, in multiples of the per-tick share: lets a trickling
  // tenant bank a small burst allowance without hoarding unbounded credit.
  uint32_t fairness_burst_quanta = 4;
};

// Client read path (§5.3 read scale-out): replica routing, request coalescing,
// and tail readahead. Stable reads (strictly below the client's cached stable-gp)
// may be served by any replica of a shard because every replica gates ServeRead on
// its own stable-gp broadcast; reads at/above stable still go to the primary, whose
// waiter queue provides the wait-for-stability semantics.
struct ClientReadParams {
  // 0 = always primary (pinned baseline);
  // 2 = load-aware power-of-two-choices over per-replica EWMA of observed read
  //     RTT plus server-piggybacked CPU queue depth (default).
  uint32_t read_routing_mode = 2;
  // Max records packed into one multi-range read RPC; larger ranges are split into
  // chunks issued as independent pipelined RPCs so shard-side response serialization
  // CPU overlaps NIC transmission of earlier chunks.
  uint32_t read_chunk_records = 256;
  // Sequential-reader speculative prefetch: after a read that starts where the
  // client's previous read ended (the first read counts if it starts at 0), fetch up
  // to this many records of the stable region past it into a client cache. Reads at
  // any other offset never prefetch. 0 = off.
  uint32_t readahead_records = 64;
  // Erwin-st position-map prefetch span per kShardPosMap fetch (was a hardcoded 1024).
  uint64_t posmap_readahead = 1024;
};

// Everything bundled; experiments copy one of these and override fields.
struct SimParams {
  NetworkParams net;
  CpuParams seq_cpu;      // sequencing replicas
  // Storage-server request handling (flash-path bookkeeping); on Corfu's critical path
  // three times per append, but only on Erwin's background path.
  CpuParams shard_cpu{.fixed_ns = 3'000, .copy_bandwidth_bytes_per_sec = 2.0e9};
  DiskParams disk;
  SeqParams seq;
  uint64_t rpc_timeout_ns = 50 * kMs;
  ClientReadParams client_read;
  uint64_t seed = 1;
};

}  // namespace lazylog

#endif  // SRC_COMMON_PARAMS_H_
