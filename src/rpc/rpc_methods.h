// Central registry of RPC method ids. Each subsystem owns a hundred-block so collisions
// are impossible and wire traces are readable.
#ifndef SRC_RPC_RPC_METHODS_H_
#define SRC_RPC_RPC_METHODS_H_

#include "src/rpc/rpc.h"

namespace lazylog {

// --- control plane (ZooKeeperLite + controller): 100 block ---
inline constexpr MethodId kZkCreateSession = 100;
inline constexpr MethodId kZkHeartbeat = 101;
inline constexpr MethodId kZkCreate = 102;       // znode create (persistent or ephemeral)
inline constexpr MethodId kZkSetData = 103;      // versioned write
inline constexpr MethodId kZkGetData = 104;
inline constexpr MethodId kZkWatch = 105;        // register watch on a path prefix
inline constexpr MethodId kZkWatchFire = 106;    // server -> watcher notification
inline constexpr MethodId kZkDelete = 107;
inline constexpr MethodId kZkList = 108;

// --- sequencing layer: 200 block ---
inline constexpr MethodId kSeqAppend = 200;        // client record append (Erwin-m)
inline constexpr MethodId kSeqAppendMeta = 201;    // client metadata append (Erwin-st)
inline constexpr MethodId kSeqGc = 202;            // leader -> follower: gc + last-ordered-gp
inline constexpr MethodId kSeqSeal = 203;          // controller -> replica
inline constexpr MethodId kSeqFetchLog = 204;      // controller -> recovery replica
inline constexpr MethodId kSeqStartView = 205;     // controller -> replica
inline constexpr MethodId kSeqCheckTail = 206;     // client -> leader
inline constexpr MethodId kSeqGetConfig = 207;     // client -> any replica: view/config probe
inline constexpr MethodId kSeqTrim = 208;          // client -> leader
inline constexpr MethodId kSeqUpdateShards = 209;  // controller -> replica: shard membership
inline constexpr MethodId kSeqShardFailover = 210; // controller -> replica: primary promoted;
                                                   // retarget pushes + reset the shard cursor
inline constexpr MethodId kSeqUpdateLogs = 211;    // controller -> replica: log registry
                                                   // (phylog quota table + tombstones)

// --- storage shards: 300 block ---
inline constexpr MethodId kShardAppendBatch = 300;   // orderer -> primary: ordered records
inline constexpr MethodId kShardReplicate = 301;     // primary -> backup
inline constexpr MethodId kShardRead = 302;          // client -> primary: waiting read
inline constexpr MethodId kShardSetStableGp = 303;   // orderer -> shard
inline constexpr MethodId kShardPutData = 304;       // Erwin-st client data write (unordered)
inline constexpr MethodId kShardOrderMeta = 305;     // Erwin-st orderer -> primary: metadata log
inline constexpr MethodId kShardPosMap = 306;        // Erwin-st client: position->shard lookup
inline constexpr MethodId kShardTrim = 307;
inline constexpr MethodId kShardReplicateMeta = 309; // Erwin-st primary -> backup metadata
inline constexpr MethodId kShardReplicateNoOp = 310; // Erwin-st primary -> backup no-op fix
inline constexpr MethodId kShardFetchRecord = 311;   // Erwin-st repair: backup -> primary,
                                                     // promoted primary -> peer
inline constexpr MethodId kShardFetchState = 312;    // replacement replica -> live replica
inline constexpr MethodId kShardSeal = 313;          // controller -> shard: fence old epochs
inline constexpr MethodId kShardCopyState = 314;     // controller -> replacement: pull state
inline constexpr MethodId kShardIndexDelta = 315;    // index node -> primary: pull tag index
inline constexpr MethodId kShardPromoSeal = 317;     // controller -> replica: fence for primary
                                                     // promotion; resp = completeness report
inline constexpr MethodId kShardPromote = 318;       // controller -> replica: adopt new replica
                                                     // order (order[0] == self => role flip)
inline constexpr MethodId kShardMultiRangeRead = 320;  // client -> any replica: stable read
                                                       // that never waits (coalesced reads,
                                                       // index fetches)

// The ordering windows (orderer -> primary, primary -> backup) are background traffic:
// no client waits on one, so they serialize on the NIC's background lane at any size
// and never head-of-line-block the appends and reads beside them.
inline constexpr bool IsOrderingWindowMethod(MethodId method) {
  return method == kShardAppendBatch || method == kShardOrderMeta ||
         method == kShardReplicate || method == kShardReplicateMeta;
}

// --- index tier: 800 block ---
inline constexpr MethodId kIndexReadNext = 800;      // client -> index node: tag position scan

// --- Corfu baseline: 400 block ---
inline constexpr MethodId kCorfuNextPos = 400;   // sequencer: hand out next position
inline constexpr MethodId kCorfuWrite = 401;     // chain write at a position
inline constexpr MethodId kCorfuRead = 402;
inline constexpr MethodId kCorfuTail = 403;

// --- Scalog baseline: 500 block ---
inline constexpr MethodId kScalogAppend = 500;      // client -> shard primary
inline constexpr MethodId kScalogReplicate = 501;   // primary -> backup (FIFO)
inline constexpr MethodId kScalogReportCut = 502;   // shard server -> ordering leader
inline constexpr MethodId kScalogCommitCut = 503;   // ordering leader -> shard servers
inline constexpr MethodId kScalogRead = 504;
inline constexpr MethodId kScalogLocate = 505;      // client -> ordering leader
inline constexpr MethodId kScalogTail = 506;        // client -> ordering leader
inline constexpr MethodId kPaxosPrepare = 510;
inline constexpr MethodId kPaxosAccept = 511;
inline constexpr MethodId kPaxosLearn = 512;

// --- KafkaLite: 600 block ---
inline constexpr MethodId kKafkaProduce = 600;      // producer -> partition leader
inline constexpr MethodId kKafkaReplicate = 601;    // leader -> follower
inline constexpr MethodId kKafkaFetch = 602;        // consumer fetch
inline constexpr MethodId kKafkaTruncate = 603;     // delete tail records (Erwin-m recovery)
inline constexpr MethodId kKafkaMeta = 604;         // log end offset etc.

// --- applications: 700 block ---
inline constexpr MethodId kKvPut = 700;
inline constexpr MethodId kKvGet = 701;
inline constexpr MethodId kTxnExecute = 702;
inline constexpr MethodId kStreamEmit = 703;

}  // namespace lazylog

#endif  // SRC_RPC_RPC_METHODS_H_
