// Codec tests: scalar and composite round trips, malformed-input robustness (every
// decoder must fail cleanly, never crash), and property-style random round trips.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "src/apps/kvstore.h"
#include "src/apps/logagg.h"
#include "src/baselines/corfu/corfu.h"
#include "src/baselines/kafkalite/kafkalite.h"
#include "src/baselines/scalog/paxos.h"
#include "src/baselines/scalog/scalog.h"
#include "src/common/codec.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/control/zookeeper.h"
#include "src/index/index_messages.h"
#include "src/seq/seq_messages.h"
#include "src/storage/shard_messages.h"

namespace lazylog {
namespace {

// One instance of every wire message, each field set to a non-default value (the
// flags-byte types appear twice: tag and log both absent, then both present). `f` is
// called as f(label, msg, inline_hex, attachments), with the bytes the message encodes
// to today; EveryMessageWireBytesPinned asserts them, and the malformed-input tests
// below reuse the list to reach every decoder.
template <typename F>
void ForEachPinnedMessage(F&& f) {
  using Atts = std::vector<std::string>;
  const Record untagged{RecordId{49, 50}, "rec", true};
  const Record tagged{RecordId{49, 50}, "rec", true, 51, 52};
  const LogRegistryEntry log_entry{32, "lg", 33, true};

  // seq_messages.h
  f("WireRecordId", WireRecordId{RecordId{17, 34}}, "11000000000000002200000000000000", Atts{});
  f("SeqAppendReq untagged", SeqAppendReq{3, RecordId{4, 5}, "ab", 6, true},
    "030000000000000004000000000000000500000000000000020000000600000001",
    Atts{"ab"});
  f("SeqAppendReq tagged", SeqAppendReq{3, RecordId{4, 5}, "ab", 6, true, 7, 8},
    "03000000000000000400000000000000050000000000000002000000060000000707000000000000"
    "000800000000000000",
    Atts{"ab"});
  f("SeqGcReq", SeqGcReq{1, 2, {WireRecordId{RecordId{3, 4}}}},
    "010000000000000002000000000000000100000003000000000000000400000000000000", Atts{});
  f("SeqSealReq", SeqSealReq{9}, "0900000000000000", Atts{});
  f("SeqSealResp", SeqSealResp{10, 11}, "0a000000000000000b00000000000000", Atts{});
  f("SeqFlushReq", SeqFlushReq{12}, "0c00000000000000", Atts{});
  f("SeqFlushResp", SeqFlushResp{13, {WireRecordId{RecordId{14, 15}}}},
    "0d00000000000000010000000e000000000000000f00000000000000", Atts{});
  f("SeqStartViewReq", SeqStartViewReq{16, {17, 18}, 19, 20, {WireRecordId{RecordId{21, 22}}}},
    "10000000000000000200000011000000000000001200000000000000130000000000000014000000"
    "000000000100000015000000000000001600000000000000", Atts{});
  f("SeqCheckTailResp", SeqCheckTailResp{23, 24, 25},
    "170000000000000018000000000000001900000000000000", Atts{});
  f("SeqUpdateShardsReq", SeqUpdateShardsReq{26, 27}, "1a0000001b000000", Atts{});
  f("SeqShardFailoverReq", SeqShardFailoverReq{28, 29, 30, 31},
    "1c0000001d0000001e0000001f00000000000000", Atts{});
  f("LogRegistryEntry", log_entry, "2000000000000000020000006c67210000000000000001", Atts{});
  f("SeqUpdateLogsReq", SeqUpdateLogsReq{34, {log_entry}},
    "2200000000000000010000002000000000000000020000006c67210000000000000001", Atts{});
  f("SeqCheckTailReq", SeqCheckTailReq{35}, "2300000000000000", Atts{});
  f("SeqConfigResp", SeqConfigResp{36, true, {37, 38}},
    "2400000000000000010200000025000000000000002600000000000000", Atts{});

  // index_messages.h
  f("IndexReadNextReq", IndexReadNextReq{39, 40, 41, 42, true},
    "27000000000000002800000000000000290000002a0000000000000001", Atts{});
  f("IndexReadNextResp", IndexReadNextResp{{43, 44}, {45, 46}, 47},
    "020000002b000000000000002c00000000000000020000002d000000000000002e00000000000000"
    "2f00000000000000", Atts{});

  // shard_messages.h
  f("PositionedRecord untagged", PositionedRecord{48, untagged},
    "3000000000000000310000000000000032000000000000000300000001", Atts{"rec"});
  f("PositionedRecord tagged", PositionedRecord{48, tagged},
    "30000000000000003100000000000000320000000000000003000000073300000000000000340000"
    "0000000000", Atts{"rec"});
  f("OrderWindow", OrderWindow{53, true, 54, 55, 56},
    "350000000000000001360000000000000037000000000000003800000000000000", Atts{});
  f("ShardAppendBatchReq",
    ShardAppendBatchReq{{57, true, 58, 59, 60}, {PositionedRecord{48, untagged},
                                                 PositionedRecord{61, tagged}}},
    "3900000000000000013a000000000000003b000000000000003c0000000000000002000000300000"
    "00000000003100000000000000320000000000000003000000013d00000000000000310000000000"
    "00003200000000000000030000000733000000000000003400000000000000", Atts{"rec", "rec"});
  f("ShardOrderAckResp", ShardOrderAckResp{61}, "3d00000000000000", Atts{});
  f("ReadRange", ReadRange{67, 68}, "430000000000000044000000", Atts{});
  f("ShardReadReq", ShardReadReq{{ReadRange{69, 70}}},
    "01000000450000000000000046000000", Atts{});
  f("ShardReadResp",
    ShardReadResp{{71, 72}, {PositionedRecord{48, untagged}}, 73, 74, 75},
    "02000000470000004800000001000000300000000000000031000000000000003200000000000000"
    "030000000149000000000000004a000000000000004b00000000000000",
    Atts{"rec"});
  f("ShardPutDataReq untagged", ShardPutDataReq{RecordId{76, 77}, "put"},
    "4c000000000000004d000000000000000300000000",
    Atts{"put"});
  f("ShardPutDataReq tagged", ShardPutDataReq{RecordId{76, 77}, "put", 78, 79},
    "4c000000000000004d0000000000000003000000064e000000000000004f00000000000000",
    Atts{"put"});
  f("MetaEntry", MetaEntry{80, RecordId{81, 82}, 83},
    "50000000000000005100000000000000520000000000000053000000", Atts{});
  f("ShardOrderMetaReq",
    ShardOrderMetaReq{{84, true, 85, 86, 87}, {MetaEntry{80, RecordId{81, 82}, 83}}},
    "54000000000000000155000000000000005600000000000000570000000000000001000000500000"
    "00000000005100000000000000520000000000000053000000",
    Atts{});
  f("ShardPosMapReq", ShardPosMapReq{88, 89}, "580000000000000059000000", Atts{});
  f("ShardPosMapResp", ShardPosMapResp{90, {91, 92}},
    "5a00000000000000020000005b000000000000005c00000000000000", Atts{});
  f("TagIndexEntry", TagIndexEntry{93, 94, 95},
    "5d000000000000005e000000000000005f00000000000000", Atts{});
  f("ShardIndexDeltaReq", ShardIndexDeltaReq{96, 97}, "600000000000000061000000", Atts{});
  f("ShardIndexDeltaResp", ShardIndexDeltaResp{98, 99, 100, 101, {TagIndexEntry{93, 94, 95}}},
    "6200000000000000630000000000000064000000000000006500000000000000010000005d000000"
    "000000005e000000000000005f00000000000000", Atts{});
  f("StableGpMsg", StableGpMsg{104, 105, 106},
    "680000000000000069000000000000006a00000000000000", Atts{});
  f("ShardSealReq", ShardSealReq{107}, "6b00000000000000", Atts{});
  f("ShardCopyStateReq", ShardCopyStateReq{108}, "6c000000", Atts{});
  f("TrimMsg", TrimMsg{109}, "6d00000000000000", Atts{});
  f("ShardPromoSealReq", ShardPromoSealReq{110}, "6e00000000000000", Atts{});
  f("ShardCompletenessResp", ShardCompletenessResp{111, 112, 113, 114, 115},
    "6f000000000000007000000000000000710000000000000072000000000000007300000000000000", Atts{});
  f("ShardPromoteReq", ShardPromoteReq{116, {117, 118}, {119, 120}},
    "74000000000000000200000075000000000000007600000000000000020000007700000000000000"
    "7800000000000000", Atts{});
  f("FetchRecordReq", FetchRecordReq{122}, "7a00000000000000", Atts{});
  f("NoOpMsg", NoOpMsg{123, RecordId{124, 125}},
    "7b000000000000007c000000000000007d00000000000000", Atts{});
}

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xf];
  }
  return out;
}

TEST(Codec, ScalarRoundTrip) {
  Encoder e;
  e.PutU8(7);
  e.PutU32(123456);
  e.PutU64(0xdeadbeefcafef00dULL);
  e.PutBool(true);
  e.PutBool(false);
  Decoder d(e.data());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  bool b1, b2;
  ASSERT_TRUE(d.GetU8(&u8));
  ASSERT_TRUE(d.GetU32(&u32));
  ASSERT_TRUE(d.GetU64(&u64));
  ASSERT_TRUE(d.GetBool(&b1));
  ASSERT_TRUE(d.GetBool(&b2));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, 0xdeadbeefcafef00dULL);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_TRUE(d.Done());
}

TEST(Codec, BytesRoundTrip) {
  Encoder e;
  e.PutBytes("");
  e.PutBytes(std::string("with\0nul", 8));
  Decoder d(e.data());
  std::string a, b;
  ASSERT_TRUE(d.GetBytes(&a));
  ASSERT_TRUE(d.GetBytes(&b));
  EXPECT_EQ(a, "");
  EXPECT_EQ(b, std::string("with\0nul", 8));
}

TEST(Codec, U64VectorRoundTrip) {
  Encoder e;
  WireEncode(e, std::vector<uint64_t>{1, 2, 3, UINT64_MAX});
  Decoder d(e.data());
  std::vector<uint64_t> v;
  ASSERT_TRUE(WireDecode(d, v));
  EXPECT_EQ(v, (std::vector<uint64_t>{1, 2, 3, UINT64_MAX}));
}

// Status codes cross the wire as a single u8 (rpc.cc response header); every code —
// including the newest, kOverloaded — must survive the cast round-trip unchanged.
TEST(Codec, StatusCodeWireRoundTrip) {
  for (StatusCode code : {StatusCode::kOk, StatusCode::kTimeout, StatusCode::kUnavailable,
                          StatusCode::kWrongView, StatusCode::kSealed,
                          StatusCode::kOutOfRange, StatusCode::kDuplicate,
                          StatusCode::kRejected, StatusCode::kNotLeader,
                          StatusCode::kStaleView, StatusCode::kInternal,
                          StatusCode::kInvalidArgument, StatusCode::kOverloaded}) {
    Encoder e;
    e.PutU8(static_cast<uint8_t>(code));
    Decoder d(e.data());
    uint8_t raw = 0xff;
    ASSERT_TRUE(d.GetU8(&raw));
    EXPECT_EQ(static_cast<StatusCode>(raw), code) << StatusCodeName(code);
  }
}

TEST(Codec, TruncatedInputFailsCleanly) {
  Encoder e;
  e.PutU64(42);
  e.PutBytes("hello");
  const std::string full = e.data();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Decoder d(full.data(), cut);
    uint64_t x;
    std::string s;
    const bool got_u64 = d.GetU64(&x);
    if (got_u64) {
      EXPECT_FALSE(d.GetBytes(&s)) << "cut=" << cut;
    }
  }
}

TEST(Codec, LengthPrefixBeyondBufferRejected) {
  Encoder e;
  e.PutU32(1'000'000);  // claims a 1MB string follows
  Decoder d(e.data());
  std::string s;
  EXPECT_FALSE(d.GetBytes(&s));

  // Every message: a 0xFFFFFFFF word at each offset of its encoding. Where the word
  // lands on a length prefix the decode must fail, without first allocating for the
  // claimed count (the sanitizer job caps allocations to catch that); a decode that
  // succeeds must have read only fixed-width fields.
  ForEachPinnedMessage([](const char* label, const auto& msg, const char*,
                          const std::vector<std::string>&) {
    using T = std::decay_t<decltype(msg)>;
    Encoder enc;
    msg.Encode(enc);
    const std::vector<Buf> atts = enc.TakeAtts();
    const std::string body = enc.Take();
    for (size_t off = 0; off + 4 <= body.size(); ++off) {
      std::string mutated = body;
      mutated.replace(off, 4, 4, '\xff');
      Decoder md(Buf::FromString(mutated), atts);
      T out;
      if (out.Decode(md)) {
        Encoder again;
        out.Encode(again);
        EXPECT_EQ(again.size(), mutated.size()) << label << " offset " << off;
      }
    }
  });
}

template <typename T>
void ExpectRoundTrip(const T& msg) {
  Encoder e;
  msg.Encode(e);
  std::vector<Buf> atts = e.TakeAtts();
  const Buf body = e.TakeBuf();
  Decoder d(body, atts);
  T out;
  ASSERT_TRUE(out.Decode(d));
  // Re-encoding the decoded message must reproduce the inline bytes and every
  // attachment byte-for-byte.
  Encoder e2;
  out.Encode(e2);
  std::vector<Buf> atts2 = e2.TakeAtts();
  EXPECT_EQ(body.ToString(), e2.TakeBuf().ToString());
  ASSERT_EQ(atts2.size(), atts.size());
  for (size_t i = 0; i < atts.size(); ++i) {
    EXPECT_EQ(atts[i].ToString(), atts2[i].ToString());
  }
  EXPECT_TRUE(d.Done());
}

// Wire-format golden: every message's inline bytes and attachments, pinned. A codec
// refactor must keep this test passing unedited. Every strict prefix of an encoding
// must fail to decode (each format ends in a required field).
TEST(Codec, EveryMessageWireBytesPinned) {
  int count = 0;
  ForEachPinnedMessage([&](const char* label, const auto& msg, const char* hex,
                           const std::vector<std::string>& atts) {
    using T = std::decay_t<decltype(msg)>;
    SCOPED_TRACE(label);
    ++count;
    Encoder e;
    msg.Encode(e);
    const std::string body = e.data();
    EXPECT_EQ(Hex(body), hex);
    const std::vector<Buf> got = e.TakeAtts();
    ASSERT_EQ(got.size(), atts.size());
    for (size_t i = 0; i < atts.size(); ++i) {
      EXPECT_EQ(got[i].size(), atts[i].size());
      EXPECT_EQ(got[i].ToString(), atts[i]);
    }
    ExpectRoundTrip(msg);
    for (size_t cut = 0; cut < body.size(); ++cut) {
      Decoder d(Buf::Copy(body.data(), cut), got);
      T out;
      EXPECT_FALSE(out.Decode(d)) << "prefix " << cut << " of " << body.size();
    }
  });
  EXPECT_EQ(count, 44);  // 41 message structs, three of them twice for the flags byte
}

// The bodies the baselines, ZooKeeperLite and the apps used to encode inline with
// Put* calls, now Wire structs (or one bare scalar, string or vector). Each hex is what
// the hand-written encoder produced for the same values, so the struct must encode to
// exactly it and decode it back.
TEST(Codec, FormerlyInlineBodiesKeepTheirBytes) {
  using Atts = std::vector<std::string>;
  const Record rec{RecordId{2, 3}, "ab", false};
  int count = 0;
  auto pin = [&](const char* label, const auto& msg, const char* hex, const Atts& atts) {
    using T = std::decay_t<decltype(msg)>;
    SCOPED_TRACE(label);
    ++count;
    Encoder e;
    WireEncode(e, msg);
    const std::string body = e.data();
    EXPECT_EQ(Hex(body), hex);
    const std::vector<Buf> got = e.TakeAtts();
    ASSERT_EQ(got.size(), atts.size());
    for (size_t i = 0; i < atts.size(); ++i) {
      EXPECT_EQ(got[i].ToString(), atts[i]);
    }
    Decoder d(Buf::Copy(body), got);
    T out{};
    ASSERT_TRUE(WireDecode(d, out));
    EXPECT_TRUE(d.Done());
    Encoder again;
    WireEncode(again, out);
    EXPECT_EQ(Hex(again.data()), hex);
  };
  pin("CorfuWriteReq", CorfuWriteReq{1, rec},
      "0100000000000000020000000000000003000000000000000200000000", Atts{"ab"});
  pin("CorfuReadReq", CorfuReadReq{4, true}, "040000000000000001", Atts{});
  pin("CorfuTailReq report", CorfuTailReq{true, 5}, "0500000000000000", Atts{});
  pin("CorfuTailReq query", CorfuTailReq{}, "", Atts{});
  pin("CorfuTailResp", CorfuTailResp{6, 7}, "06000000000000000700000000000000", Atts{});
  pin("ScalogReplicateReq", ScalogReplicateReq{9, rec},
      "0900000000000000020000000000000003000000000000000200000000", Atts{"ab"});
  pin("ScalogReportCutReq", ScalogReportCutReq{10, 11, 12}, "0a0000000b0000000c00000000000000",
      Atts{});
  pin("ScalogReadReq", ScalogReadReq{13, 14}, "0d000000000000000e00000000000000", Atts{});
  pin("scalog locate", uint64_t{15}, "0f00000000000000", Atts{});
  pin("ScalogLocateResp", ScalogLocateResp{16, 17}, "100000001100000000000000", Atts{});
  pin("PaxosPrepareReq", PaxosPrepareReq{19, 20}, "13000000000000001400000000000000", Atts{});
  pin("PaxosAcceptReq", PaxosAcceptReq{21, 22, "v"},
      "150000000000000016000000000000000100000076", Atts{});
  pin("PaxosPromise", PaxosPromise{23, "w"}, "17000000000000000100000077", Atts{});
  pin("KafkaFetchReq", KafkaFetchReq{24, 25}, "180000000000000019000000", Atts{});
  pin("KafkaFetchResp", KafkaFetchResp{{rec}, 26},
      "010000000200000000000000030000000000000002000000001a00000000000000", Atts{"ab"});
  pin("kafka truncate", uint64_t{27}, "1b00000000000000", Atts{});
  pin("zk heartbeat", uint64_t{28}, "1c00000000000000", Atts{});
  pin("zk path", std::string("/p"), "020000002f70", Atts{});
  pin("ZkDataResp", ZkDataResp{"d", 29}, "01000000641d00000000000000", Atts{});
  pin("zk list reply", std::vector<std::string>{"/a", "/b"},
      "02000000020000002f61020000002f62", Atts{});
  pin("ZkWatchEvent", ZkWatchEvent{"/w", static_cast<uint8_t>(ZkEvent::kDataChanged)},
      "020000002f7702", Atts{});
  pin("KvPutReq", KvPutReq{"k", "v"}, "010000006b0100000076", Atts{});
  pin("TxnReq", TxnReq{3, 32, static_cast<uint64_t>(int64_t{-5})},
      "032000000000000000fbffffffffffffff", Atts{});
  EXPECT_EQ(count, 23);
}

TEST(Codec, RecordRoundTrip) {
  Record r{RecordId{7, 9}, "payload", true};
  Encoder e;
  WireEncode(e, r);
  // The payload travels as an attachment; the decoder must receive both parts.
  Decoder d(e.TakeBuf(), e.TakeAtts());
  Record out;
  ASSERT_TRUE(WireDecode(d, out));
  EXPECT_EQ(out, r);
}

TEST(Codec, TaggedRecordRoundTrip) {
  for (bool no_op : {false, true}) {
    for (StreamTag tag : {kNoTag, StreamTag{1}, StreamTag{0xfeedfacecafebeefULL}}) {
      Record r{RecordId{3, 4}, "pay", no_op, tag};
      Encoder e;
      WireEncode(e, r);
      Decoder d(e.TakeBuf(), e.TakeAtts());
      Record out;
      ASSERT_TRUE(WireDecode(d, out)) << "no_op=" << no_op << " tag=" << tag;
      EXPECT_EQ(out, r);
      EXPECT_TRUE(d.Done());
    }
  }
}

// Untagged records must stay byte-identical to the pre-tag wire format, whose trailing
// byte was PutBool(no_op): old frames decode under the new codec and vice versa.
TEST(Codec, UntaggedRecordIsLegacyByteCompatible) {
  for (bool no_op : {false, true}) {
    Record r{RecordId{11, 12}, "legacy", no_op};
    Encoder now;
    WireEncode(now, r);
    Encoder legacy;  // the pre-tag encoder: id, attached payload, bool no_op
    WireEncode(legacy, r.id);
    legacy.PutAttached(r.payload);
    legacy.PutBool(r.no_op);
    EXPECT_EQ(now.TakeBuf().ToString(), legacy.TakeBuf().ToString()) << "no_op=" << no_op;
  }
}

// A flags byte with unknown bits set is malformed input, not a silent truncation; so is
// a has-tag flag with no tag bytes behind it.
TEST(Codec, MalformedRecordFlagsRejected) {
  for (uint8_t flags : {uint8_t{0x4}, uint8_t{0x80}, uint8_t{0xff}}) {
    Encoder e;
    WireEncode(e, RecordId{1, 1});
    e.PutAttached(Buf("x"));
    e.PutU8(flags);
    Decoder d(e.TakeBuf(), e.TakeAtts());
    Record out;
    EXPECT_FALSE(WireDecode(d, out)) << "flags=" << int{flags};
  }
  Encoder e;
  WireEncode(e, RecordId{1, 1});
  e.PutAttached(Buf("x"));
  e.PutU8(kRecordFlagHasTag);  // claims a u64 tag follows, but the frame ends here
  Decoder d(e.TakeBuf(), e.TakeAtts());
  Record out;
  EXPECT_FALSE(WireDecode(d, out));
}

TEST(Codec, TaggedSeqAppendLegacyByteCompatible) {
  SeqAppendReq app;
  app.view = 5;
  app.id = RecordId{1, 2};
  app.payload = "p";
  app.target_shard = 7;
  app.is_meta = true;
  ExpectRoundTrip(app);
  app.tag = 42;
  ExpectRoundTrip(app);
  // Untagged frame == the pre-tag encoding, whose trailing byte was PutBool(is_meta).
  SeqAppendReq untagged = app;
  untagged.tag = kNoTag;
  Encoder now;
  untagged.Encode(now);
  Encoder legacy;
  legacy.PutU64(untagged.view);
  WireEncode(legacy, untagged.id);
  legacy.PutAttached(untagged.payload);
  legacy.PutU32(untagged.target_shard);
  legacy.PutBool(untagged.is_meta);
  EXPECT_EQ(now.TakeBuf().ToString(), legacy.TakeBuf().ToString());
  // Unknown flag bits bail out.
  Encoder bad;
  bad.PutU64(1);
  WireEncode(bad, RecordId{1, 1});
  bad.PutAttached(Buf("x"));
  bad.PutU32(0);
  bad.PutU8(0x10);
  Decoder d(bad.TakeBuf(), bad.TakeAtts());
  SeqAppendReq out;
  EXPECT_FALSE(out.Decode(d));
}

TEST(Codec, TaggedShardPutDataRoundTrip) {
  ShardPutDataReq put{RecordId{9, 10}, "data", 1234};
  ExpectRoundTrip(put);
  // has-tag flag without the tag bytes is malformed.
  Encoder e;
  WireEncode(e, put.id);
  e.PutAttached(put.payload);
  e.PutU8(kRecordFlagHasTag);
  Decoder d(e.TakeBuf(), e.TakeAtts());
  ShardPutDataReq out;
  EXPECT_FALSE(out.Decode(d));
}

TEST(Codec, IndexMessagesRoundTrip) {
  ExpectRoundTrip(ShardIndexDeltaReq{17, 128});

  ShardIndexDeltaResp delta;
  delta.from_seq = 17;
  delta.next_seq = 20;
  delta.stable_gp = 99;
  delta.exported_below = 95;
  delta.entries = {TagIndexEntry{1, 3}, TagIndexEntry{1, 7}, TagIndexEntry{2, 5}};
  ExpectRoundTrip(delta);

  ExpectRoundTrip(IndexReadNextReq{5, 100, 32});

  IndexReadNextResp next;
  next.positions = {4, 8};
  next.shard_ids = {0, 1};
  next.indexed_upto = 12;
  ExpectRoundTrip(next);
}

// positions/shard_ids are parallel vectors; a response where they disagree in length
// is malformed (a client walking them in lockstep would read out of bounds).
TEST(Codec, IndexReadNextRespLengthMismatchRejected) {
  Encoder e;
  WireEncode(e, std::vector<uint64_t>{1, 2, 3});
  WireEncode(e, std::vector<uint64_t>{0});
  e.PutU64(10);
  Decoder d(e.TakeBuf());
  IndexReadNextResp out;
  EXPECT_FALSE(out.Decode(d));
}

TEST(Codec, ShardMessagesRoundTrip) {
  ShardAppendBatchReq batch;
  batch.view = 3;
  batch.overwrite = true;
  batch.truncate_from = 17;
  batch.records.push_back(PositionedRecord{5, Record{RecordId{1, 2}, "abc", false}});
  batch.records.push_back(PositionedRecord{8, Record{RecordId{1, 3}, "", true}});
  ExpectRoundTrip(batch);

  ShardReadReq read{{ReadRange{42, 25}, ReadRange{3, 1}}};
  ExpectRoundTrip(read);

  ShardReadResp resp;
  resp.counts = {1, 0};
  resp.records.push_back(PositionedRecord{1, Record{RecordId{2, 2}, "x", false}});
  ExpectRoundTrip(resp);

  ShardPutDataReq put{RecordId{9, 10}, "data"};
  ExpectRoundTrip(put);

  ShardOrderMetaReq meta;
  meta.view = 1;
  meta.entries.push_back(MetaEntry{0, RecordId{1, 1}, 2});
  ExpectRoundTrip(meta);

  ShardPosMapReq pm{100, 50};
  ExpectRoundTrip(pm);
  ShardPosMapResp pmr;
  pmr.from = 100;
  pmr.shard_ids = {0, 1, 2};
  ExpectRoundTrip(pmr);

  ExpectRoundTrip(StableGpMsg{2, 99});
  ExpectRoundTrip(TrimMsg{55});
  ExpectRoundTrip(FetchRecordReq{7});
  ExpectRoundTrip(NoOpMsg{3, RecordId{4, 5}});
}

TEST(Codec, SeqMessagesRoundTrip) {
  SeqAppendReq app;
  app.view = 2;
  app.id = RecordId{10, 20};
  app.payload = "hello";
  app.target_shard = 3;
  app.is_meta = true;
  ExpectRoundTrip(app);

  SeqGcReq gc;
  gc.view = 1;
  gc.new_ordered_gp = 77;
  gc.ids.push_back(WireRecordId{RecordId{1, 1}});
  ExpectRoundTrip(gc);

  ExpectRoundTrip(SeqSealReq{4});
  ExpectRoundTrip(SeqSealResp{10, 5});
  ExpectRoundTrip(SeqFlushReq{6});

  SeqFlushResp fr;
  fr.new_ordered_gp = 12;
  fr.flushed_ids.push_back(WireRecordId{RecordId{2, 2}});
  ExpectRoundTrip(fr);

  SeqStartViewReq sv;
  sv.view = 9;
  sv.config = {1, 2, 3};
  sv.ordered_gp = 8;
  sv.stable_gp = 8;
  sv.flushed_ids.push_back(WireRecordId{RecordId{3, 3}});
  ExpectRoundTrip(sv);

  ExpectRoundTrip(SeqCheckTailResp{100, 90});

  SeqConfigResp cfg;
  cfg.view = 2;
  cfg.sealed = true;
  cfg.config = {5, 6};
  ExpectRoundTrip(cfg);

  // "/shards/config": epoch, shard count, then per shard its replica count, replica
  // ids and promotion epoch.
  const ShardConfig shards{7, {{{1, 2, 3}, 4}, {{5}, 0}}};
  Encoder now;
  WireEncode(now, shards);
  Encoder legacy;
  legacy.PutU64(7);
  legacy.PutU32(2);
  legacy.PutU32(3);
  legacy.PutU32(1);
  legacy.PutU32(2);
  legacy.PutU32(3);
  legacy.PutU64(4);
  legacy.PutU32(1);
  legacy.PutU32(5);
  legacy.PutU64(0);
  EXPECT_EQ(now.data(), legacy.data());
  Decoder d(now.data());
  ShardConfig out;
  ASSERT_TRUE(WireDecode(d, out));
  EXPECT_TRUE(d.Done());
  ASSERT_EQ(out.shards.size(), 2u);
  EXPECT_EQ(out.epoch, 7u);
  EXPECT_EQ(out.shards[0].replicas, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(out.shards[0].promo_epoch, 4u);
  EXPECT_EQ(out.shards[1].replicas, (std::vector<NodeId>{5}));
}

// Property: random record batches round-trip for many sizes and seeds.
class CodecFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecFuzz, RandomBatchRoundTrip) {
  Rng rng(GetParam());
  ShardAppendBatchReq batch;
  batch.view = rng.Next();
  batch.overwrite = rng.Chance(0.5);
  batch.truncate_from = rng.Next();
  const size_t n = rng.Uniform(64);
  for (size_t i = 0; i < n; ++i) {
    std::string payload(rng.Uniform(512), static_cast<char>('a' + rng.Uniform(26)));
    // ~half tagged: both flag-byte shapes must survive in the same batch.
    const StreamTag tag = rng.Chance(0.5) ? rng.Next() : kNoTag;
    batch.records.push_back(PositionedRecord{
        rng.Next(), Record{RecordId{rng.Next(), rng.Next()}, payload, rng.Chance(0.1), tag}});
  }
  Encoder e;
  batch.Encode(e);
  Decoder d(e.TakeBuf(), e.TakeAtts());
  ShardAppendBatchReq out;
  ASSERT_TRUE(out.Decode(d));
  ASSERT_EQ(out.records.size(), batch.records.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out.records[i].pos, batch.records[i].pos);
    EXPECT_EQ(out.records[i].record, batch.records[i].record);
  }
}

TEST_P(CodecFuzz, RandomBytesNeverCrashDecoders) {
  Rng rng(GetParam() ^ 0xf00d);
  std::string junk(rng.Uniform(256), '\0');
  for (char& c : junk) {
    c = static_cast<char>(rng.Next());
  }
  // No decoder may crash; failure is fine.
  ForEachPinnedMessage([&](const char*, const auto& msg, const char*,
                           const std::vector<std::string>&) {
    std::decay_t<decltype(msg)> m;
    Decoder d(junk);
    (void)m.Decode(d);
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Range(uint64_t{1}, uint64_t{21}));

}  // namespace
}  // namespace lazylog
