// Buf lifetime and aliasing tests: slices must outlive the decoder/message they came
// from (the backing is refcounted, not borrowed), slice-of-slice offsets must compose,
// and malformed decode paths must fail cleanly without reading out of bounds. The suite
// runs under the ASan CI job, so any use-after-free in the aliasing path is fatal.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/buf.h"
#include "src/common/codec.h"
#include "src/storage/shard_messages.h"

namespace lazylog {
namespace {

// Restores global Buf accounting/mode so tests do not leak state into each other.
class BufTest : public ::testing::Test {
 protected:
  BufTest() { GlobalBufStats().Reset(); }
  ~BufTest() override {
    SetBufForceCopy(false);
    GlobalBufStats().Reset();
  }
};

TEST_F(BufTest, FromStringTakesOwnershipWithoutCopying) {
  const uint64_t copied_before = GlobalBufStats().payload_bytes_copied;
  Buf b = Buf::FromString(std::string(1000, 'a'));
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(GlobalBufStats().payload_bytes_copied, copied_before);  // moved, not copied
  EXPECT_EQ(GlobalBufStats().allocations, 1u);
}

TEST_F(BufTest, HandleCopiesShareBacking) {
  Buf a = Buf::FromString("hello world");
  Buf b = a;
  Buf c = b;
  EXPECT_TRUE(a.SharesBackingWith(b));
  EXPECT_TRUE(a.SharesBackingWith(c));
  EXPECT_EQ(a.use_count(), 3);
  EXPECT_EQ(GlobalBufStats().allocations, 1u);  // one backing, three handles
}

TEST_F(BufTest, SliceOutlivesParentHandle) {
  Buf slice;
  {
    Buf parent = Buf::FromString("the quick brown fox");
    slice = parent.Slice(4, 5);
  }  // parent handle destroyed; the backing must survive via the slice
  EXPECT_EQ(slice.ToString(), "quick");
}

TEST_F(BufTest, SliceOfSliceComposesOffsets) {
  Buf whole = Buf::FromString("0123456789");
  Buf mid = whole.Slice(2, 6);  // "234567"
  EXPECT_EQ(mid.ToString(), "234567");
  Buf inner = mid.Slice(1, 3);  // offsets compose relative to mid, not whole
  EXPECT_EQ(inner.ToString(), "345");
  EXPECT_TRUE(inner.SharesBackingWith(whole));
}

TEST_F(BufTest, SliceClampsOutOfRange) {
  Buf b = Buf::FromString("abc");
  EXPECT_TRUE(b.Slice(3, 1).empty());   // offset at end
  EXPECT_TRUE(b.Slice(10, 5).empty());  // offset past end
  EXPECT_EQ(b.Slice(1, 100).ToString(), "bc");  // length clamped
}

TEST_F(BufTest, EmptyBufIsSafe) {
  Buf b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.use_count(), 0);
  EXPECT_TRUE(b.Slice(0, 10).empty());
  Buf c = b;  // copying the empty Buf is fine
  EXPECT_FALSE(b.SharesBackingWith(c));  // no backing to share
}

// --- aliasing through the codec -------------------------------------------------------

TEST_F(BufTest, GetBufViewAliasesOwnedBody) {
  Encoder e;
  e.PutU64(7);
  e.PutBuf(Buf::FromString("payload-bytes"));
  const Buf wire = e.TakeBuf();

  Buf out;
  {
    Decoder d(wire);
    uint64_t x = 0;
    ASSERT_TRUE(d.GetU64(&x));
    ASSERT_TRUE(d.GetBufView(&out));
  }  // decoder destroyed; `out` must keep the wire bytes alive
  EXPECT_EQ(out.ToString(), "payload-bytes");
  EXPECT_TRUE(out.SharesBackingWith(wire));
}

TEST_F(BufTest, GetBufViewCopiesWhenBodyUnowned) {
  Encoder e;
  e.PutBuf(Buf::FromString("copy-me"));
  const std::string wire = e.data();
  Buf out;
  {
    Decoder d(wire);  // unowned view of a string: aliasing would dangle
    ASSERT_TRUE(d.GetBufView(&out));
  }
  EXPECT_EQ(out.ToString(), "copy-me");
}

TEST_F(BufTest, AttachmentRoundTripAliasesPayload) {
  const Buf payload = Buf::FromString(std::string(4096, 'p'));
  Encoder e;
  e.PutU32(1);
  e.PutAttached(payload);
  std::vector<Buf> atts = e.TakeAtts();
  ASSERT_EQ(atts.size(), 1u);
  EXPECT_TRUE(atts[0].SharesBackingWith(payload));  // encode side: handle only

  Decoder d(e.TakeBuf(), std::move(atts));
  uint32_t tag = 0;
  Buf out;
  ASSERT_TRUE(d.GetU32(&tag));
  ASSERT_TRUE(d.GetAttached(&out));
  EXPECT_TRUE(out.SharesBackingWith(payload));  // decode side: same backing still
  EXPECT_EQ(out.size(), 4096u);
}

TEST_F(BufTest, DecodedRecordOutlivesMessage) {
  Record in{RecordId{3, 4}, Buf::FromString(std::string(128, 'r')), false};
  Record out;
  {
    Encoder e;
    WireEncode(e, in);
    Decoder d(e.TakeBuf(), e.TakeAtts());
    ASSERT_TRUE(WireDecode(d, out));
  }  // encoder and decoder gone
  EXPECT_EQ(out.payload.size(), 128u);
  EXPECT_TRUE(out.payload.SharesBackingWith(in.payload));
}

TEST_F(BufTest, ForceCopyModeBreaksAliasingButKeepsBytes) {
  SetBufForceCopy(true);
  const Buf payload = Buf::FromString("abcdef");
  Encoder e;
  e.PutAttached(payload);
  std::vector<Buf> atts = e.TakeAtts();
  ASSERT_EQ(atts.size(), 1u);
  EXPECT_FALSE(atts[0].SharesBackingWith(payload));  // deep-copied
  EXPECT_EQ(atts[0].ToString(), "abcdef");
  EXPECT_GE(GlobalBufStats().payload_bytes_copied, 6u);
}

// --- malformed-input decode paths -----------------------------------------------------

TEST_F(BufTest, GetBufViewRejectsOverlongLength) {
  Encoder e;
  e.PutU32(1'000'000);  // claims 1 MB follows; nothing does
  Decoder d(e.TakeBuf());
  Buf out;
  EXPECT_FALSE(d.GetBufView(&out));
  EXPECT_TRUE(out.empty());
}

TEST_F(BufTest, GetAttachedFailsWithoutAttachmentList) {
  Encoder e;
  e.PutAttached(Buf::FromString("data"));
  // Decode from the inline bytes only — the attachment was dropped in transit.
  const std::string inline_only = e.data();
  Decoder d(inline_only);
  Buf out;
  EXPECT_FALSE(d.GetAttached(&out));
}

TEST_F(BufTest, GetAttachedRejectsSizeMismatch) {
  Encoder e;
  e.PutAttached(Buf::FromString("four"));
  std::vector<Buf> atts = e.TakeAtts();
  atts[0] = Buf::FromString("not-four-bytes");  // tampered attachment
  Decoder d(e.TakeBuf(), std::move(atts));
  Buf out;
  EXPECT_FALSE(d.GetAttached(&out));
}

TEST_F(BufTest, ZeroLengthAttachmentNeedsNoAttachment) {
  Encoder e;
  e.PutAttached(Buf());
  EXPECT_TRUE(e.TakeAtts().empty());  // nothing to ship
  Decoder d(e.TakeBuf());
  Buf out;
  EXPECT_TRUE(d.GetAttached(&out));
  EXPECT_TRUE(out.empty());
}

TEST_F(BufTest, TruncatedAttachmentMarkerFailsCleanly) {
  Encoder e;
  e.PutAttached(Buf::FromString("payload"));
  const Buf wire = e.TakeBuf();
  std::vector<Buf> atts = e.TakeAtts();
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    Decoder d(wire.Slice(0, cut), atts);
    Buf out;
    EXPECT_FALSE(d.GetAttached(&out)) << "cut=" << cut;
  }
}

TEST_F(BufTest, MalformedRecordDecodeNeverReadsPastEnd) {
  Record in{RecordId{1, 2}, Buf::FromString(std::string(64, 'z')), false};
  Encoder e;
  WireEncode(e, in);
  const Buf wire = e.TakeBuf();
  const std::vector<Buf> atts = e.TakeAtts();
  // Every truncation of the inline part must fail cleanly (never crash, never succeed
  // with garbage) — ASan guards the "never reads past end" half.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    Decoder d(wire.Slice(0, cut), atts);
    Record out;
    EXPECT_FALSE(WireDecode(d, out)) << "cut=" << cut;
  }
}

}  // namespace
}  // namespace lazylog
