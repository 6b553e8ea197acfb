#include "common/serde.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace ps2 {
namespace {

TEST(SerdeTest, RoundTripFixedWidth) {
  BufferWriter w;
  w.WriteU8(7);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFULL);
  w.WriteI32(-42);
  w.WriteI64(-1LL << 40);
  w.WriteF32(1.5f);
  w.WriteF64(-2.25);

  BufferReader r(w.buffer());
  EXPECT_EQ(*r.ReadU8(), 7);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEF);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*r.ReadI32(), -42);
  EXPECT_EQ(*r.ReadI64(), -1LL << 40);
  EXPECT_EQ(*r.ReadF32(), 1.5f);
  EXPECT_EQ(*r.ReadF64(), -2.25);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, VarintSmallValuesAreOneByte) {
  BufferWriter w;
  w.WriteVarint(0);
  w.WriteVarint(127);
  EXPECT_EQ(w.size(), 2u);
}

TEST(SerdeTest, VarintRoundTripBoundaries) {
  std::vector<uint64_t> values{0,    1,    127,  128,   16383, 16384,
                               1u << 21,   1ull << 35,
                               std::numeric_limits<uint64_t>::max()};
  BufferWriter w;
  for (uint64_t v : values) w.WriteVarint(v);
  BufferReader r(w.buffer());
  for (uint64_t v : values) {
    EXPECT_EQ(*r.ReadVarint(), v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, SignedVarintRoundTrip) {
  std::vector<int64_t> values{0, 1, -1, 63, -64, 1000, -1000,
                              std::numeric_limits<int64_t>::max(),
                              std::numeric_limits<int64_t>::min()};
  BufferWriter w;
  for (int64_t v : values) w.WriteSignedVarint(v);
  BufferReader r(w.buffer());
  for (int64_t v : values) {
    EXPECT_EQ(*r.ReadSignedVarint(), v);
  }
}

TEST(SerdeTest, SignedVarintSmallMagnitudesAreCompact) {
  BufferWriter w;
  w.WriteSignedVarint(-1);
  w.WriteSignedVarint(1);
  w.WriteSignedVarint(-5);
  EXPECT_EQ(w.size(), 3u);
}

TEST(SerdeTest, StringRoundTrip) {
  BufferWriter w;
  w.WriteString("hello ps2");
  w.WriteString("");
  BufferReader r(w.buffer());
  EXPECT_EQ(*r.ReadString(), "hello ps2");
  EXPECT_EQ(*r.ReadString(), "");
}

TEST(SerdeTest, PodVectorRoundTrip) {
  std::vector<double> values{1.0, -2.5, 3.75};
  BufferWriter w;
  w.WritePodVector(values);
  BufferReader r(w.buffer());
  EXPECT_EQ(*r.ReadPodVector<double>(), values);
}

TEST(SerdeTest, F64SpanRoundTrip) {
  std::vector<double> values{0.5, 1.5, 2.5, 3.5};
  BufferWriter w;
  w.WriteF64Span(values.data(), values.size());
  BufferReader r(w.buffer());
  EXPECT_EQ(*r.ReadF64Span(4), values);
}

TEST(SerdeTest, VarintVectorRoundTrip) {
  std::vector<uint64_t> values{3, 1, 4, 1, 5, 926535};
  BufferWriter w;
  w.WriteVarintVector(values);
  BufferReader r(w.buffer());
  EXPECT_EQ(*r.ReadVarintVector(), values);
}

TEST(SerdeTest, DeltaKeysMatchPerKeyVarintsAndRoundTrip) {
  const std::vector<uint64_t> keys{0, 1, 127, 128, 16511,
                                   std::numeric_limits<uint64_t>::max()};
  BufferWriter bulk;
  bulk.WriteU8(9);  // the bulk write appends after existing bytes
  bulk.WriteDeltaKeys(keys.data(), keys.size());
  BufferWriter per_key;
  per_key.WriteU8(9);
  uint64_t prev = 0;
  for (uint64_t k : keys) {
    per_key.WriteVarint(k - prev);
    prev = k;
  }
  EXPECT_EQ(bulk.buffer(), per_key.buffer());

  BufferReader r(bulk.buffer());
  ASSERT_EQ(*r.ReadU8(), 9);
  std::vector<uint64_t> back(keys.size());
  ASSERT_TRUE(r.ReadDeltaKeys(back.data(), back.size()).ok());
  EXPECT_EQ(back, keys);
  EXPECT_TRUE(r.AtEnd());

  // One key short of the buffer: a clean OutOfRange, never a read past it.
  std::vector<uint8_t> cut(bulk.buffer().begin(), bulk.buffer().end() - 1);
  BufferReader t(cut);
  ASSERT_TRUE(t.ReadU8().ok());
  EXPECT_TRUE(t.ReadDeltaKeys(back.data(), back.size()).IsOutOfRange());
}

TEST(SerdeTest, ReadPastEndFails) {
  BufferWriter w;
  w.WriteU32(5);
  BufferReader r(w.buffer());
  EXPECT_TRUE(r.ReadU64().status().IsOutOfRange());
}

TEST(SerdeTest, TruncatedVarintFails) {
  std::vector<uint8_t> buf{0x80};  // continuation bit with no next byte
  BufferReader r(buf);
  EXPECT_TRUE(r.ReadVarint().status().IsOutOfRange());
}

TEST(SerdeTest, OverlongVarintFails) {
  std::vector<uint8_t> buf(11, 0x80);
  BufferReader r(buf);
  EXPECT_FALSE(r.ReadVarint().ok());
}

TEST(SerdeTest, PodVectorLengthOverflowFails) {
  BufferWriter w;
  w.WriteVarint(1u << 30);  // claims 2^30 doubles
  BufferReader r(w.buffer());
  EXPECT_TRUE(r.ReadPodVector<double>().status().IsOutOfRange());
}

TEST(SerdeTest, StringLengthOverflowFails) {
  BufferWriter w;
  w.WriteVarint(1000);
  w.WriteU8('x');
  BufferReader r(w.buffer());
  EXPECT_TRUE(r.ReadString().status().IsOutOfRange());
}

TEST(SerdeTest, RemainingTracksPosition) {
  BufferWriter w;
  w.WriteU32(1);
  w.WriteU32(2);
  BufferReader r(w.buffer());
  EXPECT_EQ(r.remaining(), 8u);
  ASSERT_TRUE(r.ReadU32().ok());
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(SerdeTest, SectionMarksRecordOffsetsAndKinds) {
  BufferWriter w;
  w.WriteU8(3);  // opcode-style prefix, outside any section
  w.BeginSection(SectionKind::kKeys);
  w.WriteVarint(10);
  w.WriteVarint(20);
  w.EndSection();
  w.WriteU32(0xABCD);  // unmarked gap
  w.BeginSection(SectionKind::kF64Values);
  w.WriteF64(1.5);
  w.WriteF64(-2.5);
  w.EndSection();

  std::vector<PayloadSection> sections = w.TakeSections();
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].kind, SectionKind::kKeys);
  EXPECT_EQ(sections[0].offset, 1u);
  EXPECT_EQ(sections[0].len, 2u);
  EXPECT_EQ(sections[1].kind, SectionKind::kF64Values);
  EXPECT_EQ(sections[1].offset, 1u + 2u + 4u);
  EXPECT_EQ(sections[1].len, 16u);
  // Sections are metadata only: the bytes parse exactly as written.
  BufferReader r(w.buffer());
  EXPECT_EQ(*r.ReadU8(), 3);
  EXPECT_EQ(*r.ReadVarint(), 10u);
  EXPECT_EQ(*r.ReadVarint(), 20u);
  EXPECT_EQ(*r.ReadU32(), 0xABCDu);
  EXPECT_EQ(*r.ReadF64(), 1.5);
  EXPECT_EQ(*r.ReadF64(), -2.5);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, TakeSectionsMovesTheList) {
  BufferWriter w;
  w.BeginSection(SectionKind::kKeys);
  w.WriteU8(1);
  w.EndSection();
  EXPECT_EQ(w.TakeSections().size(), 1u);
  EXPECT_TRUE(w.TakeSections().empty());
}

TEST(SerdeTest, ReadBytesReturnsZeroCopyView) {
  BufferWriter w;
  w.WriteU8(9);
  w.WriteString("payload");
  BufferReader r(w.buffer());
  ASSERT_TRUE(r.ReadU8().ok());
  Result<Slice> bytes = r.ReadBytes(3);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->data(), w.buffer().data() + 1);  // a view, not a copy
  EXPECT_EQ(bytes->size(), 3u);
  EXPECT_TRUE(r.ReadBytes(100).status().IsOutOfRange());
}

TEST(SerdeTest, ReadF64IntoFillsCallerStorage) {
  std::vector<double> values{0.25, -1.0, 42.0};
  BufferWriter w;
  w.WriteF64Span(values.data(), values.size());
  BufferReader r(w.buffer());
  std::vector<double> out(3, 0.0);
  ASSERT_TRUE(r.ReadF64Into(out.data(), out.size()).ok());
  EXPECT_EQ(out, values);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ReadF64Into(out.data(), 1).IsOutOfRange());
}

TEST(SerdeTest, SliceSubsliceClamps) {
  std::vector<uint8_t> buf{0, 1, 2, 3, 4};
  Slice s(buf);
  EXPECT_EQ(s.subslice(1, 3).size(), 3u);
  EXPECT_EQ(s.subslice(1, 3)[0], 1);
  EXPECT_EQ(s.subslice(3, 100).size(), 2u);  // clamped to the end
  EXPECT_TRUE(s.subslice(9, 1).empty());     // past the end: empty view
}

}  // namespace
}  // namespace ps2
