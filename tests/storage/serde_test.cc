#include "storage/serde.h"

#include <gtest/gtest.h>

#include "testing.h"
#include "util/random.h"

namespace tempspec {
namespace {

using testing::T;

TEST(SerdeTest, PrimitivesRoundTrip) {
  std::string buf;
  Encoder enc(&buf);
  enc.PutU8(0xAB);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutI64(-42);
  enc.PutDouble(3.14159);
  enc.PutString("hello");
  enc.PutTimePoint(T(123));

  Decoder dec(buf);
  EXPECT_EQ(dec.GetU8().ValueOrDie(), 0xAB);
  EXPECT_EQ(dec.GetU32().ValueOrDie(), 0xDEADBEEFu);
  EXPECT_EQ(dec.GetU64().ValueOrDie(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.GetI64().ValueOrDie(), -42);
  EXPECT_DOUBLE_EQ(dec.GetDouble().ValueOrDie(), 3.14159);
  EXPECT_EQ(dec.GetString().ValueOrDie(), "hello");
  EXPECT_EQ(dec.GetTimePoint().ValueOrDie(), T(123));
  EXPECT_TRUE(dec.exhausted());
}

TEST(SerdeTest, UnderflowDetected) {
  std::string buf;
  Encoder enc(&buf);
  enc.PutU32(7);
  Decoder dec(buf);
  EXPECT_TRUE(dec.GetU64().status().IsCorruption());
  // String whose claimed length exceeds the remaining bytes.
  std::string bad;
  Encoder enc2(&bad);
  enc2.PutU32(1000);
  bad += "short";
  Decoder dec2(bad);
  EXPECT_TRUE(dec2.GetString().status().IsCorruption());
}

TEST(SerdeTest, ValuesRoundTrip) {
  const Value values[] = {Value::Null(), Value(true),   Value(int64_t{-7}),
                          Value(2.75),   Value("text"), Value(T(99))};
  for (const Value& v : values) {
    std::string buf;
    Encoder enc(&buf);
    EncodeValue(v, &enc);
    Decoder dec(buf);
    ASSERT_OK_AND_ASSIGN(Value back, DecodeValue(&dec));
    EXPECT_EQ(back, v) << v.ToString();
  }
}

TEST(SerdeTest, TupleRoundTrip) {
  const Tuple t{int64_t{1}, "abc", 2.5, Value::Null()};
  std::string buf;
  Encoder enc(&buf);
  EncodeTuple(t, &enc);
  Decoder dec(buf);
  ASSERT_OK_AND_ASSIGN(Tuple back, DecodeTuple(&dec));
  EXPECT_EQ(back, t);
}

TEST(SerdeTest, ElementRoundTrip) {
  Element e = testing::MakeIntervalElement(T(10), T(20), T(30), 77, 5);
  e.tt_end = T(40);
  e.attributes = Tuple{int64_t{5}, "payload"};
  std::string buf;
  Encoder enc(&buf);
  EncodeElement(e, &enc);
  Decoder dec(buf);
  ASSERT_OK_AND_ASSIGN(Element back, DecodeElement(&dec));
  EXPECT_EQ(back.element_surrogate, 77u);
  EXPECT_EQ(back.object_surrogate, 5u);
  EXPECT_EQ(back.tt_begin, T(10));
  EXPECT_EQ(back.tt_end, T(40));
  EXPECT_EQ(back.valid, e.valid);
  EXPECT_EQ(back.attributes, e.attributes);
}

TEST(SerdeTest, EventElementKeepsKind) {
  const Element e = testing::MakeEventElement(T(10), T(5), 3);
  std::string buf;
  Encoder enc(&buf);
  EncodeElement(e, &enc);
  Decoder dec(buf);
  ASSERT_OK_AND_ASSIGN(Element back, DecodeElement(&dec));
  EXPECT_TRUE(back.valid.is_event());
  EXPECT_EQ(back.valid.at(), T(5));
}

TEST(SerdeTest, RandomElementsRoundTrip) {
  Random rng(5);
  for (int i = 0; i < 200; ++i) {
    Element e;
    e.element_surrogate = rng.Uniform(1, 1 << 30);
    e.object_surrogate = rng.Uniform(1, 100);
    e.tt_begin = T(rng.Uniform(-1000, 1000));
    e.tt_end = rng.OneIn(0.5) ? TimePoint::Max() : T(rng.Uniform(1000, 2000));
    if (rng.OneIn(0.5)) {
      e.valid = ValidTime::Event(T(rng.Uniform(-500, 500)));
    } else {
      const int64_t b = rng.Uniform(-500, 500);
      e.valid = ValidTime::IntervalUnchecked(T(b), T(b + rng.Uniform(0, 100)));
    }
    e.attributes = Tuple{rng.Uniform(0, 1 << 20), rng.NextString(rng.Uniform(0, 40)),
                         rng.NextDouble()};
    std::string buf;
    Encoder enc(&buf);
    EncodeElement(e, &enc);
    Decoder dec(buf);
    ASSERT_OK_AND_ASSIGN(Element back, DecodeElement(&dec));
    EXPECT_EQ(back.valid, e.valid);
    EXPECT_EQ(back.attributes, e.attributes);
    EXPECT_EQ(back.tt_begin, e.tt_begin);
    EXPECT_EQ(back.tt_end, e.tt_end);
  }
}

TEST(Crc32Test, KnownVectorsAndSensitivity) {
  EXPECT_EQ(Crc32(""), 0x00000000u);
  // The canonical IEEE check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_NE(Crc32("hello"), Crc32("hellp"));
  EXPECT_NE(Crc32("ab"), Crc32("ba"));
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
}

// The bitwise definition: reflected IEEE polynomial, one bit at a time.
uint32_t ReferenceCrc32(std::string_view data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char ch : data) {
    crc ^= ch;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // WAL records, backlog pages and TSP1 frames on disk and on the wire
  // carry these values, so the eight-bytes-per-step loop and its byte tail
  // must agree with the definition at every length and start offset.
  Random rng(1992);
  std::string buffer(8 + 300, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.Uniform(0, 255));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const std::string_view slice(buffer.data() + offset, len);
      ASSERT_EQ(Crc32(slice), ReferenceCrc32(slice))
          << "offset " << offset << " length " << len;
    }
  }
}

}  // namespace
}  // namespace tempspec
