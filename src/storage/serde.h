// Binary serialization of model objects for the storage layer.
//
// Little-endian, length-prefixed encoding. The format is self-contained per
// record: a decoder never needs the schema to skip a record, only to
// interpret attribute values.
#ifndef TEMPSPEC_STORAGE_SERDE_H_
#define TEMPSPEC_STORAGE_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "model/element.h"
#include "util/result.h"

namespace tempspec {

/// \brief Appends fixed-width and length-prefixed fields to a buffer.
class Encoder {
 public:
  explicit Encoder(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  void PutString(std::string_view s);  // u32 length prefix
  void PutTimePoint(TimePoint tp) { PutI64(tp.micros()); }

 private:
  std::string* out_;
};

/// \brief Reads fields sequentially; all getters fail cleanly at end of input.
class Decoder {
 public:
  explicit Decoder(std::string_view in) : in_(in) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<std::string> GetString();
  Result<TimePoint> GetTimePoint();

  size_t remaining() const { return in_.size(); }
  bool exhausted() const { return in_.empty(); }

 private:
  Status Need(size_t n) const;

  std::string_view in_;
};

/// \brief Serializes a Value (type tag + payload).
void EncodeValue(const Value& v, Encoder* enc);
Result<Value> DecodeValue(Decoder* dec);

/// \brief Serializes a Tuple (count + values).
void EncodeTuple(const Tuple& t, Encoder* enc);
Result<Tuple> DecodeTuple(Decoder* dec);

/// \brief Serializes a full Element.
void EncodeElement(const Element& e, Encoder* enc);
Result<Element> DecodeElement(Decoder* dec);

/// \brief CRC-32 (reflected IEEE polynomial; the zlib check value) that
/// WAL records, backlog pages and TSP1 frames carry to detect torn or
/// corrupted bytes. Computed slice-by-8, eight bytes per step; the values
/// are those of the byte-at-a-time definition.
uint32_t Crc32(std::string_view data);

}  // namespace tempspec

#endif  // TEMPSPEC_STORAGE_SERDE_H_
