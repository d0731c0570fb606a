#include "storage/serde.h"

#include <array>
#include <cstring>

namespace tempspec {

void Encoder::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void Encoder::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void Encoder::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Encoder::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_->append(s.data(), s.size());
}

Status Decoder::Need(size_t n) const {
  if (in_.size() < n) {
    return Status::Corruption("decoder underflow: need ", n, " bytes, have ",
                              in_.size());
  }
  return Status::OK();
}

Result<uint8_t> Decoder::GetU8() {
  TS_RETURN_NOT_OK(Need(1));
  uint8_t v = static_cast<uint8_t>(in_[0]);
  in_.remove_prefix(1);
  return v;
}

Result<uint32_t> Decoder::GetU32() {
  TS_RETURN_NOT_OK(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(in_[i])) << (8 * i);
  }
  in_.remove_prefix(4);
  return v;
}

Result<uint64_t> Decoder::GetU64() {
  TS_RETURN_NOT_OK(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(in_[i])) << (8 * i);
  }
  in_.remove_prefix(8);
  return v;
}

Result<int64_t> Decoder::GetI64() {
  TS_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> Decoder::GetDouble() {
  TS_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> Decoder::GetString() {
  TS_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  TS_RETURN_NOT_OK(Need(len));
  std::string s(in_.substr(0, len));
  in_.remove_prefix(len);
  return s;
}

Result<TimePoint> Decoder::GetTimePoint() {
  TS_ASSIGN_OR_RETURN(int64_t micros, GetI64());
  return TimePoint::FromMicros(micros);
}

void EncodeValue(const Value& v, Encoder* enc) {
  enc->PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      enc->PutU8(v.AsBool() ? 1 : 0);
      break;
    case ValueType::kInt64:
      enc->PutI64(v.AsInt64());
      break;
    case ValueType::kDouble:
      enc->PutDouble(v.AsDouble());
      break;
    case ValueType::kString:
      enc->PutString(v.AsString());
      break;
    case ValueType::kTime:
      enc->PutTimePoint(v.AsTime());
      break;
  }
}

Result<Value> DecodeValue(Decoder* dec) {
  TS_ASSIGN_OR_RETURN(uint8_t tag, dec->GetU8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      TS_ASSIGN_OR_RETURN(uint8_t b, dec->GetU8());
      return Value(b != 0);
    }
    case ValueType::kInt64: {
      TS_ASSIGN_OR_RETURN(int64_t v, dec->GetI64());
      return Value(v);
    }
    case ValueType::kDouble: {
      TS_ASSIGN_OR_RETURN(double v, dec->GetDouble());
      return Value(v);
    }
    case ValueType::kString: {
      TS_ASSIGN_OR_RETURN(std::string s, dec->GetString());
      return Value(std::move(s));
    }
    case ValueType::kTime: {
      TS_ASSIGN_OR_RETURN(TimePoint tp, dec->GetTimePoint());
      return Value(tp);
    }
  }
  return Status::Corruption("unknown value type tag ", static_cast<int>(tag));
}

void EncodeTuple(const Tuple& t, Encoder* enc) {
  enc->PutU32(static_cast<uint32_t>(t.size()));
  for (const Value& v : t.values()) EncodeValue(v, enc);
}

Result<Tuple> DecodeTuple(Decoder* dec) {
  TS_ASSIGN_OR_RETURN(uint32_t n, dec->GetU32());
  std::vector<Value> values;
  values.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    TS_ASSIGN_OR_RETURN(Value v, DecodeValue(dec));
    values.push_back(std::move(v));
  }
  return Tuple(std::move(values));
}

void EncodeElement(const Element& e, Encoder* enc) {
  enc->PutU64(e.element_surrogate);
  enc->PutU64(e.object_surrogate);
  enc->PutTimePoint(e.tt_begin);
  enc->PutTimePoint(e.tt_end);
  enc->PutU8(e.valid.is_event() ? 0 : 1);
  enc->PutTimePoint(e.valid.begin());
  enc->PutTimePoint(e.valid.end());
  EncodeTuple(e.attributes, enc);
}

Result<Element> DecodeElement(Decoder* dec) {
  Element e;
  TS_ASSIGN_OR_RETURN(e.element_surrogate, dec->GetU64());
  TS_ASSIGN_OR_RETURN(e.object_surrogate, dec->GetU64());
  TS_ASSIGN_OR_RETURN(e.tt_begin, dec->GetTimePoint());
  TS_ASSIGN_OR_RETURN(e.tt_end, dec->GetTimePoint());
  TS_ASSIGN_OR_RETURN(uint8_t kind, dec->GetU8());
  TS_ASSIGN_OR_RETURN(TimePoint vb, dec->GetTimePoint());
  TS_ASSIGN_OR_RETURN(TimePoint ve, dec->GetTimePoint());
  if (kind == 0) {
    e.valid = ValidTime::Event(vb);
  } else {
    e.valid = ValidTime::IntervalUnchecked(vb, ve);
  }
  TS_ASSIGN_OR_RETURN(e.attributes, DecodeTuple(dec));
  return e;
}

namespace {

// Slice-by-8 tables for the reflected IEEE polynomial 0xEDB88320: row 0 is
// the classic byte-at-a-time table, and row k maps a byte to its CRC
// contribution once k further zero bytes have been shifted through, so one
// step folds eight input bytes with eight independent lookups.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeCrc32Tables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t row = 1; row < 8; ++row) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[row - 1][i];
      tables[row][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr auto kCrc32Tables = MakeCrc32Tables();

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  const auto& t = kCrc32Tables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace tempspec
