#include "model/tuple.h"

namespace tempspec {

Status Tuple::Conforms(const Schema& schema) const {
  if (values_.size() != schema.num_attributes()) {
    return Status::InvalidArgument("tuple has ", values_.size(),
                                   " values but schema '", schema.relation_name(),
                                   "' expects ", schema.num_attributes());
  }
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i].is_null()) continue;
    if (values_[i].type() != schema.attribute(i).type) {
      return Status::InvalidArgument(
          "attribute '", schema.attribute(i).name, "' expects ",
          ValueTypeToString(schema.attribute(i).type), " but got ",
          ValueTypeToString(values_[i].type()));
    }
  }
  return Status::OK();
}

Result<Value> Tuple::Get(const Schema& schema, const std::string& name) const {
  TS_ASSIGN_OR_RETURN(size_t i, schema.IndexOf(name));
  if (i >= values_.size()) {
    return Status::Internal("tuple narrower than schema for '", name, "'");
  }
  return values_[i];
}

size_t Tuple::ByteSize() const {
  size_t total = 0;
  for (const auto& v : values_) total += v.ByteSize();
  return total;
}

void Tuple::AppendTo(std::string* out) const {
  out->push_back('(');
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out->append(", ");
    values_[i].AppendTo(out);
  }
  out->push_back(')');
}

std::string Tuple::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

}  // namespace tempspec
