// Tuples: explicit attribute values of an element, checked against a schema.
#ifndef TEMPSPEC_MODEL_TUPLE_H_
#define TEMPSPEC_MODEL_TUPLE_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "model/schema.h"
#include "model/value.h"
#include "util/result.h"

namespace tempspec {

/// \brief A positional list of attribute values conforming to a Schema.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}

  /// \brief Type-checks the values against the schema (nulls allowed).
  Status Conforms(const Schema& schema) const;

  size_t size() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  /// \brief Value of the named attribute under the given schema.
  Result<Value> Get(const Schema& schema, const std::string& name) const;

  size_t ByteSize() const;

  /// \brief Appends "(v1, v2, ...)", each value as Value::AppendTo renders it.
  void AppendTo(std::string* out) const;
  std::string ToString() const;

  friend bool operator==(const Tuple&, const Tuple&) = default;

 private:
  std::vector<Value> values_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_MODEL_TUPLE_H_
