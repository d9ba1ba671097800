// Copyright 2026 The streambid Authors
// Timestamped data tuples.

#ifndef STREAMBID_STREAM_TUPLE_H_
#define STREAMBID_STREAM_TUPLE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "stream/schema.h"

namespace streambid::stream {

/// Virtual time in seconds since the start of the simulation.
using VirtualTime = double;

/// One stream element: a schema, field values, and an event timestamp in
/// virtual time. A Tuple is a handle to one immutable payload, so copying
/// a tuple (a select or union passing it through, a window or sink
/// keeping it) copies a pointer and bumps an atomic refcount; the values
/// themselves are never copied. Fan-out copies no handle at all: every
/// consumer reads its producer's batch in place. The refcount
/// is atomic because sink histories are read from other threads once a
/// period's tasks have joined. A default Tuple has no payload and reads
/// as empty: null schema, no values, timestamp 0.
class Tuple {
 public:
  Tuple() = default;
  Tuple(SchemaPtr schema, std::vector<Value> values, VirtualTime timestamp)
      : payload_(std::make_shared<const Payload>(
            Payload{std::move(schema), std::move(values), timestamp})) {
    STREAMBID_DCHECK(payload_->schema != nullptr);
    STREAMBID_DCHECK(static_cast<int>(payload_->values.size()) ==
                     payload_->schema->num_fields());
  }

  const SchemaPtr& schema() const { return payload().schema; }
  VirtualTime timestamp() const { return payload().timestamp; }

  const Value& value(int i) const {
    const std::vector<Value>& values = payload().values;
    STREAMBID_DCHECK(i >= 0 && i < static_cast<int>(values.size()));
    return values[static_cast<size_t>(i)];
  }

  /// Value of the field named `name` (CHECK-fails when absent).
  const Value& field(const std::string& name) const {
    const int idx = schema()->FieldIndex(name);
    STREAMBID_CHECK_GE(idx, 0);
    return value(idx);
  }

  const std::vector<Value>& values() const { return payload().values; }

  /// "(ts=1.5 sym=IBM price=42)" — debugging and sinks.
  std::string ToString() const {
    std::string out = "(ts=" + std::to_string(timestamp());
    const SchemaPtr& s = schema();
    for (int i = 0; i < s->num_fields(); ++i) {
      out += " " + s->field(i).name + "=" + value(i).ToString();
    }
    out += ")";
    return out;
  }

 private:
  struct Payload {
    SchemaPtr schema;
    std::vector<Value> values;
    VirtualTime timestamp = 0.0;
  };

  const Payload& payload() const {
    static const Payload kEmpty;
    return payload_ != nullptr ? *payload_ : kEmpty;
  }

  std::shared_ptr<const Payload> payload_;
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_TUPLE_H_
