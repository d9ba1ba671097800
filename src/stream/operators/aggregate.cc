// Copyright 2026 The streambid Authors

#include "stream/operators/aggregate.h"

#include "common/check.h"

namespace streambid::stream {

AggregateOperator::AggregateOperator(const SchemaPtr& input_schema,
                                     AggFn fn, const std::string& agg_field,
                                     const std::string& group_field,
                                     WindowSpec window, SchemaPtr schema)
    : family_(AggregateFamily::Key::Of(*input_schema, fn, agg_field,
                                       group_field, window)),
      member_(family_.Add(fn, std::move(schema), /*in=*/nullptr)) {}

void AggregateOperator::Process(int port, std::span<const Tuple> batch,
                                std::vector<Tuple>* out) {
  STREAMBID_DCHECK(port == 0);
  (void)port;
  (void)out;  // Emission happens on AdvanceTime.
  family_.Accumulate(batch);
}

void AggregateOperator::AdvanceTime(VirtualTime now,
                                    std::vector<Tuple>* out) {
  family_.Emit(member_, now, out);
}

}  // namespace streambid::stream
