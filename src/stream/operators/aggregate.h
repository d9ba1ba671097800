// Copyright 2026 The streambid Authors
// Windowed aggregation: tumbling or sliding time windows, optional
// group-by, with count/sum/avg/min/max. Emission is driven by
// AdvanceTime: a window [start, start+size) closes once virtual time
// passes its end, emitting one tuple per (window, group).
//
// The operator is a one-member AggregateFamily (stream/aggregate_family.h)
// that reads every tuple of its input; the engine runs it for an
// aggregate whose input is not an indexed select.

#ifndef STREAMBID_STREAM_OPERATORS_AGGREGATE_H_
#define STREAMBID_STREAM_OPERATORS_AGGREGATE_H_

#include <span>
#include <string>
#include <vector>

#include "stream/aggregate_family.h"
#include "stream/operator.h"

namespace streambid::stream {

/// aggregate(FN(field) group-by g over window). Emits tuples of
/// `schema` (OpSpec::OutputSchema): [group (if grouped),
/// window_end:double, value:double].
class AggregateOperator : public OperatorBase {
 public:
  AggregateOperator(const SchemaPtr& input_schema, AggFn fn,
                    const std::string& agg_field,
                    const std::string& group_field, WindowSpec window,
                    SchemaPtr schema);

  using OperatorBase::Process;
  void Process(int port, std::span<const Tuple> batch,
               std::vector<Tuple>* out) override;

  void AdvanceTime(VirtualTime now, std::vector<Tuple>* out) override;

 private:
  AggregateFamily family_;
  AggregateFamily::Member* member_;
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_OPERATORS_AGGREGATE_H_
