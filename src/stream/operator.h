// Copyright 2026 The streambid Authors
// Base class for stream operators ("boxes" in the Aurora model the paper
// assumes, §II). Operators are push-based: the engine hands them input
// tuples and they append outputs. Window operators additionally emit on
// time advancement. An operator only processes tuples: its identity
// (the plan node's subtree signature), its per-tuple cost
// (OpSpec::cost_per_tuple, whose cost x rate is the operator load c_j
// the admission auction prices) and the schema of what it emits
// (OpSpec::OutputSchema, which also checks the fields it reads) belong
// to the plan spec. The engine keeps the first two beside the operator
// and hands the operator the schema to build its tuples with.

#ifndef STREAMBID_STREAM_OPERATOR_H_
#define STREAMBID_STREAM_OPERATOR_H_

#include <memory>
#include <vector>

#include "stream/tuple.h"

namespace streambid::stream {

/// Abstract stream operator.
class OperatorBase {
 public:
  OperatorBase() = default;
  virtual ~OperatorBase() = default;

  OperatorBase(const OperatorBase&) = delete;
  OperatorBase& operator=(const OperatorBase&) = delete;

  /// Processes one tuple arriving on `port`, appending outputs.
  virtual void Process(int port, const Tuple& tuple,
                       std::vector<Tuple>* out) = 0;

  /// Notifies the operator that virtual time reached `now`; window
  /// operators close and emit expired windows here.
  virtual void AdvanceTime(VirtualTime now, std::vector<Tuple>* out) {
    (void)now;
    (void)out;
  }
};

using OperatorPtr = std::unique_ptr<OperatorBase>;

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_OPERATOR_H_
