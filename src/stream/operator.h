// Copyright 2026 The streambid Authors
// Base class for stream operators ("boxes" in the Aurora model the paper
// assumes, §II). Operators are push-based and train-at-a-time: the engine
// hands an operator each input's whole batch for the pass in one call,
// and the operator loops over it, appending outputs. (An input that
// drives two ports, a self-join, is the exception: the engine feeds it
// one tuple at a time, port 0, then port 1.) Window operators
// additionally emit on time advancement. An operator only processes
// tuples: its identity (the plan node's subtree signature), its per-tuple
// cost (OpSpec::cost_per_tuple, whose cost x rate is the operator load
// c_j the admission auction prices) and the schema of what it emits
// (OpSpec::OutputSchema, which also checks the fields it reads) belong
// to the plan spec. The engine keeps the first two beside the operator
// and hands the operator the schema to build its tuples with.

#ifndef STREAMBID_STREAM_OPERATOR_H_
#define STREAMBID_STREAM_OPERATOR_H_

#include <memory>
#include <span>
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

  /// Processes `batch`, the tuples arriving on `port`, oldest first,
  /// appending outputs. A derived class's override hides the one-tuple
  /// form below; it brings it back with `using OperatorBase::Process`.
  virtual void Process(int port, std::span<const Tuple> batch,
                       std::vector<Tuple>* out) = 0;

  /// One-tuple convenience: a batch of `tuple` alone.
  void Process(int port, const Tuple& tuple, std::vector<Tuple>* out) {
    Process(port, std::span<const Tuple>(&tuple, 1), out);
  }

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
