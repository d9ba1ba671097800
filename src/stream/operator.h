// Copyright 2026 The streambid Authors
// Base class for stream operators ("boxes" in the Aurora model the paper
// assumes, §II). Operators are push-based: the engine hands them input
// tuples and they append outputs. Window operators additionally emit on
// time advancement. Each operator carries a per-tuple processing cost in
// abstract capacity units; measured cost x rate is the operator load c_j
// the admission auction prices.

#ifndef STREAMBID_STREAM_OPERATOR_H_
#define STREAMBID_STREAM_OPERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stream/tuple.h"

namespace streambid::stream {

/// Abstract stream operator.
class OperatorBase {
 public:
  OperatorBase(std::string name, double cost_per_tuple)
      : name_(std::move(name)), cost_per_tuple_(cost_per_tuple) {}
  virtual ~OperatorBase() = default;

  OperatorBase(const OperatorBase&) = delete;
  OperatorBase& operator=(const OperatorBase&) = delete;

  /// Short human-readable descriptor, e.g. "select(price>100)".
  const std::string& name() const { return name_; }

  /// Schema of emitted tuples.
  virtual SchemaPtr output_schema() const = 0;

  /// Processes one tuple arriving on `port`, appending outputs.
  virtual void Process(int port, const Tuple& tuple,
                       std::vector<Tuple>* out) = 0;

  /// Notifies the operator that virtual time reached `now`; window
  /// operators close and emit expired windows here.
  virtual void AdvanceTime(VirtualTime now, std::vector<Tuple>* out) {
    (void)now;
    (void)out;
  }

  /// Clears operator state (used when draining during a transition
  /// removes a query and its windows should not leak into the next
  /// subscription period).
  virtual void Reset() {}

  /// Abstract processing cost per input tuple, in capacity units x
  /// seconds (i.e., an operator processing r tuples/sec consumes
  /// r * cost capacity units).
  double cost_per_tuple() const { return cost_per_tuple_; }

  // --- Statistics maintained by the engine. ---
  void RecordInput(int64_t n) { tuples_in_ += n; }
  void RecordOutput(int64_t n) { tuples_out_ += n; }
  int64_t tuples_in() const { return tuples_in_; }
  int64_t tuples_out() const { return tuples_out_; }

  /// Observed selectivity (outputs per input; 1.0 until data arrives).
  double MeasuredSelectivity() const {
    return tuples_in_ > 0
               ? static_cast<double>(tuples_out_) /
                     static_cast<double>(tuples_in_)
               : 1.0;
  }

 private:
  std::string name_;
  double cost_per_tuple_;
  int64_t tuples_in_ = 0;
  int64_t tuples_out_ = 0;
};

using OperatorPtr = std::unique_ptr<OperatorBase>;

/// Default per-tuple costs by operator kind, in capacity units. Chosen so
/// that realistic source rates produce loads in the 1..10 range of the
/// paper's workload (Table III: operator loads Zipf max 10).
struct DefaultCosts {
  static constexpr double kSelect = 0.01;
  static constexpr double kProject = 0.008;
  static constexpr double kMap = 0.012;
  static constexpr double kAggregate = 0.02;
  static constexpr double kJoin = 0.05;
  static constexpr double kUnion = 0.005;
  static constexpr double kTopK = 0.03;
  static constexpr double kDistinct = 0.015;
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_OPERATOR_H_
