// Copyright 2026 The streambid Authors
// Input stream sources. The paper's motivating applications monitor hot
// shared streams (stock quotes, news stories, sensor feeds, §II); since
// those feeds are proprietary, we generate seeded synthetic equivalents
// with configurable rates — the substitution DESIGN.md documents.

#ifndef STREAMBID_STREAM_STREAM_SOURCE_H_
#define STREAMBID_STREAM_STREAM_SOURCE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "stream/tuple.h"

namespace streambid::stream {

/// Abstract timed tuple generator. Tuples are produced at a fixed mean
/// rate with deterministic inter-arrival times (rate tuples/second in
/// virtual time); subclasses generate each tuple's field values.
class StreamSource {
 public:
  StreamSource(std::string name, SchemaPtr schema, double rate,
               uint64_t seed)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        rate_(rate),
        rng_(seed) {}
  virtual ~StreamSource() = default;

  const std::string& name() const { return name_; }
  const SchemaPtr& schema() const { return schema_; }
  double rate() const { return rate_; }

  /// Appends every tuple stamped in (last emission, until] to `out`,
  /// oldest first. The caller owns `out` and may reuse it across calls;
  /// existing contents are kept.
  void EmitUntil(VirtualTime until, std::vector<Tuple>* out);

  int64_t tuples_emitted() const { return emitted_; }

 protected:
  /// Appends the schema's field values of the tuple stamped `ts` to
  /// `values`, in field order. `values` is a buffer the source keeps and
  /// reuses: it is empty on every call, and EmitUntil copies what
  /// Generate appended into the tuple's block. A string field copies a
  /// Value the source interned when it was constructed.
  virtual void Generate(VirtualTime ts, Rng& rng,
                        std::vector<Value>* values) = 0;

 private:
  std::string name_;
  SchemaPtr schema_;
  double rate_;
  Rng rng_;
  VirtualTime next_ts_ = 0.0;
  int64_t emitted_ = 0;
  std::vector<Value> values_;  // Generate's buffer.
};

using StreamSourcePtr = std::unique_ptr<StreamSource>;

/// Synthetic stock-quote feed: per-symbol geometric random walk.
/// Schema: symbol:string, price:double, volume:int64.
StreamSourcePtr MakeStockQuoteSource(std::string name,
                                     std::vector<std::string> symbols,
                                     double rate, uint64_t seed);

/// Synthetic news feed. Schema: company:string, category:string,
/// listed:int64 (1 if the company is publicly traded), sentiment:double.
StreamSourcePtr MakeNewsSource(std::string name,
                               std::vector<std::string> companies,
                               double listed_fraction, double rate,
                               uint64_t seed);

/// Synthetic environmental sensor feed. Schema: sensor:int64,
/// reading:double (mean-reverting walk per sensor).
StreamSourcePtr MakeSensorSource(std::string name, int num_sensors,
                                 double rate, uint64_t seed);

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_STREAM_SOURCE_H_
