// Copyright 2026 The streambid Authors

#include "stream/stream_source.h"

#include <cmath>
#include <utility>

#include "common/check.h"

namespace streambid::stream {

void StreamSource::EmitUntil(VirtualTime until, std::vector<Tuple>* out) {
  STREAMBID_DCHECK(out != nullptr);
  if (rate_ <= 0.0) return;
  const VirtualTime step = 1.0 / rate_;
  while (next_ts_ <= until) {
    Generate(next_ts_, rng_, &values_);
    out->emplace_back(schema_, values_, next_ts_);
    values_.clear();
    next_ts_ += step;
    ++emitted_;
  }
}

namespace {

// The stream sources intern their strings once, here, and Generate
// copies the Values, so no tuple touches the string pool.
class StockQuoteSource final : public StreamSource {
 public:
  StockQuoteSource(std::string name, const std::vector<std::string>& symbols,
                   double rate, uint64_t seed)
      : StreamSource(std::move(name),
                     MakeSchema({{"symbol", ValueType::kString},
                                 {"price", ValueType::kDouble},
                                 {"volume", ValueType::kInt64}}),
                     rate, seed),
        symbols_(symbols.begin(), symbols.end()),
        prices_(symbols_.size(), 100.0) {
    STREAMBID_CHECK(!symbols_.empty());
  }

 protected:
  void Generate(VirtualTime ts, Rng& rng,
                std::vector<Value>* values) override {
    (void)ts;
    const size_t k = rng.NextBounded(symbols_.size());
    // Geometric random walk with ~1% step volatility.
    prices_[k] *= std::exp((rng.NextDouble() - 0.5) * 0.02);
    const int64_t volume = 100 + static_cast<int64_t>(rng.NextBounded(10000));
    values->push_back(symbols_[k]);
    values->emplace_back(prices_[k]);
    values->emplace_back(volume);
  }

 private:
  std::vector<Value> symbols_;
  std::vector<double> prices_;
};

class NewsSource final : public StreamSource {
 public:
  NewsSource(std::string name, const std::vector<std::string>& companies,
             double listed_fraction, double rate, uint64_t seed)
      : StreamSource(std::move(name),
                     MakeSchema({{"company", ValueType::kString},
                                 {"category", ValueType::kString},
                                 {"listed", ValueType::kInt64},
                                 {"sentiment", ValueType::kDouble}}),
                     rate, seed),
        companies_(companies.begin(), companies.end()),
        categories_{"earnings", "merger", "product", "regulation",
                    "markets"},
        listed_fraction_(listed_fraction) {
    STREAMBID_CHECK(!companies_.empty());
  }

 protected:
  void Generate(VirtualTime ts, Rng& rng,
                std::vector<Value>* values) override {
    (void)ts;
    const size_t k = rng.NextBounded(companies_.size());
    const int64_t listed = rng.NextBool(listed_fraction_) ? 1 : 0;
    const double sentiment = rng.NextRange(-1.0, 1.0);
    values->push_back(companies_[k]);
    values->push_back(categories_[rng.NextBounded(categories_.size())]);
    values->emplace_back(listed);
    values->emplace_back(sentiment);
  }

 private:
  std::vector<Value> companies_;
  std::vector<Value> categories_;
  double listed_fraction_;
};

class SensorSource final : public StreamSource {
 public:
  SensorSource(std::string name, int num_sensors, double rate,
               uint64_t seed)
      : StreamSource(std::move(name),
                     MakeSchema({{"sensor", ValueType::kInt64},
                                 {"reading", ValueType::kDouble}}),
                     rate, seed),
        readings_(static_cast<size_t>(num_sensors), 20.0) {
    STREAMBID_CHECK_GT(num_sensors, 0);
  }

 protected:
  void Generate(VirtualTime ts, Rng& rng,
                std::vector<Value>* values) override {
    (void)ts;
    const size_t k = rng.NextBounded(readings_.size());
    // Mean-reverting walk around 20.0.
    readings_[k] += 0.1 * (20.0 - readings_[k]) + rng.NextRange(-0.5, 0.5);
    values->emplace_back(static_cast<int64_t>(k));
    values->emplace_back(readings_[k]);
  }

 private:
  std::vector<double> readings_;
};

}  // namespace

StreamSourcePtr MakeStockQuoteSource(std::string name,
                                     std::vector<std::string> symbols,
                                     double rate, uint64_t seed) {
  return std::make_unique<StockQuoteSource>(std::move(name), symbols, rate,
                                            seed);
}

StreamSourcePtr MakeNewsSource(std::string name,
                               std::vector<std::string> companies,
                               double listed_fraction, double rate,
                               uint64_t seed) {
  return std::make_unique<NewsSource>(std::move(name), companies,
                                      listed_fraction, rate, seed);
}

StreamSourcePtr MakeSensorSource(std::string name, int num_sensors,
                                 double rate, uint64_t seed) {
  return std::make_unique<SensorSource>(std::move(name), num_sensors, rate,
                                        seed);
}

}  // namespace streambid::stream
