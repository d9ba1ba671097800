// Copyright 2026 The streambid Authors
// Synthetic sources: string fields copy the Values a source interned when
// it was constructed.

#include "stream/stream_source.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace streambid::stream {
namespace {

TEST(StreamSourceTest, QuotesOfOneSymbolShareTheSourcesEntry) {
  StreamSourcePtr source =
      MakeStockQuoteSource("quotes", {"IBM"}, /*rate=*/10.0, /*seed=*/7);
  std::vector<Tuple> out;
  source->EmitUntil(1.0, &out);
  ASSERT_GE(out.size(), 2u);
  const std::string* ibm = &Value("IBM").AsString();
  for (const Tuple& t : out) {
    EXPECT_EQ(&t.field("symbol").AsString(), ibm);
  }
  EXPECT_EQ(&out[0].field("symbol").AsString(),
            &out[1].field("symbol").AsString());
}

TEST(StreamSourceTest, NewsOfOneCategoryShareTheSourcesEntry) {
  StreamSourcePtr source = MakeNewsSource("news", {"IBM", "AAPL"},
                                          /*listed_fraction=*/0.5,
                                          /*rate=*/50.0, /*seed=*/7);
  std::vector<Tuple> out;
  source->EmitUntil(2.0, &out);
  // Two stories of one category, and of one company, hold one entry.
  int pairs = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    for (size_t j = i + 1; j < out.size(); ++j) {
      for (const char* field : {"category", "company"}) {
        const Value& a = out[i].field(field);
        const Value& b = out[j].field(field);
        if (a.AsString() != b.AsString()) continue;
        EXPECT_EQ(&a.AsString(), &b.AsString()) << field;
        EXPECT_EQ(&a.AsString(), &Value(a.AsString()).AsString()) << field;
        ++pairs;
      }
    }
  }
  EXPECT_GT(pairs, 0);
}

}  // namespace
}  // namespace streambid::stream
