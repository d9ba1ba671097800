// Copyright 2026 The streambid Authors

#include "workload/io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "workload/generator.h"

namespace streambid::workload {
namespace {

RawWorkload SampleWorkload() {
  WorkloadParams p;
  p.num_queries = 25;
  p.base_num_operators = 10;
  p.base_max_sharing = 5;
  Rng rng(77);
  return GenerateBaseWorkload(p, rng);
}

TEST(WorkloadIoTest, RoundTripPreservesEverything) {
  const RawWorkload original = SampleWorkload();
  const std::string text = SerializeWorkload(original);
  auto parsed = ParseWorkload(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->valuations, original.valuations);
  EXPECT_EQ(parsed->users, original.users);
  ASSERT_EQ(parsed->operators.size(), original.operators.size());
  for (size_t j = 0; j < original.operators.size(); ++j) {
    EXPECT_EQ(parsed->operators[j].load, original.operators[j].load);
    EXPECT_EQ(parsed->operators[j].subscribers,
              original.operators[j].subscribers);
  }
  // Derived instances agree.
  EXPECT_EQ(parsed->ToInstance()->Summary(),
            original.ToInstance()->Summary());
}

TEST(WorkloadIoTest, CommentsAndBlankLinesIgnored) {
  auto parsed = ParseWorkload(
      "streambid-workload v1\n"
      "# a comment\n"
      "\n"
      "queries 2\n"
      "v 0 5.5 10\n"
      "v 1 7.0 11\n"
      "o 3.5 0 1\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_queries(), 2);
  EXPECT_DOUBLE_EQ(parsed->valuations[0], 5.5);
  EXPECT_EQ(parsed->users[1], 11);
  ASSERT_EQ(parsed->operators.size(), 1u);
  EXPECT_EQ(parsed->operators[0].subscribers.size(), 2u);
}

TEST(WorkloadIoTest, RejectsMissingHeader) {
  EXPECT_FALSE(ParseWorkload("queries 1\n").ok());
  EXPECT_FALSE(ParseWorkload("").ok());
}

TEST(WorkloadIoTest, RejectsBadRecords) {
  const std::string header = "streambid-workload v1\nqueries 2\n";
  EXPECT_FALSE(ParseWorkload(header + "v 9 1.0 1\n").ok());  // Range.
  EXPECT_FALSE(ParseWorkload(header + "o -1 0\n").ok());     // Load.
  EXPECT_FALSE(ParseWorkload(header + "o 1.0 5\n").ok());    // Sub range.
  EXPECT_FALSE(ParseWorkload(header + "z 1\n").ok());        // Tag.
  // A second count would strand the first one's subscribers.
  EXPECT_FALSE(ParseWorkload(header + "o 1.0 1\nqueries 1\n").ok());
}

TEST(WorkloadIoTest, SaveAndLoadFile) {
  const RawWorkload original = SampleWorkload();
  const std::string path = ::testing::TempDir() + "/workload_io_test.txt";
  ASSERT_TRUE(SaveWorkload(original, path).ok());
  auto loaded = LoadWorkload(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->valuations, original.valuations);
  std::remove(path.c_str());
}

TEST(WorkloadIoTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadWorkload("/nonexistent/nope.txt").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace streambid::workload
