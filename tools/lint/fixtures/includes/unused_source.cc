// Copyright 2026 The streambid Authors
// Fixture: a .cc file gets the unused-include rule, but not
// missing-include: its std names may arrive through its own header.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>  // WANT(unused-include)

long RoundedSum(const char* text, int* heap, int n) {
  std::make_heap(heap, heap + n);
  const long parsed = std::strtoll(text, nullptr, 10);
  std::vector<long> parts = {parsed, std::lround(0.5)};
  return parts[0] + parts[1];
}
