// Copyright 2026 The streambid Authors

#include "stream/tuple.h"

#include <sanitizer/asan_interface.h>

#include <cstddef>
#include <memory>

namespace streambid::stream {

namespace {

// Widths (field counts) with a free list; a wider block uses plain
// operator new and delete.
constexpr int kMaxCachedWidth = 8;

// Blocks one list keeps; beyond it a released block goes to operator
// delete. It must hold about one tick of a shard's arrivals per source
// width (100 quotes and 100 sensor readings per tick on the e2e daily_mix
// workload). Measured with 16-byte values (seed 1, 30-s windows): on
// daily_mix a bound of 64 leaves allocs_per_query at 121, 256 brings it
// to 64 and 4096 to 63; on hot_tenants 4096 cuts it from 52.9 to 50.0
// but raises peak RSS by 1.2% over 256.
constexpr int kMaxCachedBlocks = 256;

// One thread's free lists: per width, a LIFO stack of released blocks
// linked through each block's first word. The lists own their blocks and
// free them at thread exit.
class BlockCache {
 public:
  BlockCache() = default;
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  void* Take(int width, size_t bytes);
  void Give(void* block, int width, size_t bytes);

 private:
  struct FreeBlock {
    FreeBlock* next;
  };

  FreeBlock* head_[kMaxCachedWidth + 1] = {};
  int size_[kMaxCachedWidth + 1] = {};
};

// Set when this thread's cache is destroyed. Trivially destructible, so
// it stays readable in later thread_local destructors and in static
// destruction, where a release must bypass the destroyed cache.
thread_local bool t_cache_gone = false;

// Its destructor is registered when the thread first uses it (for its
// first tuple block), so a thread_local the thread constructed earlier
// is destroyed after it.
thread_local BlockCache t_cache;

BlockCache::~BlockCache() {
  t_cache_gone = true;
  for (FreeBlock* head : head_) {
    while (head != nullptr) {
      ASAN_UNPOISON_MEMORY_REGION(head, sizeof(FreeBlock));
      FreeBlock* next = head->next;
      ::operator delete(head);
      head = next;
    }
  }
}

void* BlockCache::Take(int width, size_t bytes) {
  FreeBlock* block = head_[width];
  if (block == nullptr) return ::operator new(bytes);
  ASAN_UNPOISON_MEMORY_REGION(block, bytes);
  head_[width] = block->next;
  --size_[width];
  return block;
}

void BlockCache::Give(void* block, int width, size_t bytes) {
  if (size_[width] >= kMaxCachedBlocks) {
    ::operator delete(block);
    return;
  }
  head_[width] = new (block) FreeBlock{head_[width]};
  ++size_[width];
  ASAN_POISON_MEMORY_REGION(block, bytes);
}

bool Cached(int width) {
  return width >= 1 && width <= kMaxCachedWidth && !t_cache_gone;
}

}  // namespace

Tuple::Tuple(SchemaPtr schema, std::span<const Value> values,
             VirtualTime timestamp)
    : block_(Allocate(std::move(schema), timestamp)) {
  STREAMBID_CHECK_EQ(values.size(), static_cast<size_t>(block_->n));
  std::uninitialized_copy(values.begin(), values.end(), ValuesOf(block_));
}

Tuple::Block* Tuple::Allocate(SchemaPtr schema, VirtualTime timestamp) {
  STREAMBID_CHECK(schema != nullptr);
  const int n = schema->num_fields();
  const size_t bytes = sizeof(Block) + static_cast<size_t>(n) * sizeof(Value);
  void* memory = Cached(n) ? t_cache.Take(n, bytes) : ::operator new(bytes);
  return new (memory) Block{1, n, timestamp, std::move(schema)};
}

void Tuple::Free(Block* block) {
  const int n = block->n;
  block->~Block();
  if (Cached(n)) {
    t_cache.Give(block, n,
                 sizeof(Block) + static_cast<size_t>(n) * sizeof(Value));
  } else {
    ::operator delete(block);
  }
}

std::string Tuple::ToString() const {
  std::string out = "(ts=" + std::to_string(timestamp());
  const SchemaPtr& s = schema();
  for (int i = 0; i < s->num_fields(); ++i) {
    out += " " + s->field(i).name + "=" + value(i).ToString();
  }
  out += ")";
  return out;
}

}  // namespace streambid::stream
