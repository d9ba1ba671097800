// Copyright 2026 The streambid Authors
// Timestamped data tuples.
//
// A Tuple is a handle to one heap block: a small header (a plain
// reference count, the field count, the timestamp and the schema), then
// the field values, copied in. Values are trivially copyable (a string
// value points into the interned pool of stream/value.h), so filling a
// block is a memcpy and releasing one destroys no value. Copying a handle
// (a select or union passing a tuple through, a window or sink keeping
// it) bumps the count; the values themselves are never copied. Fan-out
// copies no handle at all: every consumer reads its producer's batch in
// place.
//
// The block is recycled. When the last handle goes, the schema pointer
// is destroyed and the block goes onto the releasing thread's free list
// for its width (1 to 8 fields; a wider block goes to operator delete),
// from which the next tuple of that width on that thread takes it. So a
// steady-state engine tick allocates no block. Each list is bounded, and
// it frees its blocks when its thread exits; a handle released after that
// (from another thread_local's destructor or from static destruction)
// frees its block directly. Under AddressSanitizer a block is poisoned
// while it sits on a list, so a value read through a reference that
// outlived its tuple's last handle still reports.
//
// The refcount contract: the handles of one payload are copied and
// released by one thread at a time, so the count is a plain int. An
// Engine is not thread-safe and no tuple crosses engines (each engine
// registers its own sources). Between periods, the executor's RunAll join
// orders a shard engine's accesses on whichever worker runs it next, and
// sink histories are read only after that join. A block may be freed on
// another thread than the one that made it; that thread's list takes it.
// A tuple taken out of a sink owns its schema pointer, and its string
// values point into the pool, which is never freed, so it stays valid
// after its query is uninstalled or its engine is destroyed.

#ifndef STREAMBID_STREAM_TUPLE_H_
#define STREAMBID_STREAM_TUPLE_H_

#include <cstdint>
#include <initializer_list>
#include <new>
#include <span>
#include <string>
#include <utility>

#include "common/check.h"
#include "stream/schema.h"

namespace streambid::stream {

/// Virtual time in seconds since the start of the simulation.
using VirtualTime = double;

/// One stream element: a schema, field values, and an event timestamp in
/// virtual time (see the file comment for the block and its lifetime). A
/// default Tuple is a null handle and reads as empty: null schema, no
/// values, timestamp 0.
class Tuple {
 public:
  Tuple() = default;

  /// Copies `values` (schema->num_fields() of them) into a new block.
  Tuple(SchemaPtr schema, std::span<const Value> values,
        VirtualTime timestamp);

  /// Brace-list convenience (tests); copies the list's values.
  Tuple(SchemaPtr schema, std::initializer_list<Value> values,
        VirtualTime timestamp)
      : Tuple(std::move(schema),
              std::span<const Value>(values.begin(), values.size()),
              timestamp) {}

  Tuple(const Tuple& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) ++block_->refs;
  }
  Tuple(Tuple&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  Tuple& operator=(const Tuple& other) noexcept {
    if (this != &other) {
      if (other.block_ != nullptr) ++other.block_->refs;
      Release();
      block_ = other.block_;
    }
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    if (this != &other) {
      Release();
      block_ = std::exchange(other.block_, nullptr);
    }
    return *this;
  }
  ~Tuple() { Release(); }

  const SchemaPtr& schema() const {
    static const SchemaPtr kNone;
    return block_ != nullptr ? block_->schema : kNone;
  }
  VirtualTime timestamp() const {
    return block_ != nullptr ? block_->timestamp : 0.0;
  }

  const Value& value(int i) const {
    STREAMBID_DCHECK(block_ != nullptr && i >= 0 && i < block_->n);
    return ValuesOf(block_)[i];
  }

  /// Value of the field named `name` (CHECK-fails when absent).
  const Value& field(const std::string& name) const {
    const int idx = schema()->FieldIndex(name);
    STREAMBID_CHECK_GE(idx, 0);
    return value(idx);
  }

  std::span<const Value> values() const {
    if (block_ == nullptr) return {};
    return {ValuesOf(block_), static_cast<size_t>(block_->n)};
  }

  /// "(ts=1.5 sym=IBM price=42)" — debugging and sinks.
  std::string ToString() const;

 private:
  // The block's header; its n values follow it.
  struct Block {
    int32_t refs;
    int32_t n;
    VirtualTime timestamp;
    SchemaPtr schema;
  };
  static_assert(alignof(Block) >= alignof(Value) &&
                    sizeof(Block) % alignof(Value) == 0,
                "the values after the header must stay aligned");

  static Value* ValuesOf(Block* block) {
    return std::launder(reinterpret_cast<Value*>(block + 1));
  }

  // A block with a header for `schema` and `timestamp`, one reference and
  // room for schema->num_fields() values, not yet filled.
  static Block* Allocate(SchemaPtr schema, VirtualTime timestamp);
  // Destroys the header, then recycles the block.
  static void Free(Block* block);

  void Release() {
    if (block_ != nullptr && --block_->refs == 0) Free(block_);
  }

  Block* block_ = nullptr;
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_TUPLE_H_
