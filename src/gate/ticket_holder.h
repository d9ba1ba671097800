// Copyright 2026 The streambid Authors
// Bounded ticket pools, the concurrency primitive of the streaming
// admission gate (MongoDB-execution-control style): a request must hold
// a ticket before it may cost the system anything downstream, and the
// pool size — not the arrival rate — bounds how much work can be in
// flight. One pool per (mechanism, tenant class), so a hot tenant class
// exhausts its own pool and sheds while the other classes keep flowing.
//
// Semantics:
//  - TryAcquire: the immediate-grant fast path. Succeeds only when a
//    ticket is free AND no waiter is queued — an opportunistic caller
//    can never steal a release out from under the FIFO queue, which is
//    what makes the no-starvation property below hold.
//  - Acquire(timeout_ms): joins a FIFO waiter queue. Waiters are
//    granted strictly in arrival order; a timeout leaves the queue and
//    returns typed kResourceExhausted (the caller sheds). timeout 0
//    degenerates to TryAcquire-with-a-Status.
//  - Release: returns the ticket and hands the next FIFO waiter its
//    turn. Tickets are not identity-tracked: the holder counts.
//  - Resize: the throughput probe's hook. Growing wakes waiters;
//    shrinking below the outstanding count never invalidates held
//    tickets — the pool just refuses new grants until releases bring
//    the count back under the new capacity.
//
// No-starvation: a queued waiter is granted after at most (position in
// queue) releases, because grants are FIFO and TryAcquire cannot jump
// the queue. tests/gate/gate_replay_test.cc asserts this under
// concurrency.

#ifndef STREAMBID_GATE_TICKET_HOLDER_H_
#define STREAMBID_GATE_TICKET_HOLDER_H_

#include <cstdint>
#include <deque>
#include <string>

#include "common/histogram.h"
#include "common/lock_order.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace streambid::gate {

/// Gate wait times are recorded into the common log2-bucketed latency
/// histogram (lifted to common/histogram.h so the telemetry registry
/// and the ticket pools share one type); the alias keeps the gate's
/// historical name for its wait-tracking role.
using WaitHistogram = LatencyHistogram;

/// Snapshot of one pool's counters (see TicketHolder::Stats).
struct TicketHolderStats {
  std::string name;
  int capacity = 0;
  int used = 0;                  ///< Tickets outstanding right now.
  int waiting = 0;               ///< Queued Acquire calls right now.
  int64_t granted_immediate = 0; ///< Fast-path grants (no queueing).
  int64_t granted_queued = 0;    ///< Grants after a FIFO wait.
  int64_t timed_out = 0;         ///< Acquires that left the queue.
  int64_t rejected = 0;          ///< TryAcquire / zero-timeout failures.
  int used_high_water = 0;       ///< Max concurrent outstanding tickets.
  int queue_high_water = 0;      ///< Max concurrent waiters.
  WaitHistogram wait;            ///< Grant latency (immediate = 0).
};

/// One bounded ticket pool. Thread-safe: any thread may acquire,
/// release, resize, and read stats concurrently.
class TicketHolder {
 public:
  /// Precondition (checked): capacity >= 1.
  TicketHolder(std::string name, int capacity);

  TicketHolder(const TicketHolder&) = delete;
  TicketHolder& operator=(const TicketHolder&) = delete;

  /// Immediate-grant fast path: true iff a ticket was free and no
  /// waiter was queued ahead. Never blocks, never queues.
  bool TryAcquire();

  /// Blocking acquire with a FIFO queue position. timeout_ms == 0 is
  /// the non-queueing fast path with a typed error; timeout_ms > 0
  /// waits at most that long, then returns kResourceExhausted and
  /// counts into stats().timed_out. Negative/non-finite timeouts are
  /// kInvalidArgument.
  Status Acquire(double timeout_ms);

  /// Returns one ticket. Precondition (checked): a ticket is
  /// outstanding.
  void Release();

  /// Re-bounds the pool (>= 1, else kInvalidArgument); the throughput
  /// probe's resize hook. Held tickets survive a shrink.
  Status Resize(int capacity);

  int capacity() const;
  int used() const;
  /// Free tickets (0 when shrunk below the outstanding count).
  int available() const;
  int waiting() const;
  const std::string& name() const { return name_; }

  TicketHolderStats Stats() const;

 private:
  /// Precondition (compiler-checked): mutex_ held, used_ < capacity_.
  /// Takes one ticket and maintains the grant counters.
  void GrantLocked(double wait_micros, bool queued) REQUIRES(mutex_);

  /// True when waiter `id` holds the front of the FIFO queue and a
  /// ticket is free — the grant condition of the Acquire wait loop.
  bool GrantReadyLocked(uint64_t id) const REQUIRES(mutex_) {
    return !waiters_.empty() && waiters_.front() == id && used_ < capacity_;
  }

  const std::string name_;
  mutable Mutex mutex_ =
      Mutex{LockRank::kGateTicketPool, "gate/ticket_pool"};
  CondVar cv_;
  int capacity_ GUARDED_BY(mutex_);
  int used_ GUARDED_BY(mutex_) = 0;
  /// FIFO queue of waiter ids; the front waiter owns the next grant.
  std::deque<uint64_t> waiters_ GUARDED_BY(mutex_);
  uint64_t next_waiter_ GUARDED_BY(mutex_) = 1;

  int64_t granted_immediate_ GUARDED_BY(mutex_) = 0;
  int64_t granted_queued_ GUARDED_BY(mutex_) = 0;
  int64_t timed_out_ GUARDED_BY(mutex_) = 0;
  int64_t rejected_ GUARDED_BY(mutex_) = 0;
  int used_high_water_ GUARDED_BY(mutex_) = 0;
  int queue_high_water_ GUARDED_BY(mutex_) = 0;
  WaitHistogram wait_ GUARDED_BY(mutex_);
};

}  // namespace streambid::gate

#endif  // STREAMBID_GATE_TICKET_HOLDER_H_
