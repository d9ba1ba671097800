// Copyright 2026 The streambid Authors
// Clang thread-safety (capability) annotations plus the annotated
// synchronization primitives the whole tree locks with. The repo's
// concurrency invariants — which mutex guards which member, which
// private helpers require which lock — used to live in comments
// ("Guarded by mutex_"); with these macros they are attributes
// the compiler checks: build with
//
//   cmake -B build-ts -S . -DSTREAMBID_THREAD_SAFETY=ON
//         -DCMAKE_CXX_COMPILER=clang++
//
// and every unguarded access to a GUARDED_BY member, every *Locked
// helper called without its REQUIRES lock, and every lock-scope
// mismatch is a hard error (-Werror=thread-safety). Under GCC (which
// has no capability analysis) every macro expands to nothing and the
// wrappers below are zero-overhead forwarding shims over std::mutex /
// std::condition_variable, so sanitizer and release builds are
// unchanged.
//
// The macro set mirrors the documented Clang capability attributes
// (the Abseil/MongoDB discipline: locks as capabilities, guarded
// members as attributes, violations as build errors):
//   CAPABILITY(name)        a class is a lockable capability
//   SCOPED_CAPABILITY       RAII type that acquires at construction
//   GUARDED_BY(mu)          member access requires holding mu
//   PT_GUARDED_BY(mu)       pointee access requires holding mu
//   REQUIRES(mu...)         caller must hold mu (the *Locked contract)
//   ACQUIRE / RELEASE       function acquires / releases mu
//   TRY_ACQUIRE(ok, mu)     conditional acquire (returns `ok` on success)
//   EXCLUDES(mu...)         caller must NOT hold mu (deadlock guard)
//   ASSERT_CAPABILITY(mu)   runtime assertion that mu is held
//   NO_THREAD_SAFETY_ANALYSIS  opt a function out (needs a reason)

#ifndef STREAMBID_COMMON_THREAD_ANNOTATIONS_H_
#define STREAMBID_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/lock_order.h"

#if defined(__clang__) && defined(__has_attribute)
#define STREAMBID_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define STREAMBID_THREAD_ANNOTATION_(x)  // No-op outside clang.
#endif

#define CAPABILITY(x) STREAMBID_THREAD_ANNOTATION_(capability(x))
#define SCOPED_CAPABILITY STREAMBID_THREAD_ANNOTATION_(scoped_lockable)
#define GUARDED_BY(x) STREAMBID_THREAD_ANNOTATION_(guarded_by(x))
#define PT_GUARDED_BY(x) STREAMBID_THREAD_ANNOTATION_(pt_guarded_by(x))
#define REQUIRES(...) \
  STREAMBID_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  STREAMBID_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) \
  STREAMBID_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  STREAMBID_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  STREAMBID_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  STREAMBID_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  STREAMBID_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) STREAMBID_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) \
  STREAMBID_THREAD_ANNOTATION_(assert_capability(x))
#define RETURN_CAPABILITY(x) STREAMBID_THREAD_ANNOTATION_(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  STREAMBID_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace streambid {

/// The repo's mutex: std::mutex carrying the capability attribute so
/// the analysis can name it in GUARDED_BY/REQUIRES expressions, plus a
/// compile-time rank and name binding it into the declared lock
/// hierarchy (common/lock_order.h). It satisfies the standard Lockable
/// concept (lock/unlock/try_lock), so std::unique_lock<Mutex> and
/// std::lock_guard<Mutex> call sites keep compiling — but prefer
/// MutexLock, which the analysis understands as a scoped acquire
/// (std::unique_lock is opaque to it on libstdc++).
///
/// Under -DSTREAMBID_LOCK_ORDER=ON, lock/try_lock/unlock feed the
/// thread-local held-lock sentinel, which CHECK-fails on any
/// acquisition that does not strictly ascend the rank order. When the
/// option is off the hooks are empty inline bodies and the rank/name
/// are not even stored — the wrapper is the same zero-overhead
/// forwarding shim it was before the hierarchy existed.
class CAPABILITY("mutex") Mutex {
 public:
  /// Unranked construction defaults to LockRank::kLeaf (innermost:
  /// nothing may be acquired while holding it) — the safe default for
  /// tests and scratch code. Every Mutex under src/ must name its rank
  /// explicitly; the lock-order lint fails on one that does not.
  constexpr Mutex() : Mutex(LockRank::kLeaf, "unranked") {}
  constexpr Mutex(LockRank rank, const char* name)
#if STREAMBID_LOCK_ORDER
      : rank_(rank), name_(name)
#endif
  {
    (void)rank;
    (void)name;
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    // The sentinel checks BEFORE blocking: a real inversion may
    // deadlock inside mu_.lock() and never return to report itself.
    lock_order::OnAcquire(rank(), name());
    mu_.lock();
  }
  void unlock() RELEASE() {
    lock_order::OnRelease(rank(), name());
    mu_.unlock();
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    // A try-lock cannot deadlock, but a descending one still violates
    // the declared order — flagged after the fact.
    lock_order::OnTryAcquire(rank(), name());
    return true;
  }

  /// The wrapped std::mutex, for CondVar's adopt-lock wait bridge.
  /// Callers must not lock it directly — that would bypass the
  /// capability tracking this wrapper exists for.
  std::mutex& native_handle() { return mu_; }

#if STREAMBID_LOCK_ORDER
  constexpr LockRank rank() const { return rank_; }
  constexpr const char* name() const { return name_; }
#else
  constexpr LockRank rank() const { return LockRank::kLeaf; }
  constexpr const char* name() const { return "unranked"; }
#endif

 private:
  std::mutex mu_;
#if STREAMBID_LOCK_ORDER
  const LockRank rank_;
  const char* const name_;
#endif
};

/// RAII lock the analysis tracks: construction acquires the capability,
/// destruction releases it. The drop-in replacement for
/// std::lock_guard / std::unique_lock over a Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over Mutex. Waits take the Mutex itself (not the
/// MutexLock) so they can carry REQUIRES(mu) — the analysis verifies
/// every wait happens with the lock held, which std::condition_variable
/// cannot express. Internally each wait adopts the already-held
/// std::mutex into a std::unique_lock for the standard wait call and
/// releases the adoption before returning, so ownership never actually
/// changes hands and the caller's MutexLock stays the one true owner.
///
/// A predicate passed to Wait runs with mu held (standard condition
/// semantics), but the analysis treats lambda bodies as separate
/// functions and cannot see that: predicates that read GUARDED_BY
/// members must be replaced by a manual `while (!cond) cv.Wait(mu);`
/// loop in the annotated caller (see TicketHolder::Acquire), or the
/// condition lifted into a REQUIRES helper called from such a loop.
/// Predicates over atomics need no such care.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (or spuriously woken); mu is released while
  /// sleeping and re-held on return, exactly like std::condition_variable.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.native_handle(), std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  /// Standard predicate wait: loops Wait until pred() holds. The
  /// predicate must only read state safe to read under mu from the
  /// analysis's point of view — see the class comment.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  /// Timed wait; returns std::cv_status::timeout when `deadline`
  /// passed without a notification. No predicate variant on purpose:
  /// deadline loops in this codebase re-check guarded state, which
  /// must live in the annotated caller.
  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.native_handle(), std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace streambid

#endif  // STREAMBID_COMMON_THREAD_ANNOTATIONS_H_
