// A bounded multi-producer queue that hands items across threads in
// batches: the one implementation behind the daemon's thread handoffs
// (net::LineQueue, a direction of an in-process connection, and the
// command queue of each daemon::Shard).
//
// Producers block while the queue is full — for the daemon that
// blocking is its backpressure — and items come out in FIFO order.
//
// Wake discipline. A thread handoff (a futex wake and a context
// switch) costs far more than the work one item carries, so the queue
// moves items in batches and wakes a sleeping thread only when that
// thread has something to do:
//   * put appends a range chunk by chunk (as much as fits per lock)
//     and notifies consumers only on the empty -> non-empty
//     transition; pop_all notifies producers only when it found the
//     queue full. Both read the transition flag under the lock, so no
//     wake-up is lost: a thread sleeps only while the queue is empty
//     (consumers) or full (producers), and leaving that state always
//     notifies.
//   * "not empty" and "not full" are separate condition variables, so
//     a put never wakes a producer and a take never wakes a consumer.
//   * The take is a batch: pop_all swaps out the whole backlog under
//     one lock, so a burst of items costs the consumer one lock and at
//     most one wake-up, and producers get a burst of fresh capacity.
//     Swapping back and forth between two vectors reuses both buffers.
//     A consumer with other work pending takes without waiting
//     (pop_all with wait = false) and sleeps only once it has none.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <vector>

#include "common/error.hpp"

namespace netmaster {

template <typename T>
class BatchQueue {
 public:
  /// A capacity of 0 acts as 1.
  explicit BatchQueue(std::size_t capacity)
      : capacity_(std::max<std::size_t>(capacity, 1)) {}

  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  /// Appends make(0) .. make(count - 1) in order, blocking while the
  /// queue is full: each chunk takes as much as fits, under one lock.
  /// Returns how many went in: count, or fewer when close() came first.
  template <typename Make>
  std::size_t put(std::size_t count, Make&& make) {
    std::size_t done = 0;
    while (done < count) {
      bool was_empty = false;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        not_full_.wait(lock,
                       [&] { return closed_ || items_.size() < capacity_; });
        if (closed_) break;
        was_empty = items_.empty();
        const std::size_t end =
            done + std::min(count - done, capacity_ - items_.size());
        for (; done < end; ++done) items_.push_back(make(done));
      }
      // A consumer sleeps only on an empty queue: the rest of a burst
      // finds it awake (or about to swap) and needs no wake-up.
      if (was_empty) not_empty_.notify_one();
    }
    return done;
  }

  /// Moves the whole backlog into `out`, which must be empty, in FIFO
  /// order. With `wait`, blocks while the queue is empty; without, an
  /// empty open queue returns true at once with `out` still empty.
  /// Returns false only when the queue is closed *and* drained.
  bool pop_all(std::vector<T>& out, bool wait = true) {
    NM_REQUIRE(out.empty(), "pop_all needs an empty batch");
    bool was_full = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (wait) {
        not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
      }
      if (items_.empty()) return !closed_;  // false: closed and drained
      was_full = items_.size() >= capacity_;
      out.swap(items_);
    }
    // Producers sleep only on a full queue; the swap freed all of it.
    if (was_full) not_full_.notify_all();
    return true;
  }

  /// Refuses further puts and wakes both sides; what is queued can
  /// still be taken.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Items queued now.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;  ///< consumers wait here
  std::condition_variable not_full_;   ///< producers wait here
  std::vector<T> items_;
  const std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace netmaster
