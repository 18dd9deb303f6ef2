// CalendarQueue: an indexed bucket queue (R. Brown's calendar queue) for the
// engine's pending-event set.
//
// The classic binary heap costs O(log n) per operation with a large constant
// once the queue holds hundreds of thousands of events (a 256K-rank collective
// keeps roughly one pending event per rank). A calendar queue hashes events by
// time into an array of day buckets whose widths adapt to the event density,
// giving amortized O(1) push/pop for the workloads a discrete-event simulator
// produces.
//
// Determinism: each bucket is itself a small binary heap ordered by the full
// (time, tie-break key, sequence id) comparator, and pop always returns the
// globally least event under that order. The dequeue sequence is therefore
// bitwise identical to the reference heap's — bucket layout, resizes, and the
// year-scan are pure implementation detail. Same-timestamp bursts (256K spawns
// at t=0) land in one bucket and degrade gracefully to heap behaviour instead
// of the O(n^2) bucket-scan the textbook linked-list calendar exhibits; the
// bucket a burst drained gives its capacity back (pop()).
//
// `After` is a priority_queue-style comparator: After(a, b) == true means `a`
// fires after `b`. Ev must expose a `.t` time field consistent with it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/check.hpp"

namespace srm::sim {

template <class Ev, class After>
class CalendarQueue {
 public:
  explicit CalendarQueue(After after = {}) : after_(after) {
    buckets_.resize(kMinBuckets);
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  void push(Ev ev) {
    const Time t = ev.t;
    if (size_ == 0) anchor(t);
    auto& b = buckets_[index_of(t)];
    b.push_back(std::move(ev));
    std::push_heap(b.begin(), b.end(), after_);
    ++size_;
    // An event due before the scan pointer's current day must pull the
    // pointer back, or the year-scan would only find it a lap later.
    const Time due = day_end(t);
    if (due < cur_due_) {
      cur_ = index_of(t);
      cur_due_ = due;
    }
    if (size_ > kGrowFactor * buckets_.size()) rebuild(buckets_.size() * 2);
  }

  /// The least event under the `After` order, left in the queue. Moves the
  /// scan pointer to its day, so the pop() that follows finds it at once.
  const Ev& peek() {
    SRM_CHECK_MSG(size_ > 0, "peek into empty calendar queue");
    std::size_t scanned = 0;
    for (;;) {
      const auto& b = buckets_[cur_];
      if (!b.empty() && b.front().t < cur_due_) return b.front();
      cur_ = (cur_ + 1) & (buckets_.size() - 1);
      cur_due_ += width_;
      if (++scanned >= buckets_.size()) {
        // A whole year was empty: jump straight to the day holding the
        // earliest pending event instead of scanning year by year.
        jump_to_min();
        scanned = 0;
      }
    }
  }

  /// Remove and return the least event under the `After` order.
  Ev pop() {
    peek();
    auto& b = buckets_[cur_];
    std::pop_heap(b.begin(), b.end(), after_);
    Ev ev = std::move(b.back());
    b.pop_back();
    // A same-time burst fills one bucket; once it drains, the bucket gives
    // its capacity back instead of holding it until the next rebuild.
    if (b.empty() && b.capacity() > kKeptCapacity) std::vector<Ev>().swap(b);
    --size_;
    if (size_ < buckets_.size() / kShrinkFactor &&
        buckets_.size() > kMinBuckets) {
      rebuild(buckets_.size() / 2);
    }
    return ev;
  }

  std::size_t bucket_count() const noexcept { return buckets_.size(); }
  Time bucket_width() const noexcept { return width_; }
  /// Events the buckets have room for, all together.
  std::size_t capacity() const noexcept {
    std::size_t n = 0;
    for (const auto& b : buckets_) n += b.capacity();
    return n;
  }

 private:
  static constexpr std::size_t kMinBuckets = 8;  // power of two
  static constexpr std::size_t kGrowFactor = 2;
  static constexpr std::size_t kShrinkFactor = 8;
  // Events an emptied bucket may keep room for: enough for the few events
  // a day holds in steady state, far below a 16K-event burst.
  static constexpr std::size_t kKeptCapacity = 64;

  std::size_t index_of(Time t) const noexcept {
    return (t / width_) & (buckets_.size() - 1);
  }
  Time day_end(Time t) const noexcept { return (t / width_ + 1) * width_; }

  void anchor(Time t) noexcept {
    cur_ = index_of(t);
    cur_due_ = day_end(t);
  }

  void jump_to_min() {
    const Ev* best = nullptr;
    std::size_t best_idx = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      const auto& b = buckets_[i];
      if (b.empty()) continue;
      if (best == nullptr || after_(*best, b.front())) {
        best = &b.front();
        best_idx = i;
      }
    }
    SRM_CHECK(best != nullptr);
    cur_ = best_idx;
    cur_due_ = day_end(best->t);
  }

  // Re-bucket every event into @p nbuckets buckets with a width sized so the
  // current content spans roughly one calendar year (~1 event/bucket/day).
  void rebuild(std::size_t nbuckets) {
    std::vector<Ev> all;
    all.reserve(size_);
    for (auto& b : buckets_) {
      for (auto& ev : b) all.push_back(std::move(ev));
      b.clear();
    }
    Time lo = all.empty() ? 0 : all.front().t;
    Time hi = lo;
    for (const auto& ev : all) {
      lo = std::min(lo, ev.t);
      hi = std::max(hi, ev.t);
    }
    width_ = std::max<Time>(1, (hi - lo) / nbuckets + 1);
    buckets_.assign(nbuckets, {});
    std::size_t n = all.size();
    size_ = 0;
    anchor(lo);
    for (auto& ev : all) {
      auto& b = buckets_[index_of(ev.t)];
      b.push_back(std::move(ev));
      std::push_heap(b.begin(), b.end(), after_);
    }
    size_ = n;
  }

  After after_;
  std::vector<std::vector<Ev>> buckets_;
  std::size_t size_ = 0;
  Time width_ = 1000;       // ns; retuned on every rebuild
  std::size_t cur_ = 0;     // scan pointer: bucket index
  Time cur_due_ = 1000;     // upper time bound of the scan pointer's day
};

}  // namespace srm::sim
