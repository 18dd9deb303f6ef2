// WaitQueue: predicate-based blocking, the simulator's condition variable.
//
// A coroutine does `co_await wq.wait_until([&]{ return pred; })`. Whoever
// mutates the protected state calls notify(); every waiter whose predicate
// now holds is resumed at the current virtual time. Like a condition
// variable, wakeups re-check the predicate, so multiple waiters racing for
// one resource are handled correctly.
//
// Each WaitQueue registers with the engine as a BlockedInfoSource: on
// deadlock the error message lists, per labelled wait-point, how many
// coroutines are parked and (when the caller passed a rank) who they are.
//
// Waiting allocates nothing: the predicate stays in the waiting coroutine's
// frame and the queue links the awaiter that lives there, in arrival order.
#pragma once

#include <coroutine>
#include <cstddef>
#include <ostream>
#include <string>
#include <utility>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace srm::sim {

/// A wait-point's name in deadlock dumps and race reports: a whole string,
/// or a fixed stem and a rank printed as "<stem>@<rank>", so a counter a
/// protocol makes on every call names itself without building a string.
class Label {
 public:
  Label() = default;
  Label(std::string text) : text_(std::move(text)) {}
  Label(const char* text) : text_(text) {}
  Label(const char* stem, int rank) : stem_(stem), rank_(rank) {}

  bool empty() const noexcept { return stem_ == nullptr && text_.empty(); }
  std::string str() const {
    return stem_ != nullptr ? stem_ + ("@" + std::to_string(rank_)) : text_;
  }
  /// The whole-string form; empty for a stem label.
  const std::string& text() const noexcept { return text_; }

  friend std::ostream& operator<<(std::ostream& os, const Label& l) {
    if (l.stem_ != nullptr) return os << l.stem_ << '@' << l.rank_;
    return os << l.text_;
  }

 private:
  std::string text_;
  const char* stem_ = nullptr;
  int rank_ = 0;
};

class WaitQueue : public BlockedInfoSource {
  struct Waiter;

 public:
  explicit WaitQueue(Engine& eng, Label label = {})
      : eng_(&eng), label_(std::move(label)) {
    eng_->add_blocked_source(this);
  }
  ~WaitQueue() override {
    // Waiters still parked belong to frames not destroyed yet: let them go
    // without touching this queue when they are.
    for (Waiter* w = head_; w != nullptr; w = w->next) w->wq = nullptr;
    eng_->remove_blocked_source(this);
  }
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  /// Suspend until @p pred returns true. Returns immediately (without
  /// yielding to the engine) when the predicate already holds. @p who is an
  /// optional task rank recorded for deadlock diagnostics.
  template <class Pred>
  CoTask wait_until(Pred pred, int who = -1) {
    while (!pred()) co_await Waiter{this, &holds<Pred>, &pred, who};
  }

  /// Wake every waiter whose predicate currently holds.
  void notify() {
    // A resumed waiter may re-enter wait() synchronously only via the engine
    // queue (resume is deferred to resume_at), so walking the list is safe.
    for (Waiter* w = head_; w != nullptr;) {
      Waiter* next = w->next;
      if (w->test(w->pred)) {
        unlink(w);
        eng_->resume_at(eng_->now(), w->h);
      }
      w = next;
    }
  }

  std::size_t waiting() const noexcept {
    std::size_t n = 0;
    for (const Waiter* w = head_; w != nullptr; w = w->next) ++n;
    return n;
  }

  const Label& label() const noexcept { return label_; }

  void describe_blocked(std::ostream& os) const override {
    if (head_ == nullptr) return;
    os << "\n  wait-point '";
    if (label_.empty()) {
      os << "<unnamed>";
    } else {
      os << label_;
    }
    os << "': " << waiting() << " blocked";
    bool any = false;
    for (const Waiter* w = head_; w != nullptr; w = w->next) {
      if (w->who < 0) continue;
      os << (any ? ", " : " (task ") << w->who;
      any = true;
    }
    if (any) os << ")";
  }

 private:
  template <class Pred>
  static bool holds(const void* pred) {
    return (*static_cast<const Pred*>(pred))();
  }

  // The awaiter of one wait: it lives in the waiting frame while that frame
  // is parked, linked into its queue; `wq` is null once it is out of it.
  struct Waiter {
    WaitQueue* wq;
    bool (*test)(const void*);
    const void* pred;
    int who;
    std::coroutine_handle<> h{};
    Waiter* prev = nullptr;
    Waiter* next = nullptr;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) noexcept {
      h = handle;
      wq->link(this);
    }
    void await_resume() const noexcept {}
    // A frame destroyed while parked (the engine abandoning a run) leaves
    // its queue.
    ~Waiter() {
      if (wq != nullptr) wq->unlink(this);
    }
  };

  void link(Waiter* w) noexcept {
    w->prev = tail_;
    w->next = nullptr;
    (tail_ != nullptr ? tail_->next : head_) = w;
    tail_ = w;
  }
  void unlink(Waiter* w) noexcept {
    (w->prev != nullptr ? w->prev->next : head_) = w->next;
    (w->next != nullptr ? w->next->prev : tail_) = w->prev;
    w->wq = nullptr;
  }

  Engine* eng_;
  Label label_;
  Waiter* head_ = nullptr;
  Waiter* tail_ = nullptr;
};

}  // namespace srm::sim
