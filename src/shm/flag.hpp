// SharedFlag / FlagArray: cache-line synchronization flags in shared memory.
//
// The paper's intra-node protocols synchronize exclusively through flags:
// one READY flag per process per broadcast buffer (Fig. 3), one barrier flag
// per process on its own cache line (§2.2). A store becomes visible to
// spinning readers one cache-line propagation later; reading an
// already-visible value is free (the line is in-cache). The paper's
// spin-with-yield policy (yield the time slice after N failed spins so LAPI
// threads can run) affects which *thread* runs on a real CPU; in the model
// the LAPI dispatcher cost is charged separately (lapi::Endpoint), so the
// yield policy has no additional cost here.
//
// Visibility model: the flag keeps two values. `value_` is the committed
// value (what a read-modify-write sees; the line's true state); `visible_`
// is what remote spinners observe, trailing each store by one propagation
// delay. A task observes its *own* last store immediately (program order /
// own cache), so await_* with a TaskChk reads `value_` while that task is
// the most recent writer and `visible_` otherwise; polled get() and
// anonymous awaits read `visible_`; raw_get() exposes the committed value.
// Visibility updates are sequence-stamped so that when the engine runs with
// a randomized tie-break, two in-flight stores cannot apply out of order
// and resurrect an overwritten value. The values of stores not yet visible
// wait in the flag, so a store's visibility event captures two words, which
// std::function keeps in place: a store allocates only when more stores are
// in flight than the flag ever held before. A wait allocates nothing
// (sim::WaitQueue).
//
// Every mutation/observation optionally carries a chk::TaskChk: stores are
// release operations on the flag's SyncVar and satisfied awaits are
// acquires, giving srm::chk the happens-before edges of Fig. 3.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chk/chk.hpp"
#include "machine/params.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/wait.hpp"

namespace srm::shm {

class SharedFlag {
 public:
  SharedFlag(sim::Engine& eng, const machine::MemoryParams& p,
             std::uint64_t initial = 0, std::string label = {})
      : eng_(&eng),
        prop_(p.flag_propagation),
        value_(initial),
        visible_(initial),
        wq_(eng, std::move(label)) {}

  /// The value a spinning reader observes now (stores become visible one
  /// propagation delay after set()).
  std::uint64_t get() const noexcept { return visible_; }

  /// The committed value, ignoring propagation — the writing side's own
  /// view. Only meaningful on the task that issued the last store.
  std::uint64_t raw_get() const noexcept { return value_; }

  /// Store a value; readers (polled or blocked) observe it one propagation
  /// delay later. A chk release edge is recorded at store time.
  void set(std::uint64_t v, const chk::TaskChk* who = nullptr) {
    value_ = v;
    last_writer_ = who != nullptr ? who->actor : -1;
    chk::rel(who, sync_, chk_label());
    inflight_.push_back(v);
    std::uint64_t s = ++store_seq_;
    eng_->call_at(eng_->now() + prop_, [this, s] { apply(s); });
  }

  /// Atomic add (models fetch-and-add on a shared line).
  void add(std::uint64_t delta, const chk::TaskChk* who = nullptr) {
    set(value_ + delta, who);
  }

  /// Suspend until the flag equals @p v.
  sim::CoTask await_value(std::uint64_t v, const chk::TaskChk* who = nullptr) {
    int a = who != nullptr ? who->actor : -1;
    co_await wq_.wait_until([this, v, a] { return observed(a) == v; }, a);
    acquired(who);
  }

  /// Suspend until the flag differs from @p v.
  sim::CoTask await_not(std::uint64_t v, const chk::TaskChk* who = nullptr) {
    int a = who != nullptr ? who->actor : -1;
    co_await wq_.wait_until([this, v, a] { return observed(a) != v; }, a);
    acquired(who);
  }

  /// Suspend until the flag is at least @p v (counter semantics).
  sim::CoTask await_at_least(std::uint64_t v,
                             const chk::TaskChk* who = nullptr) {
    int a = who != nullptr ? who->actor : -1;
    co_await wq_.wait_until([this, v, a] { return observed(a) >= v; }, a);
    acquired(who);
  }

  const std::string& label() const noexcept { return wq_.label().text(); }
  chk::SyncVar& sync() noexcept { return sync_; }

 private:
  const char* chk_label() const noexcept {
    return label().empty() ? nullptr : label().c_str();
  }
  void acquired(const chk::TaskChk* who) { chk::acq(who, sync_, chk_label()); }

  /// Store number @p s becomes visible to spinners.
  void apply(std::uint64_t s) {
    // Out-of-order application guard: with a randomized tie-break two
    // same-instant visibility events may fire in either order; only the
    // newest store may win.
    if (s > applied_seq_) {
      const auto n = static_cast<std::ptrdiff_t>(s - applied_seq_);
      visible_ = inflight_[static_cast<std::size_t>(n - 1)];
      inflight_.erase(inflight_.begin(), inflight_.begin() + n);
      applied_seq_ = s;
    }
    wq_.notify();
  }

  /// What task @p a observes right now: its own last store immediately
  /// (program order), everyone else's stores one propagation later.
  std::uint64_t observed(int a) const noexcept {
    return a >= 0 && a == last_writer_ ? value_ : visible_;
  }

  sim::Engine* eng_;
  sim::Duration prop_;
  std::uint64_t value_;
  std::uint64_t visible_;
  int last_writer_ = -1;
  std::uint64_t store_seq_ = 0;
  std::uint64_t applied_seq_ = 0;
  // Values of stores applied_seq_ + 1 .. store_seq_, oldest first.
  std::vector<std::uint64_t> inflight_;
  chk::SyncVar sync_;
  sim::WaitQueue wq_;
};

/// A fixed array of flags, one per local task, each on its own cache line
/// (modelled: independent SharedFlag objects, no false sharing).
class FlagArray {
 public:
  FlagArray(sim::Engine& eng, const machine::MemoryParams& p, int count,
            std::uint64_t initial = 0, const std::string& label = {}) {
    flags_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      flags_.push_back(std::make_unique<SharedFlag>(
          eng, p, initial,
          label.empty() ? std::string{}
                        : label + "[" + std::to_string(i) + "]"));
    }
  }

  SharedFlag& operator[](int i) { return *flags_.at(static_cast<std::size_t>(i)); }
  int size() const noexcept { return static_cast<int>(flags_.size()); }

 private:
  std::vector<std::unique_ptr<SharedFlag>> flags_;
};

}  // namespace srm::shm
