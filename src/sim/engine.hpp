// The discrete-event engine: a virtual clock and an ordered event queue.
//
// The pending-event set is an indexed calendar queue (sim/calendar.hpp):
// amortized O(1) push/pop where a binary heap pays O(log n), which matters
// once a 256K-rank collective keeps a pending event per rank. Coroutine
// frames come from a recycling pool (sim/pool.hpp) for the same reason.
//
// Events are (time, tie-break, sequence) ordered. The default tie-break is
// FIFO — two events at the same virtual time fire in the order they were
// scheduled — which makes every simulation run bitwise deterministic. For
// schedule-perturbation testing (srm::chk) the tie-break can be switched to a
// seeded random permutation of same-timestamp events: still deterministic for
// a given seed, but it explores orderings the FIFO rule would never produce,
// exactly the reorderings a real machine's race windows allow.
//
// The engine owns top-level coroutine processes (Engine::spawn) and detects
// deadlock: if the queue drains while spawned processes are still suspended,
// run() throws. Components that park coroutines (WaitQueue, Trigger, the
// chk::Checker) can register as BlockedInfoSource so the deadlock error names
// who is blocked on what instead of only counting suspended processes.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/calendar.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace srm::sim {

/// A component that can describe coroutines currently blocked on it.
/// Consulted (in registration order) when the engine detects deadlock.
class BlockedInfoSource {
 public:
  virtual ~BlockedInfoSource() = default;
  /// Append a description of currently blocked waiters; print nothing when
  /// nobody is blocked here.
  virtual void describe_blocked(std::ostream& os) const = 0;
};

/// Ordering policy for events scheduled at the same virtual time.
enum class TieBreak {
  fifo,    ///< schedule order (default; the seed behaviour)
  random,  ///< seeded random permutation of same-timestamp events
};

class Engine {
 public:
  using EventId = std::uint64_t;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  Time now() const noexcept { return now_; }

  /// Schedule @p fn at absolute time @p t (>= now).
  EventId call_at(Time t, std::function<void()> fn);

  /// Schedule resumption of coroutine @p h at absolute time @p t (>= now).
  EventId resume_at(Time t, std::coroutine_handle<> h);

  /// Cancel a previously scheduled event. Cancelling an event that already
  /// fired is a harmless no-op.
  void cancel(EventId id);

  /// Take ownership of a top-level process and schedule its start at now().
  void spawn(CoTask task);

  /// Run until the event queue is empty. Throws the first exception that
  /// escapes a spawned process, or CheckError on deadlock (queue empty while
  /// processes remain suspended; its message is describe_deadlock()).
  /// Before it throws either one it destroys every process still suspended
  /// and drops the queued events, so the error leaves nothing behind to
  /// resume or destroy.
  void run();

  /// Select how same-timestamp events are ordered. FIFO reproduces the
  /// schedule order; `random` permutes ties with a SplitMix64 stream seeded
  /// by @p seed (deterministic per seed). Affects only events scheduled
  /// after the call.
  void set_tiebreak(TieBreak policy, std::uint64_t seed = 0) {
    tiebreak_ = policy;
    tie_rng_ = util::SplitMix64(seed);
  }
  TieBreak tiebreak() const noexcept { return tiebreak_; }

  /// Register/unregister a source of blocked-waiter descriptions for the
  /// deadlock error message. Sources are reported in registration order.
  void add_blocked_source(BlockedInfoSource* src);
  void remove_blocked_source(BlockedInfoSource* src);

  /// The deadlock description the engine would throw right now: the base
  /// message plus every registered source's describe_blocked output.
  std::string describe_deadlock() const;

  /// Number of processes spawned that have not yet completed.
  std::size_t live_processes() const noexcept { return roots_.size() - reap_.size(); }

  /// Total events executed so far (monitoring/micro-benchmarks).
  std::uint64_t events_processed() const noexcept { return processed_; }

  /// Awaitable: suspend the current coroutine for @p d of virtual time.
  /// `co_await engine.sleep(us(5));`
  struct SleepAwaiter {
    Engine* eng;
    Duration d;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      eng->resume_at(eng->now_ + d, h);
    }
    void await_resume() const noexcept {}
  };
  SleepAwaiter sleep(Duration d) noexcept { return SleepAwaiter{this, d}; }

 private:
  struct Ev {
    Time t;
    std::uint64_t key;               // tie-break within equal t (0 in FIFO)
    EventId id;
    std::coroutine_handle<> h;       // exactly one of h / fn is active
    std::function<void()> fn;
  };
  struct EvOrder {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.t != b.t) return a.t > b.t;
      if (a.key != b.key) return a.key > b.key;
      return a.id > b.id;
    }
  };

  std::uint64_t next_key() {
    return tiebreak_ == TieBreak::random ? tie_rng_.next() : 0;
  }

  void reap_finished();
  /// Destroy every live process and drop every queued event.
  void abandon();

  Time now_ = 0;
  EventId next_id_ = 1;
  std::uint64_t processed_ = 0;
  TieBreak tiebreak_ = TieBreak::fifo;
  util::SplitMix64 tie_rng_{0};
  CalendarQueue<Ev, EvOrder> queue_;
  std::unordered_set<EventId> cancelled_;

  // Blocked-info sources, reported in registration order. Declared before
  // roots_ so coroutine frames destroyed with the engine can still
  // unregister their wait-points.
  std::uint64_t next_source_id_ = 1;
  std::map<std::uint64_t, BlockedInfoSource*> blocked_sources_;
  std::unordered_map<BlockedInfoSource*, std::uint64_t> blocked_source_ids_;

  std::uint64_t next_root_ = 1;
  std::unordered_map<std::uint64_t, CoTask> roots_;
  std::vector<std::uint64_t> reap_;
  std::exception_ptr first_error_{};
};

}  // namespace srm::sim
