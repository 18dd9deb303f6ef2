// A LAPI-like one-sided communication layer (paper §2.3).
//
// Models the semantics SRM depends on:
//  * nonblocking `put` with two counters — origin (source buffer reusable)
//    and target (data arrived at target);
//  * `wait_cntr` with real LAPI semantics: block until the counter reaches
//    `value`, then atomically subtract `value` (this is what makes the SRM
//    two-buffer flow control clean);
//  * progress/interrupt management: an arrived message is processed by the
//    target's dispatcher (a) immediately + poll cost if the target task is
//    inside a LAPI call, (b) after the interrupt cost if interrupts are
//    enabled, or (c) not until the target's next LAPI call if interrupts are
//    disabled — the exact hazard the paper manages around the shared-memory
//    phases. The dispatcher keeps arrival order: when a later arrival's
//    dispatch comes due first (it landed inside a Waitcntr while an earlier
//    one still waits out its interrupt), it runs every earlier arrival
//    first, so a counter bump never overtakes an earlier deposit.
//
// Data deposit is performed by the dispatcher at process time, which matches
// the SP "Colony" adapter (no autonomous RDMA engine; LAPI moves data in the
// header handler).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chk/chk.hpp"
#include "machine/cluster.hpp"
#include "sim/task.hpp"
#include "sim/wait.hpp"

namespace srm::lapi {

class Endpoint;

/// A LAPI counter: bumped by the dispatcher, waited on by the owning task.
/// Carries a chk::SyncVar — put deliveries join their message clock into it,
/// Waitcntr returns acquire from it — and an optional label used in race
/// reports and deadlock dumps. A counter made on every call takes a
/// `{stem, rank}` label, which builds no string.
class Counter {
 public:
  explicit Counter(sim::Engine& eng, sim::Label label = {})
      : wq_(eng, std::move(label)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  std::uint64_t value() const noexcept { return value_; }
  const sim::Label& label() const noexcept { return wq_.label(); }
  chk::SyncVar& sync() noexcept { return sync_; }

  /// Dispatcher-side bump (visibility rules already applied by Endpoint).
  void bump(std::uint64_t delta = 1) {
    value_ += delta;
    wq_.notify();
  }

  /// LAPI_Setcntr.
  void set(std::uint64_t v) {
    value_ = v;
    wq_.notify();
  }

 private:
  friend class Endpoint;
  std::uint64_t value_ = 0;
  chk::SyncVar sync_;
  sim::WaitQueue wq_;
};

/// Per-task LAPI endpoint.
class Endpoint {
 public:
  Endpoint(machine::TaskCtx& ctx);
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  int rank() const noexcept { return ctx_->rank; }

  /// Nonblocking one-sided put of @p bytes from @p src (origin memory) to
  /// @p dst (target memory). Either counter may be null.
  ///  - @p tgt_cntr lives at the *target* and bumps when data is deposited;
  ///  - @p org_cntr lives at the origin and bumps when @p src is reusable.
  /// Suspends only for the origin-side call + injection overhead.
  sim::CoTask put(Endpoint& target, void* dst, const void* src,
                  std::size_t bytes, Counter* tgt_cntr,
                  Counter* org_cntr = nullptr);

  /// Zero-byte put used purely to bump a remote counter (SRM flow control).
  sim::CoTask put_signal(Endpoint& target, Counter& tgt_cntr) {
    return put(target, nullptr, nullptr, 0, &tgt_cntr);
  }

  /// LAPI_Waitcntr: block until @p c >= @p value, then subtract @p value.
  /// While blocked the task polls, so arrivals are processed promptly.
  sim::CoTask wait_cntr(Counter& c, std::uint64_t value);

  /// Enable/disable interrupt-mode message reception (§2.3 "Management of
  /// LAPI Interrupts"). Enabling schedules processing of anything pending.
  void set_interrupts(bool enabled);
  bool interrupts_enabled() const noexcept { return interrupts_; }

  /// Number of arrivals processed via the interrupt path (for tests).
  std::uint64_t interrupts_taken() const noexcept { return interrupts_taken_; }

 private:
  friend class Fabric;

  // Called by the network delivery event at the *target* endpoint.
  void on_arrival(std::function<void()> process);
  // At @p at, run every not-yet-run arrival up to number @p seq, oldest
  // first.
  void dispatch_at(sim::Time at, std::uint64_t seq);
  // Schedule the arrivals still waiting for a LAPI call, one poll cost
  // apart.
  void drain_pending();

  machine::TaskCtx* ctx_;
  const machine::LapiParams* lp_;
  // Observability cells, resolved once per endpoint (keyed by origin rank):
  // data puts (value = bytes) / zero-byte signals and Waitcntr stalls
  // (value = virtual ns blocked).
  obs::Counter* put_ctr_;
  obs::Counter* signal_ctr_;
  obs::Counter* wait_ctr_;
  // Depth, not bool: SRM's pipelined collectives overlap protocol phases on
  // the master task (Fig. 5), so one task may be parked in two Waitcntr
  // calls; the dispatcher polls as long as any of them is active.
  int in_call_ = 0;
  bool interrupts_ = true;
  std::uint64_t interrupts_taken_ = 0;
  // Arrivals not yet run, oldest first; the front is number run_seq_.
  // Those from number pending_seq_ on have no dispatch event yet: they
  // landed with interrupts off and wait for the next LAPI call.
  std::deque<std::function<void()>> arrivals_;
  std::uint64_t run_seq_ = 0;
  std::uint64_t pending_seq_ = 0;
  sim::WaitQueue call_wq_;  // wakes pollers when new arrivals are processed
};

/// One endpoint per rank, owned together. Endpoints materialize on first
/// use: symbolic-transport runs never touch the network plane, and a
/// mega-scale topology must not pay 256K eager endpoint constructions.
class Fabric {
 public:
  explicit Fabric(machine::Cluster& cluster);
  Endpoint& ep(int rank) {
    auto& e = eps_.at(static_cast<std::size_t>(rank));
    if (e == nullptr) e = std::make_unique<Endpoint>(cluster_->ctx(rank));
    return *e;
  }
  machine::Cluster& cluster() noexcept { return *cluster_; }

 private:
  machine::Cluster* cluster_;
  std::vector<std::unique_ptr<Endpoint>> eps_;
};

}  // namespace srm::lapi
