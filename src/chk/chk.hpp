// srm::chk — a FastTrack-style happens-before checker for the SRM protocols.
//
// The paper's collectives synchronize through hand-rolled primitives: READY
// flags per process per buffer (Fig. 3), published/consumed counters for the
// reduce slots (Fig. 2), and LAPI put/counter credit flow (§3). The checker
// verifies that every access to shared state is ordered by those primitives,
// under *any* schedule the engine produces — including the randomized
// tie-break schedules of the explorer.
//
// Model:
//   - every simulated task (rank) is an actor with a vector clock;
//   - sync objects (SharedFlag, lapi::Counter) carry a SyncVar clock:
//     writers release() into it, observers acquire() from it;
//   - one-sided puts and mini-MPI messages carry a MsgClock snapshot taken
//     at the origin (fork); delivery joins it into the target counter and/or
//     the receiver acquires it;
//   - shm::Segment buffers register as named regions; note_read/note_write
//     record accesses with the actor's clock epoch and current stack of
//     protocol stages.
// Two accesses to overlapping bytes of a region race when neither
// happens-before the other, they come from different actors, and at least
// one is a write. Same-actor accesses are program-ordered; remote writes
// from the same origin are NIC-FIFO-ordered (egress times strictly increase
// per source because gap > 0), so both are exempt.
//
// Everything is gated twice: compile-time (`SRM_CHK=OFF` defines
// SRM_CHK_DISABLED and every hook folds to nothing via kEnabled) and
// runtime (Checker::set_enabled, default off, so production simulations pay
// only a pointer test per hook).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace srm::chk {

#if defined(SRM_CHK_DISABLED)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

using Clock = std::uint64_t;

/// Clock state attached to a synchronization object (flag / counter).
struct SyncVar {
  std::vector<Clock> vc;
};

/// A clock snapshot travelling with a one-sided put or mini-MPI message,
/// plus the origin's protocol-stage stack at issue time (for reports).
struct MsgClock {
  std::vector<Clock> vc;
  int origin = -1;
  std::uint64_t id = 0;  ///< per-checker message number (trace export)
  std::vector<const char*> stages;
};

/// One recorded synchronization/access event, in observation order. A traced
/// run is exactly the raw material srm::mc needs to rebuild the execution's
/// protocol skeleton (mc/extract.hpp) and model-check *other* interleavings
/// of the same synchronization structure.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    release,      ///< writer side of a sync object
    acquire,      ///< observer side of a sync object
    fork,         ///< message snapshot taken at the origin
    join,         ///< message delivered into a sync object (counter bump)
    acquire_msg,  ///< receiver observed the message directly
    read,         ///< region read
    write,        ///< region write
  };
  Kind kind{};
  int actor = -1;             ///< issuing actor (message origin for join)
  const void* obj = nullptr;  ///< SyncVar* (sync ops) or region base (access)
  std::uint64_t msg = 0;      ///< message id (fork/join/acquire_msg/remote)
  std::uint64_t lo = 0;       ///< byte range within the region (accesses)
  std::uint64_t hi = 0;
  bool remote = false;        ///< access carried by an in-flight message
  std::string label;          ///< sync label or region name ("" if unnamed)
};

enum class Access : std::uint8_t { read, write };

/// One detected race: two unordered overlapping accesses, at least one a
/// write, from different actors.
struct RaceReport {
  std::string region;            ///< registered region name
  std::size_t lo = 0, hi = 0;    ///< overlapping byte range within the region
  Access prev_kind = Access::read;
  Access cur_kind = Access::read;
  int prev_actor = -1;
  int cur_actor = -1;
  sim::Time prev_time = 0;
  sim::Time cur_time = 0;
  std::string prev_stage;        ///< "a > b > c" protocol-stage stack
  std::string cur_stage;

  std::string to_string() const;
};

/// The checker: vector clocks per actor, access history per region.
/// Registers with the engine as a BlockedInfoSource so deadlock dumps show
/// each actor's last checker event next to the blocked wait-points.
class Checker : public sim::BlockedInfoSource {
 public:
  Checker(sim::Engine& eng, int nactors);
  ~Checker() override;
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  /// Runtime switch; no events are recorded while disabled. Enabling mid-run
  /// is allowed (clocks keep advancing only from the sync ops seen since).
  void set_enabled(bool on);
  bool enabled() const noexcept { return kEnabled && enabled_; }
  int nactors() const noexcept { return static_cast<int>(actors_.size()); }

  /// Register @p bytes at @p base as a tracked shared region. Accesses to
  /// unregistered memory (private user buffers) are ignored.
  void register_region(const void* base, std::size_t bytes, std::string name);
  /// Stop tracking the region at @p base (its storage is about to be freed).
  void unregister_region(const void* base) { regions_.erase(base); }

  // --- happens-before edges -------------------------------------------------
  /// Writer side of a sync object: join the actor's clock into it, then tick.
  void release(int actor, SyncVar& v, const char* what = nullptr);
  /// Observer side: join the sync object's clock into the actor.
  void acquire(int actor, SyncVar& v, const char* what = nullptr);
  /// Snapshot the actor's clock for an in-flight message, then tick.
  MsgClock fork(int actor);
  /// Delivery joins the message clock into a sync object (counter bump).
  void join(SyncVar& v, const MsgClock& m);
  /// Receiver observed the message content directly (mini-MPI recv).
  void acquire_msg(int actor, const MsgClock& m, const char* what = nullptr);

  // --- accesses -------------------------------------------------------------
  /// Local access by @p actor to [p, p+len).
  void access(int actor, const void* p, std::size_t len, Access k);
  /// Access attributed to an in-flight message (put deposit at the target,
  /// or the NIC's read of the source buffer at the origin).
  void access_remote(const MsgClock& m, const void* p, std::size_t len,
                     Access k);

  // --- protocol stages ------------------------------------------------------
  /// Push a stage name onto @p actor's stack; returns a token for the pop.
  /// Not LIFO-restricted: pipelined collectives run two stages concurrently
  /// on one rank, so pops erase by token. Prefer StageScope.
  std::uint64_t stage_push(int actor, const char* name);
  void stage_pop(int actor, std::uint64_t token);

  // --- trace export ---------------------------------------------------------
  /// Record every sync op and checked access into an event trace (off by
  /// default; costs one append per event while on). The trace feeds
  /// mc::skeleton_from_trace.
  void set_trace(bool on) { trace_on_ = kEnabled && on; }
  bool tracing() const noexcept { return trace_on_; }
  const std::vector<TraceEvent>& trace() const noexcept { return trace_; }
  void clear_trace() { trace_.clear(); }

  // --- results --------------------------------------------------------------
  const std::vector<RaceReport>& reports() const noexcept { return reports_; }
  void clear_reports() { reports_.clear(); }
  /// Accesses race-checked so far — lets tests prove a clean report is not
  /// vacuous.
  std::uint64_t accesses_checked() const noexcept { return accesses_; }
  std::uint64_t sync_ops() const noexcept { return sync_ops_; }
  /// Human-readable last event of @p actor ("" if none recorded).
  std::string last_event(int actor) const;

  void describe_blocked(std::ostream& os) const override;

 private:
  struct Record {
    int actor;
    Clock epoch;              // C_actor[actor] at access time
    std::size_t lo, hi;       // byte range within the region
    Access kind;
    sim::Time t;
    std::vector<const char*> stages;
  };
  struct Region {
    std::string name;
    std::size_t size = 0;
    std::vector<Record> recs;
  };
  // Breadcrumbs for deadlock dumps; formatted lazily by last_event().
  struct LastAccess {
    const Region* rg = nullptr;
    std::size_t lo = 0, hi = 0;
    Access k = Access::read;
    sim::Time t = 0;
  };
  struct ActorState {
    std::vector<Clock> vc;
    std::vector<std::pair<std::uint64_t, const char*>> stages;
    LastAccess last_access;
    std::string last_sync;
    sim::Time last_sync_t = 0;
  };

  // Lazily materialize @p actor's clock (own component >= 1, length >=
  // actor+1). Clocks start empty — an eager nactors^2 matrix would dominate
  // memory at mega scale; absent components read as 0.
  std::vector<Clock>& vc_of(int actor);
  Region* find_region(const void* p, std::size_t len, std::size_t& off);
  void check_access(Region& rg, const std::vector<Clock>& vc, int actor,
                    Clock epoch, std::size_t lo, std::size_t hi, Access k,
                    const std::vector<const char*>& stages);
  std::vector<const char*> stage_names(int actor) const;
  void note_last_access(int actor, const Region& rg, std::size_t lo,
                        std::size_t hi, Access k);

  sim::Engine* eng_;
  bool enabled_ = false;
  bool trace_on_ = false;
  std::uint64_t accesses_ = 0;
  std::uint64_t sync_ops_ = 0;
  std::uint64_t next_msg_id_ = 1;
  std::uint64_t next_stage_token_ = 1;
  std::vector<TraceEvent> trace_;
  std::vector<ActorState> actors_;
  std::map<const void*, Region> regions_;  // keyed by base address
  std::vector<RaceReport> reports_;
};

/// Per-rank handle carried in machine::TaskCtx. Null checker (or a disabled
/// one) makes every hook a no-op.
struct TaskChk {
  Checker* checker = nullptr;
  int actor = -1;
};

inline bool on(const TaskChk* c) noexcept {
  return kEnabled && c != nullptr && c->checker != nullptr &&
         c->checker->enabled();
}
inline bool on(const TaskChk& c) noexcept { return on(&c); }

inline void note_read(const TaskChk& c, const void* p, std::size_t n) {
  if (on(c)) c.checker->access(c.actor, p, n, Access::read);
}
inline void note_write(const TaskChk& c, const void* p, std::size_t n) {
  if (on(c)) c.checker->access(c.actor, p, n, Access::write);
}
inline void rel(const TaskChk* c, SyncVar& v, const char* what = nullptr) {
  if (on(c)) c->checker->release(c->actor, v, what);
}
inline void acq(const TaskChk* c, SyncVar& v, const char* what = nullptr) {
  if (on(c)) c->checker->acquire(c->actor, v, what);
}

/// RAII protocol-stage marker. Cheap when the checker is off.
class StageScope {
 public:
  StageScope(const TaskChk& c, const char* name) {
    if (on(c)) {
      chk_ = &c;
      token_ = c.checker->stage_push(c.actor, name);
    }
  }
  ~StageScope() {
    if (chk_ != nullptr) chk_->checker->stage_pop(chk_->actor, token_);
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  const TaskChk* chk_ = nullptr;
  std::uint64_t token_ = 0;
};

}  // namespace srm::chk
