// srm::obs — the observability substrate: named counters, scoped spans on
// the simulator's virtual clock, and exporters (Chrome-trace JSON for
// chrome://tracing / Perfetto, machine-readable counter JSON for benches).
//
// Counters are always on (they are the quantitative form of the paper's
// data-movement arguments: shm copies, combines, LAPI puts, Waitcntr stall
// time) and cost one cached-pointer bump on the hot path. Spans are gated by
// Registry::set_trace_enabled — off by default, so sweep benches don't
// accumulate per-chunk records.
//
// Counter taxonomy (name → id convention, value semantics):
//   mem.copy      per node   value = bytes copied through the node bus
//   mem.combine   per node   value = bytes combined by a reduction operator
//   lapi.put      per origin rank   value = payload bytes (data puts only)
//   lapi.signal   per origin rank   zero-byte counter-bump puts
//   lapi.wait     per rank   value = virtual ns stalled inside Waitcntr
//   net.msg       per source node   value = bytes injected into the fabric
//   mpi.shm / mpi.eager / mpi.rndv   per sender rank   value = bytes
//
// Span naming scheme: "<layer>.<operation>[.<stage>]" — e.g. "srm.bcast",
// "bcast.small", "smp.bcast_chunk", "allreduce.rd.round", "barrier.inter".
// One span per collective per rank at the dispatch layer, one per protocol
// stage beneath it; concurrent stages of the pipelined allreduce overlap and
// are placed on separate trace lanes by the exporter.
//
// Building with -DSRM_OBS=OFF (CMake) defines SRM_OBS_DISABLED: the API
// stays source-compatible but every method is a no-op and exporters emit
// empty-but-valid JSON.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace srm::obs {

#if defined(SRM_OBS_DISABLED)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/// One cell of a metric: an event count plus an accumulated value whose
/// meaning is metric-specific (bytes moved, ns stalled, ...).
struct Counter {
  std::uint64_t count = 0;
  double value = 0.0;

  void add(double v = 0.0) noexcept {
    if constexpr (kEnabled) {
      ++count;
      value += v;
    }
  }
  void reset() noexcept {
    count = 0;
    value = 0.0;
  }
};

/// One completed (or still-open) span on a rank's timeline, in virtual time.
struct SpanRec {
  std::string name;
  int rank;
  sim::Time begin;
  sim::Time end;
  bool open;         ///< true while span_end has not been called
  std::string args;  ///< optional pre-rendered JSON object ("{...}") or empty
};

class Registry {
 public:
  static constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

  explicit Registry(sim::Engine& eng) : eng_(&eng) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // ---- counters ----

  /// Stable reference to the (metric, id) cell; @p id is a rank or node
  /// index by the taxonomy above. Callers on hot paths cache the reference.
  Counter& counter(const std::string& name, int id = 0);

  /// Sum of a metric across all ids (zero Counter if never touched).
  Counter total(const std::string& name) const;
  std::uint64_t count(const std::string& name) const {
    return total(name).count;
  }
  double value(const std::string& name) const { return total(name).value; }

  /// All metric names registered so far, sorted.
  std::vector<std::string> names() const;

  /// Zero every cell (registered cells stay valid — cached references
  /// survive a reset).
  void reset_counters();

  // ---- spans ----

  void set_trace_enabled(bool on) { trace_ = kEnabled && on; }
  bool trace_enabled() const { return trace_; }

  /// Open a span on @p rank's timeline at now(). Returns kNoSpan (and
  /// records nothing) while tracing is disabled. @p args, when non-empty,
  /// must be a rendered JSON object; the Chrome exporter emits it verbatim
  /// as the event's "args" so per-call attributes (collective signatures)
  /// survive into the trace.
  std::size_t span_begin(int rank, const char* name);
  std::size_t span_begin(int rank, std::string name, std::string args = {});
  /// Close a span at now(). Passing kNoSpan is a no-op.
  void span_end(std::size_t id);

  const std::vector<SpanRec>& spans() const { return spans_; }
  void clear_spans() { spans_.clear(); }

  // ---- exporters ----

  /// {"enabled":..., "counters": {name: {count, value, per_id}}} — always
  /// valid JSON, deterministic key order.
  std::string counters_json() const;

  /// Chrome trace-event JSON ("traceEvents" array of complete "X" events,
  /// ts/dur in microseconds). Each rank is one named thread; spans that
  /// overlap without nesting (pipelined allreduce phases) are moved to
  /// auxiliary lanes so the file loads cleanly in chrome://tracing and
  /// Perfetto. Open spans are clamped to now() and tagged "open".
  std::string chrome_trace_json() const;

 private:
  sim::Engine* eng_;
  bool trace_ = false;
  // std::map: node-stable addresses (cached Counter&) + deterministic export.
  std::map<std::string, std::map<int, Counter>> counters_;
  Counter dummy_;  // sink for the disabled build
  std::vector<SpanRec> spans_;
};

/// RAII span: opens on construction, closes when the owning coroutine frame
/// (or scope) is destroyed. Safe across co_await suspension points.
class Span {
 public:
  Span(Registry& r, int rank, const char* name)
      : r_(&r), id_(r.span_begin(rank, name)) {}
  Span(Registry& r, int rank, std::string name, std::string args = {})
      : r_(&r), id_(r.span_begin(rank, std::move(name), std::move(args))) {}
  Span(Span&& o) noexcept
      : r_(std::exchange(o.r_, nullptr)),
        id_(std::exchange(o.id_, Registry::kNoSpan)) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span& operator=(Span&&) = delete;
  ~Span() {
    if (r_ != nullptr) r_->span_end(id_);
  }

 private:
  Registry* r_;
  std::size_t id_;
};

}  // namespace srm::obs
