// srm::mc — a declarative protocol IR for the SRM synchronization skeletons.
//
// The paper's collectives synchronize through a handful of primitives: READY
// flags per consumer per buffer slot (Fig. 3), monotonic published/consumed
// counters for the reduce chunk slots (Fig. 2), LAPI counters with
// Waitcntr's wait-then-subtract semantics (§2.3), and one-sided puts whose
// deposits run in the target's dispatcher. A Program captures exactly that
// skeleton as a small explicit transition system:
//
//   * threads  — one per simulated rank, plus one "nic" thread per node for
//     dispatcher-executed deposits (puts land asynchronously w.r.t. the
//     origin's later operations);
//   * vars     — flags and counters with set / add / await(==,!=,>=) /
//     wait_dec (LAPI_Waitcntr: block until >= v, then subtract v);
//   * bufs     — shared byte ranges; read/write record accesses for the
//     happens-before race check but never block or branch;
//   * chans    — FIFO message channels (a put in flight, or a mini-MPI
//     message): send never blocks, recv blocks while empty, and the matched
//     pair is a happens-before edge.
//
// The model checker (mc.hpp) enumerates every inequivalent interleaving of a
// Program; the replay harness (replay.hpp) executes a schedule against the
// real shm::SharedFlag / chk::Checker machinery on sim::Engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace srm::mc {

enum class OpKind : std::uint8_t {
  set,       // vars[obj] = a
  add,       // vars[obj] += a
  await_eq,  // block until vars[obj] == a
  await_ne,  // block until vars[obj] != a
  await_ge,  // block until vars[obj] >= a
  wait_dec,  // block until vars[obj] >= a, then vars[obj] -= a
  write,     // write bytes [a, b) of bufs[obj]
  read,      // read bytes [a, b) of bufs[obj]
  send,      // append one message to chans[obj]
  recv,      // pop one message from chans[obj]; blocks while empty
};

/// True for ops that can suspend a thread (everything that has a guard).
bool blocking(OpKind k);
/// True for buffer accesses (never scheduling points; folded into the next
/// synchronization step of the same thread).
bool is_access(OpKind k);

struct Op {
  OpKind kind{};
  int obj = 0;               // var / buf / chan index, by kind
  std::uint64_t a = 0;       // value, threshold, or byte range lo
  std::uint64_t b = 0;       // byte range hi (accesses only)
  std::string label;         // human-readable, e.g. "ready0[2]:=1"
};

struct Thread {
  std::string name;
  std::vector<Op> ops;
  /// For an adapter thread: the thread whose puts it carries out, which
  /// reads that thread's buffers on its behalf (-1: none).
  int serves = -1;
};

/// A shm::Mapping window as the single-copy protocols model it: a shared
/// buffer plus its publish generation flag and detach counter, owned by the
/// exporting thread. The emitters register every window they lay down so
/// static analyses (src/sa) can check the publish/attach/detach/retract
/// discipline structurally instead of re-deriving it from object names.
struct Window {
  int buf = -1;
  int pub_var = -1;
  int done_var = -1;
  int owner = -1;  ///< thread id of the exporting task
};

/// A complete protocol instance. Build with the helpers below; every name is
/// interned once (re-declaring a var with a different initial value is an
/// error caught by validate()).
struct Program {
  std::string name;
  std::vector<std::string> var_names;
  std::vector<std::uint64_t> var_init;
  std::vector<std::string> buf_names;
  std::vector<std::string> chan_names;
  std::vector<Thread> threads;
  std::vector<Window> windows;

  int var(const std::string& n, std::uint64_t init = 0);
  int buf(const std::string& n);
  int chan(const std::string& n);
  int thread(const std::string& n);
  /// Find an existing thread by name (-1 when absent).
  int find_thread(const std::string& n) const;
  /// Register a shm::Mapping window (buffer + publish flag + detach counter
  /// + owning thread) for the introspection passes. validate() checks the
  /// indices.
  void window(int buf, int pub_var, int done_var, int owner_tid);
  /// Record that adapter thread @p adapter_tid carries out the puts of
  /// @p owner_tid (Thread::serves).
  void serves(int adapter_tid, int owner_tid);

  // --- op emitters (labels are generated from the object names) ------------
  void set(int tid, int var, std::uint64_t v);
  void add(int tid, int var, std::uint64_t delta = 1);
  void await_eq(int tid, int var, std::uint64_t v);
  void await_ne(int tid, int var, std::uint64_t v);
  void await_ge(int tid, int var, std::uint64_t v);
  void wait_dec(int tid, int var, std::uint64_t v = 1);
  void write(int tid, int buf, std::uint64_t lo, std::uint64_t hi);
  void read(int tid, int buf, std::uint64_t lo, std::uint64_t hi);
  void send(int tid, int chan);
  void recv(int tid, int chan);

  std::size_t total_ops() const;
  /// Throws util::CheckError on malformed programs (bad indices, empty
  /// threads are allowed but pointless).
  void validate() const;
  std::string to_string() const;

  // --- mutation helpers (the gauntlet) -------------------------------------
  /// Remove the first op of @p thread whose label contains @p needle.
  /// Throws when no op matches — a gauntlet mutant must actually mutate.
  void drop_op(const std::string& thread, const std::string& needle);
  /// Remove the last matching op instead (targets the slot-reuse instance
  /// of a repeated guard, whose first occurrences are trivially true).
  void drop_last_op(const std::string& thread, const std::string& needle);
  /// Swap the first op of @p thread whose label contains @p needle with its
  /// predecessor (e.g. move a counter bump before the slot write).
  void swap_with_prev(const std::string& thread, const std::string& needle);

 private:
  void push(int tid, Op op);
};

}  // namespace srm::mc
