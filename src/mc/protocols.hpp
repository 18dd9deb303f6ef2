// srm::mc — IR models of the SRM collectives (eight staged protocols, the
// four single-copy cross-mapped variants, the three algorithm-zoo
// bandwidth protocols, and the root-free reduce_scatter and allgather, the
// latter also in its mapped socket-leader form).
//
// build() emits the synchronization skeleton that src/core actually executes
// (smp.cpp / bcast.cpp / reduce.cpp / barrier.cpp / gather_scatter.cpp /
// allreduce.cpp / zoo.cpp / reduce_scatter.cpp), specialized to a small
// configuration: READY flag pairs, published/consumed counters, LAPI credit
// counters, and one "nic<n>" thread per node with inbound deposits — puts
// land in the target's dispatcher asynchronously, so their buffer writes
// and counter bumps belong to that thread, ordered per link by the channel
// FIFO.
//
// Modeling conventions (kept deliberately structural):
//   * rank threads are named "r<node>.<local>"; leaders are local 0 (and the
//     root collectives are rooted at rank 0);
//   * persistent sequence counters (smp_bc_seq, smp_red_base, ga_seq,
//     bc_sent/bc_recv) start at zero — one collective call per program, which
//     is what the per-op fresh prefix also gives the compositions;
//   * private user buffers never appear (no cross-thread access, nothing to
//     check); shared staging/landing/slot buffers all do;
//   * an origin counter ("put has left the adapter") is modeled as the
//     origin node's nic re-reading the source buffer and bumping the
//     counter, which is exactly the reuse hazard the counter guards;
//   * a shm::Mapping window is a shared buffer plus a publish generation
//     flag and a detach counter: the owner writes the buffer and releases
//     the flag (publish), peers acquire it, read, and bump the counter
//     (attach/copy/detach), and the owner's trailing write after awaiting
//     the counter models the buffer reuse that retract() makes legal.
#pragma once

#include <string>
#include <vector>

#include "mc/ir.hpp"

namespace srm::mc {

/// A model configuration: nodes x tasks-per-node, pipeline depth in chunks,
/// and sockets per node (the tasks split into equal consecutive groups, so
/// the Fig. 3 publish models a far group per socket beyond the leader's).
/// `slots` is the root-free reduce_scatter's landing slots per source
/// socket; 0 is the runtime's count at two nodes, the pair.
struct Shape {
  int nodes = 1;
  int tasks = 2;
  int chunks = 1;
  int sockets = 1;
  int slots = 0;
  std::string to_string() const;  // "2x4c2", "1x4c1s2", "2x4c4k7"
};

enum class Proto : std::uint8_t {
  barrier,
  bcast,
  reduce,
  allreduce,
  scatter,
  gather,
  allgather,
  reduce_scatter,
  // Single-copy cross-mapped variants (core/single_copy.cpp): user buffers
  // exported as shm::Mapping windows, peers copy/combine straight across.
  sc_bcast,
  sc_reduce,
  sc_scatter,
  sc_gather,
  // Algorithm-zoo variants (core/zoo.cpp): bandwidth algorithms the
  // decision table picks for large payloads. At two nodes the ring and
  // recursive-halving allreduces coincide structurally (one exchange round
  // each way), but each pins its own guard set in the gauntlet.
  ring_allreduce,
  rh_allreduce,
  sa_bcast,
  // Root-free reduce_scatter (core/reduce_scatter.cpp): per-socket domain
  // pipelines delivering every node's segment straight to its owners.
  rs_direct,
  // Root-free allgather (core/gather_scatter.cpp): node assembly at each
  // leader, the leader ring, and the Fig. 3 publish of every node block.
  ag_direct,
  // Its mapped form (allgather_sockets): every local of a socket writes its
  // share of the node's segment into its head's window, the head runs its
  // socket's ring once all shares are counted, and its readers copy each
  // flagged segment out of that window.
  sc_allgather,
  // The root-free reduce_scatter's share form (a mapped flat row): every
  // local of a socket reduces its share of each step out of its mates'
  // send windows into its head's slot and counts it per slot; the head
  // publishes and puts once the slot's count is full.
  sc_reduce_scatter,
};
inline constexpr int kProtoCount = 19;
const char* proto_name(Proto p);
/// All nineteen, in a stable order.
const std::vector<Proto>& all_protos();

/// Build the synchronization skeleton of @p p on @p shape (nodes must be 1
/// or 2; tasks >= 1; chunks >= 1).
Program build(Proto p, const Shape& shape);

/// One seeded protocol bug: a named mutation the checker must flag.
struct Mutant {
  std::string name;   ///< "bcast.drop_credit_wait"
  Proto proto{};
  Shape shape;
  Program program;    ///< the broken protocol
  bool expect_race = false;      ///< at least one of these...
  bool expect_deadlock = false;  ///< ...must be set and found
};

/// The mutation gauntlet: dropped flag clears, reordered counter bumps,
/// skipped credit waits — every classic way to break the paper's handshakes.
/// Each entry must yield a counterexample under check().
std::vector<Mutant> mutation_gauntlet();

}  // namespace srm::mc
