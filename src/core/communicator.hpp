// srm::Communicator — the paper's contribution: collective operations built
// directly on shared memory (intra-node) and one-sided RMA (inter-node).
//
// Public operations (all blocking, MPI-style semantics):
//   bcast, reduce, allreduce, barrier — plus the extended set below. The
//   whole set is exposed through the shared coll::Collectives interface, so
//   benches and examples use a Communicator and a mini-MPI World
//   interchangeably.
//
// Descriptor dispatch: the public entry points live in coll::Collectives
// (validated coll::Buf descriptors); the v_* hooks here route each call to
// one of two planes —
//  * real Bufs run the full protocols below over real shared segments and
//    LAPI puts (first real op materializes the per-node state lazily);
//  * symbolic Bufs run the shared sym::Transport cost skeleton with an SRM
//    profile (the config's network chunk + LAPI-ish per-message overhead),
//    allocating no per-rank payload memory — that is what makes 4096x64
//    topologies routine.
//
// The first *real* operation allocates, per SMP node, the shared structures
// of §2.2/§2.4 that every operation relies on:
//  * the two broadcast buffers A/B with per-process READY flags (Fig. 3);
//  * per-process reduce chunk slots with published/consumed counters (the
//    pipelined form of Fig. 2);
//  * per-process barrier flags (one cache line each);
//  * and, for the node leader, the node-level LAPI structures: reduce output
//    slots and credits, recursive-doubling exchange slots, and barrier round
//    counters.
// Everything else waits for first use. A link record (arrival counters,
// free-buffer credits, address cells) appears when either end first uses
// the link, and its landing buffers when data first lands on it; the gather
// staging, mapped-reduce accumulator, fold and scratch buffers appear when
// an operation first needs them. So a node holds degree(master) landing
// pairs (§2.3) rather than one per peer, whatever the mix of roots, plus
// rs_slots landing slots per socket once a root-free reduce_scatter ran.
//
// Every operation embeds its communication tree with coll::embed (Fig. 1),
// so at most one task per node (the "leader": the root on the root's node,
// the master elsewhere) touches the network. The root-free reduce_scatter,
// and so the first phase of the root-free allreduce, is the exception:
// each socket's head puts, and the owners take the puts
// (core/reduce_scatter.cpp); so is the mapped root-free allgather, whose
// socket heads each run their own ring (allgather_sockets).
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "coll/buf.hpp"
#include "coll/decision.hpp"
#include "coll/iface.hpp"
#include "coll/ops.hpp"
#include "coll/symbolic.hpp"
#include "coll/tree.hpp"
#include "core/config.hpp"
#include "core/detail.hpp"
#include "lapi/lapi.hpp"
#include "machine/cluster.hpp"
#include "shm/flag.hpp"
#include "shm/mapping.hpp"
#include "sim/task.hpp"

namespace srm {

class Communicator final : public coll::Collectives {
 public:
  /// Cheap to construct at any scale: per-node shared state materializes on
  /// the first *real* operation (ensure_real_state), per-link state on the
  /// link's first use. @p name namespaces the shared segments so multiple
  /// communicators coexist.
  Communicator(machine::Cluster& cluster, lapi::Fabric& fabric,
               SrmConfig cfg = {}, std::string name = "srm0");

  std::string label() const override { return "srm"; }

  const SrmConfig& config() const noexcept { return cfg_; }
  const std::string& name() const noexcept { return name_; }

  /// The algorithm-selection table this communicator resolved at
  /// construction (explicit config table > SRM_DECISIONS env artifact >
  /// builtin profile table), verbatim.
  const coll::DecisionTable& decisions() const noexcept { return table_; }

  /// Resolved decision for (@p op, @p op_bytes) with the feasibility rule
  /// (SrmConfig::sanitize) applied. Deterministic in operation-level
  /// arguments, so every rank takes the same branch.
  coll::Decision decide(coll::CollKind op, std::size_t op_bytes) const;

 protected:
  // coll::Collectives hooks: descriptors are already validated; these only
  // pick the plane. Real descriptors run the paper protocols (real_*);
  // symbolic descriptors run sym::Transport with the SRM cost profile.
  sim::CoTask v_bcast(machine::TaskCtx& t, coll::Buf buf, int root) override;
  sim::CoTask v_reduce(machine::TaskCtx& t, coll::Buf send, coll::Buf recv,
                       coll::RedOp op, int root) override;
  sim::CoTask v_allreduce(machine::TaskCtx& t, coll::Buf send, coll::Buf recv,
                          coll::RedOp op) override;
  /// Barrier carries no payload, so the plane comes from history: real by
  /// default (the paper's fetch-and-op protocol), symbolic once a symbolic
  /// operation ran and no real op has materialized the shared state.
  /// Collective calling order makes that choice uniform across ranks.
  sim::CoTask v_barrier(machine::TaskCtx& t) override;
  sim::CoTask v_scatter(machine::TaskCtx& t, coll::Buf send, coll::Buf recv,
                        int root) override;
  sim::CoTask v_gather(machine::TaskCtx& t, coll::Buf send, coll::Buf recv,
                       int root) override;
  sim::CoTask v_allgather(machine::TaskCtx& t, coll::Buf send,
                          coll::Buf recv) override;
  sim::CoTask v_reduce_scatter(machine::TaskCtx& t, coll::Buf send,
                               coll::Buf recv, coll::RedOp op) override;

  /// Decision-table lookup for the obs span args: the sanitized algorithm
  /// name, with "+sc" appended when the call runs a mapped phase. Resolved
  /// by the same decide(t, ...) as dispatch, so the label follows it.
  std::string v_algo(const machine::TaskCtx& t,
                     const coll::CallSig& sig) const override;

 private:
  /// What one call of @p op runs: the op's own row at coll::row_key (the
  /// node block for scatter and gather, whose @p bytes is per rank), with
  /// `mapped` resolved to whether the call runs a mapped single-copy phase.
  /// Each op entry asks once, from operation-level arguments, for all its
  /// stages.
  coll::Decision decide(const machine::TaskCtx& t, coll::CollKind op,
                        std::size_t bytes) const;

  // ---- real plane (the paper's protocols, raw memory) ----
  //
  // Beyond the paper's four operations, scatter, gather, allgather, and
  // reduce_scatter complete the common set using the same two building
  // blocks: RMA puts straight into user buffers between node leaders, and
  // shared-memory slice distribution/assembly inside nodes.

  /// Broadcast @p bytes from @p root's @p buf into everyone's @p buf.
  sim::CoTask real_bcast(machine::TaskCtx& t, void* buf, std::size_t bytes,
                         int root);
  /// Reduce element-wise with @p op; the result lands in @p recv at @p root
  /// (ignored elsewhere). @p send and @p recv must not alias.
  sim::CoTask real_reduce(machine::TaskCtx& t, const void* send, void* recv,
                          std::size_t count, coll::Dtype d, coll::RedOp op,
                          int root);
  sim::CoTask real_allreduce(machine::TaskCtx& t, const void* send,
                             void* recv, std::size_t count, coll::Dtype d,
                             coll::RedOp op);
  /// Synchronize all tasks (§2.2/§2.4 barrier).
  sim::CoTask real_barrier(machine::TaskCtx& t);
  /// Scatter one @p bytes_per block per rank from @p send at @p root into
  /// everyone's @p recv. The root leader puts each node's block into that
  /// node's landing buffers; local tasks copy out their slice.
  sim::CoTask real_scatter(machine::TaskCtx& t, const void* send, void* recv,
                           std::size_t bytes_per, int root);
  /// Gather @p bytes_per per rank into @p recv at @p root (rank order).
  /// The root announces its receive buffer; node leaders assemble their
  /// node block in shared staging and put it straight into place.
  sim::CoTask real_gather(machine::TaskCtx& t, const void* send, void* recv,
                          std::size_t bytes_per, int root);
  /// Allgather: every rank ends with all blocks. A direct row runs the
  /// root-free protocol (allgather_direct), a staged one a gather to rank 0
  /// and a broadcast.
  sim::CoTask real_allgather(machine::TaskCtx& t, const void* send,
                             void* recv, std::size_t bytes_per);
  /// Reduce-scatter with equal blocks of @p count_per_rank elements: the
  /// root-free protocol on a `direct` row (reduce_scatter_direct), else an
  /// element-wise reduce to rank 0 followed by a scatter of the blocks.
  sim::CoTask real_reduce_scatter(machine::TaskCtx& t, const void* send,
                                  void* recv, std::size_t count_per_rank,
                                  coll::Dtype d, coll::RedOp op);
  /// The rank blocks of a root-free reduce_scatter or allgather: rank r
  /// owns elements [lo(r), lo(r + 1)) of a vector of @p total, the
  /// floor-balanced split. The blocks are equal when the ranks divide the
  /// vector, and some are empty when it is shorter than one element per
  /// rank. A node's blocks are contiguous: its segment.
  struct Blocks {
    std::size_t total = 0;
    int nranks = 1;
    std::size_t lo(int r) const {
      return total * static_cast<std::size_t>(r) /
             static_cast<std::size_t>(nranks);
    }
  };
  /// Root-free reduce-scatter (core/reduce_scatter.cpp): every socket of a
  /// node reduces every node's segment over its own locals (the row's
  /// intra-node tree, the row's step; on a mapped flat row every local
  /// reduces its share of each step out of its mates' windows), its head
  /// delivers each step straight to the node that owns the segment, and
  /// each rank combines the partials of its own block of @p blk into
  /// @p recv. @p send holds the whole vector. Every segment runs the same
  /// step count. Aligned, a step carries whole blocks, as many as fit the
  /// row's step (or equal parts of one longer block); fixed, it is the
  /// row's step with a shorter tail. With @p even the layout is aligned.
  /// Otherwise the call runs the fixed layout's step count, aligned where
  /// whole blocks spread evenly over it fill no step past one reduce slot
  /// (or every block splits into that many equal parts), else fixed.
  sim::CoTask reduce_scatter_direct(machine::TaskCtx& t, const void* send,
                                    void* recv, const Blocks& blk, bool even,
                                    coll::Dtype d, coll::RedOp op,
                                    const coll::Decision& dec);
  /// Root-free allgather (core/gather_scatter.cpp) of the blocks of @p blk,
  /// elements of @p esize bytes: @p send is this rank's block. Each node
  /// leader assembles its node's segment in its own @p recv (gather_node),
  /// the leaders circulate the segments around the node ring (Ring), and
  /// every segment is published locally through Fig. 3 as it lands. With
  /// @p mapped it runs allgather_sockets instead. @p send may be this
  /// rank's block of @p recv.
  sim::CoTask allgather_direct(machine::TaskCtx& t, const void* send,
                               void* recv, const Blocks& blk,
                               std::size_t esize, bool mapped);
  /// The mapped root-free allgather: every socket of a node is a publish
  /// domain (detail::Domains) whose head exports its own @p recv as one
  /// window for the call. Every local of the domain writes its block and
  /// its share of the other domains' blocks (pulled from their windows)
  /// into that window in parallel and counts it (NodeState::ag_flags);
  /// the head then runs a ring with the same socket's heads on every node,
  /// and its socket's locals copy each segment straight out of its window
  /// once the head flagged it (NodeState::ag_flags). No landed segment
  /// crosses a socket inside a node or is restaged.
  sim::CoTask allgather_sockets(machine::TaskCtx& t, const void* send,
                                void* recv, const Blocks& blk,
                                std::size_t esize);
  /// Gather stage 1 (core/gather_scatter.cpp): assemble the node block at
  /// local @p leader_local, local l's @p send block at bytes
  /// [off[l], off[l + 1]) of it. With @p to < 0 the leader copies it into
  /// its own @p dst, pulling each block from the local's exported window
  /// when @p mapped, else through the ga_stage pair; otherwise it puts the
  /// staged chunks to rank @p to's @p dst. Every local of the node calls
  /// it.
  sim::CoTask gather_node(machine::TaskCtx& t, const void* send,
                          std::byte* dst, const std::vector<std::size_t>& off,
                          int leader_local, bool mapped, int to);

  /// Build the per-node shared structures and per-rank SMP bookkeeping on
  /// the first real operation. Symbolic-only runs never pay this. Each node
  /// state is O(tasks per node + log nodes); per-link state waits for the
  /// links that are actually used (NodeState::link).
  void ensure_real_state();
  // ---- per-node shared state (lives in the node's shm segment) ----
  struct NodeState {
    NodeState(sim::Engine& eng, const machine::MemoryParams& mp,
              const machine::Topology& topo, const SrmConfig& cfg,
              shm::Segment& seg, const std::string& prefix);

    using Pair = std::array<std::span<std::byte>, 2>;  // [slot]
    int nlocal;

    // SMP broadcast (Fig. 3): two buffers + one READY flag per process each.
    Pair bc_buf;
    std::array<std::unique_ptr<shm::FlagArray>, 2> bc_ready;
    // Socket-aware publish (smp_bcast_chunk): per socket whose readers
    // split a chunk led from another socket, a staging pair on that socket
    // and per slot the monotonic count of slices copied into it.
    struct FarPair {
      Pair buf;
      std::array<std::unique_ptr<shm::SharedFlag>, 2> filled;  // [slot]
    };
    /// The far pair of @p socket, allocated on its first split chunk.
    FarPair& bc_far(int socket);

    // SMP reduce pipeline: per local task, two chunk slots plus monotonic
    // publish counters. Consumption counters are per (local, slot): when the
    // node leadership changes across operations (the root moves), chunks in
    // *different* slots are consumed by *different* leaders that are not
    // mutually ordered, so only a per-slot count tells a writer that the
    // previous occupant of its slot is really gone.
    std::array<std::vector<std::span<std::byte>>, 2> red_slot;  // [slot][local]
    std::unique_ptr<shm::FlagArray> red_published;
    std::array<std::unique_ptr<shm::FlagArray>, 2> red_consumed;  // [slot]

    // SMP barrier: one flag per process (own cache line), reset by master.
    std::unique_ptr<shm::FlagArray> bar_flag;

    // ---- leader-side network state ----
    //
    // All inter-node state is per *link*: with arbitrary roots, consecutive
    // operations can have different trees, and two different peers'
    // traffic must never alias one buffer or counter — operations at
    // different tree positions are not mutually ordered. A link record
    // exists only once either end has used the link, and each landing pair
    // only once an operation lands data on the link in that role. A node
    // therefore holds degree(master) landing pairs for whatever mix of
    // roots actually ran: the paper's §2.3 buffer-consumption argument,
    // extended to arbitrary roots. A Pair whose spans are empty is not
    // allocated yet.
    struct Link {
      Link(sim::Engine& eng, const std::string& prefix, int peer);

      // Small-protocol broadcast and scatter. Peer as parent (or scatter
      // root): two landing buffers + arrival counters. Peer as child: the
      // free credits for our puts into its pair (start at 1: "buffer free").
      Pair bc_land;
      std::array<std::unique_ptr<lapi::Counter>, 2> bc_arrived;
      std::array<std::unique_ptr<lapi::Counter>, 2> bc_free;

      // Large-protocol broadcast: the child's announced user buffer +
      // counter, and the parent's chunk-arrival counter (data goes
      // straight to the user buffer).
      void* bc_addr = nullptr;
      std::unique_ptr<lapi::Counter> bc_addr_arrived;
      std::unique_ptr<lapi::Counter> bc_large_arrived;

      // Reduce pipeline, peer as child: two landing slots + arrival counter.
      Pair red_land;
      std::unique_ptr<lapi::Counter> red_arrived;

      // Gather: per root task on the peer node, the receive address it
      // announced and the announcement's arrival counter (first use), and
      // the root-side arrival counter for the peer's chunks. Roots on one
      // node are not ordered with each other: a later gather's root can
      // announce before an earlier one's, so each has its own cell.
      struct GaCell {
        void* addr = nullptr;
        std::unique_ptr<lapi::Counter> arr;
      };
      std::unordered_map<int, GaCell> ga_cells;  // keyed by root local
      std::unique_ptr<lapi::Counter> ga_done;

      // Algorithm zoo (core/zoo.cpp): the peer's announced user-buffer
      // address (direct puts land straight in user memory, so receivers
      // advertise where), a direct-put arrival counter, and two
      // reduce_chunk-sized landing slots with arrival + credit counters for
      // streamed combine traffic.
      void* zoo_addr = nullptr;
      std::unique_ptr<lapi::Counter> zoo_addr_arr;
      std::unique_ptr<lapi::Counter> zoo_got;
      Pair zoo_land;
      std::unique_ptr<lapi::Counter> zoo_arr;
      std::unique_ptr<lapi::Counter> zoo_free;  // starts at 2

      // Socket rings (allgather_sockets), per domain: what zoo_addr,
      // zoo_addr_arr and zoo_got are to the node ring.
      struct RingCells {
        void* addr = nullptr;
        std::unique_ptr<lapi::Counter> addr_arr;
        std::unique_ptr<lapi::Counter> got;
      };
      std::unordered_map<int, RingCells> sock_ring;  // keyed by domain
    };

    /// The record for the link to @p peer, created on first use by either
    /// end.
    Link& link(int peer);
    /// Landing pairs on the link from @p peer, allocated by the first
    /// operation that lands data there: small bcast/scatter, reduce, zoo.
    Pair& bc_land(int peer);
    Pair& red_land(int peer);
    Pair& zoo_land(int peer);
    /// The gather address cell of root local @p root_local on @p peer.
    Link::GaCell& ga_cell(int peer, int root_local);
    /// The socket ring cells of domain @p dom on the link to @p peer.
    Link::RingCells& sock_ring(int peer, int dom);

    // Reduce pipeline: one credit counter for sending to our own parent
    // (starts at 2); two node-result slots guarded by the put origin
    // counter.
    std::unique_ptr<lapi::Counter> red_free;
    Pair red_out;
    std::unique_ptr<lapi::Counter> red_out_org;

    // Allreduce recursive doubling: per round, two parity slots + arrival
    // counter; plus the non-power-of-two fold slots (first use).
    std::vector<Pair> ar_buf;  // [round][parity]
    std::vector<std::unique_ptr<lapi::Counter>> ar_arrived;
    Pair& ar_fold_in();
    Pair& ar_fold_out();
    std::unique_ptr<lapi::Counter> ar_fold_in_arr;
    std::unique_ptr<lapi::Counter> ar_fold_out_arr;

    // Barrier: one counter per recursive-doubling round, plus fold counters.
    std::vector<std::unique_ptr<lapi::Counter>> bar_round;
    std::unique_ptr<lapi::Counter> bar_fold_in;
    std::unique_ptr<lapi::Counter> bar_fold_out;

    // Gather: two shared staging buffers for node-block assembly (first
    // use), with per-slot monotonic filled/freed counters.
    Pair& ga_stage();
    std::array<std::unique_ptr<shm::SharedFlag>, 2> ga_filled;
    std::array<std::unique_ptr<shm::SharedFlag>, 2> ga_freed;

    // Origin counter for every zoo put this node's leader issues. Ops are
    // globally serialized and each drains it to zero before finishing, so
    // leader changes across operations cannot alias in-flight counts.
    std::unique_ptr<lapi::Counter> zoo_org;
    /// Recursive-halving receive scratch of at least @p bytes, grown to the
    /// largest size seen on this node: the master's private put target,
    /// whose address peers learn only from its announcements.
    std::byte* rh_scratch(std::size_t bytes);

    // ---- single-copy cross-mapping state (core/single_copy.cpp) ----
    //
    // One window slot per local task: the mapped protocols export user
    // buffers through it instead of staging through bc_buf/red_slot.
    shm::Mapping* map = nullptr;  // owned by the segment
    /// Mapped-reduce accumulator slot pair of local task @p l (first use):
    /// interior vertices of the topology tree combine their subtree into it
    /// (leaves contribute straight from their exported send windows and
    /// need no slot). Guarded by monotonic published/consumed counters
    /// exactly like red_slot/red_published/red_consumed.
    Pair& sc_acc(int l);
    std::unique_ptr<shm::FlagArray> sc_pub;
    std::array<std::unique_ptr<shm::FlagArray>, 2> sc_cons;  // [slot]

    // ---- root-free reduce_scatter (core/reduce_scatter.cpp) ----
    //
    // Per reduction domain (socket) of the sending nodes: the rs_slots
    // landing slots the domain heads of other nodes land this node's
    // segment in, one round's source at a time, with per slot the chunks
    // landed and the owner reads of landed chunks; per A/B slot of its
    // head's red_slot the owner reads of this node's own chunks and, in
    // the share form, the shares its locals wrote; and per landing slot
    // and receiving local the LAPI arrival counter its puts bump.
    struct RsDomain {
      std::vector<std::span<std::byte>> land;
      std::vector<std::unique_ptr<shm::SharedFlag>> landed;
      std::vector<std::unique_ptr<shm::SharedFlag>> read;
      std::vector<std::vector<std::unique_ptr<lapi::Counter>>> arrived;
      std::array<std::unique_ptr<shm::SharedFlag>, 2> own_read;
      std::array<std::unique_ptr<shm::SharedFlag>, 2> shares;
    };
    /// The state of domain @p dom, allocated on its first use.
    RsDomain& rs_dom(int dom);
    /// The credits of domain @p dom's head for its puts into slot @p slot
    /// of node @p dest's landing slots (first use): granted and returned
    /// by @p dest only.
    lapi::Counter& rs_credit(int dom, int dest, std::size_t slot);
    /// Landing slots per source domain: detail::rs_slots(nodes).
    int rs_slots;

    // ---- mapped root-free allgather (allgather_sockets) ----
    /// Per domain, monotonic: the node segments its head has flagged ready
    /// in its window, and the locals that have written their share of the
    /// node's segment into that window.
    struct AgFlags {
      std::unique_ptr<shm::SharedFlag> ready;
      std::unique_ptr<shm::SharedFlag> assembled;
    };
    /// Domain @p dom's flags (first use).
    AgFlags& ag_flags(int dom);

   private:
    /// Allocate @p p as the segment buffers "<stem>0" and "<stem>1" of
    /// @p bytes each, unless it already is.
    Pair& alloc(Pair& p, const std::string& stem, std::size_t bytes);

    sim::Engine* eng_;
    const machine::MemoryParams* mp_;
    shm::Segment* seg_;
    std::string prefix_;
    std::size_t smp_buf_bytes_;
    std::size_t reduce_chunk_;
    std::unordered_map<int, Link> links_;  // keyed by peer node
    std::unordered_map<int, FarPair> bc_far_;  // keyed by socket
    Pair ar_fold_in_;
    Pair ar_fold_out_;
    Pair ga_stage_;
    std::vector<Pair> sc_acc_;  // [local]
    std::unordered_map<int, RsDomain> rs_dom_;  // keyed by domain
    // Keyed by (domain, dest node, slot).
    std::map<std::tuple<int, int, std::size_t>, std::unique_ptr<lapi::Counter>>
        rs_credit_;
    std::unordered_map<int, AgFlags> ag_;  // keyed by domain
  };

  // ---- per-rank protocol sequence numbers ----
  //
  // Buffer-slot parity must agree between the two sides of every handshake
  // across operations whose trees (and hence leaders) differ. Each rank
  // therefore tracks, privately and deterministically (every task sees every
  // collective with identical arguments), the cumulative chunk counts that
  // define each slot cycle.
  struct RankState {
    std::uint64_t smp_bc_seq = 0;   // SMP bcast chunks processed (A/B parity)
    // Per A/B slot, the slices copied into this rank's socket's far pair
    // over every split chunk so far (the target of its filled counter).
    std::array<std::uint64_t, 2> far_target{};
    std::uint64_t op_seq = 0;       // collective ops issued (RD slot parity)
    // Cumulative chunks my node sent to / received from one peer node
    // (that link's landing-slot parity), one pair per protocol. Advanced
    // identically on every rank of the node — leadership can change
    // between operations.
    struct LinkSeq {
      std::uint64_t bc_sent = 0;  // small-protocol bcast + scatter
      std::uint64_t bc_recv = 0;
      std::uint64_t red_sent = 0;  // reduce pipeline
      std::uint64_t red_recvd = 0;
      std::uint64_t zoo_sent = 0;  // streamed zoo chunks (zoo_land)
      std::uint64_t zoo_recvd = 0;
    };
    std::unordered_map<int, LinkSeq> links;  // keyed by peer node
    // Cumulative gather staging chunks on this rank's node (slot parity).
    std::uint64_t ga_seq = 0;
    // Cumulative SMP-reduce chunks each local task has published (slot
    // parity + published/consumed counter baselines).
    std::vector<std::uint64_t> smp_red_base;
    // Expected window generation per local task's Mapping slot: bumped in
    // lockstep by every rank of the node whenever a mapped protocol makes
    // local task l export a window — the attach side passes map_gen[l]+1.
    std::vector<std::uint64_t> map_gen;
    // Cumulative mapped-reduce chunks each local accumulated into its
    // sc_acc slots (parity + published/consumed baselines, the mapped twin
    // of smp_red_base).
    std::vector<std::uint64_t> sc_base;
    // Root-free reduce_scatter, per reduction domain: the chunks landed in
    // this node's landing slots of that domain (the slot of chunk c is
    // c % rs_slots; every node's slots take the same count per call), per
    // landing slot the owner reads its landed chunks have been due so far,
    // and per A/B slot of its head's red_slot the owner reads and the
    // share-form shares its chunks have been due.
    struct RsSeq {
      std::uint64_t landed = 0;
      std::array<std::uint64_t, detail::kRsSlotsMax> reads{};
      std::array<std::uint64_t, 2> own_reads{};
      std::array<std::uint64_t, 2> shares{};
    };
    std::vector<RsSeq> rs_seq;
    // Mapped root-free allgather, per domain: the segments its head has
    // flagged so far and the assembly shares its other locals have
    // counted (the baselines of NodeState::ag_flags).
    struct AgSeq {
      std::uint64_t ready = 0;
      std::uint64_t assembled = 0;
    };
    std::vector<AgSeq> ag_seq;
  };

  NodeState& node_state(const machine::TaskCtx& t) {
    return *nodes_[static_cast<std::size_t>(t.node())];
  }
  RankState& rank_state(const machine::TaskCtx& t) {
    return ranks_[static_cast<std::size_t>(t.rank)];
  }
  lapi::Endpoint& ep(int rank) { return fabric_->ep(rank); }

  // ---- SMP primitives (core/smp.cpp) ----

  /// Flat two-buffer SMP broadcast of one chunk (Fig. 3). Fill mode
  /// (@p shared_src == nullptr): the leader copies @p src into the next
  /// shared buffer and every other task copies out to its own @p dst.
  /// Shared mode (@p shared_src set): the data already sits in shared memory
  /// (a LAPI put landed it there) and *everyone* — leader included — copies
  /// straight out of @p shared_src, with no staging copy. Advances the A/B
  /// READY-flag parity either way. Socket-aware: where TopologyParams make
  /// it cheaper for its slowest reader, the k readers of a socket other
  /// than the leader's each copy one slice of the chunk across the socket
  /// into that socket's far pair (NodeState::bc_far), await every slice,
  /// and copy the whole chunk out from there. A flat crossbar (every
  /// factor 1.0, ibm_sp) never splits.
  sim::CoTask smp_bcast_chunk(machine::TaskCtx& t, int leader_local,
                              const void* src, void* dst, std::size_t len,
                              const std::byte* shared_src);

  /// Publish @p bytes of the leader's @p src to every local task's @p dst
  /// through the staged Fig. 3 buffers, in equal steps of at most
  /// smp_buf_bytes. Only the leader reads @p src.
  sim::CoTask smp_publish_staged(machine::TaskCtx& t, int leader_local,
                                 const void* src, void* dst,
                                 std::size_t bytes);

  /// Tree-structured SMP broadcast chunk (ablation, §2.2: the paper found
  /// the flat variant faster despite read contention).
  sim::CoTask smp_bcast_chunk_tree(machine::TaskCtx& t, int leader_local,
                                   const void* src, void* dst,
                                   std::size_t len);

  /// Non-leader side of the pipelined SMP reduce (Fig. 2, chunked in
  /// @p chunk_elems elements): leaves copy their chunks into their shared
  /// slots, interior tasks combine their own data with their children's
  /// slots into their own slot. @p tree is the intranode tree over local
  /// ranks.
  sim::CoTask smp_reduce_participant(machine::TaskCtx& t,
                                     const coll::Tree& tree, const void* send,
                                     std::size_t count,
                                     std::size_t chunk_elems, coll::Dtype d,
                                     coll::RedOp op);
  /// One chunk of smp_reduce_participant: op-local chunk @p c, @p elems
  /// elements of the caller's own data at @p mine, combined with its
  /// children's slots in @p tree into its own slot and published.
  sim::CoTask smp_reduce_step(machine::TaskCtx& t, const coll::Tree& tree,
                              const std::byte* mine, std::size_t c,
                              std::size_t elems, coll::Dtype d,
                              coll::RedOp op);

  /// Leader side of one SMP-reduce chunk: waits for the leader's children in
  /// @p tree and combines its own data with theirs straight into @p dst
  /// (no staging copy). @p c is the op-local chunk index.
  sim::CoTask smp_reduce_chunk_leader(machine::TaskCtx& t,
                                      const coll::Tree& tree,
                                      const void* send, void* dst,
                                      std::size_t c, std::size_t elem_off,
                                      std::size_t elems, coll::Dtype d,
                                      coll::RedOp op);

  /// Bookkeeping every rank runs after a reduce-like op: advance the
  /// published-count baselines and the inter-node landing parities.
  void finish_reduce_bookkeeping(machine::TaskCtx& t,
                                 const coll::Embedding& emb,
                                 std::size_t nchunks);

  /// One sliced SMP distribution chunk (scatter / root-node publishes):
  /// the leader makes [chunk_off, chunk_off+len) of the node block available
  /// (copying @p fill_src into the shared buffer unless @p shared_src
  /// already holds it), and every task copies the intersection with its own
  /// slice [my_lo, my_hi) to @p my_dst (which points at my_lo's data).
  sim::CoTask smp_slice_chunk(machine::TaskCtx& t, int leader_local,
                              const std::byte* fill_src,
                              const std::byte* shared_src,
                              std::size_t chunk_off, std::size_t len,
                              std::size_t my_lo, std::size_t my_hi,
                              std::byte* my_dst);

  // ---- single-copy cross-mapped SMP primitives (core/single_copy.cpp) ----

  /// Mapped SMP broadcast: the leader exports [src, src+len) and the
  /// topology tree (coll::topo_tree) cascades direct copies — each vertex
  /// attaches to its parent's window, pulls into its own @p dst at the
  /// cache-distance-scaled cost, and re-exports dst for its children. N-1
  /// copies of len where the staged Fig. 3 path makes N, and no
  /// smp_buf_bytes cap. Pass src == nullptr on non-leader ranks.
  sim::CoTask smp_bcast_mapped(machine::TaskCtx& t, int leader_local,
                               const void* src, void* dst, std::size_t len);

  /// Non-leader side of the mapped SMP reduce over @p tree (a topology
  /// tree): leaves export their send buffers once and do no per-chunk work;
  /// interior vertices combine their own data, their leaf children's
  /// windows, and their interior children's sc_acc slots into their own
  /// sc_acc slot, chunk by chunk (@p chunk_elems elements). Zero copies —
  /// only combines.
  sim::CoTask smp_reduce_participant_mapped(machine::TaskCtx& t,
                                            const coll::Tree& tree,
                                            const void* send,
                                            std::size_t count,
                                            std::size_t chunk_elems,
                                            coll::Dtype d, coll::RedOp op);

  /// Leader side of one mapped-reduce chunk: combine own data + children
  /// (leaf windows from @p wins, interior sc_acc slots) straight into
  /// @p dst. @p wins is indexed by child local rank (attach_leaf_windows).
  sim::CoTask smp_reduce_chunk_leader_mapped(
      machine::TaskCtx& t, const coll::Tree& tree, const void* send,
      void* dst, std::size_t c, std::size_t elem_off, std::size_t elems,
      coll::Dtype d, coll::RedOp op,
      const std::vector<shm::Mapping::Window>& wins);

  /// Attach (once per operation, before the chunk loop) the windows of the
  /// caller's leaf children in @p tree; @p wins is resized to nlocal and
  /// filled at the children's local ranks. detach_leaf_windows releases
  /// them after the last chunk.
  sim::CoTask attach_leaf_windows(machine::TaskCtx& t, const coll::Tree& tree,
                                  std::vector<shm::Mapping::Window>& wins);
  void detach_leaf_windows(machine::TaskCtx& t, const coll::Tree& tree);

  /// Mapped twin of finish_reduce_bookkeeping: advance window generations
  /// (leaf vertices), accumulator baselines (interior non-leader vertices),
  /// and the inter-node landing parities.
  void finish_reduce_bookkeeping_mapped(machine::TaskCtx& t,
                                        const coll::Embedding& emb,
                                        const coll::Tree& tree,
                                        std::size_t nchunks);

  /// SMP barrier (§2.2): flat flags, master gathers then resets.
  sim::CoTask smp_barrier(machine::TaskCtx& t);
  /// First half only: master returns once all locals checked in.
  sim::CoTask smp_barrier_enter(machine::TaskCtx& t);
  /// Second half: master resets the flags, releasing the locals.
  void smp_barrier_release(machine::TaskCtx& t);

  // ---- protocol stages ----
  //
  // No stage reads the table: each runs the Decision its op's entry
  // resolved. Allreduce has no root, so its algorithms embed with the
  // masters leading (root 0).
  /// Staged broadcast (Fig. 4 left) in steps of @p chunk bytes
  /// (coll::bcast_step; 0: the whole message in one step), each landing in
  /// a child's shared-memory pair and published from there.
  sim::CoTask bcast_small(machine::TaskCtx& t, void* buf, std::size_t bytes,
                          const coll::Embedding& emb, bool mapped,
                          std::size_t chunk);
  /// Large-message broadcast (Fig. 4 right): address exchange, then chunks
  /// put directly into user buffers, pipelined down the tree, each chunk
  /// published locally through the Fig. 3 buffers (or, when @p mapped, one
  /// window per chunk). When @p src_gate is set (pipelined allreduce), the
  /// root leader consumes one count per chunk before sending it — the
  /// reduce->broadcast coupling of Fig. 5.
  sim::CoTask bcast_large(machine::TaskCtx& t, void* buf, std::size_t bytes,
                          const coll::Embedding& emb, std::size_t chunk,
                          lapi::Counter* src_gate, bool mapped);
  sim::CoTask reduce_impl(machine::TaskCtx& t, const void* send, void* recv,
                          std::size_t count, coll::Dtype d, coll::RedOp op,
                          int root, const coll::Decision& dec,
                          lapi::Counter* chunk_done);
  /// Elements per step of the reduce pipeline row @p dec for elements of
  /// @p esize bytes: coll::reduce_step in whole elements, at least one.
  std::size_t reduce_step_elems(const coll::Decision& dec,
                                std::size_t esize) const {
    return std::max<std::size_t>(
        1, coll::reduce_step(dec.chunk, cfg_.reduce_chunk) / esize);
  }
  sim::CoTask allreduce_rd(machine::TaskCtx& t, const void* send, void* recv,
                           std::size_t count, coll::Dtype d, coll::RedOp op,
                           const coll::Decision& dec);
  sim::CoTask allreduce_pipelined(machine::TaskCtx& t, const void* send,
                                  void* recv, std::size_t count,
                                  coll::Dtype d, coll::RedOp op,
                                  const coll::Decision& dec);
  /// Root-free allreduce: reduce_scatter_direct of the ranks' blocks of
  /// the vector, each written straight into its place in @p recv, then
  /// allgather_direct in place.
  sim::CoTask allreduce_direct(machine::TaskCtx& t, const void* send,
                               void* recv, std::size_t count, coll::Dtype d,
                               coll::RedOp op, const coll::Decision& dec);
  sim::CoTask internode_barrier(machine::TaskCtx& t);

  // ---- algorithm zoo (core/zoo.cpp) ----
  //
  // Large-message algorithms from the tuning literature, selected by the
  // decision table: all of them reduce intra-node with the staged Fig. 2
  // pipeline into the node master's buffer, run their inter-node exchange
  // between masters over the zoo_* state, and publish the result through
  // the staged Fig. 3 buffers (the mapped column is ignored here).

  /// Ring allreduce: reduce-scatter around the node ring (streamed through
  /// the landing slots, combining on arrival), then allgather by direct
  /// puts into announced user buffers.
  sim::CoTask ring_allreduce(machine::TaskCtx& t, const void* send,
                             void* recv, std::size_t count, coll::Dtype d,
                             coll::RedOp op, const coll::Decision& dec);
  /// Recursive-halving reduce-scatter + recursive-doubling allgather
  /// (Rabenseifner), with the classic fold to the nearest power of two.
  sim::CoTask rhalving_allreduce(machine::TaskCtx& t, const void* send,
                                 void* recv, std::size_t count, coll::Dtype d,
                                 coll::RedOp op, const coll::Decision& dec);
  /// Scatter + ring-allgather broadcast: the root leader scatters one block
  /// per node, then the node ring circulates blocks with each node
  /// publishing arrivals locally as they land.
  sim::CoTask bcast_scatter_ag(machine::TaskCtx& t, void* buf,
                               std::size_t bytes, const coll::Embedding& emb);

  /// The leader ring of bcast_scatter_ag, allgather_direct and
  /// allgather_sockets: node i's block is bytes [lo[i], lo[i + 1]) of every
  /// rank's @p base, and leader[i] leads node i. A leader announces base to
  /// the nodes that put into it and forwards blocks to its successor by
  /// direct puts over the zoo link state (a socket ring, dom >= 0: over its
  /// domain's Link::RingCells); every block is published as it is ready,
  /// through the Fig. 3 buffers (smp_publish_staged) unless `publish` is
  /// set. Arrivals are attributed to blocks by link order, so a leader
  /// keeps reception polled while it runs the ring.
  struct Ring {
    Ring(Communicator& c_, machine::TaskCtx& t_, std::byte* base_,
         std::vector<std::size_t> lo_, std::vector<int> leader_);
    std::size_t len(int b) const {
      return lo[static_cast<std::size_t>(b) + 1] -
             lo[static_cast<std::size_t>(b)];
    }
    bool leads() const { return t.rank == leader[static_cast<std::size_t>(v)]; }
    /// Tell @p peer's leader where base is (it puts into it).
    sim::CoTask announce(int peer);
    /// Put block @p b into the successor's announced buffer.
    sim::CoTask forward(int b);
    /// Ring steps s = 0..n-1 of block v - s: from step @p first_recv on it
    /// is ready once it arrived from the predecessor; a leader forwards it
    /// (with @p send, except at the last step) and every local publishes
    /// it. Zero-length blocks are skipped on both sides.
    sim::CoTask steps(int first_recv, bool send);
    /// Wait until the adapter has read every put of this leader.
    sim::CoTask drain();
    /// The ring's cells at node @p at for its link with node @p peer.
    struct Cells {
      void** addr;
      lapi::Counter* addr_arr;
      lapi::Counter* got;
    };
    Cells cells(int at, int peer) const;

    Communicator& c;
    machine::TaskCtx& t;
    std::byte* base;
    std::vector<std::size_t> lo;
    std::vector<int> leader;
    int n;
    int v;
    int leader_local;
    int dom = -1;  ///< socket ring of this domain; -1: the node ring
    lapi::Counter* org;  ///< origin counter of the leader's puts
    /// Publishes block b on every local (default: smp_publish_staged).
    std::function<sim::CoTask(int)> publish;
    std::vector<void*> ann;  // announced-address cells, per peer
    std::byte* succ_addr = nullptr;
    std::uint64_t org_inflight = 0;
  };

  /// Staged SMP reduce of the whole vector into the leader's @p recv
  /// (leader runs the per-chunk leader combine, everyone else the
  /// participant pipeline), including the smp_red_base bookkeeping.
  sim::CoTask zoo_node_reduce(machine::TaskCtx& t, const coll::Tree& tree,
                              const void* send, void* recv, std::size_t count,
                              coll::Dtype d, coll::RedOp op);
  /// Stream [@p src, @p src+bytes) into @p dst_node's landing slots
  /// (reduce_chunk pieces, credit-gated), where the receiving leader is
  /// expected to combine each piece on arrival and return the credit.
  /// @p seq is the cumulative chunk sequence on the me->dst_node link
  /// (landing-slot parity), advanced per chunk; @p org_inflight counts the
  /// zoo_org bumps the caller must drain.
  sim::CoTask zoo_stream_to(machine::TaskCtx& t, const coll::Embedding& emb,
                            int dst_node, const std::byte* src,
                            std::size_t bytes, std::uint64_t& seq,
                            std::uint64_t& org_inflight);
  /// Receive @p bytes streamed by @p src_node's zoo_stream_to, combining
  /// each landed chunk into @p dst with @p op and returning the slot credit.
  /// @p seq is the cumulative chunk sequence on the src_node->me link.
  sim::CoTask zoo_recv_combine(machine::TaskCtx& t,
                               const coll::Embedding& emb, int src_node,
                               std::byte* dst, std::size_t bytes,
                               coll::Dtype d, coll::RedOp op,
                               std::uint64_t& seq);

  machine::Cluster* cluster_;
  lapi::Fabric* fabric_;
  SrmConfig cfg_;
  coll::DecisionTable table_;  // resolved at construction (decide())
  std::string name_;
  coll::sym::Transport sym_;       // symbolic plane (SRM cost profile)
  bool real_ready_ = false;        // per-node shared state materialized?
  bool sym_used_ = false;          // any symbolic op dispatched yet?
  std::vector<NodeState*> nodes_;  // owned by each node's segment
  std::vector<RankState> ranks_;
};

}  // namespace srm
