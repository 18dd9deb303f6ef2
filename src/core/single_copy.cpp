// Single-copy cross-mapped SMP primitives (ROADMAP item 2).
//
// The Fig. 2/3 protocols stage every payload through shared intermediate
// buffers: for a broadcast that is one copy in plus one copy out per
// consumer (N total), for a reduce one staging copy per leaf. These
// primitives remove the staging hop with shm::Mapping windows — tasks
// export their *user* buffers into the node's shared namespace and peers
// copy or combine straight across address spaces:
//
//  * broadcast: N-1 copies instead of N, no smp_buf_bytes size cap;
//  * reduce: zero copies — leaves just export their send buffers and the
//    interior of the tree combines directly out of the windows.
//
// Transfers follow coll::topo_tree, so each cache-domain boundary of
// machine::TopologyParams is crossed by exactly one window pull, charged at
// the coherence-aware cost (charge_copy_scaled / charge_combine_scaled:
// the source line is dirty in the writer's cache, and crossing an L3 slice
// or socket boundary stretches the stream). Below the decision table's
// mapped crossover the publish/attach handshake costs dominate and the
// staged path wins — that crossover is the abl_single_copy bench's subject.
//
// Window generations and accumulator-slot parities are mirrored privately
// by every rank (RankState::map_gen / sc_base), the same trick the staged
// protocols use for A/B parity: collectives are deterministic, so each rank
// knows exactly how many times each slot was published without asking.
#include <cstring>

#include "core/communicator.hpp"
#include "core/detail.hpp"

namespace srm {

// ---------------------------------------------------------------------------
// Mapped SMP broadcast: cascade of direct window pulls over the topology tree
// ---------------------------------------------------------------------------

sim::CoTask Communicator::smp_bcast_mapped(machine::TaskCtx& t,
                                           int leader_local, const void* src,
                                           void* dst, std::size_t len) {
  obs::Span span(*t.obs, t.rank, "smp.bcast_mapped");
  chk::StageScope stage(t.chk, "smp.bcast_mapped");
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  if (ns.nlocal == 1) co_return;  // nothing to fan out
  coll::Tree tree = coll::topo_tree(t.P->topo, ns.nlocal, leader_local);
  int me = t.local();
  const auto& kids = tree.children[static_cast<std::size_t>(me)];

  if (me == leader_local) {
    // The data already sits in the leader's buffer (user data at the root,
    // a landed network chunk elsewhere): export it, wait out the readers.
    SRM_CHECK(src != nullptr);
    if (!kids.empty()) {
      co_await ns.map->publish(t, const_cast<void*>(src), len);
      co_await ns.map->retract(t, static_cast<int>(kids.size()));
    }
  } else {
    int parent = tree.parent[static_cast<std::size_t>(me)];
    shm::Mapping::Window w;
    co_await ns.map->attach(
        t, parent, rs.map_gen[static_cast<std::size_t>(parent)] + 1, &w);
    SRM_CHECK(w.bytes >= len);
    // The one copy this vertex ever makes: straight from the parent's user
    // buffer, at the cache-distance cost (the parent just wrote it: dirty).
    co_await t.nd->mem.charge_copy_scaled(
        static_cast<double>(len), t.P->topo.copy_factor(parent, me, true));
    std::memcpy(dst, w.data, len);
    chk::note_read(t.chk, w.data, len);
    ns.map->detach(t, parent);
    if (!kids.empty()) {
      co_await ns.map->publish(t, dst, len);
      co_await ns.map->retract(t, static_cast<int>(kids.size()));
    }
  }
  // Mirror the generation advance of every exporting vertex (all ranks of
  // the node run this loop with the same tree — deterministic).
  for (int v = 0; v < ns.nlocal; ++v) {
    if (!tree.children[static_cast<std::size_t>(v)].empty()) {
      rs.map_gen[static_cast<std::size_t>(v)]++;
    }
  }
}

// ---------------------------------------------------------------------------
// Mapped SMP reduce: leaves export windows, the interior combines in place
// ---------------------------------------------------------------------------

sim::CoTask Communicator::attach_leaf_windows(
    machine::TaskCtx& t, const coll::Tree& tree,
    std::vector<shm::Mapping::Window>& wins) {
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  wins.assign(static_cast<std::size_t>(ns.nlocal), {});
  for (int kid : tree.children[static_cast<std::size_t>(t.local())]) {
    auto ki = static_cast<std::size_t>(kid);
    if (!tree.children[ki].empty()) continue;  // interior kid: sc_acc slots
    co_await ns.map->attach(t, kid, rs.map_gen[ki] + 1, &wins[ki]);
  }
}

void Communicator::detach_leaf_windows(machine::TaskCtx& t,
                                       const coll::Tree& tree) {
  NodeState& ns = node_state(t);
  for (int kid : tree.children[static_cast<std::size_t>(t.local())]) {
    if (!tree.children[static_cast<std::size_t>(kid)].empty()) continue;
    ns.map->detach(t, kid);
  }
}

sim::CoTask Communicator::smp_reduce_participant_mapped(
    machine::TaskCtx& t, const coll::Tree& tree, const void* send,
    std::size_t count, coll::Dtype d, coll::RedOp op) {
  obs::Span span(*t.obs, t.rank, "smp.reduce_mapped");
  chk::StageScope stage(t.chk, "smp.reduce_mapped");
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  int me = t.local();
  SRM_CHECK(tree.parent[static_cast<std::size_t>(me)] != -1);
  std::size_t esize = coll::dtype_size(d);
  std::size_t chunk_elems = cfg_.reduce_chunk / esize;
  std::size_t nchunks = detail::chunk_count(count, chunk_elems);
  const auto& kids = tree.children[static_cast<std::size_t>(me)];

  if (kids.empty()) {
    // Leaf: no copy at all. Export the send buffer once; the parent pulls
    // every chunk straight out of the window and detaches after the last.
    co_await ns.map->publish(t, const_cast<void*>(send), count * esize);
    co_await ns.map->retract(t, 1);
    co_return;
  }

  // Interior vertex: combine own data + children into the sc_acc slot pair,
  // chunk by chunk, gated exactly like the staged red_slot protocol.
  std::vector<shm::Mapping::Window> wins;
  co_await attach_leaf_windows(t, tree, wins);
  for (std::size_t c = 0; c < nchunks; ++c) {
    std::size_t elem_off = c * chunk_elems;
    std::size_t elems = std::min(chunk_elems, count - elem_off);
    std::uint64_t abs = rs.sc_base[static_cast<std::size_t>(me)] + c;
    if (abs >= 2) {
      co_await (*ns.sc_cons[abs % 2])[me].await_at_least(abs / 2, &t.chk);
    }
    std::byte* acc = ns.sc_acc(me)[abs % 2].data();
    const std::byte* mine =
        static_cast<const std::byte*>(send) + elem_off * esize;
    double bytes = static_cast<double>(elems * esize);

    bool first = true;
    for (int kid : kids) {
      auto ki = static_cast<std::size_t>(kid);
      const std::byte* ksrc;
      std::uint64_t kid_abs = 0;
      bool kid_interior = !tree.children[ki].empty();
      if (kid_interior) {
        kid_abs = rs.sc_base[ki] + c;
        co_await (*ns.sc_pub)[kid].await_at_least(kid_abs + 1, &t.chk);
        ksrc = ns.sc_acc(kid)[kid_abs % 2].data();
      } else {
        // Leaf child: its whole send buffer is the window — ready since the
        // publish we attached to, no per-chunk wait.
        ksrc = wins[ki].data + elem_off * esize;
      }
      co_await t.nd->mem.charge_combine_scaled(
          bytes, t.P->topo.copy_factor(kid, me, true));
      if (first) {
        coll::combine_out(op, d, acc, mine, ksrc, elems);
        first = false;
      } else {
        coll::combine(op, d, acc, ksrc, elems);
      }
      chk::note_read(t.chk, ksrc, elems * esize);
      chk::note_write(t.chk, acc, elems * esize);
      if (kid_interior) {
        (*ns.sc_cons[kid_abs % 2])[kid].add(1, &t.chk);
      }
    }
    (*ns.sc_pub)[me].add(1, &t.chk);
  }
  detach_leaf_windows(t, tree);
}

sim::CoTask Communicator::smp_reduce_chunk_leader_mapped(
    machine::TaskCtx& t, const coll::Tree& tree, const void* send, void* dst,
    std::size_t c, std::size_t elem_off, std::size_t elems, coll::Dtype d,
    coll::RedOp op, const std::vector<shm::Mapping::Window>& wins) {
  obs::Span span(*t.obs, t.rank, "smp.reduce_mapped");
  chk::StageScope stage(t.chk, "smp.reduce_mapped_leader");
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  int me = t.local();
  SRM_CHECK(tree.root == me);
  std::size_t esize = coll::dtype_size(d);
  const std::byte* mine =
      static_cast<const std::byte*>(send) + elem_off * esize;
  double bytes = static_cast<double>(elems * esize);
  const auto& kids = tree.children[static_cast<std::size_t>(me)];

  if (kids.empty()) {
    // Single task on the node: the node result is just our own data.
    co_await t.nd->mem.charge_copy(bytes);
    std::memcpy(dst, mine, elems * esize);
    chk::note_write(t.chk, dst, elems * esize);
    co_return;
  }
  bool first = true;
  for (int kid : kids) {
    auto ki = static_cast<std::size_t>(kid);
    const std::byte* ksrc;
    std::uint64_t kid_abs = 0;
    bool kid_interior = !tree.children[ki].empty();
    if (kid_interior) {
      kid_abs = rs.sc_base[ki] + c;
      co_await (*ns.sc_pub)[kid].await_at_least(kid_abs + 1, &t.chk);
      ksrc = ns.sc_acc(kid)[kid_abs % 2].data();
    } else {
      ksrc = wins[ki].data + elem_off * esize;
    }
    co_await t.nd->mem.charge_combine_scaled(
        bytes, t.P->topo.copy_factor(kid, me, true));
    if (first) {
      coll::combine_out(op, d, dst, mine, ksrc, elems);
      first = false;
    } else {
      coll::combine(op, d, dst, ksrc, elems);
    }
    chk::note_read(t.chk, ksrc, elems * esize);
    chk::note_write(t.chk, dst, elems * esize);
    if (kid_interior) {
      (*ns.sc_cons[kid_abs % 2])[kid].add(1, &t.chk);
    }
  }
}

void Communicator::finish_reduce_bookkeeping_mapped(machine::TaskCtx& t,
                                                    const coll::Embedding& emb,
                                                    const coll::Tree& tree,
                                                    std::size_t nchunks) {
  RankState& rs = rank_state(t);
  int my_node = t.node();
  int leader_local =
      t.topo->local_of(emb.leader[static_cast<std::size_t>(my_node)]);
  for (int v = 0; v < t.nlocal(); ++v) {
    if (v == leader_local) continue;
    auto vi = static_cast<std::size_t>(v);
    if (tree.children[vi].empty()) {
      rs.map_gen[vi] += 1;  // leaf: one window export per operation
    } else {
      rs.sc_base[vi] += nchunks;  // interior: one slot publish per chunk
    }
  }
  int parent = emb.internode.parent[static_cast<std::size_t>(my_node)];
  if (parent != -1) rs.links[parent].red_sent += nchunks;
  for (int child :
       emb.internode.children[static_cast<std::size_t>(my_node)]) {
    rs.links[child].red_recvd += nchunks;
  }
}

}  // namespace srm
