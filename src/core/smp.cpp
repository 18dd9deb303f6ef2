// Shared-memory (intra-node) primitives of SRM (paper §2.2).
#include <cstring>

#include "core/communicator.hpp"
#include "core/detail.hpp"

namespace srm {

// ---------------------------------------------------------------------------
// SMP broadcast: flat, two buffers, READY flags (Fig. 3)
// ---------------------------------------------------------------------------

sim::CoTask Communicator::smp_bcast_chunk(machine::TaskCtx& t,
                                          int leader_local, const void* src,
                                          void* dst, std::size_t len,
                                          const std::byte* shared_src) {
  obs::Span span(*t.obs, t.rank, "smp.bcast_chunk");
  chk::StageScope stage(t.chk, "smp.bcast_chunk");
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  SRM_CHECK(len <= cfg_.smp_buf_bytes);
  if (cfg_.smp_bcast_tree && shared_src == nullptr) {
    co_await smp_bcast_chunk_tree(t, leader_local, src, dst, len);
    co_return;
  }
  std::size_t slot = cfg_.use_two_buffers ? rs.smp_bc_seq % 2 : 0;
  rs.smp_bc_seq++;
  shm::FlagArray& ready = *ns.bc_ready[slot];
  const std::byte* read_buf =
      shared_src != nullptr ? shared_src : ns.bc_buf[slot].data();

  if (ns.nlocal == 1) {
    // Single task per node: no local fan-out; only drain a landed chunk.
    if (shared_src != nullptr && dst != nullptr) {
      co_await t.nd->mem.charge_copy(static_cast<double>(len));
      std::memcpy(dst, read_buf, len);
      chk::note_read(t.chk, read_buf, len);
    }
    co_return;
  }

  if (t.local() == leader_local) {
    // Acquire the flag set: every consumer must have cleared its flag.
    for (int l = 0; l < ns.nlocal; ++l) {
      if (l == leader_local) continue;
      co_await ready[l].await_value(0, &t.chk);
    }
    if (shared_src == nullptr) {
      // Copy the chunk into the shared buffer (skipped when a LAPI put
      // already deposited it in shared memory — the zero-copy case).
      co_await t.nd->mem.charge_copy(static_cast<double>(len));
      std::memcpy(ns.bc_buf[slot].data(), src, len);
      chk::note_read(t.chk, src, len);
      chk::note_write(t.chk, ns.bc_buf[slot].data(), len);
    }
    // Set READY for every other process (one cache-line store each).
    co_await t.delay(t.P->mem.flag_poll *
                     static_cast<sim::Duration>(ns.nlocal - 1));
    for (int l = 0; l < ns.nlocal; ++l) {
      if (l == leader_local) continue;
      ready[l].set(1, &t.chk);
    }
    if (shared_src != nullptr && dst != nullptr) {
      // The leader consumes too: its user copy happens after releasing the
      // other processes so all copies overlap (they contend on the bus).
      co_await t.nd->mem.charge_copy(static_cast<double>(len));
      std::memcpy(dst, read_buf, len);
      chk::note_read(t.chk, read_buf, len);
    }
  } else {
    co_await ready[t.local()].await_value(1, &t.chk);
    // The staging buffer is dirty in the leader's cache when the leader
    // filled it; a DMA-landed chunk (shared_src) is memory-resident.
    co_await t.nd->mem.charge_copy_scaled(
        static_cast<double>(len),
        t.P->topo.copy_factor(leader_local, t.local(),
                              /*dirty=*/shared_src == nullptr));
    std::memcpy(dst, read_buf, len);
    chk::note_read(t.chk, read_buf, len);
    ready[t.local()].set(0, &t.chk);
  }
}

sim::CoTask Communicator::smp_bcast_chunk_tree(machine::TaskCtx& t,
                                               int leader_local,
                                               const void* src, void* dst,
                                               std::size_t len) {
  // Ablation variant (§2.2): same shared buffer, but READY flags cascade
  // down a binomial tree — each process signals its tree children only after
  // finishing its own copy, serializing levels instead of letting the SMP
  // hardware arbitrate concurrent readers.
  chk::StageScope stage(t.chk, "smp.bcast_tree");
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  std::size_t slot = cfg_.use_two_buffers ? rs.smp_bc_seq % 2 : 0;
  rs.smp_bc_seq++;
  shm::FlagArray& ready = *ns.bc_ready[slot];
  std::byte* sbuf = ns.bc_buf[slot].data();
  coll::Tree tree =
      coll::binomial_tree(ns.nlocal, leader_local);

  if (t.local() == leader_local) {
    for (int l = 0; l < ns.nlocal; ++l) {
      if (l == leader_local) continue;
      co_await ready[l].await_value(0, &t.chk);
    }
    co_await t.nd->mem.charge_copy(static_cast<double>(len));
    std::memcpy(sbuf, src, len);
    chk::note_write(t.chk, sbuf, len);
  } else {
    co_await ready[t.local()].await_value(1, &t.chk);
    co_await t.nd->mem.charge_copy_scaled(
        static_cast<double>(len),
        t.P->topo.copy_factor(leader_local, t.local(), /*dirty=*/true));
    std::memcpy(dst, sbuf, len);
    chk::note_read(t.chk, sbuf, len);
  }
  // Signal own children, then (non-leaders) mark own flag consumed.
  const auto& kids = tree.children[static_cast<std::size_t>(t.local())];
  if (!kids.empty()) {
    co_await t.delay(t.P->mem.flag_poll * kids.size());
  }
  for (int c : kids) ready[c].set(1, &t.chk);
  if (t.local() != leader_local) ready[t.local()].set(0, &t.chk);
}

sim::CoTask Communicator::smp_slice_chunk(machine::TaskCtx& t,
                                          int leader_local,
                                          const std::byte* fill_src,
                                          const std::byte* shared_src,
                                          std::size_t chunk_off,
                                          std::size_t len, std::size_t my_lo,
                                          std::size_t my_hi,
                                          std::byte* my_dst) {
  chk::StageScope stage(t.chk, "smp.slice_chunk");
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  SRM_CHECK(len <= cfg_.smp_buf_bytes);
  std::size_t slot = cfg_.use_two_buffers ? rs.smp_bc_seq % 2 : 0;
  rs.smp_bc_seq++;
  shm::FlagArray& ready = *ns.bc_ready[slot];
  const std::byte* read_buf =
      shared_src != nullptr ? shared_src : ns.bc_buf[slot].data();

  std::size_t lo = std::max(my_lo, chunk_off);
  std::size_t hi = std::min(my_hi, chunk_off + len);

  auto copy_slice = [&]() -> sim::CoTask {
    if (lo < hi && my_dst != nullptr) {
      co_await t.nd->mem.charge_copy_scaled(
          static_cast<double>(hi - lo),
          t.P->topo.copy_factor(leader_local, t.local(),
                                /*dirty=*/shared_src == nullptr));
      std::memcpy(my_dst + (lo - my_lo), read_buf + (lo - chunk_off),
                  hi - lo);
      chk::note_read(t.chk, read_buf + (lo - chunk_off), hi - lo);
    }
  };

  if (ns.nlocal == 1) {
    // Single task per node: no shared staging needed — take the slice
    // straight from wherever the data lives.
    if (shared_src == nullptr) read_buf = fill_src;
    if (read_buf != nullptr) co_await copy_slice();
    co_return;
  }

  if (t.local() == leader_local) {
    for (int l = 0; l < ns.nlocal; ++l) {
      if (l == leader_local) continue;
      co_await ready[l].await_value(0, &t.chk);
    }
    if (shared_src == nullptr && fill_src != nullptr) {
      co_await t.nd->mem.charge_copy(static_cast<double>(len));
      std::memcpy(ns.bc_buf[slot].data(), fill_src, len);
      chk::note_write(t.chk, ns.bc_buf[slot].data(), len);
    }
    co_await t.delay(t.P->mem.flag_poll *
                     static_cast<sim::Duration>(ns.nlocal - 1));
    for (int l = 0; l < ns.nlocal; ++l) {
      if (l == leader_local) continue;
      ready[l].set(1, &t.chk);
    }
    co_await copy_slice();
  } else {
    co_await ready[t.local()].await_value(1, &t.chk);
    co_await copy_slice();
    ready[t.local()].set(0, &t.chk);
  }
}

// ---------------------------------------------------------------------------
// SMP reduce: binomial tree, chunk slots, published/consumed counters (Fig. 2)
// ---------------------------------------------------------------------------

sim::CoTask Communicator::smp_reduce_participant(machine::TaskCtx& t,
                                                 const coll::Tree& tree,
                                                 const void* send,
                                                 std::size_t count,
                                                 coll::Dtype d,
                                                 coll::RedOp op) {
  obs::Span span(*t.obs, t.rank, "smp.reduce");
  chk::StageScope stage(t.chk, "smp.reduce");
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  int me = t.local();
  SRM_CHECK(tree.parent[static_cast<std::size_t>(me)] != -1);
  std::size_t esize = coll::dtype_size(d);
  std::size_t chunk_elems = cfg_.reduce_chunk / esize;
  std::size_t nchunks = detail::chunk_count(count, chunk_elems);
  const auto& kids = tree.children[static_cast<std::size_t>(me)];

  for (std::size_t c = 0; c < nchunks; ++c) {
    std::size_t off = c * chunk_elems;
    std::size_t elems = std::min(chunk_elems, count - off);
    std::uint64_t abs = rs.smp_red_base[static_cast<std::size_t>(me)] + c;
    // Slot reuse: chunk `abs` shares a slot with chunk `abs - 2`; wait until
    // whoever was leading that operation consumed it (per-slot count).
    if (abs >= 2) {
      co_await (*ns.red_consumed[abs % 2])[me].await_at_least(abs / 2,
                                                              &t.chk);
    }
    std::byte* slot = ns.red_slot[abs % 2][static_cast<std::size_t>(me)].data();
    const std::byte* mine =
        static_cast<const std::byte*>(send) + off * esize;
    double bytes = static_cast<double>(elems * esize);

    if (kids.empty()) {
      // Leaf: the one memory copy of Fig. 2.
      co_await t.nd->mem.charge_copy(bytes);
      std::memcpy(slot, mine, elems * esize);
      chk::note_write(t.chk, slot, elems * esize);
    } else {
      // Interior: fuse own data with the first child straight into the slot,
      // then fold the remaining children in place.
      bool first = true;
      for (int kid : kids) {
        std::uint64_t kid_abs =
            rs.smp_red_base[static_cast<std::size_t>(kid)] + c;
        co_await (*ns.red_published)[kid].await_at_least(kid_abs + 1,
                                                         &t.chk);
        const std::byte* kslot =
            ns.red_slot[kid_abs % 2][static_cast<std::size_t>(kid)].data();
        // The child just wrote its slot: a dirty pull across its distance.
        co_await t.nd->mem.charge_combine_scaled(
            bytes, t.P->topo.copy_factor(kid, me, /*dirty=*/true));
        if (first) {
          coll::combine_out(op, d, slot, mine, kslot, elems);
          first = false;
        } else {
          coll::combine(op, d, slot, kslot, elems);
        }
        chk::note_read(t.chk, kslot, elems * esize);
        chk::note_write(t.chk, slot, elems * esize);
        (*ns.red_consumed[kid_abs % 2])[kid].add(1, &t.chk);
      }
    }
    (*ns.red_published)[me].add(1, &t.chk);
  }
}

sim::CoTask Communicator::smp_reduce_chunk_leader(
    machine::TaskCtx& t, const coll::Tree& tree, const void* send, void* dst,
    std::size_t c, std::size_t elem_off, std::size_t elems, coll::Dtype d,
    coll::RedOp op) {
  obs::Span span(*t.obs, t.rank, "smp.reduce");
  chk::StageScope stage(t.chk, "smp.reduce_leader");
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
    std::uint64_t kid_abs = rs.smp_red_base[static_cast<std::size_t>(kid)] + c;
    co_await (*ns.red_published)[kid].await_at_least(kid_abs + 1, &t.chk);
    const std::byte* kslot =
        ns.red_slot[kid_abs % 2][static_cast<std::size_t>(kid)].data();
    co_await t.nd->mem.charge_combine_scaled(
        bytes, t.P->topo.copy_factor(kid, me, /*dirty=*/true));
    if (first) {
      // The last combine writes directly to the destination — the paper's
      // "result ... directly in the destination rather than an intermediate
      // buffer" optimization.
      coll::combine_out(op, d, dst, mine, kslot, elems);
      first = false;
    } else {
      coll::combine(op, d, dst, kslot, elems);
    }
    chk::note_read(t.chk, kslot, elems * esize);
    chk::note_write(t.chk, dst, elems * esize);
    (*ns.red_consumed[kid_abs % 2])[kid].add(1, &t.chk);
  }
}

void Communicator::finish_reduce_bookkeeping(machine::TaskCtx& t,
                                             const coll::Embedding& emb,
                                             std::size_t nchunks) {
  RankState& rs = rank_state(t);
  int my_node = t.node();
  int leader_local =
      t.topo->local_of(emb.leader[static_cast<std::size_t>(my_node)]);
  for (int l = 0; l < t.nlocal(); ++l) {
    if (l != leader_local) {
      rs.smp_red_base[static_cast<std::size_t>(l)] += nchunks;
    }
  }
  int parent = emb.internode.parent[static_cast<std::size_t>(my_node)];
  if (parent != -1) rs.links[parent].red_sent += nchunks;
  for (int child :
       emb.internode.children[static_cast<std::size_t>(my_node)]) {
    rs.links[child].red_recvd += nchunks;
  }
}

// ---------------------------------------------------------------------------
// SMP barrier: flat flags, one per process, master gathers then resets (§2.2)
// ---------------------------------------------------------------------------

sim::CoTask Communicator::smp_barrier_enter(machine::TaskCtx& t) {
  obs::Span span(*t.obs, t.rank, "barrier.smp");
  chk::StageScope stage(t.chk, "barrier.smp");
  NodeState& ns = node_state(t);
  shm::FlagArray& flags = *ns.bar_flag;
  if (t.local() == 0) {
    for (int l = 1; l < ns.nlocal; ++l) {
      co_await t.delay(t.P->mem.flag_poll);  // read one more cache line
      co_await flags[l].await_value(1, &t.chk);
    }
  } else {
    flags[t.local()].set(1, &t.chk);
    co_await flags[t.local()].await_value(0, &t.chk);
  }
}

void Communicator::smp_barrier_release(machine::TaskCtx& t) {
  NodeState& ns = node_state(t);
  SRM_CHECK(t.local() == 0);
  for (int l = 1; l < ns.nlocal; ++l) {
    (*ns.bar_flag)[l].set(0, &t.chk);
  }
}

sim::CoTask Communicator::smp_barrier(machine::TaskCtx& t) {
  co_await smp_barrier_enter(t);
  if (t.local() == 0) smp_barrier_release(t);
}

}  // namespace srm
