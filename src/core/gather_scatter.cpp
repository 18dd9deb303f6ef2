// SRM scatter / gather / allgather / reduce_scatter.
//
// These extend the paper's operation set using its two building blocks:
//
//  * scatter: the root puts each node's contiguous block (ranks are placed
//    in blocks, so a node's data is contiguous in the root buffer) into that
//    node's per-link landing buffers — the same credit-guarded pair the
//    small broadcast uses — and the node distributes slices out of shared
//    memory, each task copying only its own piece.
//
//  * gather: the root announces its receive buffer (address-exchange put,
//    as in the large broadcast); every node assembles its block chunk-wise
//    in two shared staging buffers (per-slot filled/freed counters), and the
//    leader puts finished chunks straight into their final location in the
//    root's buffer — no intermediate copies on the network path.
//
//  * allgather  = gather to rank 0 + broadcast (the composition benefits
//    from both optimized halves);
//  * reduce_scatter = reduce to rank 0 + scatter.
#include <cstring>
#include <deque>

#include "core/communicator.hpp"
#include "core/detail.hpp"

namespace srm {

sim::CoTask Communicator::real_scatter(machine::TaskCtx& t, const void* send,
                                       void* recv, std::size_t bytes_per,
                                       int root) {
  // Root range / descriptor invariants are enforced at the API boundary
  // (coll::Collectives); this plane only runs the protocol.
  obs::Span span(*t.obs, t.rank, "srm.scatter");
  chk::StageScope stage(t.chk, "srm.scatter");
  rank_state(t).op_seq++;
  if (bytes_per == 0) co_return;

  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  int root_node = t.topo->node_of(root);
  int my_node = t.node();
  int leader_local =
      my_node == root_node ? t.topo->local_of(root) : 0;
  bool is_leader = t.local() == leader_local;

  std::size_t block = bytes_per;                   // one rank's data
  std::size_t node_block = block * static_cast<std::size_t>(t.nlocal());
  std::size_t chunk = cfg_.smp_buf_bytes;
  std::size_t nchunks = detail::chunk_count(node_block, chunk);
  std::size_t my_lo = static_cast<std::size_t>(t.local()) * block;
  std::size_t my_hi = my_lo + block;

  auto link_slot = [this](std::uint64_t seq) {
    return cfg_.use_two_buffers ? seq % 2 : std::size_t{0};
  };

  // Single-copy path (root node only — elsewhere the data already lands in
  // shared memory): the root exports one window over its own node's block
  // and every local pulls its slice straight out, flat — a hierarchy buys
  // nothing when each reader wants a disjoint slice.
  bool mapped = mapped_on(coll::CollKind::scatter, node_block) && t.nlocal() > 1;

  if (t.rank == root) {
    lapi::Endpoint& my_ep = ep(t.rank);
    lapi::Counter org(*t.eng, "scatter.org@" + std::to_string(t.rank));
    std::uint64_t org_pending = 0;
    const std::byte* sp = static_cast<const std::byte*>(send);
    const std::byte* own_block =
        sp + static_cast<std::size_t>(root_node) * node_block;
    if (mapped) {
      // Export before the network loop so the local pulls overlap the puts.
      co_await ns.map->publish(t, const_cast<std::byte*>(own_block),
                               node_block);
    }
    // Chunk-major across nodes so all links stream concurrently.
    for (std::size_t c = 0; c < nchunks; ++c) {
      std::size_t off = c * chunk;
      std::size_t len = std::min(chunk, node_block - off);
      for (int nd = 0; nd < t.nnodes(); ++nd) {
        if (nd == root_node) continue;
        NodeState& cs = *nodes_[static_cast<std::size_t>(nd)];
        std::size_t slot = link_slot(rs.links[nd].bc_sent + c);
        co_await my_ep.wait_cntr(*ns.link(nd).bc_free[slot], 1);
        co_await my_ep.put(
            ep(t.topo->master_of(nd)), cs.bc_land(root_node)[slot].data(),
            sp + static_cast<std::size_t>(nd) * node_block + off, len,
            cs.link(root_node).bc_arrived[slot].get(), &org);
        ++org_pending;
      }
      if (!mapped) {
        // Distribute the root node's own block slice-wise.
        co_await smp_slice_chunk(t, leader_local, own_block + off, nullptr,
                                 off, len, my_lo, my_hi,
                                 static_cast<std::byte*>(recv));
      }
    }
    if (mapped) {
      // Own slice: plain local copy out of the (own) window.
      co_await t.nd->mem.charge_copy(static_cast<double>(block));
      std::memcpy(recv, own_block + my_lo, block);
      chk::note_read(t.chk, own_block + my_lo, block);
      co_await ns.map->retract(t, t.nlocal() - 1);
    }
    if (org_pending > 0) co_await my_ep.wait_cntr(org, org_pending);
  } else if (mapped && my_node == root_node) {
    // Root-node consumer: pull the slice straight from the root's buffer.
    shm::Mapping::Window w;
    co_await ns.map->attach(
        t, leader_local,
        rs.map_gen[static_cast<std::size_t>(leader_local)] + 1, &w);
    co_await t.nd->mem.charge_copy_scaled(
        static_cast<double>(block),
        t.P->topo.copy_factor(leader_local, t.local(), true));
    std::memcpy(recv, w.data + my_lo, block);
    chk::note_read(t.chk, w.data + my_lo, block);
    ns.map->detach(t, leader_local);
  } else if (is_leader) {
    lapi::Endpoint& my_ep = ep(t.rank);
    NodeState& root_ns = *nodes_[static_cast<std::size_t>(root_node)];
    for (std::size_t c = 0; c < nchunks; ++c) {
      std::size_t off = c * chunk;
      std::size_t len = std::min(chunk, node_block - off);
      std::size_t slot = link_slot(rs.links[root_node].bc_recv + c);
      std::size_t flag_slot = cfg_.use_two_buffers ? rs.smp_bc_seq % 2 : 0;
      co_await my_ep.wait_cntr(*ns.link(root_node).bc_arrived[slot], 1);
      co_await smp_slice_chunk(t, leader_local, nullptr,
                               ns.bc_land(root_node)[slot].data(), off, len,
                               my_lo, my_hi, static_cast<std::byte*>(recv));
      for (int l = 0; l < ns.nlocal; ++l) {
        if (l == leader_local) continue;
        co_await (*ns.bc_ready[flag_slot])[l].await_value(0, &t.chk);
      }
      co_await my_ep.put_signal(ep(root), *root_ns.link(my_node).bc_free[slot]);
    }
  } else {
    for (std::size_t c = 0; c < nchunks; ++c) {
      std::size_t off = c * chunk;
      std::size_t len = std::min(chunk, node_block - off);
      const std::byte* shared_src = nullptr;
      if (my_node != root_node) {
        std::size_t slot = link_slot(rs.links[root_node].bc_recv + c);
        shared_src = ns.bc_land(root_node)[slot].data();
      }
      co_await smp_slice_chunk(t, leader_local, nullptr, shared_src, off,
                               len, my_lo, my_hi,
                               static_cast<std::byte*>(recv));
    }
  }

  // Per-link sequence bookkeeping (every rank, deterministically).
  if (my_node == root_node) {
    for (int nd = 0; nd < t.nnodes(); ++nd) {
      if (nd != root_node) rs.links[nd].bc_sent += nchunks;
    }
    // Mapped path: one window export by the root, mirrored by every rank of
    // the node. (The staged smp_bc_seq parity does not advance — nobody on
    // this node touched the shared A/B buffers.)
    if (mapped) rs.map_gen[static_cast<std::size_t>(leader_local)] += 1;
  } else {
    rs.links[root_node].bc_recv += nchunks;
  }
}

sim::CoTask Communicator::real_gather(machine::TaskCtx& t, const void* send,
                                      void* recv, std::size_t bytes_per,
                                      int root) {
  obs::Span span(*t.obs, t.rank, "srm.gather");
  chk::StageScope stage(t.chk, "srm.gather");
  rank_state(t).op_seq++;
  if (bytes_per == 0) co_return;

  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  int root_node = t.topo->node_of(root);
  int my_node = t.node();
  int leader_local = my_node == root_node ? t.topo->local_of(root) : 0;
  bool is_leader = t.local() == leader_local;

  std::size_t block = bytes_per;
  std::size_t node_block = block * static_cast<std::size_t>(t.nlocal());
  std::size_t chunk = cfg_.smp_buf_bytes;
  std::size_t nchunks = detail::chunk_count(node_block, chunk);
  std::size_t my_lo = static_cast<std::size_t>(t.local()) * block;
  std::size_t my_hi = my_lo + block;
  std::size_t node_base =
      static_cast<std::size_t>(my_node) * node_block;  // in the root buffer

  auto slot_of = [this](std::uint64_t a) {
    return cfg_.use_two_buffers ? a % 2 : std::size_t{0};
  };
  int p = t.nlocal();

  lapi::Endpoint& my_ep = ep(t.rank);

  // Stage 0 (root): announce the receive buffer to every other leader.
  if (t.rank == root) {
    void* addr = recv;
    lapi::Counter org(*t.eng, "gather.addr_org@" + std::to_string(t.rank));
    std::uint64_t org_pending = 0;
    for (int nd = 0; nd < t.nnodes(); ++nd) {
      if (nd == root_node) continue;
      NodeState::Link& cl =
          nodes_[static_cast<std::size_t>(nd)]->link(root_node);
      co_await my_ep.put(ep(t.topo->master_of(nd)), &cl.ga_addr, &addr,
                         sizeof(void*), cl.ga_addr_arr.get(), &org);
      ++org_pending;
    }
    if (org_pending > 0) co_await my_ep.wait_cntr(org, org_pending);
  }

  // Single-copy path (root node only): instead of staging slices through
  // ga_stage, every local exports a window over its send block and the root
  // pulls each block straight into its final place in recv — N-1 copies
  // where the staged assembly makes 2 per byte.
  bool mapped = mapped_on(coll::CollKind::gather, node_block) &&
                t.nlocal() > 1 && my_node == root_node;
  if (mapped) {
    if (!is_leader) {
      co_await ns.map->publish(t, const_cast<void*>(send), block);
      co_await ns.map->retract(t, 1);
    } else {
      std::byte* rp = static_cast<std::byte*>(recv) + node_base;
      for (int l = 0; l < p; ++l) {
        auto li = static_cast<std::size_t>(l);
        std::size_t dst_off = static_cast<std::size_t>(l) * block;
        if (l == leader_local) {
          co_await t.nd->mem.charge_copy(static_cast<double>(block));
          std::memcpy(rp + dst_off, send, block);
          continue;
        }
        shm::Mapping::Window w;
        co_await ns.map->attach(t, l, rs.map_gen[li] + 1, &w);
        co_await t.nd->mem.charge_copy_scaled(
            static_cast<double>(block),
            t.P->topo.copy_factor(l, t.local(), true));
        std::memcpy(rp + dst_off, w.data, block);
        chk::note_read(t.chk, w.data, block);
        ns.map->detach(t, l);
      }
    }
    // Every rank of the node mirrors the leaf exports; ga_seq does not
    // advance — nobody here touched the staging pair.
    for (int l = 0; l < p; ++l) {
      if (l != leader_local) rs.map_gen[static_cast<std::size_t>(l)] += 1;
    }
    // The root still has to wait for the remote nodes' puts below.
    if (t.rank == root) {
      for (int nd = 0; nd < t.nnodes(); ++nd) {
        if (nd == root_node) continue;
        co_await my_ep.wait_cntr(*ns.link(nd).ga_done, nchunks);
      }
    }
    co_return;
  }

  // Stage 1 (everyone): assemble the node block in the shared staging pair.
  // All p locals bump the filled counter for every chunk (with or without a
  // contribution), so the expected count per chunk is exactly p.
  std::byte* root_dst = nullptr;  // leaders learn where chunks go
  if (is_leader && my_node != root_node) {
    NodeState::Link& rl = ns.link(root_node);
    co_await my_ep.wait_cntr(*rl.ga_addr_arr, 1);
    root_dst = static_cast<std::byte*>(rl.ga_addr);
  }

  lapi::Counter out_org(*t.eng, "gather.out_org@" + std::to_string(t.rank));
  std::deque<std::size_t> inflight_slots;  // staging slots with a put in air
  for (std::size_t c = 0; c < nchunks; ++c) {
    std::size_t off = c * chunk;
    std::size_t len = std::min(chunk, node_block - off);
    std::uint64_t a = rs.ga_seq + c;  // lifetime chunk index on this node
    std::size_t slot = slot_of(a);

    // Writer side: wait until all previous occupants of this slot are gone.
    co_await ns.ga_freed[slot]->await_at_least(
        cfg_.use_two_buffers ? a / 2 : a, &t.chk);
    std::size_t lo = std::max(my_lo, off);
    std::size_t hi = std::min(my_hi, off + len);
    std::byte* staging = ns.ga_stage()[slot].data();
    if (lo < hi) {
      co_await t.nd->mem.charge_copy(static_cast<double>(hi - lo));
      chk::note_write(t.chk, staging + (lo - off), hi - lo);
      std::memcpy(staging + (lo - off),
                  static_cast<const std::byte*>(send) + (lo - my_lo),
                  hi - lo);
    }
    ns.ga_filled[slot]->add(1, &t.chk);

    if (!is_leader) continue;

    // Leader side: wait for all p contributions of this chunk, then move it.
    std::uint64_t prior =
        (cfg_.use_two_buffers ? a / 2 : a) * static_cast<std::uint64_t>(p);
    co_await ns.ga_filled[slot]->await_at_least(
        prior + static_cast<std::uint64_t>(p), &t.chk);
    if (my_node == root_node) {
      // The root copies straight into its receive buffer. The stage slices
      // are dirty in p different caches; charge the stream at the average
      // pull distance (exactly 1.0 on a single-domain topology).
      double f = 0.0;
      for (int l = 0; l < p; ++l) {
        f += t.P->topo.copy_factor(l, t.local(), /*dirty=*/true);
      }
      co_await t.nd->mem.charge_copy_scaled(
          static_cast<double>(len), f / static_cast<double>(p));
      chk::note_read(t.chk, staging, len);
      std::memcpy(static_cast<std::byte*>(recv) + node_base + off, staging,
                  len);
      ns.ga_freed[slot]->add(1, &t.chk);
    } else {
      NodeState& root_ns = *nodes_[static_cast<std::size_t>(root_node)];
      co_await my_ep.put(ep(root), root_dst + node_base + off, staging, len,
                         root_ns.link(my_node).ga_done.get(), &out_org);
      inflight_slots.push_back(slot);
      // Keep at most two chunks in flight; origin-counter bumps arrive in
      // injection order, so the front of the queue is the slot that the
      // oldest put has finished reading.
      if (inflight_slots.size() >= 2) {
        co_await my_ep.wait_cntr(out_org, 1);
        ns.ga_freed[inflight_slots.front()]->add(1, &t.chk);
        inflight_slots.pop_front();
      }
    }
  }
  while (!inflight_slots.empty()) {
    co_await my_ep.wait_cntr(out_org, 1);
    ns.ga_freed[inflight_slots.front()]->add(1, &t.chk);
    inflight_slots.pop_front();
  }

  // Root: wait for every remote node's chunks to land.
  if (t.rank == root) {
    for (int nd = 0; nd < t.nnodes(); ++nd) {
      if (nd == root_node) continue;
      co_await my_ep.wait_cntr(*ns.link(nd).ga_done, nchunks);
    }
  }

  rs.ga_seq += nchunks;
}

sim::CoTask Communicator::real_allgather(machine::TaskCtx& t,
                                         const void* send, void* recv,
                                         std::size_t bytes_per) {
  obs::Span span(*t.obs, t.rank, "srm.allgather");
  chk::StageScope stage(t.chk, "srm.allgather");
  co_await real_gather(t, send, recv, bytes_per, 0);
  co_await real_bcast(t, recv,
                      bytes_per * static_cast<std::size_t>(t.nranks()), 0);
}

sim::CoTask Communicator::real_reduce_scatter(machine::TaskCtx& t,
                                              const void* send, void* recv,
                                              std::size_t count_per_rank,
                                              coll::Dtype d, coll::RedOp op) {
  obs::Span span(*t.obs, t.rank, "srm.reduce_scatter");
  chk::StageScope stage(t.chk, "srm.reduce_scatter");
  std::size_t total = count_per_rank * static_cast<std::size_t>(t.nranks());
  std::vector<std::byte> tmp;
  if (t.rank == 0) tmp.resize(total * coll::dtype_size(d));
  co_await real_reduce(t, send, t.rank == 0 ? tmp.data() : recv, total, d, op,
                       0);
  co_await real_scatter(t, tmp.data(), recv,
                        count_per_rank * coll::dtype_size(d), 0);
}

}  // namespace srm
