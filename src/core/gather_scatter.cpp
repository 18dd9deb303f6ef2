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
//  * allgather on a staged row = gather to rank 0 + broadcast (the
//    composition benefits from both optimized halves). A direct row runs
//    without a root: every leader assembles its node block with the
//    gather's node assembly (gather_node), the leaders pass node blocks
//    around the node ring (Communicator::Ring, core/zoo.cpp), and each
//    block is published locally through Fig. 3 as it lands. A mapped
//    direct row gives every socket its own leader, ring and window
//    (allgather_sockets);
//  * reduce_scatter on a staged row = reduce to rank 0 + scatter. A direct
//    row runs the root-free protocol of core/reduce_scatter.cpp instead.
// Each call of a composition runs its own row at its own size.
#include <algorithm>
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
  bool mapped = decide(t, coll::CollKind::scatter, block).mapped;

  if (t.rank == root) {
    lapi::Endpoint& my_ep = ep(t.rank);
    lapi::Counter org(*t.eng, {"scatter.org", t.rank});
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
  int root_node = t.topo->node_of(root);
  int my_node = t.node();
  int leader_local = my_node == root_node ? t.topo->local_of(root) : 0;
  bool is_leader = t.local() == leader_local;

  std::size_t block = bytes_per;
  int p = t.nlocal();
  std::vector<std::size_t> off(static_cast<std::size_t>(p) + 1);
  for (int l = 0; l <= p; ++l) {
    off[static_cast<std::size_t>(l)] = static_cast<std::size_t>(l) * block;
  }
  std::size_t node_block = off.back();
  std::size_t nchunks = detail::chunk_count(node_block, cfg_.smp_buf_bytes);
  std::size_t node_base =
      static_cast<std::size_t>(my_node) * node_block;  // in the root buffer

  lapi::Endpoint& my_ep = ep(t.rank);

  // Stage 0 (root): announce the receive buffer to every other leader.
  if (t.rank == root) {
    void* addr = recv;
    lapi::Counter org(*t.eng, {"gather.addr_org", t.rank});
    std::uint64_t org_pending = 0;
    for (int nd = 0; nd < t.nnodes(); ++nd) {
      if (nd == root_node) continue;
      NodeState::Link::GaCell& cell =
          nodes_[static_cast<std::size_t>(nd)]->ga_cell(root_node, t.local());
      co_await my_ep.put(ep(t.topo->master_of(nd)), &cell.addr, &addr,
                         sizeof(void*), cell.arr.get(), &org);
      ++org_pending;
    }
    if (org_pending > 0) co_await my_ep.wait_cntr(org, org_pending);
  }

  // Stage 1 (everyone): assemble the node block. The root node assembles
  // it in place in recv, mapped when its row says so; every other leader
  // learns where its chunks go and puts them there.
  if (my_node == root_node) {
    co_await gather_node(
        t, send, static_cast<std::byte*>(recv) + node_base, off, leader_local,
        decide(t, coll::CollKind::gather, block).mapped, -1);
  } else {
    std::byte* root_dst = nullptr;
    if (is_leader) {
      NodeState::Link::GaCell& cell =
          ns.ga_cell(root_node, t.topo->local_of(root));
      co_await my_ep.wait_cntr(*cell.arr, 1);
      root_dst = static_cast<std::byte*>(cell.addr) + node_base;
    }
    co_await gather_node(t, send, root_dst, off, leader_local, false, root);
  }

  // Root: wait for every remote node's chunks to land.
  if (t.rank == root) {
    for (int nd = 0; nd < t.nnodes(); ++nd) {
      if (nd == root_node) continue;
      co_await my_ep.wait_cntr(*ns.link(nd).ga_done, nchunks);
    }
  }
}

sim::CoTask Communicator::gather_node(machine::TaskCtx& t, const void* send,
                                      std::byte* dst,
                                      const std::vector<std::size_t>& off,
                                      int leader_local, bool mapped, int to) {
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  int p = t.nlocal();
  bool is_leader = t.local() == leader_local;
  auto mi = static_cast<std::size_t>(t.local());
  std::size_t my_lo = off[mi];
  std::size_t my_hi = off[mi + 1];

  // Single-copy path: instead of staging slices through ga_stage, every
  // local exports a window over its send block and the leader pulls each
  // block straight into its final place in dst — N-1 copies where the
  // staged assembly makes 2 per byte.
  if (mapped) {
    if (!is_leader) {
      co_await ns.map->publish(t, const_cast<void*>(send), my_hi - my_lo);
      co_await ns.map->retract(t, 1);
    } else {
      for (int l = 0; l < p; ++l) {
        auto li = static_cast<std::size_t>(l);
        std::size_t len = off[li + 1] - off[li];
        if (l == leader_local) {
          // Already in place when the leader's block is part of dst.
          if (dst + off[li] != send) {
            co_await t.nd->mem.charge_copy(static_cast<double>(len));
            std::memcpy(dst + off[li], send, len);
          }
          continue;
        }
        shm::Mapping::Window w;
        co_await ns.map->attach(t, l, rs.map_gen[li] + 1, &w);
        co_await t.nd->mem.charge_copy_scaled(
            static_cast<double>(len),
            t.P->topo.copy_factor(l, t.local(), true));
        std::memcpy(dst + off[li], w.data, len);
        chk::note_read(t.chk, w.data, len);
        ns.map->detach(t, l);
      }
    }
    // Every rank of the node mirrors the leaf exports; ga_seq does not
    // advance — nobody here touched the staging pair.
    for (int l = 0; l < p; ++l) {
      if (l != leader_local) rs.map_gen[static_cast<std::size_t>(l)] += 1;
    }
    co_return;
  }

  // Staged: assemble the node block chunk-wise in the shared staging pair.
  // All p locals bump the filled counter for every chunk (with or without a
  // contribution), so the expected count per chunk is exactly p.
  std::size_t node_block = off.back();
  std::size_t chunk = cfg_.smp_buf_bytes;
  std::size_t nchunks = detail::chunk_count(node_block, chunk);
  auto slot_of = [this](std::uint64_t a) {
    return cfg_.use_two_buffers ? a % 2 : std::size_t{0};
  };
  lapi::Endpoint& my_ep = ep(t.rank);
  lapi::Counter out_org(*t.eng, {"gather.out_org", t.rank});
  std::deque<std::size_t> inflight_slots;  // staging slots with a put in air
  for (std::size_t c = 0; c < nchunks; ++c) {
    std::size_t off_c = c * chunk;
    std::size_t len = std::min(chunk, node_block - off_c);
    std::uint64_t a = rs.ga_seq + c;  // lifetime chunk index on this node
    std::size_t slot = slot_of(a);

    // Writer side: wait until all previous occupants of this slot are gone.
    co_await ns.ga_freed[slot]->await_at_least(
        cfg_.use_two_buffers ? a / 2 : a, &t.chk);
    std::size_t lo = std::max(my_lo, off_c);
    std::size_t hi = std::min(my_hi, off_c + len);
    std::byte* staging = ns.ga_stage()[slot].data();
    if (lo < hi) {
      co_await t.nd->mem.charge_copy(static_cast<double>(hi - lo));
      chk::note_write(t.chk, staging + (lo - off_c), hi - lo);
      std::memcpy(staging + (lo - off_c),
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
    if (to < 0) {
      // The leader copies straight into dst. The stage slices are dirty
      // in p different caches; charge the stream at the average pull
      // distance (exactly 1.0 on a single-domain topology).
      double f = 0.0;
      for (int l = 0; l < p; ++l) {
        f += t.P->topo.copy_factor(l, t.local(), /*dirty=*/true);
      }
      co_await t.nd->mem.charge_copy_scaled(
          static_cast<double>(len), f / static_cast<double>(p));
      chk::note_read(t.chk, staging, len);
      std::memcpy(dst + off_c, staging, len);
      ns.ga_freed[slot]->add(1, &t.chk);
    } else {
      NodeState& to_ns =
          *nodes_[static_cast<std::size_t>(t.topo->node_of(to))];
      co_await my_ep.put(ep(to), dst + off_c, staging, len,
                         to_ns.link(t.node()).ga_done.get(), &out_org);
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
  rs.ga_seq += nchunks;
}

sim::CoTask Communicator::real_allgather(machine::TaskCtx& t,
                                         const void* send, void* recv,
                                         std::size_t bytes_per) {
  obs::Span span(*t.obs, t.rank, "srm.allgather");
  chk::StageScope stage(t.chk, "srm.allgather");
  coll::Decision dec = decide(t, coll::CollKind::allgather, bytes_per);
  if (dec.algo == coll::Algo::direct) {
    rank_state(t).op_seq++;
    if (bytes_per == 0) co_return;
    co_await allgather_direct(
        t, send, recv,
        {bytes_per * static_cast<std::size_t>(t.nranks()), t.nranks()}, 1,
        dec.mapped);
    co_return;
  }
  co_await real_gather(t, send, recv, bytes_per, 0);
  co_await real_bcast(t, recv,
                      bytes_per * static_cast<std::size_t>(t.nranks()), 0);
}

sim::CoTask Communicator::allgather_direct(machine::TaskCtx& t,
                                           const void* send, void* recv,
                                           const Blocks& blk,
                                           std::size_t esize, bool mapped) {
  obs::Span span(*t.obs, t.rank, "allgather.direct");
  if (mapped) {
    co_await allgather_sockets(t, send, recv, blk, esize);
    co_return;
  }
  chk::StageScope stage(t.chk, "allgather.direct");
  const int n = t.nnodes();
  const int p = t.nlocal();
  const int v = t.node();
  // Node i's segment and, within this node's, local l's block, in bytes.
  std::vector<std::size_t> lo(static_cast<std::size_t>(n) + 1);
  std::vector<int> leader(static_cast<std::size_t>(n));
  for (int i = 0; i <= n; ++i) {
    lo[static_cast<std::size_t>(i)] = blk.lo(i * p) * esize;
    if (i < n) leader[static_cast<std::size_t>(i)] = t.topo->master_of(i);
  }
  std::vector<std::size_t> off(static_cast<std::size_t>(p) + 1);
  for (int l = 0; l <= p; ++l) {
    off[static_cast<std::size_t>(l)] = blk.lo(v * p + l) * esize -
                                       lo[static_cast<std::size_t>(v)];
  }
  auto* base = static_cast<std::byte*>(recv);
  Ring ring(*this, t, base, std::move(lo), std::move(leader));
  lapi::Endpoint& my_ep = ep(t.rank);
  bool lead = ring.leads() && n > 1;

  // The leader announces its buffer to the predecessor first, so the ring
  // can start as soon as the predecessor has assembled its segment.
  if (lead) {
    my_ep.set_interrupts(false);
    bool incoming = false;
    for (int b = 0; b < n; ++b) {
      if (b != v && ring.len(b) > 0) incoming = true;
    }
    if (incoming) co_await ring.announce((v + n - 1) % n);
  }
  co_await gather_node(t, send, base + ring.lo[static_cast<std::size_t>(v)],
                       off, ring.leader_local, false, -1);
  co_await ring.steps(1, true);
  if (lead) {
    co_await ring.drain();
    my_ep.set_interrupts(true);
  }
}

// The mapped root-free allgather. Per domain (socket) of a node:
//
//  * Windows. The head copies its own block into place and exports its
//    whole recv as one window for the call. Every other local with a
//    nonempty block exports its send block when the node has more than
//    one domain: the other domains' locals pull it from there.
//  * Assembly. Every local of the domain writes the node's segment into
//    its head's window in parallel: its own block (its own data, the
//    baseline stream) and its round-robin share of the other domains'
//    blocks, pulled from their owners' windows (the other heads' recv
//    windows, the others' send windows; dirty: their owners wrote them).
//    Each local other than the head then adds one to its domain's
//    assembled count (NodeState::AgFlags), which the head awaits before
//    ring step 0. No byte of the segment is restaged.
//  * Ring. The heads of domain d on every node form their own ring (its
//    arrivals on the domain's Link::RingCells), so a segment lands from
//    the network in every socket's head's recv and never crosses a socket
//    inside a node.
//  * Publish. The head adds one to its domain's ready count per segment
//    it holds, in ring order; its socket's locals copy each flagged segment
//    straight out of the head's window: landed segments clean (the NIC
//    wrote them to memory), the node's own segment, minus the reader's own
//    block, dirty from the locals that wrote it (smp_bcast_chunk's rule
//    for the far buffer). A local retracts its send window before its
//    first copy into recv, and a head retracts its window once its readers
//    and the other domains' pullers of its block have detached.
sim::CoTask Communicator::allgather_sockets(machine::TaskCtx& t,
                                            const void* send, void* recv,
                                            const Blocks& blk,
                                            std::size_t esize) {
  obs::Span span(*t.obs, t.rank, "smp.allgather_mapped");
  chk::StageScope stage(t.chk, "allgather.sockets");
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  const int n = t.nnodes();
  const int p = t.nlocal();
  const int v = t.node();
  const int me = t.local();
  const detail::Domains dom(t.P->topo, p);
  const int my_dom = dom.of(me);
  const int head = dom.first(my_dom);
  const bool is_head = me == head;
  const int my_size = dom.size(my_dom, p);
  if (rs.ag_seq.size() < static_cast<std::size_t>(dom.count)) {
    rs.ag_seq.resize(static_cast<std::size_t>(dom.count));
  }
  // Local l's block in recv, in bytes.
  auto blo = [&](int l) { return blk.lo(v * p + l) * esize; };
  auto bhi = [&](int l) { return blk.lo(v * p + l + 1) * esize; };
  auto exports = [&](int l) {
    return dom.head(l) || (dom.count > 1 && bhi(l) > blo(l));
  };
  // The local of this domain that writes local l's block into the head's
  // window: l itself in its own domain; the other domains' nonempty
  // blocks are dealt round-robin over this domain's locals.
  std::vector<int> writer(static_cast<std::size_t>(p), -1);
  for (int l = 0, k = 0; l < p; ++l) {
    auto li = static_cast<std::size_t>(l);
    if (dom.of(l) == my_dom) {
      writer[li] = l;
    } else if (bhi(l) > blo(l)) {
      writer[li] = head + k++ % my_size;
    }
  }
  auto writer_of = [&](int l) { return writer[static_cast<std::size_t>(l)]; };
  std::vector<std::size_t> lo(static_cast<std::size_t>(n) + 1);
  std::vector<int> leader(static_cast<std::size_t>(n));
  for (int i = 0; i <= n; ++i) {
    lo[static_cast<std::size_t>(i)] = blk.lo(i * p) * esize;
    if (i < n) leader[static_cast<std::size_t>(i)] = t.topo->rank_of(i, head);
  }
  auto* base = static_cast<std::byte*>(recv);
  const std::size_t my_lo = blo(me);
  const std::size_t my_hi = bhi(me);
  Ring ring(*this, t, base, std::move(lo), std::move(leader));
  ring.dom = my_dom;
  lapi::Counter org(*t.eng, {"ag.org", t.rank});
  ring.org = &org;
  lapi::Endpoint& my_ep = ep(t.rank);
  const bool lead = is_head && n > 1;
  auto gen = [&](int l) { return rs.map_gen[static_cast<std::size_t>(l)] + 1; };
  // This rank's own block into its place in @p dst: its own recv, or its
  // head's window, which records the write.
  auto own_block = [&](std::byte* dst) -> sim::CoTask {
    if (my_hi > my_lo && dst + my_lo != send) {
      co_await t.nd->mem.charge_copy(static_cast<double>(my_hi - my_lo));
      std::memcpy(dst + my_lo, send, my_hi - my_lo);
      if (dst != base) chk::note_write(t.chk, dst + my_lo, my_hi - my_lo);
    }
  };
  // This local's share: every other domain's block dealt to it, pulled
  // from its owner's window into the head's window at @p win.
  auto pull_share = [&](std::byte* win) -> sim::CoTask {
    for (int l = 0; l < p; ++l) {
      if (dom.of(l) == my_dom || writer_of(l) != me) continue;
      shm::Mapping::Window w;
      co_await ns.map->attach(t, l, gen(l), &w);
      const std::byte* src = dom.head(l) ? w.data + blo(l) : w.data;
      co_await t.nd->mem.charge_copy_scaled(
          static_cast<double>(bhi(l) - blo(l)),
          t.P->topo.copy_factor(l, me, /*dirty=*/true));
      std::memcpy(win + blo(l), src, bhi(l) - blo(l));
      chk::note_read(t.chk, src, bhi(l) - blo(l));
      chk::note_write(t.chk, win + blo(l), bhi(l) - blo(l));
      ns.map->detach(t, l);
    }
  };

  const RankState::AgSeq seq = rs.ag_seq[static_cast<std::size_t>(my_dom)];
  NodeState::AgFlags& flags = ns.ag_flags(my_dom);
  shm::SharedFlag& ready = *flags.ready;
  shm::SharedFlag& shares = *flags.assembled;
  if (is_head) {
    co_await own_block(base);
    co_await ns.map->publish(t, base, blk.total * esize);
    // The window is live before the predecessor learns where to put.
    if (lead) {
      my_ep.set_interrupts(false);
      bool incoming = false;
      for (int b = 0; b < n; ++b) {
        if (b != v && ring.len(b) > 0) incoming = true;
      }
      if (incoming) co_await ring.announce((v + n - 1) % n);
    }
    co_await pull_share(base);
    co_await shares.await_at_least(
        seq.assembled + static_cast<std::uint64_t>(my_size - 1), &t.chk);
    ring.publish = [&](int) -> sim::CoTask {
      ready.add(1, &t.chk);
      co_return;
    };
    co_await ring.steps(1, true);
    if (lead) {
      co_await ring.drain();
      my_ep.set_interrupts(true);
    }
    int readers = my_size - 1;
    if (my_hi > my_lo) readers += dom.count - 1;
    co_await ns.map->retract(t, readers);
  } else {
    if (exports(me)) {
      co_await ns.map->publish(t, const_cast<void*>(send), my_hi - my_lo);
    }
    shm::Mapping::Window w;
    co_await ns.map->attach(t, head, gen(head), &w);
    co_await own_block(w.data);
    co_await pull_share(w.data);
    shares.add(1, &t.chk);
    if (exports(me)) co_await ns.map->retract(t, dom.count - 1);
    co_await own_block(base);
    // One copy of [from, to) out of the head's window. The node's own
    // segment is charged at the block-length-weighted factor of the
    // locals that wrote it; a landed one is clean at the head's distance.
    auto copy = [&](std::size_t from, std::size_t to,
                    bool own) -> sim::CoTask {
      if (to <= from) co_return;
      double f = t.P->topo.copy_factor(head, me, /*dirty=*/false);
      if (own) {
        double weighted = 0.0;
        for (int l = 0; l < p; ++l) {
          std::size_t a = std::max(blo(l), from);
          std::size_t b = std::min(bhi(l), to);
          if (a >= b) continue;
          weighted += static_cast<double>(b - a) *
                      t.P->topo.copy_factor(writer_of(l), me, /*dirty=*/true);
        }
        f = weighted / static_cast<double>(to - from);
      }
      co_await t.nd->mem.charge_copy_scaled(static_cast<double>(to - from),
                                            f);
      std::memcpy(base + from, w.data + from, to - from);
      chk::note_read(t.chk, w.data + from, to - from);
    };
    std::uint64_t k = seq.ready;
    ring.publish = [&](int b) -> sim::CoTask {
      co_await ready.await_at_least(++k, &t.chk);
      std::size_t from = ring.lo[static_cast<std::size_t>(b)];
      std::size_t to = ring.lo[static_cast<std::size_t>(b) + 1];
      if (b != v) {
        co_await copy(from, to, /*own=*/false);
      } else {
        co_await copy(from, my_lo, /*own=*/true);
        co_await copy(my_hi, to, /*own=*/true);
      }
    };
    co_await ring.steps(1, true);
    ns.map->detach(t, head);
  }

  // Bookkeeping, identical on every rank of the node: one export per
  // window above, per domain one flag per nonempty segment and one
  // assembly share per local other than its head.
  for (int l = 0; l < p; ++l) {
    if (exports(l)) rs.map_gen[static_cast<std::size_t>(l)] += 1;
  }
  std::uint64_t segments = 0;
  for (int b = 0; b < n; ++b) {
    if (ring.len(b) > 0) ++segments;
  }
  for (int d = 0; d < dom.count; ++d) {
    RankState::AgSeq& s = rs.ag_seq[static_cast<std::size_t>(d)];
    s.ready += segments;
    s.assembled += static_cast<std::uint64_t>(dom.size(d, p) - 1);
  }
}

sim::CoTask Communicator::real_reduce_scatter(machine::TaskCtx& t,
                                              const void* send, void* recv,
                                              std::size_t count_per_rank,
                                              coll::Dtype d, coll::RedOp op) {
  obs::Span span(*t.obs, t.rank, "srm.reduce_scatter");
  chk::StageScope stage(t.chk, "srm.reduce_scatter");
  std::size_t esize = coll::dtype_size(d);
  coll::Decision dec =
      decide(t, coll::CollKind::reduce_scatter, count_per_rank * esize);
  if (dec.algo == coll::Algo::direct) {
    rank_state(t).op_seq++;
    if (count_per_rank == 0) co_return;
    co_await reduce_scatter_direct(
        t, send, recv,
        {count_per_rank * static_cast<std::size_t>(t.nranks()), t.nranks()},
        /*even=*/false, d, op, dec);
    co_return;
  }
  std::size_t total = count_per_rank * static_cast<std::size_t>(t.nranks());
  std::vector<std::byte> tmp;
  if (t.rank == 0) tmp.resize(total * esize);
  co_await real_reduce(t, send, t.rank == 0 ? tmp.data() : recv, total, d, op,
                       0);
  co_await real_scatter(t, tmp.data(), recv, count_per_rank * esize, 0);
}

}  // namespace srm
