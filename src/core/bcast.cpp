// SRM broadcast (paper §2.4, Fig. 4).
//
// Small (staged) protocol: the parent leader puts each chunk into one of
// the two shared-memory landing buffers the child keeps for that link,
// guarded by per-buffer free-credit counters (LAPI_Waitcntr instead of
// spinning, so the dispatcher polls). The SMP broadcast then reads straight
// out of the landing buffer — no staging copy. The row's chunk sets the
// step pipelined over the two buffers: the paper splits (8 KB, 32 KB] into
// 4 KB chunks and sends up to 64 KB in one step (ibm_sp()'s rows); a
// chunked row carries any size.
//
// Large (direct) protocol: an address-exchange stage, then chunks are put
// directly into the child leaders' *user* buffers — no intermediate buffer
// at all — and each node publishes arrived chunks to its local tasks through
// the Fig. 3 double buffers, overlapping the network with the SMP copies.
#include <cstring>

#include "core/communicator.hpp"
#include "core/detail.hpp"

namespace srm {

namespace {
/// Internode children in broadcast send order (largest subtree first).
std::vector<int> bcast_children(const coll::Tree& tree, int node) {
  auto kids = tree.children[static_cast<std::size_t>(node)];
  return {kids.rbegin(), kids.rend()};
}
}  // namespace

sim::CoTask Communicator::bcast_small(machine::TaskCtx& t, void* buf,
                                      std::size_t bytes,
                                      const coll::Embedding& emb,
                                      bool mapped, std::size_t chunk) {
  obs::Span span(*t.obs, t.rank, "bcast.small");
  chk::StageScope stage(t.chk, "bcast.small");
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  int my_node = t.node();
  int leader = emb.leader[static_cast<std::size_t>(my_node)];
  int leader_local = t.topo->local_of(leader);
  int parent = emb.internode.parent[static_cast<std::size_t>(my_node)];
  bool is_root_node = parent == -1;

  std::size_t step = coll::bcast_step(chunk, bytes);
  std::size_t nchunks = detail::chunk_count(bytes, step);

  auto finish_bookkeeping = [&] {
    if (!is_root_node) rs.links[parent].bc_recv += nchunks;
    for (int child : emb.internode.children[static_cast<std::size_t>(my_node)]) {
      rs.links[child].bc_sent += nchunks;
    }
  };

  // Single-buffer ablation: the landing pair degenerates to one slot too.
  auto link_slot = [this](std::uint64_t seq) {
    return cfg_.use_two_buffers ? seq % 2 : std::size_t{0};
  };

  // Single-copy path (@p mapped): only the *root* node stages through the
  // shared buffer (elsewhere the data already lands in shared memory); a
  // mapped fan-out from the root's user buffer removes that staging copy.
  // One window over the whole message — the row's chunking is a
  // staging-buffer artifact the mapped path doesn't need.

  if (t.rank != leader) {
    // Pure consumer: copy each chunk out of the landing buffer (non-root
    // nodes) or the SMP broadcast buffer (root node) when READY.
    if (is_root_node && mapped) {
      co_await smp_bcast_mapped(t, leader_local, nullptr, buf, bytes);
      finish_bookkeeping();
      co_return;
    }
    for (std::size_t c = 0; c < nchunks; ++c) {
      std::size_t off = c * step;
      std::size_t len = std::min(step, bytes - off);
      const std::byte* shared_src = nullptr;
      if (!is_root_node) {
        std::size_t lslot = link_slot(rs.links[parent].bc_recv + c);
        shared_src = ns.bc_land(parent)[lslot].data();
      }
      co_await smp_bcast_chunk(t, leader_local, nullptr,
                               static_cast<std::byte*>(buf) + off, len,
                               shared_src);
    }
    finish_bookkeeping();
    co_return;
  }

  auto kids = bcast_children(emb.internode, my_node);
  lapi::Endpoint& my_ep = ep(t.rank);
  // Puts sourced from the user buffer must have left the adapter before the
  // operation returns (the caller may immediately reuse the buffer).
  lapi::Counter org(*t.eng, {"bcast.org", t.rank});
  std::uint64_t org_pending = 0;

  for (std::size_t c = 0; c < nchunks; ++c) {
    std::size_t off = c * step;
    std::size_t len = std::min(step, bytes - off);

    const std::byte* data;
    std::size_t in_slot = 0;
    if (is_root_node) {
      data = static_cast<const std::byte*>(buf) + off;
    } else {
      // Wait for the parent's put to land in this link's buffer.
      in_slot = link_slot(rs.links[parent].bc_recv + c);
      co_await my_ep.wait_cntr(*ns.link(parent).bc_arrived[in_slot], 1);
      data = ns.bc_land(parent)[in_slot].data();
    }

    // Send down the tree first (nonblocking puts), then broadcast locally —
    // Fig. 4 steps 1 and 2.
    for (int child : kids) {
      auto ci = static_cast<std::size_t>(child);
      NodeState& cs = *nodes_[ci];
      int child_leader = emb.leader[ci];
      std::size_t out_slot = link_slot(rs.links[child].bc_sent + c);
      co_await my_ep.wait_cntr(*ns.link(child).bc_free[out_slot], 1);
      // Forwards from a landing buffer need no origin tracking: the buffer
      // cannot be overwritten before this put leaves (the parent's next put
      // is gated on a credit that follows it through the same NIC FIFO).
      co_await my_ep.put(ep(child_leader),
                         cs.bc_land(my_node)[out_slot].data(), data, len,
                         cs.link(my_node).bc_arrived[out_slot].get(),
                         is_root_node ? &org : nullptr);
      if (is_root_node) ++org_pending;
    }

    if (is_root_node) {
      if (!mapped) {
        co_await smp_bcast_chunk(t, leader_local, data,
                                 static_cast<std::byte*>(buf) + off, len,
                                 nullptr);
      }
    } else {
      std::size_t flag_slot = cfg_.use_two_buffers ? rs.smp_bc_seq % 2 : 0;
      co_await smp_bcast_chunk(t, leader_local, nullptr,
                               static_cast<std::byte*>(buf) + off, len, data);
      // The landing buffer is free once every local consumer cleared its
      // READY flag; then tell the parent (Fig. 4 step 3: zero-byte put).
      for (int l = 0; l < ns.nlocal; ++l) {
        if (l == leader_local) continue;
        co_await (*ns.bc_ready[flag_slot])[l].await_value(0, &t.chk);
      }
      auto pi = static_cast<std::size_t>(parent);
      co_await my_ep.put_signal(ep(emb.leader[pi]),
                                *nodes_[pi]->link(my_node).bc_free[in_slot]);
    }
  }
  if (is_root_node && mapped) {
    // Mapped local fan-out after the puts are on the wire: the consumers
    // pull straight from the root's user buffer while the network streams.
    co_await smp_bcast_mapped(t, leader_local, buf, buf, bytes);
  }
  if (org_pending > 0) {
    co_await my_ep.wait_cntr(org, org_pending);
  }
  finish_bookkeeping();
}

sim::CoTask Communicator::bcast_large(machine::TaskCtx& t, void* buf,
                                      std::size_t bytes,
                                      const coll::Embedding& emb,
                                      std::size_t chunk,
                                      lapi::Counter* src_gate, bool mapped) {
  obs::Span span(*t.obs, t.rank, "bcast.large");
  chk::StageScope stage(t.chk, "bcast.large");
  NodeState& ns = node_state(t);
  int my_node = t.node();
  int leader = emb.leader[static_cast<std::size_t>(my_node)];
  int leader_local = t.topo->local_of(leader);
  int parent = emb.internode.parent[static_cast<std::size_t>(my_node)];
  std::size_t nchunks = detail::chunk_count(bytes, chunk);

  // The SMP publish stage moves at most one shared buffer per step; network
  // chunks larger than that are published in sub-chunks. The mapped path
  // exports the whole network chunk as one window instead — no staging
  // buffer, so no sub-chunking and one copy per consumer instead of two.
  auto smp_publish = [this, &t, leader_local, buf, mapped](
                         std::size_t off, std::size_t len,
                         bool is_leader) -> sim::CoTask {
    std::byte* p = static_cast<std::byte*>(buf) + off;
    if (mapped) {
      co_await smp_bcast_mapped(t, leader_local, is_leader ? p : nullptr, p,
                                len);
    } else {
      co_await smp_publish_staged(t, leader_local, p, p, len);
    }
  };

  if (t.rank != leader) {
    for (std::size_t c = 0; c < nchunks; ++c) {
      std::size_t off = c * chunk;
      std::size_t len = std::min(chunk, bytes - off);
      co_await smp_publish(off, len, false);
    }
    co_return;
  }

  lapi::Endpoint& my_ep = ep(t.rank);
  auto kids = bcast_children(emb.internode, my_node);
  // Every put below is sourced from the user buffer (or this frame), so all
  // of them must have left the adapter before the operation returns.
  lapi::Counter org(*t.eng, {"bcast_large.org", t.rank});
  std::uint64_t org_pending = 0;

  // Stage 1 (initialization): leaves announce their user-buffer address to
  // the parent with a small put.
  void* my_addr = buf;
  if (parent != -1) {
    int parent_leader = emb.leader[static_cast<std::size_t>(parent)];
    NodeState::Link& pl =
        nodes_[static_cast<std::size_t>(parent)]->link(my_node);
    co_await my_ep.put(ep(parent_leader), &pl.bc_addr, &my_addr,
                       sizeof(void*), pl.bc_addr_arrived.get(), &org);
    ++org_pending;
  }

  std::vector<std::byte*> child_addr(kids.size(), nullptr);

  for (std::size_t c = 0; c < nchunks; ++c) {
    std::size_t off = c * chunk;
    std::size_t len = std::min(chunk, bytes - off);
    if (parent != -1) {
      // Stage 2: wait for this chunk to land in our user buffer.
      co_await my_ep.wait_cntr(*ns.link(parent).bc_large_arrived, 1);
    } else if (src_gate != nullptr) {
      // Pipelined allreduce: wait until the reduce phase finished this chunk.
      co_await my_ep.wait_cntr(*src_gate, 1);
    }
    // Forward straight from the user buffer — no intermediate buffers.
    for (std::size_t k = 0; k < kids.size(); ++k) {
      int child = kids[k];
      NodeState& cs = *nodes_[static_cast<std::size_t>(child)];
      if (c == 0) {
        NodeState::Link& cl = ns.link(child);
        co_await my_ep.wait_cntr(*cl.bc_addr_arrived, 1);
        child_addr[k] = static_cast<std::byte*>(cl.bc_addr);
      }
      co_await my_ep.put(
          ep(emb.leader[static_cast<std::size_t>(child)]), child_addr[k] + off,
          static_cast<const std::byte*>(buf) + off, len,
          cs.link(my_node).bc_large_arrived.get(), &org);
      ++org_pending;
    }
    // Stages 3/4: SMP broadcast of the arrived chunk, pipelined through the
    // two shared buffers while the network keeps streaming.
    co_await smp_publish(off, len, true);
  }
  if (org_pending > 0) {
    co_await my_ep.wait_cntr(org, org_pending);
  }
}

}  // namespace srm
