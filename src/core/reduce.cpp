// SRM reduce (paper §2.4): a chunked pipeline that overlaps the intra-node
// shared-memory combine (Fig. 2), the inter-node puts between node leaders,
// and the operator execution.
//
// Per chunk, on every node: local tasks feed the binomial shared-memory tree
// (smp.cpp); the leader combines its own data, its local children's slots,
// and the landing zones filled by its inter-node children's puts; non-root
// leaders then put the node result to their parent's landing zone — two
// landing slots per child with credit counters, two output slots guarded by
// the put origin counter, so up to two chunks are in flight on every edge.
#include <cstring>

#include "core/communicator.hpp"
#include "core/detail.hpp"

namespace srm {

sim::CoTask Communicator::reduce_impl(machine::TaskCtx& t, const void* send,
                                      void* recv, std::size_t count,
                                      coll::Dtype d, coll::RedOp op, int root,
                                      lapi::Counter* chunk_done) {
  obs::Span span(*t.obs, t.rank, "reduce.pipeline");
  chk::StageScope stage(t.chk, "reduce.pipeline");
  std::size_t esize = coll::dtype_size(d);
  coll::Decision dec = decide(coll::CollKind::reduce, count * esize);
  coll::Embedding emb =
      coll::embed(*t.topo, root, dec.internode, cfg_.intranode_tree);
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  int my_node = t.node();
  int leader = emb.leader[static_cast<std::size_t>(my_node)];
  // Single-copy path: leaves of the topology tree export their send buffers
  // as windows and the interior combines straight out of them — no staging
  // copies at all, and every cache-domain boundary crossed exactly once.
  bool mapped = mapped_on(coll::CollKind::reduce, count * esize);
  coll::Tree itree =
      mapped ? coll::topo_tree(t.P->topo, t.nlocal(), t.topo->local_of(leader),
                               /*binomial=*/true)
             : coll::build_tree(cfg_.intranode_tree, t.nlocal(),
                                t.topo->local_of(leader));

  std::size_t chunk_elems = cfg_.reduce_chunk / esize;
  std::size_t nchunks = detail::chunk_count(count, chunk_elems);

  if (t.rank != leader) {
    if (mapped) {
      co_await smp_reduce_participant_mapped(t, itree, send, count, d, op);
      finish_reduce_bookkeeping_mapped(t, emb, itree, nchunks);
    } else {
      co_await smp_reduce_participant(t, itree, send, count, d, op);
      finish_reduce_bookkeeping(t, emb, nchunks);
    }
    co_return;
  }

  lapi::Endpoint& my_ep = ep(t.rank);
  int parent = emb.internode.parent[static_cast<std::size_t>(my_node)];
  const auto& kids = emb.internode.children[static_cast<std::size_t>(my_node)];
  bool is_root_node = parent == -1;
  std::uint64_t out_inflight = 0;

  // Mapped path: attach the leader's leaf-children windows once, up front —
  // the chunk loop then reads them with no per-chunk handshake.
  std::vector<shm::Mapping::Window> wins;
  if (mapped) co_await attach_leaf_windows(t, itree, wins);

  for (std::size_t c = 0; c < nchunks; ++c) {
    std::size_t elem_off = c * chunk_elems;
    std::size_t elems = std::min(chunk_elems, count - elem_off);
    double bytes = static_cast<double>(elems * esize);

    // Destination of this chunk's node+subtree result.
    std::byte* dst;
    if (is_root_node) {
      dst = static_cast<std::byte*>(recv) + elem_off * esize;
    } else {
      // Output slot reuse: wait for the put of chunk c-2 to have left.
      if (out_inflight == 2) {
        co_await my_ep.wait_cntr(*ns.red_out_org, 1);
        --out_inflight;
      }
      dst = ns.red_out[c % 2].data();
    }

    // Intra-node combine straight into dst.
    if (mapped) {
      co_await smp_reduce_chunk_leader_mapped(t, itree, send, dst, c,
                                              elem_off, elems, d, op, wins);
    } else {
      co_await smp_reduce_chunk_leader(t, itree, send, dst, c, elem_off,
                                       elems, d, op);
    }

    // Fold in the inter-node children's landing zones as they arrive.
    for (int child : kids) {
      auto ci = static_cast<std::size_t>(child);
      co_await my_ep.wait_cntr(*ns.link(child).red_arrived, 1);
      std::size_t lslot = (rs.links[child].red_recvd + c) % 2;
      const std::byte* land = ns.red_land(child)[lslot].data();
      co_await t.nd->mem.charge_combine(bytes);
      chk::note_read(t.chk, land, elems * esize);
      chk::note_write(t.chk, dst, elems * esize);
      coll::combine(op, d, dst, land, elems);
      // Return the landing-slot credit to the child.
      co_await my_ep.put_signal(ep(emb.leader[ci]), *nodes_[ci]->red_free);
    }

    if (is_root_node) {
      if (chunk_done != nullptr) chunk_done->bump();
    } else {
      // Ship the node result up: consume a credit, pick the landing slot by
      // the per-link sequence, and let the origin counter guard our slot.
      auto pi = static_cast<std::size_t>(parent);
      NodeState& ps = *nodes_[pi];
      co_await my_ep.wait_cntr(*ns.red_free, 1);
      std::size_t lslot = (rs.links[parent].red_sent + c) % 2;
      co_await my_ep.put(ep(emb.leader[pi]), ps.red_land(my_node)[lslot].data(),
                         dst, elems * esize,
                         ps.link(my_node).red_arrived.get(),
                         ns.red_out_org.get());
      ++out_inflight;
    }
  }

  // Drain outstanding origin-counter bumps so the output slots are clean for
  // the next operation.
  if (out_inflight > 0) {
    co_await my_ep.wait_cntr(*ns.red_out_org, out_inflight);
  }
  if (mapped) {
    detach_leaf_windows(t, itree);
    finish_reduce_bookkeeping_mapped(t, emb, itree, nchunks);
  } else {
    finish_reduce_bookkeeping(t, emb, nchunks);
  }
}

}  // namespace srm
