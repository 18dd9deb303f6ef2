// SRM allreduce (paper §2.4).
//
// Small messages (<= 16 KB): SMP reduce to the node master, then an
// integrated pairwise exchange with recursive doubling between the masters
// (one-sided puts into per-round exchange slots — the two directions of each
// pair overlap on the wire), then SMP broadcast of the result. Non-power-of-
// two node counts use the standard fold (extra nodes push their data to a
// partner first and receive the final result back).
//
// Large messages: the four-stage pipeline of Fig. 5 — SMP reduce, inter-node
// reduce, inter-node broadcast, SMP broadcast — expressed as a reduce to
// rank 0 running *concurrently* with a broadcast from rank 0, coupled chunk
// by chunk through a completion counter, so all four stages process
// different chunks simultaneously.
//
// A direct row runs without a root: the root-free reduce_scatter of the
// ranks' blocks (core/reduce_scatter.cpp), then the root-free allgather of
// the reduced blocks (core/gather_scatter.cpp), as the hybrid allreduces
// of the multi-core literature do.
#include <cstring>

#include "core/communicator.hpp"
#include "core/detail.hpp"

namespace srm {

sim::CoTask Communicator::allreduce_rd(machine::TaskCtx& t, const void* send,
                                       void* recv, std::size_t count,
                                       coll::Dtype d, coll::RedOp op,
                                       const coll::Decision& dec) {
  obs::Span span(*t.obs, t.rank, "allreduce.rd");
  chk::StageScope stage(t.chk, "allreduce.rd");
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  std::size_t esize = coll::dtype_size(d);
  std::size_t bytes = count * esize;
  coll::Embedding emb = coll::embed(*t.topo, 0, dec.internode);
  coll::Tree itree = coll::build_tree(dec.intranode, t.nlocal(), 0);
  std::size_t nchunks = 1;  // fits one reduce chunk by configuration
  SRM_CHECK(bytes <= cfg_.reduce_chunk);

  if (!t.is_master()) {
    co_await smp_reduce_participant(t, itree, send, count, count, d, op);
    finish_reduce_bookkeeping(t, emb, nchunks);
    // Wait for the master to publish the global result (fill mode: the
    // master copies its recv buffer into the shared broadcast buffer).
    co_await smp_bcast_chunk(t, 0, nullptr, recv, bytes, nullptr);
    co_return;
  }

  // Master: node-local combine straight into the receive buffer.
  co_await smp_reduce_chunk_leader(t, itree, send, recv, 0, 0, count, d, op);
  finish_reduce_bookkeeping(t, emb, nchunks);

  lapi::Endpoint& my_ep = ep(t.rank);
  int n = t.nnodes();
  int v = t.node();
  std::size_t parity = (rs.op_seq + 1) % 2;  // op_seq was bumped at dispatch

  int pof2 = 1;
  while (pof2 * 2 <= n) pof2 *= 2;
  int rem = n - pof2;

  auto master_ep = [&](int node) -> lapi::Endpoint& {
    return ep(t.topo->master_of(node));
  };
  auto node_state_of = [&](int node) -> NodeState& {
    return *nodes_[static_cast<std::size_t>(node)];
  };

  int newv;
  if (v < 2 * rem) {
    if (v % 2 == 0) {
      // Fold out: push to the odd partner, receive the final result later.
      NodeState& part = node_state_of(v + 1);
      co_await my_ep.put(master_ep(v + 1), part.ar_fold_in()[parity].data(),
                         recv, bytes, part.ar_fold_in_arr.get());
      newv = -1;
    } else {
      co_await my_ep.wait_cntr(*ns.ar_fold_in_arr, 1);
      const std::byte* fold = ns.ar_fold_in()[parity].data();
      co_await t.nd->mem.charge_combine(static_cast<double>(bytes));
      chk::note_read(t.chk, fold, bytes);
      coll::combine(op, d, recv, fold, count);
      newv = v / 2;
    }
  } else {
    newv = v - rem;
  }

  if (newv != -1) {
    lapi::Counter org(*t.eng, "ar.rd_org@" + std::to_string(t.rank));
    int round = 0;
    for (int mask = 1; mask < pof2; mask <<= 1, ++round) {
      obs::Span round_span(*t.obs, t.rank, "allreduce.rd.round");
      int newdst = newv ^ mask;
      int dst_node = newdst < rem ? newdst * 2 + 1 : newdst + rem;
      NodeState& part = node_state_of(dst_node);
      auto ri = static_cast<std::size_t>(round);
      // Both puts of the pair overlap — the one-sided advantage (§4).
      co_await my_ep.put(master_ep(dst_node),
                         part.ar_buf[ri][parity].data(), recv, bytes,
                         part.ar_arrived[ri].get(), &org);
      co_await my_ep.wait_cntr(*ns.ar_arrived[ri], 1);
      // recv is the source of our own in-flight put; it may only be
      // overwritten after the adapter has read it (origin counter).
      co_await my_ep.wait_cntr(org, 1);
      co_await t.nd->mem.charge_combine(static_cast<double>(bytes));
      chk::note_read(t.chk, ns.ar_buf[ri][parity].data(), bytes);
      coll::combine(op, d, recv, ns.ar_buf[ri][parity].data(), count);
    }
  }

  if (v < 2 * rem) {
    if (v % 2 == 0) {
      co_await my_ep.wait_cntr(*ns.ar_fold_out_arr, 1);
      const std::byte* fold = ns.ar_fold_out()[parity].data();
      co_await t.nd->mem.charge_copy(static_cast<double>(bytes));
      chk::note_read(t.chk, fold, bytes);
      std::memcpy(recv, fold, bytes);
    } else {
      NodeState& part = node_state_of(v - 1);
      // The source is the user's recv buffer: drain the origin counter so
      // the buffer is reusable the moment the operation returns.
      lapi::Counter fold_org(*t.eng, "ar.fold_org@" + std::to_string(t.rank));
      co_await my_ep.put(master_ep(v - 1), part.ar_fold_out()[parity].data(),
                         recv, bytes, part.ar_fold_out_arr.get(), &fold_org);
      co_await my_ep.wait_cntr(fold_org, 1);
    }
  }

  // SMP broadcast of the global result to the local tasks.
  co_await smp_bcast_chunk(t, 0, recv, recv, bytes, nullptr);
}

sim::CoTask Communicator::allreduce_pipelined(machine::TaskCtx& t,
                                              const void* send, void* recv,
                                              std::size_t count,
                                              coll::Dtype d, coll::RedOp op,
                                              const coll::Decision& dec) {
  obs::Span span(*t.obs, t.rank, "allreduce.pipeline");
  chk::StageScope stage(t.chk, "allreduce.pipeline");
  // Reduce to rank 0 and broadcast from rank 0 run concurrently on every
  // task; at rank 0 the broadcast consumes chunks as the reduce completes
  // them (Fig. 5's four-stage pipeline). Both halves run the allreduce row
  // and step alike: the gate bumps once per reduce chunk.
  std::size_t esize = coll::dtype_size(d);
  std::size_t bytes = count * esize;
  std::size_t step = reduce_step_elems(dec, esize) * esize;
  coll::Embedding emb = coll::embed(*t.topo, 0, dec.internode);

  lapi::Counter chunk_done(*t.eng, "ar.chunk_done@" + std::to_string(t.rank));
  lapi::Counter* gate = t.rank == 0 ? &chunk_done : nullptr;

  auto reduce_done = detail::spawn_joined(
      *t.eng, reduce_impl(t, send, recv, count, d, op, /*root=*/0, dec, gate));
  auto bcast_done = detail::spawn_joined(
      *t.eng, bcast_large(t, recv, bytes, emb, step, gate, dec.mapped));
  co_await reduce_done->wait();
  co_await bcast_done->wait();
}

sim::CoTask Communicator::allreduce_direct(machine::TaskCtx& t,
                                           const void* send, void* recv,
                                           std::size_t count, coll::Dtype d,
                                           coll::RedOp op,
                                           const coll::Decision& dec) {
  obs::Span span(*t.obs, t.rank, "allreduce.direct");
  chk::StageScope stage(t.chk, "allreduce.direct");
  // Each rank reduces its block of the vector straight into its place in
  // recv, then the blocks are gathered in place: no rank handles more of
  // the vector than its node's share. Equal steps keep a segment just
  // over a step count from paying a short tail step.
  std::size_t esize = coll::dtype_size(d);
  Blocks blk{count, t.nranks()};
  std::byte* mine = static_cast<std::byte*>(recv) + blk.lo(t.rank) * esize;
  co_await reduce_scatter_direct(t, send, mine, blk, /*even=*/true, d, op,
                                 dec);
  co_await allgather_direct(t, mine, recv, blk, esize, dec.mapped);
}

}  // namespace srm
