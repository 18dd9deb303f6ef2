// SRM reduce_scatter without a root (Algo::direct).
//
// The staged row composes a reduce to rank 0 with a scatter
// (gather_scatter.cpp), so its pace is set by the one node leader that
// combines every step twice (its chain child, then the inter-node landing).
// A reduce_scatter needs no root. Here every socket of a node is a
// *reduction domain* that runs the Fig. 2 slot pipeline over its own
// locals (the row's intra-node tree, the row's step) and its head, the
// domain's first local, delivers every step's partial straight to the node
// that owns that segment:
//
//  * Pairwise-exchange order. Node v's domains walk the node segments in
//    rounds: in round k they reduce segment v+k and deliver it to node v+k
//    (mod nodes), the order MPICH's reduce-scatter uses, so every node
//    receives from one source node per round. Round 0 is the node's own
//    segment: the head's red_slot is the hand-over, and no put is made.
//  * Landing. A node holds one landing pair per source domain (socket),
//    written in round order by a different source node each round. The
//    put of a step targets the first local whose block the step carries
//    (its arrival counter per slot); that receiver raises the pair's
//    landed count for the other owners of the step.
//  * Owners. Each rank combines the (nodes x domains) partials of its own
//    block straight into its receive buffer. A slot goes back to its source
//    once every owner whose block it carries has read it: the owner whose
//    read completes the slot's count returns it (red_consumed for a head's
//    red_slot; a LAPI credit to the writer of the slot's next chunk for a
//    landing slot).
//  * Credits (§2.4). A head waits for one credit per put into a node's
//    pair, on a counter per slot that only that node bumps: at the start
//    of each call the node grants the first two chunks of its pair, and
//    each completed read of chunk j returns the credit of chunk j+2, the
//    slot's next occupant, to its writer. Different owners complete
//    neighbouring chunks out of order, so one counter per pair would let
//    the credit of one slot open the other.
//  * One coroutine per rank. Each rank runs its chain step for global step
//    s, then its owner work for step s-1-h, h its depth in the domain tree,
//    so every wait reaches back to an earlier delivery (or down its domain
//    tree within one step): the schedule cannot deadlock, and one modelled
//    task does one thing at a time.
//
// Ranks that receive puts take them polled for the whole call (§2.3).
//
// The blocks may be ragged (Communicator::Blocks): the direct allreduce
// runs this protocol over the ranks' shares of its vector, some empty
// below one element per rank. Every segment runs the same step count, a
// step of the allreduce carries whole blocks (or equal parts of one), and
// a step without elements keeps one owner, local 0, so every counter
// stays balanced.
#include <algorithm>
#include <cstring>
#include <deque>
#include <vector>

#include "core/communicator.hpp"
#include "core/detail.hpp"

namespace srm {

namespace {

/// @p kind over the @p size locals from @p first, as a tree over all
/// @p nlocal locals of the node (the others isolated).
coll::Tree domain_tree(coll::TreeKind kind, int nlocal, int first, int size) {
  coll::Tree dt = coll::build_tree(kind, size, 0);
  coll::Tree tree;
  tree.n = nlocal;
  tree.root = first;
  tree.parent.assign(static_cast<std::size_t>(nlocal), -1);
  tree.children.resize(static_cast<std::size_t>(nlocal));
  for (int u = 0; u < size; ++u) {
    auto ui = static_cast<std::size_t>(u);
    auto li = static_cast<std::size_t>(first + u);
    if (dt.parent[ui] >= 0) tree.parent[li] = first + dt.parent[ui];
    for (int c : dt.children[ui]) tree.children[li].push_back(first + c);
  }
  return tree;
}

}  // namespace

sim::CoTask Communicator::reduce_scatter_direct(
    machine::TaskCtx& t, const void* send, void* recv, const Blocks& blk,
    bool even, coll::Dtype d, coll::RedOp op, const coll::Decision& dec) {
  obs::Span span(*t.obs, t.rank, "reduce_scatter.direct");
  chk::StageScope stage(t.chk, "reduce_scatter.direct");
  NodeState& ns = node_state(t);
  RankState& rs = rank_state(t);
  const int n = t.nnodes();
  const int p = t.nlocal();
  const int v = t.node();
  const int me = t.local();
  const std::size_t esize = coll::dtype_size(d);
  const detail::Domains dom(t.P->topo, p);
  const int my_dom = dom.of(me);
  const int head = dom.first(my_dom);
  const bool is_head = me == head;
  const coll::Tree tree =
      domain_tree(dec.intranode, p, head, dom.size(my_dom, p));
  if (rs.rs_seq.size() < static_cast<std::size_t>(dom.count)) {
    rs.rs_seq.resize(static_cast<std::size_t>(dom.count));
  }

  // Node w's segment (its locals' blocks), in elements. Every segment
  // runs the same step count, so that global step s is the same round and
  // step on every node.
  auto seg_lo = [&](int w) { return blk.lo(w * p); };
  auto seg_len = [&](int w) { return blk.lo((w + 1) * p) - seg_lo(w); };
  const std::size_t step = reduce_step_elems(dec, esize);
  // Aligned, a step carries whole blocks spread evenly, or, when a block
  // is longer than a step, an equal part of one block: every owner reads
  // its block in one piece per round, or in equal pieces. Fixed, a step is
  // the row's step, with a shorter tail, and a block that does not divide
  // it straddles two steps. With @p even the aligned layout takes as many
  // steps as whole blocks need at the row's step. Otherwise it takes the
  // fixed layout's step count, and is used only where its fullest step
  // fits one reduce slot (or each block splits into equal parts with that
  // count); elsewhere the fixed layout is kept.
  std::size_t longest = 0;
  for (int w = 0; w < n; ++w) longest = std::max(longest, seg_len(w));
  const std::size_t fixed_steps = (longest + step - 1) / step;
  const auto locals = static_cast<std::size_t>(p);
  std::size_t per_step = 0;  // whole blocks per step
  std::size_t parts = 1;     // steps per block
  std::size_t nsteps = 0;
  auto ranks = static_cast<std::size_t>(blk.nranks);
  std::size_t widest =
      std::max<std::size_t>(1, (blk.total + ranks - 1) / ranks);
  if (widest <= step) {
    per_step = step / widest;
    nsteps = (locals + per_step - 1) / per_step;
  } else {
    parts = (widest + step - 1) / step;
    nsteps = locals * parts;
  }
  bool aligned = even;
  if (!even) {
    const std::size_t slot =
        std::max<std::size_t>(1, cfg_.reduce_chunk / esize);
    if (per_step > 0) {
      aligned = (locals + fixed_steps - 1) / fixed_steps * widest <= slot;
    } else {
      aligned = nsteps == fixed_steps;
    }
    nsteps = fixed_steps;
  }
  const std::size_t nchunks = static_cast<std::size_t>(n) * nsteps;
  const std::size_t landings = nchunks - nsteps;  // per pair per call
  // Step i of node w's segment starts at step_lo(w, i) of the segment and
  // ends where step i + 1 starts.
  auto step_lo = [&](int w, std::size_t i) -> std::size_t {
    if (!aligned) return std::min(seg_len(w), i * step);
    auto l = static_cast<int>(per_step > 0 ? i * static_cast<std::size_t>(p) /
                                                 nsteps
                                           : i / parts);
    if (l == p) return seg_len(w);
    std::size_t lo = blk.lo(w * p + l) - seg_lo(w);
    if (per_step > 0) return lo;
    std::size_t len = blk.lo(w * p + l + 1) - blk.lo(w * p + l);
    return lo + len * (i % parts) / parts;
  };
  // The owners of step i of node w's segment: the locals whose nonempty
  // blocks it overlaps, `first` the lowest. An empty step (its blocks all
  // empty, below one element per rank) has the one owner local 0, which
  // still lands, reads and returns it, so every counter stays balanced.
  struct Owners {
    int first = -1;
    std::uint64_t count = 0;
  };
  auto owners = [&](int w, std::size_t i) {
    std::size_t a = step_lo(w, i);
    std::size_t b = step_lo(w, i + 1);
    if (a == b) return Owners{0, 1};
    Owners o;
    for (int l = 0; l < p; ++l) {
      std::size_t bl = blk.lo(w * p + l) - seg_lo(w);
      std::size_t bh = blk.lo(w * p + l + 1) - seg_lo(w);
      if (bl < bh && bl < b && bh > a) {
        if (o.first < 0) o.first = l;
        ++o.count;
      }
    }
    return o;
  };
  // The source of landing chunk j of a pair: the node of its round.
  auto writer = [&](std::size_t j) {
    return (v + n - 1 - static_cast<int>(j / nsteps)) % n;
  };

  lapi::Endpoint& my_ep = ep(t.rank);
  const bool poll = cfg_.manage_interrupts && n > 1;
  if (poll) my_ep.set_interrupts(false);

  // Grant the first two chunks of this call into the pair of my domain,
  // once the last call's owners have read what it landed there.
  if (is_head && n > 1) {
    NodeState::RsDomain& md = ns.rs_dom(my_dom);
    for (std::size_t s = 0; s < 2; ++s) {
      co_await md.read[s]->await_at_least(
          rs.rs_seq[static_cast<std::size_t>(my_dom)].reads[s], &t.chk);
    }
    std::uint64_t landed = rs.rs_seq[static_cast<std::size_t>(my_dom)].landed;
    for (std::size_t j = 0; j < std::min<std::size_t>(landings, 2); ++j) {
      int src = writer(j);
      co_await my_ep.put_signal(
          ep(t.topo->rank_of(src, head)),
          nodes_[static_cast<std::size_t>(src)]->rs_credit(my_dom, v,
                                                           (landed + j) % 2));
    }
  }

  // Head: the red_slot chunks whose put may still be reading them.
  lapi::Counter org(*t.eng, "rs.org@" + std::to_string(t.rank));
  std::deque<std::size_t> inflight;
  auto head_abs = [&](int h, std::size_t c) {
    return rs.smp_red_base[static_cast<std::size_t>(h)] + c;
  };
  auto drain_put = [&]() -> sim::CoTask {
    co_await my_ep.wait_cntr(org, 1);
    std::uint64_t abs = head_abs(head, inflight.front());
    (*ns.red_consumed[abs % 2])[head].add(1, &t.chk);
    inflight.pop_front();
  };

  // The chain role of global step s: combine into my red_slot; a head then
  // delivers a remote round's partial.
  auto chain_step = [&](std::size_t s) -> sim::CoTask {
    std::size_t k = s / nsteps;
    std::size_t i = s % nsteps;
    int dst = (v + static_cast<int>(k)) % n;
    std::size_t off = seg_lo(dst) + step_lo(dst, i);  // elements
    std::size_t len = step_lo(dst, i + 1) - step_lo(dst, i);
    if (is_head) {
      while (!inflight.empty() && inflight.front() + 2 <= s) {
        co_await drain_put();
      }
    }
    co_await smp_reduce_step(t, tree,
                             static_cast<const std::byte*>(send) + off * esize,
                             s, len, d, op);
    if (!is_head || k == 0) co_return;
    std::size_t j = s - nsteps;
    std::uint64_t lj =
        rs.rs_seq[static_cast<std::size_t>(my_dom)].landed + j;
    int to = owners(dst, i).first;
    NodeState::RsDomain& dd =
        nodes_[static_cast<std::size_t>(dst)]->rs_dom(my_dom);
    co_await my_ep.wait_cntr(ns.rs_credit(my_dom, dst, lj % 2), 1);
    std::uint64_t abs = head_abs(head, s);
    co_await my_ep.put(
        ep(t.topo->rank_of(dst, to)), dd.land[lj % 2].data(),
        ns.red_slot[abs % 2][static_cast<std::size_t>(head)].data(),
        len * esize, dd.arrived[lj % 2][static_cast<std::size_t>(to)].get(),
        &org);
    inflight.push_back(s);
  };

  // Owner reads due per slot so far, per domain: of its landed chunks and
  // of its head's red_slot chunks (the call's round 0).
  std::vector<RankState::RsSeq> due(
      rs.rs_seq.begin(), rs.rs_seq.begin() + dom.count);
  const std::size_t my_lo = blk.lo(v * p + me) - seg_lo(v);
  const std::size_t my_hi = blk.lo(v * p + me + 1) - seg_lo(v);
  auto* out = static_cast<std::byte*>(recv);

  // The owner role of global step s: combine every domain's partial of my
  // block's part of the step into recv, and return each slot whose last
  // read this is.
  auto owner_step = [&](std::size_t s) -> sim::CoTask {
    std::size_t k = s / nsteps;
    std::size_t i = s % nsteps;
    std::size_t first = step_lo(v, i);
    std::size_t last = step_lo(v, i + 1);
    Owners who = owners(v, i);
    std::size_t lo = std::max(my_lo, first);
    std::size_t hi = std::max(lo, std::min(my_hi, last));
    bool mine = first == last ? me == who.first : lo < hi;
    std::size_t len = (hi - lo) * esize;
    std::byte* dst = len > 0 ? out + (lo - my_lo) * esize : out;
    for (int dd = 0; dd < dom.count; ++dd) {
      RankState::RsSeq& q = due[static_cast<std::size_t>(dd)];
      if (k == 0) {
        int h = dom.first(dd);
        std::uint64_t abs = head_abs(h, s);
        std::uint64_t& target = q.own_reads[abs % 2];
        target += who.count;
        if (!mine) continue;
        co_await (*ns.red_published)[h].await_at_least(abs + 1, &t.chk);
        const std::byte* src =
            ns.red_slot[abs % 2][static_cast<std::size_t>(h)].data() +
            (lo - first) * esize;
        double f = t.P->topo.copy_factor(h, me, /*dirty=*/true);
        if (dd == 0) {
          co_await t.nd->mem.charge_copy_scaled(static_cast<double>(len), f);
          std::memcpy(dst, src, len);
        } else {
          co_await t.nd->mem.charge_combine_scaled(static_cast<double>(len),
                                                   f);
          coll::combine(op, d, dst, src, hi - lo);
        }
        chk::note_read(t.chk, src, len);
        chk::note_write(t.chk, dst, len);
        shm::SharedFlag& reads = *ns.rs_dom(dd).own_read[abs % 2];
        reads.add(1, &t.chk);
        if (reads.raw_get() == target) {
          co_await reads.await_at_least(target, &t.chk);
          (*ns.red_consumed[abs % 2])[h].add(1, &t.chk);
        }
        continue;
      }
      std::size_t j = s - nsteps;
      std::uint64_t lj = q.landed + j;
      std::uint64_t& target = q.reads[lj % 2];
      target += who.count;
      if (!mine) continue;
      NodeState::RsDomain& md = ns.rs_dom(dd);
      if (me == who.first) {
        co_await my_ep.wait_cntr(
            *md.arrived[lj % 2][static_cast<std::size_t>(me)], 1);
        md.landed[lj % 2]->add(1, &t.chk);
      } else {
        co_await md.landed[lj % 2]->await_at_least(lj / 2 + 1, &t.chk);
      }
      const std::byte* src = md.land[lj % 2].data() + (lo - first) * esize;
      co_await t.nd->mem.charge_combine(static_cast<double>(len));
      chk::note_read(t.chk, src, len);
      chk::note_write(t.chk, dst, len);
      coll::combine(op, d, dst, src, hi - lo);
      shm::SharedFlag& reads = *md.read[lj % 2];
      reads.add(1, &t.chk);
      if (reads.raw_get() == target && j + 2 < landings) {
        co_await reads.await_at_least(target, &t.chk);
        int src_node = writer(j + 2);
        co_await my_ep.put_signal(
            ep(t.topo->rank_of(src_node, dom.first(dd))),
            nodes_[static_cast<std::size_t>(src_node)]->rs_credit(dd, v,
                                                                  lj % 2));
      }
    }
  };

  // A vertex at depth h of its domain tree finishes its chain step h steps
  // before the domain head, so its owner work trails by h + 1 steps: every
  // owner reads step s one step after the heads finished it, and a head
  // has read step s - 2 before it waits for the credit of step s.
  std::size_t lag = 1;
  for (int u = me; tree.parent[static_cast<std::size_t>(u)] != -1;
       u = tree.parent[static_cast<std::size_t>(u)]) {
    ++lag;
  }
  for (std::size_t s = 0; s < nchunks; ++s) {
    co_await chain_step(s);
    if (s >= lag) co_await owner_step(s - lag);
  }
  for (std::size_t s = nchunks > lag ? nchunks - lag : 0; s < nchunks; ++s) {
    co_await owner_step(s);
  }
  while (!inflight.empty()) co_await drain_put();

  // Bookkeeping, identical on every rank of the node: every local
  // published one red_slot chunk per step, and every pair landed the
  // remote rounds' steps.
  for (int l = 0; l < p; ++l) {
    rs.smp_red_base[static_cast<std::size_t>(l)] += nchunks;
  }
  for (int dd = 0; dd < dom.count; ++dd) {
    auto di = static_cast<std::size_t>(dd);
    rs.rs_seq[di] = due[di];
    rs.rs_seq[di].landed += landings;
  }
  if (poll) my_ep.set_interrupts(true);
}

}  // namespace srm
