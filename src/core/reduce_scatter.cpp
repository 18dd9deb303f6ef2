// SRM reduce_scatter without a root (Algo::direct).
//
// The staged row composes a reduce to rank 0 with a scatter
// (gather_scatter.cpp), so its pace is set by the one node leader that
// combines every step twice (its chain child, then the inter-node landing).
// A reduce_scatter needs no root. Here every socket of a node is a
// *reduction domain* that reduces every step of every node's segment over
// its own locals into its head's red_slot, and its head, the domain's
// first local, delivers every step's partial straight to the node that
// owns that segment. A domain reduces a step in one of two forms:
//
//  * Chain (the Fig. 2 slot pipeline): the row's intra-node tree and step,
//    each vertex combining its children's slots into its own. A flat row
//    runs a chain here unless it runs the share form, so no call runs a
//    flat Fig. 2 tree.
//  * Shares (a mapped flat row, on a node of more than one task): every
//    local exports its send buffer as one window for the call and attaches
//    its domain mates'. For each step, local r of a domain of m reduces
//    elements [r·len/m, (r+1)·len/m) of it out of its own buffer and its
//    mates' windows straight into the head's red_slot, once the slot's
//    previous occupant was consumed, and adds one to the count of that
//    A/B slot (RsDomain::shares); the head awaits its slot's count, then
//    publishes and puts as the chain's head does. Non-heads publish
//    nothing in red_slot. The count is per slot: with one count for both,
//    a fast local's share of step s+1 would complete the count of step s
//    while a slow one still writes it. Every step waits for all m locals,
//    but none waits for a chain to fill.
//
// Around either form:
//
//  * Pairwise-exchange order. Node v's domains walk the node segments in
//    rounds: in round k they reduce segment v+k and deliver it to node v+k
//    (mod nodes), the order MPICH's reduce-scatter uses, so every node
//    receives from one source node per round. Round 0 is the node's own
//    segment: the head's red_slot is the hand-over, and no put is made.
//  * Landing. A node holds rs_slots landing slots per source domain
//    (socket), chunk c of the call's remote rounds landing in slot
//    c % rs_slots, written in round order by a different source node each
//    round. The put of a step targets the first local whose block the step
//    carries (its arrival counter per slot); that receiver raises the
//    slot's landed count for the other owners of the step.
//  * Owners. Each rank combines the (nodes x domains) partials of its own
//    block straight into its receive buffer. A slot goes back to its source
//    once every owner whose block it carries has read it: the owner whose
//    read completes the slot's count returns it (red_consumed for a head's
//    red_slot; a LAPI credit to the writer of the slot's next chunk for a
//    landing slot).
//  * Credits (§2.4). A head waits for one credit per put into a node's
//    landing slots, on a counter per slot that only that node bumps: at
//    the start of each call the node grants the first rs_slots chunks, and
//    each completed read of chunk j returns the credit of chunk
//    j + rs_slots, the slot's next occupant, to its writer. Different
//    owners complete neighbouring chunks out of order, so one counter for
//    all slots would let the credit of one slot open another. With a slot
//    per remote round a call whose node segment is one step never waits
//    for a credit; from two steps a slot is read before it is reused.
//  * One coroutine per rank. Each rank runs its reduce step for global
//    step s, then its owner work for step s-1-h, h its depth in the domain
//    tree (0 in the share form), so every wait reaches back to an earlier
//    delivery (or down its domain tree within one step): the schedule
//    cannot deadlock, and one modelled task does one thing at a time.
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
  const int my_size = dom.size(my_dom, p);
  // decide() keeps `mapped` on a flat row only where windows exist.
  const bool shares = dec.mapped && dec.intranode == coll::TreeKind::flat;
  const coll::Tree tree = domain_tree(
      dec.intranode == coll::TreeKind::flat ? coll::TreeKind::chain
                                            : dec.intranode,
      p, head, my_size);
  const auto K = static_cast<std::size_t>(ns.rs_slots);
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
  const std::size_t landings = nchunks - nsteps;  // per domain per call
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
  // The source of landing chunk j of a domain: the node of its round.
  auto writer = [&](std::size_t j) {
    return (v + n - 1 - static_cast<int>(j / nsteps)) % n;
  };

  lapi::Endpoint& my_ep = ep(t.rank);
  const bool poll = cfg_.manage_interrupts && n > 1;
  if (poll) my_ep.set_interrupts(false);

  // Grant the first rs_slots chunks of this call into the landing slots
  // of my domain, once the last call's owners have read what it landed
  // there.
  if (is_head && n > 1) {
    NodeState::RsDomain& md = ns.rs_dom(my_dom);
    for (std::size_t s = 0; s < K; ++s) {
      co_await md.read[s]->await_at_least(
          rs.rs_seq[static_cast<std::size_t>(my_dom)].reads[s], &t.chk);
    }
    std::uint64_t landed = rs.rs_seq[static_cast<std::size_t>(my_dom)].landed;
    for (std::size_t j = 0; j < std::min(landings, K); ++j) {
      int src = writer(j);
      co_await my_ep.put_signal(
          ep(t.topo->rank_of(src, head)),
          nodes_[static_cast<std::size_t>(src)]->rs_credit(my_dom, v,
                                                           (landed + j) % K));
    }
  }

  // Share form: my mates' send windows, attached for the whole call. A
  // domain of one local reduces alone and exports nothing.
  auto gen = [&](int l) { return rs.map_gen[static_cast<std::size_t>(l)] + 1; };
  std::vector<const std::byte*> win(static_cast<std::size_t>(p), nullptr);
  const bool windows = shares && my_size > 1;
  if (windows) {
    co_await ns.map->publish(t, const_cast<void*>(send), blk.total * esize);
    for (int l = head; l < head + my_size; ++l) {
      if (l == me) continue;
      shm::Mapping::Window w;
      co_await ns.map->attach(t, l, gen(l), &w);
      win[static_cast<std::size_t>(l)] = w.data;
    }
  }
  // Share form: the slice of a step of @p len elements that domain local
  // @p r of @p m reduces.
  auto share_lo = [](std::size_t len, int r, int m) {
    return len * static_cast<std::size_t>(r) / static_cast<std::size_t>(m);
  };

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
  // Share form: per A/B slot of my head's red_slot, the shares counted so
  // far that the head awaits.
  std::array<std::uint64_t, 2> share_due =
      rs.rs_seq[static_cast<std::size_t>(my_dom)].shares;

  // My share of a step's @p len elements at @p off of the vector, reduced
  // out of my own buffer and my mates' windows into the head's slot
  // @p slot; the mates' windows are read dirty, in one combine pass.
  auto reduce_share = [&](std::size_t off, std::size_t len,
                          std::byte* slot) -> sim::CoTask {
    int r = me - head;
    std::size_t a = share_lo(len, r, my_size);
    std::size_t b = share_lo(len, r + 1, my_size);
    if (b == a) co_return;
    std::size_t bytes = (b - a) * esize;
    const std::byte* mine =
        static_cast<const std::byte*>(send) + (off + a) * esize;
    std::byte* out = slot + a * esize;
    if (my_size == 1) {
      co_await t.nd->mem.charge_copy(static_cast<double>(bytes));
      std::memcpy(out, mine, bytes);
    } else {
      double factors = 0.0;
      for (int l = head; l < head + my_size; ++l) {
        if (l != me) factors += t.P->topo.copy_factor(l, me, /*dirty=*/true);
      }
      auto mates = static_cast<double>(my_size - 1);
      co_await t.nd->mem.charge_combine_scaled(
          static_cast<double>(bytes) * mates, factors / mates);
      bool first = true;
      for (int l = head; l < head + my_size; ++l) {
        if (l == me) continue;
        const std::byte* src =
            win[static_cast<std::size_t>(l)] + (off + a) * esize;
        if (first) {
          coll::combine_out(op, d, out, mine, src, b - a);
          first = false;
        } else {
          coll::combine(op, d, out, src, b - a);
        }
        chk::note_read(t.chk, src, bytes);
      }
    }
    chk::note_write(t.chk, out, bytes);
  };

  // The reduce role of global step s: combine into my red_slot (chain) or
  // my share of my head's (shares); a head then delivers a remote round's
  // partial.
  auto reduce_step = [&](std::size_t s) -> sim::CoTask {
    std::size_t k = s / nsteps;
    std::size_t i = s % nsteps;
    int dst = (v + static_cast<int>(k)) % n;
    std::size_t off = seg_lo(dst) + step_lo(dst, i);  // elements
    std::size_t len = step_lo(dst, i + 1) - step_lo(dst, i);
    std::uint64_t abs = head_abs(head, s);
    std::byte* head_slot =
        ns.red_slot[abs % 2][static_cast<std::size_t>(head)].data();
    if (is_head) {
      while (!inflight.empty() && inflight.front() + 2 <= s) {
        co_await drain_put();
      }
    }
    if (!shares) {
      co_await smp_reduce_step(
          t, tree, static_cast<const std::byte*>(send) + off * esize, s, len,
          d, op);
    } else {
      if (abs >= 2) {
        co_await (*ns.red_consumed[abs % 2])[head].await_at_least(abs / 2,
                                                                 &t.chk);
      }
      co_await reduce_share(off, len, head_slot);
      shm::SharedFlag& count = *ns.rs_dom(my_dom).shares[abs % 2];
      count.add(1, &t.chk);
      share_due[abs % 2] += static_cast<std::uint64_t>(my_size);
      if (is_head) {
        co_await count.await_at_least(share_due[abs % 2], &t.chk);
        (*ns.red_published)[head].add(1, &t.chk);
      }
    }
    if (!is_head || k == 0) co_return;
    std::size_t j = s - nsteps;
    std::uint64_t lj =
        rs.rs_seq[static_cast<std::size_t>(my_dom)].landed + j;
    int to = owners(dst, i).first;
    NodeState::RsDomain& dd =
        nodes_[static_cast<std::size_t>(dst)]->rs_dom(my_dom);
    co_await my_ep.wait_cntr(ns.rs_credit(my_dom, dst, lj % K), 1);
    co_await my_ep.put(
        ep(t.topo->rank_of(dst, to)), dd.land[lj % K].data(), head_slot,
        len * esize, dd.arrived[lj % K][static_cast<std::size_t>(to)].get(),
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

  // The factor of my read of [lo, hi) of a round-0 step [first, last) out
  // of domain dd's head slot: the chain's head wrote it all; in the share
  // form each local wrote its share, weighted by length.
  auto own_factor = [&](int dd, std::size_t first, std::size_t last,
                        std::size_t lo, std::size_t hi) {
    int h = dom.first(dd);
    if (!shares) return t.P->topo.copy_factor(h, me, /*dirty=*/true);
    int m = dom.size(dd, p);
    double weighted = 0.0;
    for (int r = 0; r < m; ++r) {
      std::size_t a = std::max(lo, first + share_lo(last - first, r, m));
      std::size_t b = std::min(hi, first + share_lo(last - first, r + 1, m));
      if (a >= b) continue;
      weighted += static_cast<double>(b - a) *
                  t.P->topo.copy_factor(h + r, me, /*dirty=*/true);
    }
    return weighted / static_cast<double>(hi - lo);
  };

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
        double f = len > 0 ? own_factor(dd, first, last, lo, hi) : 1.0;
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
      std::uint64_t& target = q.reads[lj % K];
      target += who.count;
      if (!mine) continue;
      NodeState::RsDomain& md = ns.rs_dom(dd);
      if (me == who.first) {
        co_await my_ep.wait_cntr(
            *md.arrived[lj % K][static_cast<std::size_t>(me)], 1);
        md.landed[lj % K]->add(1, &t.chk);
      } else {
        co_await md.landed[lj % K]->await_at_least(lj / K + 1, &t.chk);
      }
      const std::byte* src = md.land[lj % K].data() + (lo - first) * esize;
      co_await t.nd->mem.charge_combine(static_cast<double>(len));
      chk::note_read(t.chk, src, len);
      chk::note_write(t.chk, dst, len);
      coll::combine(op, d, dst, src, hi - lo);
      shm::SharedFlag& reads = *md.read[lj % K];
      reads.add(1, &t.chk);
      if (reads.raw_get() == target && j + K < landings) {
        co_await reads.await_at_least(target, &t.chk);
        int src_node = writer(j + K);
        co_await my_ep.put_signal(
            ep(t.topo->rank_of(src_node, dom.first(dd))),
            nodes_[static_cast<std::size_t>(src_node)]->rs_credit(dd, v,
                                                                  lj % K));
      }
    }
  };

  // A chain vertex at depth h of its domain tree finishes its step h steps
  // before the domain head, so its owner work trails by h + 1 steps; a
  // share finishes with its head's step, one step ahead: every owner reads
  // step s one step after the heads finished it, and a head has read step
  // s - 2 before it waits for the credit of step s.
  std::size_t lag = 1;
  if (!shares) {
    for (int u = me; tree.parent[static_cast<std::size_t>(u)] != -1;
         u = tree.parent[static_cast<std::size_t>(u)]) {
      ++lag;
    }
  }
  for (std::size_t s = 0; s < nchunks; ++s) {
    co_await reduce_step(s);
    if (s >= lag) co_await owner_step(s - lag);
  }
  for (std::size_t s = nchunks > lag ? nchunks - lag : 0; s < nchunks; ++s) {
    co_await owner_step(s);
  }
  while (!inflight.empty()) co_await drain_put();
  if (windows) {
    for (int l = head; l < head + my_size; ++l) {
      if (l != me) ns.map->detach(t, l);
    }
    co_await ns.map->retract(t, my_size - 1);
  }

  // Bookkeeping, identical on every rank of the node: every local (in the
  // share form every head) published one red_slot chunk per step and
  // every local of a domain of two or more exported one window; every
  // domain's landing slots landed the remote rounds' steps.
  for (int dd = 0; dd < dom.count; ++dd) {
    auto di = static_cast<std::size_t>(dd);
    rs.rs_seq[di] = due[di];
    rs.rs_seq[di].landed += landings;
    if (!shares) continue;
    std::uint64_t abs = head_abs(dom.first(dd), 0);
    auto m = static_cast<std::uint64_t>(dom.size(dd, p));
    rs.rs_seq[di].shares[abs % 2] += m * ((nchunks + 1) / 2);
    rs.rs_seq[di].shares[(abs + 1) % 2] += m * (nchunks / 2);
  }
  for (int l = 0; l < p; ++l) {
    auto li = static_cast<std::size_t>(l);
    if (shares && dom.size(dom.of(l), p) > 1) rs.map_gen[li] += 1;
    if (!shares || dom.head(l)) rs.smp_red_base[li] += nchunks;
  }
  if (poll) my_ep.set_interrupts(true);
}

}  // namespace srm
