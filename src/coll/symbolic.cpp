#include "coll/symbolic.hpp"

#include <algorithm>
#include <utility>

#include "machine/memory.hpp"
#include "machine/network.hpp"
#include "util/check.hpp"

namespace srm::coll::sym {

// The per-(node, op) coordination cell. Counters are monotone; waiters use
// the WaitQueue as the simulator's condition variable. `data` holds this
// node's current view of the op's digest blocks.
struct Transport::NodeOp {
  explicit NodeOp(sim::Engine& eng) : wq(eng, "sym.op") {}
  sim::WaitQueue wq;
  Payload data;
  std::uint64_t pub = 0;       // chunks published to local consumers
  std::uint64_t net = 0;       // chunks arrived from the network
  std::uint64_t net_srcs = 0;  // remote senders fully arrived
  std::uint64_t contrib = 0;   // local contributions made
  std::uint64_t done = 0;      // participants finished (GC)
  bool released = false;       // barrier down-pass
  // Slot-addressed arrivals for the zoo runners: senders know which step of
  // the receiver's schedule a message satisfies, so digests land keyed by
  // that step instead of by arrival order (which links do not serialize).
  std::map<int, Payload> inbox;
};

struct Transport::NodeSt {
  std::map<std::uint64_t, NodeOp> ops;
};

Transport::Transport(machine::Cluster& cluster, Profile p)
    : cluster_(&cluster), p_(p) {
  SRM_CHECK(p_.chunk > 0);
  seq_.assign(static_cast<std::size_t>(cluster.topology().nranks()), 0);
  nodes_.resize(static_cast<std::size_t>(cluster.topology().nodes()));
}

Transport::~Transport() = default;

Transport::NodeOp& Transport::op_state(int node, std::uint64_t seq) {
  auto& st = nodes_.at(static_cast<std::size_t>(node));
  if (st == nullptr) st = std::make_unique<NodeSt>();
  return st->ops.try_emplace(seq, cluster_->engine()).first->second;
}

void Transport::finish(int node, std::uint64_t seq, int nlocal) {
  NodeOp& st = op_state(node, seq);
  if (++st.done == static_cast<std::uint64_t>(nlocal)) {
    nodes_[static_cast<std::size_t>(node)]->ops.erase(seq);
  }
}

std::uint64_t Transport::next_seq(machine::TaskCtx& t) {
  return seq_.at(static_cast<std::size_t>(t.rank))++;
}

const Tree& Transport::tree(TreeKind kind, int root_node) {
  auto key = std::make_pair(static_cast<int>(kind), root_node);
  auto it = trees_.find(key);
  if (it == trees_.end()) {
    it = trees_
             .emplace(key, build_tree(kind, cluster_->topology().nodes(),
                                      root_node))
             .first;
  }
  return it->second;
}

namespace {
std::size_t chunk_count(std::size_t total, std::size_t chunk) {
  return (total + chunk - 1) / chunk;
}
}  // namespace

// ---- bcast: pipelined down the internode tree, chunk-published on-node ----

sim::CoTask Transport::bcast_run(machine::TaskCtx& t, std::uint64_t seq,
                                 int root, std::size_t nb, std::size_t bb,
                                 const Payload* src, std::size_t s0,
                                 Payload* dst, std::size_t d0, TreeKind tk) {
  const auto& topo = *t.topo;
  const int node = t.node();
  const int root_node = topo.node_of(root);
  const int nlocal = t.nlocal();
  const bool leader =
      t.local() == (node == root_node ? topo.local_of(root) : 0);
  const std::size_t total = nb * bb;
  const std::size_t nchunks = chunk_count(total, p_.chunk);
  auto len = [this, total](std::size_t c) {
    return std::min(p_.chunk, total - c * p_.chunk);
  };
  NodeOp& st = op_state(node, seq);
  if (leader) {
    if (t.rank == root) {
      st.data = Payload(nb, bb);
      st.data.copy_blocks(*src, s0, 0, nb);
    }
    const Tree& tr = tree(tk, root_node);
    const auto& kids = tr.children[static_cast<std::size_t>(node)];
    for (std::size_t c = 0; c < nchunks; ++c) {
      if (t.rank != root) {
        co_await st.wq.wait_until([&st, c] { return st.net > c; }, t.rank);
      }
      const bool last = c + 1 == nchunks;
      // Forward chunk c down the tree, largest subtree first; the digest
      // rides the last chunk of each hop.
      for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
        const int child = *it;
        co_await t.delay(p_.msg_overhead);
        cluster_->network().inject(
            node, child, static_cast<double>(len(c)),
            [this, child, seq, last,
             dig = last ? st.data : Payload{}]() mutable {
              NodeOp& cst = op_state(child, seq);
              if (last) cst.data = std::move(dig);
              ++cst.net;
              cst.wq.notify();
            });
      }
      if (nlocal > 1) {
        co_await t.nd->mem.charge_copy(static_cast<double>(len(c)));
        st.pub = c + 1;
        st.wq.notify();
      }
    }
    if (dst != nullptr) dst->copy_blocks(st.data, 0, d0, nb);
  } else {
    for (std::size_t c = 0; c < nchunks; ++c) {
      co_await st.wq.wait_until([&st, c] { return st.pub > c; }, t.rank);
      co_await t.nd->mem.charge_copy(static_cast<double>(len(c)));
    }
    if (dst != nullptr) dst->copy_blocks(st.data, 0, d0, nb);
  }
  finish(node, seq, nlocal);
}

// ---- reduce: combine up the intra-node fan-in, then up the node tree ----

sim::CoTask Transport::reduce_run(machine::TaskCtx& t, std::uint64_t seq,
                                  int root, std::size_t nb, std::size_t bb,
                                  Dtype d, RedOp rop, const Payload& send,
                                  std::size_t s0, Payload* out,
                                  std::size_t o0, TreeKind tk) {
  const auto& topo = *t.topo;
  const int node = t.node();
  const int root_node = topo.node_of(root);
  const int nlocal = t.nlocal();
  const bool leader =
      t.local() == (node == root_node ? topo.local_of(root) : 0);
  const std::size_t total = nb * bb;
  const std::size_t nchunks = chunk_count(total, p_.chunk);
  auto len = [this, total](std::size_t c) {
    return std::min(p_.chunk, total - c * p_.chunk);
  };
  NodeOp& st = op_state(node, seq);
  auto accumulate = [nb, d, rop](NodeOp& into, const Payload& dig) {
    if (into.data.nblocks() == 0) {
      into.data = dig;
    } else {
      into.data.combine_blocks(dig, 0, 0, nb, d, rop);
    }
  };
  Payload mine(nb, bb);
  mine.copy_blocks(send, s0, 0, nb);
  if (!leader) {
    // Stage my contribution into the shared arena; the digest combine is
    // order-independent (commutative mix + integer-valued windows).
    co_await t.nd->mem.charge_copy(static_cast<double>(total));
    accumulate(st, mine);
    ++st.contrib;
    st.wq.notify();
  } else {
    accumulate(st, mine);
    for (int i = 1; i < nlocal; ++i) {
      co_await st.wq.wait_until(
          [&st, i] { return st.contrib >= static_cast<std::uint64_t>(i); },
          t.rank);
      co_await t.nd->mem.charge_combine(static_cast<double>(total));
    }
    const Tree& tr = tree(tk, root_node);
    const auto& kids = tr.children[static_cast<std::size_t>(node)];
    for (std::size_t k = 1; k <= kids.size(); ++k) {
      co_await st.wq.wait_until([&st, k] { return st.net_srcs >= k; },
                                t.rank);
      co_await t.nd->mem.charge_combine(static_cast<double>(total));
    }
    const int parent = tr.parent[static_cast<std::size_t>(node)];
    if (parent >= 0) {
      for (std::size_t c = 0; c < nchunks; ++c) {
        co_await t.delay(p_.msg_overhead);
        const bool last = c + 1 == nchunks;
        cluster_->network().inject(
            node, parent, static_cast<double>(len(c)),
            [this, parent, seq, last, nb, d, rop,
             dig = last ? st.data : Payload{}]() mutable {
              NodeOp& pst = op_state(parent, seq);
              if (last) {
                if (pst.data.nblocks() == 0) {
                  pst.data = std::move(dig);
                } else {
                  pst.data.combine_blocks(dig, 0, 0, nb, d, rop);
                }
                ++pst.net_srcs;
              }
              pst.wq.notify();
            });
      }
    } else if (out != nullptr) {
      out->copy_blocks(st.data, 0, o0, nb);
    }
  }
  finish(node, seq, nlocal);
}

// ---- scatter: root sends each node its slice directly (linear) ----

sim::CoTask Transport::scatter_run(machine::TaskCtx& t, std::uint64_t seq,
                                   int root, std::size_t bb,
                                   const Payload* src, std::size_t s0,
                                   Payload* recv, std::size_t r0) {
  const auto& topo = *t.topo;
  const int node = t.node();
  const int root_node = topo.node_of(root);
  const int nlocal = t.nlocal();
  const bool leader =
      t.local() == (node == root_node ? topo.local_of(root) : 0);
  const std::size_t nodebytes = static_cast<std::size_t>(nlocal) * bb;
  const std::size_t nchunks = chunk_count(nodebytes, p_.chunk);
  auto len = [this, nodebytes](std::size_t c) {
    return std::min(p_.chunk, nodebytes - c * p_.chunk);
  };
  NodeOp& st = op_state(node, seq);
  if (t.rank == root) {
    for (int nd = 0; nd < t.nnodes(); ++nd) {
      if (nd == root_node) continue;
      for (std::size_t c = 0; c < nchunks; ++c) {
        co_await t.delay(p_.msg_overhead);
        if (c + 1 < nchunks) {
          cluster_->network().inject(node, nd, static_cast<double>(len(c)),
                                     [this, nd, seq] {
                                       NodeOp& cst = op_state(nd, seq);
                                       ++cst.net;
                                       cst.wq.notify();
                                     });
        } else {
          Payload dig(static_cast<std::size_t>(nlocal), bb);
          dig.copy_blocks(*src, s0 + static_cast<std::size_t>(nd * nlocal), 0,
                          static_cast<std::size_t>(nlocal));
          cluster_->network().inject(
              node, nd, static_cast<double>(len(c)),
              [this, nd, seq, dig = std::move(dig)]() mutable {
                NodeOp& cst = op_state(nd, seq);
                cst.data = std::move(dig);
                ++cst.net_srcs;
                cst.wq.notify();
              });
        }
      }
    }
    st.data = Payload(static_cast<std::size_t>(nlocal), bb);
    st.data.copy_blocks(*src, s0 + static_cast<std::size_t>(root_node * nlocal),
                        0, static_cast<std::size_t>(nlocal));
    if (nlocal > 1) {
      co_await t.nd->mem.charge_copy(static_cast<double>(nodebytes));
    }
    st.pub = 1;
    st.wq.notify();
  } else if (leader) {
    co_await st.wq.wait_until([&st] { return st.net_srcs >= 1; }, t.rank);
    co_await t.nd->mem.charge_copy(static_cast<double>(nodebytes));
    st.pub = 1;
    st.wq.notify();
  }
  co_await st.wq.wait_until([&st] { return st.pub >= 1; }, t.rank);
  co_await t.nd->mem.charge_copy(static_cast<double>(bb));
  recv->copy_blocks(st.data, static_cast<std::size_t>(t.local()), r0, 1);
  finish(node, seq, nlocal);
}

// ---- gather: node leaders assemble, then send to the root directly ----

sim::CoTask Transport::gather_run(machine::TaskCtx& t, std::uint64_t seq,
                                  int root, std::size_t bb,
                                  const Payload& send, std::size_t s0,
                                  Payload* out, std::size_t o0) {
  const auto& topo = *t.topo;
  const int node = t.node();
  const int root_node = topo.node_of(root);
  const int nlocal = t.nlocal();
  const int nranks = t.nranks();
  const bool leader =
      t.local() == (node == root_node ? topo.local_of(root) : 0);
  const bool root_nd = node == root_node;
  const std::size_t nodebytes = static_cast<std::size_t>(nlocal) * bb;
  const std::size_t nchunks = chunk_count(nodebytes, p_.chunk);
  auto len = [this, nodebytes](std::size_t c) {
    return std::min(p_.chunk, nodebytes - c * p_.chunk);
  };
  NodeOp& st = op_state(node, seq);
  // Contribute my block: the root node assembles all nranks slots, other
  // nodes only their local slice.
  co_await t.nd->mem.charge_copy(static_cast<double>(bb));
  {
    const std::size_t slots =
        root_nd ? static_cast<std::size_t>(nranks)
                : static_cast<std::size_t>(nlocal);
    const std::size_t slot =
        root_nd ? static_cast<std::size_t>(node * nlocal + t.local())
                : static_cast<std::size_t>(t.local());
    if (st.data.nblocks() == 0) st.data = Payload(slots, bb);
    st.data.copy_blocks(send, s0, slot, 1);
    ++st.contrib;
    st.wq.notify();
  }
  if (leader) {
    co_await st.wq.wait_until(
        [&st, nlocal] {
          return st.contrib >= static_cast<std::uint64_t>(nlocal);
        },
        t.rank);
    if (!root_nd) {
      for (std::size_t c = 0; c < nchunks; ++c) {
        co_await t.delay(p_.msg_overhead);
        const bool last = c + 1 == nchunks;
        cluster_->network().inject(
            node, root_node, static_cast<double>(len(c)),
            [this, node, root_node, seq, last, nlocal, nranks, bb,
             dig = last ? st.data : Payload{}]() mutable {
              NodeOp& rst = op_state(root_node, seq);
              if (last) {
                if (rst.data.nblocks() == 0) {
                  rst.data = Payload(static_cast<std::size_t>(nranks), bb);
                }
                rst.data.copy_blocks(dig, 0,
                                     static_cast<std::size_t>(node * nlocal),
                                     static_cast<std::size_t>(nlocal));
                ++rst.net_srcs;
              }
              rst.wq.notify();
            });
      }
    } else {
      const std::size_t remote = static_cast<std::size_t>(t.nnodes() - 1);
      for (std::size_t k = 1; k <= remote; ++k) {
        co_await st.wq.wait_until([&st, k] { return st.net_srcs >= k; },
                                  t.rank);
        co_await t.nd->mem.charge_copy(static_cast<double>(nodebytes));
      }
      if (out != nullptr) {
        out->copy_blocks(st.data, 0, o0, static_cast<std::size_t>(nranks));
      }
    }
  }
  finish(node, seq, nlocal);
}

// ---- barrier: intra-node fan-in, tree up-pass, tree release ----

sim::CoTask Transport::barrier_run(machine::TaskCtx& t, std::uint64_t seq) {
  const int node = t.node();
  const int nlocal = t.nlocal();
  const bool leader = t.local() == 0;
  NodeOp& st = op_state(node, seq);
  co_await t.delay(t.P->mem.flag_propagation);
  ++st.contrib;
  st.wq.notify();
  if (!leader) {
    co_await st.wq.wait_until([&st] { return st.released; }, t.rank);
    co_await t.delay(t.P->mem.flag_poll);
  } else {
    co_await st.wq.wait_until(
        [&st, nlocal] {
          return st.contrib >= static_cast<std::uint64_t>(nlocal);
        },
        t.rank);
    const Tree& tr = tree(TreeKind::binomial, 0);
    const auto& kids = tr.children[static_cast<std::size_t>(node)];
    for (std::size_t k = 1; k <= kids.size(); ++k) {
      co_await st.wq.wait_until([&st, k] { return st.net_srcs >= k; },
                                t.rank);
    }
    const int parent = tr.parent[static_cast<std::size_t>(node)];
    if (parent >= 0) {
      co_await t.delay(p_.msg_overhead);
      cluster_->network().inject(node, parent, 8.0, [this, parent, seq] {
        NodeOp& pst = op_state(parent, seq);
        ++pst.net_srcs;
        pst.wq.notify();
      });
      co_await st.wq.wait_until([&st] { return st.released; }, t.rank);
    }
    for (int child : kids) {
      co_await t.delay(p_.msg_overhead);
      cluster_->network().inject(node, child, 8.0, [this, child, seq] {
        NodeOp& cst = op_state(child, seq);
        cst.released = true;
        cst.wq.notify();
      });
    }
    st.released = true;
    st.wq.notify();
  }
  finish(node, seq, nlocal);
}

// ---- zoo cost runners ------------------------------------------------------
//
// The ring / recursive-halving allreduce and the scatter+allgather bcast,
// replayed over the node leaders with one message per protocol block (the
// real plane issues one put per block too, so the LogGP costs line up).
// Digests ride the messages so the data plane stays causally exact:
//  * ring — each reduce-scatter hop hands on the contribution digest that
//    arrived the previous hop (a forward chain), so after n-1 hops every
//    leader has combined every node's contribution exactly once; the
//    allgather hops carry timing only.
//  * rhalving — each round exchanges the senders' whole accumulated digests;
//    the two sides of a round cover disjoint node groups, so one combine per
//    round is exact whatever sub-range the real protocol swaps.
//  * sa_bcast — the root's scatter messages carry the full image digest; the
//    ring allgather hops carry timing only.
// Zero-length protocol blocks still send a zero-byte message (the real plane
// skips those puts; a signal-sized hop keeps the slot accounting uniform at
// negligible cost).

sim::CoTask Transport::ring_allreduce_run(machine::TaskCtx& t,
                                          std::uint64_t seq, std::size_t bb,
                                          Dtype d, RedOp rop,
                                          const Payload& send, std::size_t s0,
                                          Payload* dst, std::size_t d0) {
  const int node = t.node();
  const int n = t.nnodes();
  const int nlocal = t.nlocal();
  const bool leader = t.local() == 0;
  NodeOp& st = op_state(node, seq);
  Payload mine(1, bb);
  mine.copy_blocks(send, s0, 0, 1);
  auto accumulate = [d, rop](NodeOp& into, const Payload& dig) {
    if (into.data.nblocks() == 0) {
      into.data = dig;
    } else {
      into.data.combine_blocks(dig, 0, 0, 1, d, rop);
    }
  };
  if (!leader) {
    co_await t.nd->mem.charge_copy(static_cast<double>(bb));
    accumulate(st, mine);
    ++st.contrib;
    st.wq.notify();
    co_await st.wq.wait_until([&st] { return st.pub >= 1; }, t.rank);
    co_await t.nd->mem.charge_copy(static_cast<double>(bb));
    if (dst != nullptr) dst->copy_blocks(st.data, 0, d0, 1);
    finish(node, seq, nlocal);
    co_return;
  }
  accumulate(st, mine);
  for (int i = 1; i < nlocal; ++i) {
    co_await st.wq.wait_until(
        [&st, i] { return st.contrib >= static_cast<std::uint64_t>(i); },
        t.rank);
    co_await t.nd->mem.charge_combine(static_cast<double>(bb));
  }
  if (n > 1) {
    const int succ = (node + 1) % n;
    const std::size_t rblk =
        (bb + static_cast<std::size_t>(n) - 1) / static_cast<std::size_t>(n);
    auto blen = [&](int i) {
      std::size_t lo = std::min(bb, static_cast<std::size_t>(i) * rblk);
      return std::min(bb, (static_cast<std::size_t>(i) + 1) * rblk) - lo;
    };
    // Forward chain seed: this node's own contribution, snapshotted before
    // arrivals get combined in.
    Payload carry = st.data;
    for (int s = 0; s < n - 1; ++s) {
      co_await t.delay(p_.msg_overhead);
      cluster_->network().inject(
          node, succ, static_cast<double>(blen((node - s + n) % n)),
          [this, succ, seq, s, dig = carry]() mutable {
            NodeOp& sst = op_state(succ, seq);
            sst.inbox.emplace(s, std::move(dig));
            sst.wq.notify();
          });
      co_await st.wq.wait_until(
          [&st, s] { return st.inbox.count(s) != 0; }, t.rank);
      carry = std::move(st.inbox.at(s));
      st.data.combine_blocks(carry, 0, 0, 1, d, rop);
      co_await t.nd->mem.charge_combine(
          static_cast<double>(blen((node - 1 - s + 2 * n) % n)));
    }
    // Allgather hops: the fully reduced blocks circulate, timing only.
    for (int s = 0; s < n - 1; ++s) {
      co_await t.delay(p_.msg_overhead);
      cluster_->network().inject(
          node, succ, static_cast<double>(blen((node + 1 - s + 2 * n) % n)),
          [this, succ, seq] {
            NodeOp& sst = op_state(succ, seq);
            ++sst.net_srcs;
            sst.wq.notify();
          });
      co_await st.wq.wait_until(
          [&st, s] { return st.net_srcs > static_cast<std::uint64_t>(s); },
          t.rank);
    }
  }
  if (nlocal > 1) co_await t.nd->mem.charge_copy(static_cast<double>(bb));
  st.pub = 1;
  st.wq.notify();
  if (dst != nullptr) dst->copy_blocks(st.data, 0, d0, 1);
  finish(node, seq, nlocal);
}

sim::CoTask Transport::rhalving_allreduce_run(machine::TaskCtx& t,
                                              std::uint64_t seq,
                                              std::size_t bb, Dtype d,
                                              RedOp rop, const Payload& send,
                                              std::size_t s0, Payload* dst,
                                              std::size_t d0) {
  const int node = t.node();
  const int n = t.nnodes();
  const int nlocal = t.nlocal();
  const bool leader = t.local() == 0;
  NodeOp& st = op_state(node, seq);
  Payload mine(1, bb);
  mine.copy_blocks(send, s0, 0, 1);
  auto accumulate = [d, rop](NodeOp& into, const Payload& dig) {
    if (into.data.nblocks() == 0) {
      into.data = dig;
    } else {
      into.data.combine_blocks(dig, 0, 0, 1, d, rop);
    }
  };
  if (!leader) {
    co_await t.nd->mem.charge_copy(static_cast<double>(bb));
    accumulate(st, mine);
    ++st.contrib;
    st.wq.notify();
    co_await st.wq.wait_until([&st] { return st.pub >= 1; }, t.rank);
    co_await t.nd->mem.charge_copy(static_cast<double>(bb));
    if (dst != nullptr) dst->copy_blocks(st.data, 0, d0, 1);
    finish(node, seq, nlocal);
    co_return;
  }
  accumulate(st, mine);
  for (int i = 1; i < nlocal; ++i) {
    co_await st.wq.wait_until(
        [&st, i] { return st.contrib >= static_cast<std::uint64_t>(i); },
        t.rank);
    co_await t.nd->mem.charge_combine(static_cast<double>(bb));
  }
  if (n > 1) {
    int pof2 = 1;
    while (pof2 * 2 <= n) pof2 *= 2;
    const int rem = n - pof2;
    int nrounds = 0;
    while ((1 << (nrounds + 1)) <= pof2) ++nrounds;
    auto node_of = [rem](int w) { return w < rem ? w * 2 + 1 : w + rem; };
    const std::size_t esize = dtype_size(d);
    const std::size_t count = bb / esize;
    // Slot layout (identical on every active node): 0 = fold-in / unfold,
    // 1 + r = reduce-scatter round r, 1 + nrounds + k = k-th allgather hop.
    auto send_to = [&](int to, int slot, std::size_t len,
                       Payload dig) -> sim::CoTask {
      co_await t.delay(p_.msg_overhead);
      cluster_->network().inject(
          node, to, static_cast<double>(len),
          [this, to, seq, slot, dig = std::move(dig)]() mutable {
            NodeOp& peer = op_state(to, seq);
            peer.inbox.emplace(slot, std::move(dig));
            peer.wq.notify();
          });
    };
    auto wait_slot = [&](int slot) -> sim::CoTask {
      co_await st.wq.wait_until(
          [&st, slot] { return st.inbox.count(slot) != 0; }, t.rank);
    };
    int w;
    if (node < 2 * rem) {
      if (node % 2 == 0) {
        // Fold out: hand my contribution to the odd partner and wait for
        // the finished vector.
        co_await send_to(node + 1, 0, bb, st.data);
        w = -1;
      } else {
        co_await wait_slot(0);
        st.data.combine_blocks(st.inbox.at(0), 0, 0, 1, d, rop);
        co_await t.nd->mem.charge_combine(static_cast<double>(bb));
        w = node / 2;
      }
    } else {
      w = node - rem;
    }
    if (w != -1) {
      std::size_t lo = 0;
      std::size_t hi = count;
      std::vector<std::size_t> rlo(static_cast<std::size_t>(nrounds));
      std::vector<std::size_t> rhi(static_cast<std::size_t>(nrounds));
      for (int r = 0; r < nrounds; ++r) {
        const int pnode = node_of(w ^ (1 << r));
        auto ri = static_cast<std::size_t>(r);
        rlo[ri] = lo;
        rhi[ri] = hi;
        std::size_t half = (hi - lo + 1) / 2;
        std::size_t slo, shi;
        if ((w & (1 << r)) == 0) {  // keep lower, send upper
          slo = lo + half;
          shi = hi;
          hi = lo + half;
        } else {  // keep upper, send lower
          slo = lo;
          shi = lo + half;
          lo = lo + half;
        }
        const std::size_t keep_b = (hi - lo) * esize;
        const std::size_t send_b = (shi - slo) * esize;
        // Send before combining: the digest on the wire is this side's
        // pre-round group, disjoint from the partner's.
        co_await send_to(pnode, 1 + r, send_b, st.data);
        co_await wait_slot(1 + r);
        st.data.combine_blocks(st.inbox.at(1 + r), 0, 0, 1, d, rop);
        if (keep_b > 0) {
          co_await t.nd->mem.charge_combine(static_cast<double>(keep_b));
        }
      }
      for (int r = nrounds - 1; r >= 0; --r) {
        const int pnode = node_of(w ^ (1 << r));
        auto ri = static_cast<std::size_t>(r);
        const std::size_t mine_b = (hi - lo) * esize;
        const int k = nrounds - 1 - r;
        co_await send_to(pnode, 1 + nrounds + k, mine_b, {});
        co_await wait_slot(1 + nrounds + k);
        lo = rlo[ri];
        hi = rhi[ri];
      }
      // Unfold: the odd partner hands the finished vector back.
      if (w < rem) co_await send_to(node_of(w) - 1, 0, bb, st.data);
    } else {
      co_await wait_slot(0);
      st.data = std::move(st.inbox.at(0));
    }
  }
  if (nlocal > 1) co_await t.nd->mem.charge_copy(static_cast<double>(bb));
  st.pub = 1;
  st.wq.notify();
  if (dst != nullptr) dst->copy_blocks(st.data, 0, d0, 1);
  finish(node, seq, nlocal);
}

sim::CoTask Transport::sa_bcast_run(machine::TaskCtx& t, std::uint64_t seq,
                                    int root, std::size_t bb,
                                    const Payload* src, std::size_t s0,
                                    Payload* dst, std::size_t d0) {
  const auto& topo = *t.topo;
  const int node = t.node();
  const int root_node = topo.node_of(root);
  const int n = t.nnodes();
  const int nlocal = t.nlocal();
  const bool leader =
      t.local() == (node == root_node ? topo.local_of(root) : 0);
  const std::size_t rblk =
      (bb + static_cast<std::size_t>(n) - 1) / static_cast<std::size_t>(n);
  auto blen = [&](int i) {
    std::size_t lo = std::min(bb, static_cast<std::size_t>(i) * rblk);
    return std::min(bb, (static_cast<std::size_t>(i) + 1) * rblk) - lo;
  };
  NodeOp& st = op_state(node, seq);
  if (!leader) {
    // Consumers follow the leader's publish order: block (v - s) at step s.
    std::uint64_t k = 0;
    for (int s = 0; s < n; ++s) {
      const int b = (node - s + n) % n;
      if (blen(b) == 0) continue;
      ++k;
      co_await st.wq.wait_until([&st, k] { return st.pub >= k; }, t.rank);
      co_await t.nd->mem.charge_copy(static_cast<double>(blen(b)));
    }
    if (dst != nullptr) dst->copy_blocks(st.data, 0, d0, 1);
    finish(node, seq, nlocal);
    co_return;
  }
  const int succ = (node + 1) % n;
  const bool send_ring = succ != root_node;
  auto send_to = [&](int to, int slot, std::size_t len,
                     Payload dig) -> sim::CoTask {
    co_await t.delay(p_.msg_overhead);
    cluster_->network().inject(
        node, to, static_cast<double>(len),
        [this, to, seq, slot, dig = std::move(dig)]() mutable {
          NodeOp& peer = op_state(to, seq);
          peer.inbox.emplace(slot, std::move(dig));
          peer.wq.notify();
        });
  };
  auto wait_slot = [&](int slot) -> sim::CoTask {
    co_await st.wq.wait_until(
        [&st, slot] { return st.inbox.count(slot) != 0; }, t.rank);
  };
  auto publish = [&](int b) -> sim::CoTask {
    if (nlocal > 1) {
      co_await t.nd->mem.charge_copy(static_cast<double>(blen(b)));
    }
    ++st.pub;
    st.wq.notify();
  };
  if (node == root_node) {
    st.data = Payload(1, bb);
    st.data.copy_blocks(*src, s0, 0, 1);
    // Scatter: one message per peer node, each carrying the image digest.
    for (int i = 0; i < n; ++i) {
      if (i == root_node) continue;
      co_await send_to(i, 0, blen(i), st.data);
    }
    // Ring re-injection of block (v - s) at step s, published in order.
    for (int s = 0; s < n; ++s) {
      const int b = (node - s + n) % n;
      if (send_ring && s <= n - 2) co_await send_to(succ, s + 1, blen(b), {});
      if (blen(b) > 0) co_await publish(b);
    }
  } else {
    // Slot 0 is the root's scatter block; slot s >= 1 is the step-s ring
    // arrival from the predecessor.
    co_await wait_slot(0);
    st.data = std::move(st.inbox.at(0));
    if (send_ring) co_await send_to(succ, 1, blen(node), {});
    if (blen(node) > 0) co_await publish(node);
    for (int s = 1; s < n; ++s) {
      const int b = (node - s + n) % n;
      co_await wait_slot(s);
      if (send_ring && s <= n - 2) co_await send_to(succ, s + 1, blen(b), {});
      if (blen(b) > 0) co_await publish(b);
    }
  }
  if (dst != nullptr) dst->copy_blocks(st.data, 0, d0, 1);
  finish(node, seq, nlocal);
}

// ---- public ops ----

sim::CoTask Transport::bcast(machine::TaskCtx& t, Buf buf, int root,
                             Decision dec) {
  if (buf.count == 0) co_return;
  const std::uint64_t seq = next_seq(t);
  if (dec.algo == Algo::scatter_ag) {
    co_await sa_bcast_run(t, seq, root, buf.block_bytes(),
                          t.rank == root ? buf.pay : nullptr, buf.block0,
                          buf.pay, buf.block0);
  } else {
    co_await bcast_run(t, seq, root, 1, buf.block_bytes(),
                       t.rank == root ? buf.pay : nullptr, buf.block0, buf.pay,
                       buf.block0, dec.internode);
  }
}

sim::CoTask Transport::reduce(machine::TaskCtx& t, Buf send, Buf recv,
                              RedOp op, int root, Decision dec) {
  if (send.count == 0) co_return;
  const std::uint64_t seq = next_seq(t);
  co_await reduce_run(t, seq, root, 1, send.block_bytes(), send.dtype, op,
                      *send.pay, send.block0,
                      t.rank == root ? recv.pay : nullptr, recv.block0,
                      dec.internode);
}

sim::CoTask Transport::allreduce(machine::TaskCtx& t, Buf send, Buf recv,
                                 RedOp op, Decision dec) {
  if (send.count == 0) co_return;
  const std::size_t bb = send.block_bytes();
  if (dec.algo == Algo::ring || dec.algo == Algo::rhalving) {
    const std::uint64_t seq = next_seq(t);
    if (dec.algo == Algo::ring) {
      co_await ring_allreduce_run(t, seq, bb, send.dtype, op, *send.pay,
                                  send.block0, recv.pay, recv.block0);
    } else {
      co_await rhalving_allreduce_run(t, seq, bb, send.dtype, op, *send.pay,
                                      send.block0, recv.pay, recv.block0);
    }
    co_return;
  }
  const std::uint64_t seq1 = next_seq(t);
  const std::uint64_t seq2 = next_seq(t);
  const bool r0 = t.rank == 0;
  Payload tmp;
  if (r0) tmp = Payload(1, bb);
  co_await reduce_run(t, seq1, 0, 1, bb, send.dtype, op, *send.pay,
                      send.block0, r0 ? &tmp : nullptr, 0, dec.internode);
  co_await bcast_run(t, seq2, 0, 1, bb, r0 ? &tmp : nullptr, 0, recv.pay,
                     recv.block0, dec.internode);
}

sim::CoTask Transport::barrier(machine::TaskCtx& t) {
  const std::uint64_t seq = next_seq(t);
  co_await barrier_run(t, seq);
}

sim::CoTask Transport::scatter(machine::TaskCtx& t, Buf send, Buf recv,
                               int root) {
  if (recv.count == 0) co_return;
  const std::uint64_t seq = next_seq(t);
  co_await scatter_run(t, seq, root, recv.block_bytes(),
                       t.rank == root ? send.pay : nullptr, send.block0,
                       recv.pay, recv.block0);
}

sim::CoTask Transport::gather(machine::TaskCtx& t, Buf send, Buf recv,
                              int root) {
  if (send.count == 0) co_return;
  const std::uint64_t seq = next_seq(t);
  co_await gather_run(t, seq, root, send.block_bytes(), *send.pay,
                      send.block0, t.rank == root ? recv.pay : nullptr,
                      recv.block0);
}

sim::CoTask Transport::allgather(machine::TaskCtx& t, Buf send, Buf recv) {
  if (send.count == 0) co_return;
  const std::uint64_t seq1 = next_seq(t);
  const std::uint64_t seq2 = next_seq(t);
  const std::size_t bb = send.block_bytes();
  const std::size_t nranks = static_cast<std::size_t>(t.nranks());
  const bool r0 = t.rank == 0;
  Payload assembled;
  if (r0) assembled = Payload(nranks, bb);
  co_await gather_run(t, seq1, 0, bb, *send.pay, send.block0,
                      r0 ? &assembled : nullptr, 0);
  co_await bcast_run(t, seq2, 0, nranks, bb, r0 ? &assembled : nullptr, 0,
                     recv.pay, recv.block0, TreeKind::binomial);
}

sim::CoTask Transport::reduce_scatter(machine::TaskCtx& t, Buf send, Buf recv,
                                      RedOp op) {
  if (recv.count == 0) co_return;
  const std::uint64_t seq1 = next_seq(t);
  const std::uint64_t seq2 = next_seq(t);
  const std::size_t bb = recv.block_bytes();
  const std::size_t nranks = static_cast<std::size_t>(t.nranks());
  const bool r0 = t.rank == 0;
  Payload tmp;
  if (r0) tmp = Payload(nranks, bb);
  co_await reduce_run(t, seq1, 0, nranks, bb, send.dtype, op, *send.pay,
                      send.block0, r0 ? &tmp : nullptr, 0, TreeKind::binomial);
  co_await scatter_run(t, seq2, 0, bb, r0 ? &tmp : nullptr, 0, recv.pay,
                       recv.block0);
}

}  // namespace srm::coll::sym
