// Full-scale integration: the paper's largest configuration (256 CPUs,
// 16 nodes x 16 tasks) running every operation with data verification,
// plus a 15-per-node "daemon CPU" shape, a stress mix at scale, and the
// §2.3 buffer bound: a node holds landing buffers for the links its
// operations used (degree(master)), never one pair per peer node.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/communicator.hpp"

namespace srm {
namespace {

using machine::Cluster;
using machine::ClusterConfig;
using machine::TaskCtx;
using sim::CoTask;

struct Fixture {
  Fixture(int nodes, int per_node, SrmConfig cfg = {})
      : cluster(make_cfg(nodes, per_node)),
        fabric(cluster),
        comm(cluster, fabric, cfg) {}
  static ClusterConfig make_cfg(int nodes, int per_node) {
    ClusterConfig c;
    c.nodes = nodes;
    c.tasks_per_node = per_node;
    return c;
  }
  Cluster cluster;
  lapi::Fabric fabric;
  Communicator comm;
};

TEST(Scale, AllOpsAt256Cpus) {
  Fixture f(16, 16);
  int n = 256;
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    // Broadcast 100 KB (large protocol) from a non-master root.
    std::vector<char> buf(100000, 0);
    if (t.rank == 37) {
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<char>(i % 251);
      }
    }
    co_await f.comm.bcast(t, coll::Buf::bytes(buf.data(), buf.size()), 37);
    for (std::size_t i = 0; i < buf.size(); i += 997) {
      EXPECT_EQ(buf[i], static_cast<char>(i % 251)) << "rank " << t.rank;
    }

    // Pipelined allreduce of 5000 doubles.
    std::vector<double> in(5000, 1.0 + t.rank % 4), out(5000, 0.0);
    co_await f.comm.allreduce(t, coll::of(in.data(), 5000),
                              coll::of(out.data(), 5000), coll::RedOp::sum);
    double expect = 0.0;
    for (int r = 0; r < n; ++r) expect += 1.0 + r % 4;
    EXPECT_DOUBLE_EQ(out[0], expect);
    EXPECT_DOUBLE_EQ(out[4999], expect);

    // Reduce (min) to the last rank.
    double mine = 1000.0 - t.rank, least = 0.0;
    co_await f.comm.reduce(t, coll::of(&mine, 1), coll::of(&least, 1),
                           coll::RedOp::min, 255);
    if (t.rank == 255) {
      EXPECT_DOUBLE_EQ(least, 1000.0 - 255);
    }

    co_await f.comm.barrier(t);

    // Allgather one double per rank.
    double me = 2.0 * t.rank;
    std::vector<double> all(256, -1.0);
    co_await f.comm.allgather(t, coll::of(&me, 1), coll::of(all.data(), 1));
    for (int r = 0; r < n; r += 17) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], 2.0 * r);
    }
  });
}

TEST(Scale, FifteenTasksPerNodeDaemonShape) {
  // §2.1: "some applications on the IBM SP leave out one processor and use
  // only 15 of the 16 processors per node" — the embedding stays optimal.
  Fixture f(8, 15);
  int n = 120;
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> in(300, t.rank * 0.25), out(300, 0.0);
    co_await f.comm.allreduce(t, coll::of(in.data(), 300),
                              coll::of(out.data(), 300), coll::RedOp::sum);
    EXPECT_DOUBLE_EQ(out[0], 0.25 * n * (n - 1) / 2.0);
    co_await f.comm.barrier(t);
  });
}

TEST(Scale, SustainedMixAt128Cpus) {
  Fixture f(8, 16);
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    for (int round = 0; round < 4; ++round) {
      std::vector<char> b(20000 + round * 30000, 0);
      int root = round * 31 % 128;
      if (t.rank == root) {
        for (std::size_t i = 0; i < b.size(); ++i) {
          b[i] = static_cast<char>(i % 127);
        }
      }
      co_await f.comm.bcast(t, coll::Buf::bytes(b.data(), b.size()), root);
      EXPECT_EQ(b[b.size() - 1],
                static_cast<char>((b.size() - 1) % 127));

      double v = t.rank + round, s = 0.0;
      co_await f.comm.allreduce(t, coll::of(&v, 1), coll::of(&s, 1),
                                coll::RedOp::sum);
      EXPECT_DOUBLE_EQ(s, 128.0 * 127 / 2 + 128.0 * round);
    }
  });
}

TEST(Scale, VirtualTimeIsDeterministicAt256) {
  auto once = [] {
    Fixture f(16, 16);
    f.cluster.run([&](TaskCtx& t) -> CoTask {
      std::vector<double> in(100, 1.0), out(100, 0.0);
      co_await f.comm.allreduce(t, coll::of(in.data(), 100),
                                coll::of(out.data(), 100), coll::RedOp::sum);
      co_await f.comm.barrier(t);
    });
    return std::pair{f.cluster.engine().now(),
                     f.cluster.engine().events_processed()};
  };
  EXPECT_EQ(once(), once());
}

// ---- degree(master) buffer allocation (§2.3) ----

/// Does node @p n's segment hold the buffer pair "<stem>0"/"<stem>1" of the
/// default communicator? Pairs are allocated whole.
bool holds_pair(Fixture& f, int n, const std::string& stem) {
  const auto& seg = f.cluster.node(n).seg;
  bool first = seg.contains("srm/srm0/" + stem + "0");
  EXPECT_EQ(first, seg.contains("srm/srm0/" + stem + "1")) << stem;
  return first;
}

/// Landing pair of kind @p kind ("bc_land", "red_land", "zoo_land") on node
/// @p n for the link from @p peer.
bool holds_landing(Fixture& f, int n, const char* kind, int peer) {
  return holds_pair(f, n, kind + std::to_string(peer) + "_");
}

int count_landing(Fixture& f, int n, const char* kind) {
  int k = 0;
  for (int p = 0; p < f.cluster.topology().nodes(); ++p) {
    k += holds_landing(f, n, kind, p) ? 1 : 0;
  }
  return k;
}

/// Mapped-reduce accumulator pair of local task @p local on node @p n.
bool holds_sc_acc(Fixture& f, int n, int local) {
  return holds_pair(f, n, "sc_acc" + std::to_string(local) + "_");
}

TEST(Scale, FixedRootLandsOnlyOnTreeLinks) {
  Fixture f(16, 4);
  const int root = 5;  // a non-master on node 1
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<int> b(64, t.rank == root ? 7 : 0);
    co_await f.comm.bcast(t, coll::of(b.data(), b.size()), root);
    EXPECT_EQ(b[63], 7) << "rank " << t.rank;
    double mine = t.rank;
    double sum = 0.0;
    co_await f.comm.reduce(t, coll::of(&mine, 1), coll::of(&sum, 1),
                           coll::RedOp::sum, root);
    if (t.rank == root) {
      EXPECT_DOUBLE_EQ(sum, 63.0 * 64 / 2);
    }
  });

  const auto& topo = f.cluster.topology();
  coll::Embedding bc = coll::embed(
      topo, root, f.comm.decide(coll::CollKind::bcast, 256).internode,
      f.comm.config().intranode_tree);
  coll::Embedding red = coll::embed(
      topo, root, f.comm.decide(coll::CollKind::reduce, 8).internode,
      f.comm.config().intranode_tree);
  for (int n = 0; n < topo.nodes(); ++n) {
    const auto& kids = red.internode.children[static_cast<std::size_t>(n)];
    for (int p = 0; p < topo.nodes(); ++p) {
      bool parent = bc.internode.parent[static_cast<std::size_t>(n)] == p;
      bool child = std::find(kids.begin(), kids.end(), p) != kids.end();
      EXPECT_EQ(holds_landing(f, n, "bc_land", p), parent)
          << "node " << n << " peer " << p;
      EXPECT_EQ(holds_landing(f, n, "red_land", p), child)
          << "node " << n << " peer " << p;
      EXPECT_FALSE(holds_landing(f, n, "zoo_land", p));
    }
  }
}

TEST(Scale, EveryRootStaysWithinDegreeOfMaster) {
  Fixture f(64, 2);
  const int nodes = 64;
  const int degree = 6;  // ceil(log2(64)): binomial parents and children
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    for (int n = 0; n < nodes; ++n) {
      int root = 2 * n + n % 2;  // alternate master and non-master roots
      std::vector<int> b(16, t.rank == root ? root + 1 : -1);
      co_await f.comm.bcast(t, coll::of(b.data(), b.size()), root);
      EXPECT_EQ(b[0], root + 1) << "root " << root << " rank " << t.rank;
      EXPECT_EQ(b[15], root + 1) << "root " << root << " rank " << t.rank;
      std::vector<std::int64_t> in(4, t.rank + n);
      std::vector<std::int64_t> out(4, 0);
      co_await f.comm.reduce(t, coll::of(in.data(), in.size()),
                             coll::of(out.data(), out.size()),
                             coll::RedOp::sum, root);
      if (t.rank == root) {
        std::int64_t expect = 127LL * 128 / 2 + 128LL * n;
        EXPECT_EQ(out[0], expect) << "root " << root;
        EXPECT_EQ(out[3], expect) << "root " << root;
      }
    }
    // A power-of-two allreduce needs no fold slots.
    double v = t.rank;
    double s = 0.0;
    co_await f.comm.allreduce(t, coll::of(&v, 1), coll::of(&s, 1),
                              coll::RedOp::sum);
    EXPECT_DOUBLE_EQ(s, 127.0 * 128 / 2);
  });

  for (int n = 0; n < nodes; ++n) {
    int parents = count_landing(f, n, "bc_land");
    int children = count_landing(f, n, "red_land");
    EXPECT_GE(parents, 1) << "node " << n;
    EXPECT_LE(parents, degree) << "node " << n;
    EXPECT_GE(children, 1) << "node " << n;
    EXPECT_LE(children, degree) << "node " << n;
    EXPECT_EQ(count_landing(f, n, "zoo_land"), 0) << "node " << n;
    for (int l = 0; l < 2; ++l) EXPECT_FALSE(holds_sc_acc(f, n, l));
    EXPECT_FALSE(holds_pair(f, n, "ga_stage")) << "node " << n;
    EXPECT_FALSE(holds_pair(f, n, "ar_fold_in")) << "node " << n;
    EXPECT_FALSE(holds_pair(f, n, "ar_fold_out")) << "node " << n;
  }

  // The first gather brings the staging pair, on every node.
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    double me = 0.5 * t.rank;
    std::vector<double> all(t.rank == 3 ? 128 : 0, -1.0);
    co_await f.comm.gather(t, coll::of(&me, 1), coll::of(all.data(), 1), 3);
    if (t.rank == 3) {
      for (int r = 0; r < 128; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)], 0.5 * r) << "rank " << r;
      }
    }
  });
  for (int n = 0; n < nodes; ++n) {
    EXPECT_TRUE(holds_pair(f, n, "ga_stage")) << "node " << n;
  }
}

TEST(Scale, OptionalNodeBuffersWaitForTheirOps) {
  // Six nodes: a recursive-doubling allreduce folds nodes 0-3 down to the
  // nearest power of two. Single-copy reduce kicks in at 4 KiB.
  SrmConfig cfg;
  cfg.single_copy = true;
  cfg.decisions = coll::DecisionTable::ibm_sp();
  cfg.decisions.set(coll::CollKind::reduce, 4096,
                    {coll::Algo::staged, true, coll::TreeKind::binomial});
  Fixture f(6, 4, cfg);
  const int nodes = 6;
  const int nlocal = 4;

  // Staged operations below the single-copy crossover need none of them.
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> in(8, 1.0), out(8, 0.0);
    co_await f.comm.reduce(t, coll::of(in.data(), 8), coll::of(out.data(), 8),
                           coll::RedOp::sum, 0);
    if (t.rank == 0) {
      EXPECT_DOUBLE_EQ(out[7], 24.0);
    }
    std::vector<int> b(32, t.rank == 9 ? 4 : 0);
    co_await f.comm.bcast(t, coll::of(b.data(), b.size()), 9);
    EXPECT_EQ(b[31], 4);
    co_await f.comm.barrier(t);
  });
  for (int n = 0; n < nodes; ++n) {
    for (int l = 0; l < nlocal; ++l) EXPECT_FALSE(holds_sc_acc(f, n, l)) << n;
    EXPECT_FALSE(holds_pair(f, n, "ga_stage")) << "node " << n;
    EXPECT_FALSE(holds_pair(f, n, "ar_fold_in")) << "node " << n;
    EXPECT_FALSE(holds_pair(f, n, "ar_fold_out")) << "node " << n;
  }

  // A mapped reduce gives accumulators to the interior vertices of each
  // node's topology tree, and to no one else.
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> in(1024, 1.0 + t.rank), out(1024, 0.0);
    co_await f.comm.reduce(t, coll::of(in.data(), in.size()),
                           coll::of(out.data(), out.size()), coll::RedOp::sum,
                           0);
    if (t.rank == 0) {
      EXPECT_DOUBLE_EQ(out[1023], 24.0 + 23.0 * 24 / 2);
    }
  });
  coll::Tree tree = coll::topo_tree(f.cluster.params().topo, nlocal, 0,
                                    /*binomial=*/true);
  int interior = 0;
  for (int l = 1; l < nlocal; ++l) {
    bool inner = !tree.children[static_cast<std::size_t>(l)].empty();
    interior += inner ? 1 : 0;
    for (int n = 0; n < nodes; ++n) {
      EXPECT_EQ(holds_sc_acc(f, n, l), inner) << "node " << n << " local " << l;
    }
  }
  EXPECT_GT(interior, 0);
  for (int n = 0; n < nodes; ++n) EXPECT_FALSE(holds_sc_acc(f, n, 0));

  // A non-power-of-two recursive-doubling allreduce brings the fold slots
  // to the folding pairs only: odd partners receive, even ones get the
  // result back.
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    double v = t.rank;
    double s = 0.0;
    co_await f.comm.allreduce(t, coll::of(&v, 1), coll::of(&s, 1),
                              coll::RedOp::sum);
    EXPECT_DOUBLE_EQ(s, 23.0 * 24 / 2);
  });
  for (int n = 0; n < nodes; ++n) {
    bool folds = n < 4;
    EXPECT_EQ(holds_pair(f, n, "ar_fold_in"), folds && n % 2 == 1) << n;
    EXPECT_EQ(holds_pair(f, n, "ar_fold_out"), folds && n % 2 == 0) << n;
    EXPECT_FALSE(holds_pair(f, n, "ga_stage")) << "node " << n;
  }
}

}  // namespace
}  // namespace srm
