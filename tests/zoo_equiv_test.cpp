// Algorithm-zoo equivalence: every zoo algorithm (ring allreduce,
// recursive-halving allreduce, scatter+allgather bcast) and the pipelined
// allreduce, forced via a single-candidate decision table, must be
// element-exact against the same sequential reference the baseline paths
// are tested against — across node shapes (incl. non-power-of-two for the
// rhalving fold and more nodes than elements for zero-length blocks),
// intra-node reduce trees, datatypes, operators, roots, and back-to-back
// mixed-algorithm sequences.
//
// Data is chosen so floating-point reduction is order-independent: sums of
// small integers are exact in f32/f64, and prod inputs are powers of two.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "coll/payload.hpp"
#include "core/communicator.hpp"

namespace srm {
namespace {

using machine::Cluster;
using machine::ClusterConfig;
using machine::TaskCtx;
using sim::CoTask;

struct Fixture {
  Fixture(int nodes, int per_node, SrmConfig cfg = {},
          const machine::MachineParams& mp = machine::MachineParams::ibm_sp())
      : cluster(make_cfg(nodes, per_node, mp)),
        fabric(cluster),
        comm(cluster, fabric, cfg) {}
  static ClusterConfig make_cfg(int nodes, int per_node,
                                const machine::MachineParams& mp) {
    ClusterConfig c;
    c.nodes = nodes;
    c.tasks_per_node = per_node;
    c.params = mp;
    return c;
  }
  Cluster cluster;
  lapi::Fabric fabric;
  Communicator comm;
};

SrmConfig force(coll::Algo allreduce_algo,
                coll::Algo bcast_algo = coll::Algo::staged,
                coll::TreeKind intranode = coll::TreeKind::binomial) {
  SrmConfig cfg;
  cfg.decisions.profile = "forced";
  cfg.decisions.set(coll::CollKind::allreduce, 0,
                    {allreduce_algo, false, coll::TreeKind::binomial,
                     intranode});
  cfg.decisions.set(coll::CollKind::bcast, 0,
                    {bcast_algo, false, coll::TreeKind::binomial});
  return cfg;
}

double contribution(int rank, std::size_t i) {
  return (rank % 17 + 1.0) * static_cast<double>(i % 29 + 1);
}

/// "" for the default binomial intra-node tree, "_<tree>" otherwise.
std::string tree_suffix(coll::TreeKind intranode) {
  if (intranode == coll::TreeKind::binomial) return "";
  return std::string("_") + coll::tree_kind_name(intranode);
}

// ---------------------------------------------------------------------------
// Allreduce zoo: shape x size x intra-node tree sweep, f64 sum. The
// single-copy cases run modern_smp (16-way nodes over 2 sockets x 2 L3
// slices, so a node tree spans several cache domains) with the pipeline's
// row and the reduce row mapped over binary inter-node trees, and also
// reduce to roots on and off the node masters. Their chain case then runs
// both rows staged over chain trees between and within nodes.
// ---------------------------------------------------------------------------

using ZooAllreduceParam =
    std::tuple<coll::Algo, int, int, std::size_t, coll::TreeKind, bool>;

class ZooAllreduce : public ::testing::TestWithParam<ZooAllreduceParam> {};

/// Single-copy on; the pipelined allreduce row and the reduce row both
/// @p mapped, over @p internode and @p intranode trees.
SrmConfig force_smp(bool mapped, coll::TreeKind internode,
                    coll::TreeKind intranode) {
  SrmConfig cfg;
  cfg.single_copy = true;
  cfg.decisions.profile = "forced";
  cfg.decisions.set(coll::CollKind::allreduce, 0,
                    {coll::Algo::pipeline, mapped, internode, intranode});
  cfg.decisions.set(coll::CollKind::reduce, 0,
                    {coll::Algo::staged, mapped, internode, intranode});
  return cfg;
}

/// Allreduce on @p f, then a reduce to each of @p roots; every result must
/// match the sequential reference element for element.
void expect_exact(Fixture& f, std::size_t count,
                  const std::vector<int>& roots) {
  const int n = f.cluster.topology().nranks();
  std::vector<std::vector<double>> send(static_cast<std::size_t>(n)),
      recv(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto& s = send[static_cast<std::size_t>(r)];
    s.resize(count);
    for (std::size_t i = 0; i < count; ++i) s[i] = contribution(r, i);
    recv[static_cast<std::size_t>(r)].assign(count, -1.0);
  }
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    auto r = static_cast<std::size_t>(t.rank);
    co_await f.comm.allreduce(t, coll::of(send[r].data(), count),
                              coll::of(recv[r].data(), count),
                              coll::RedOp::sum);
  });
  std::vector<double> want(count, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    for (int r = 0; r < n; ++r) want[i] += contribution(r, i);
    for (int r = 0; r < n; ++r) {
      auto ri = static_cast<std::size_t>(r);
      ASSERT_EQ(recv[ri][i], want[i]) << "rank " << r << " elem " << i;
      // The send buffer is an input: it must come back untouched.
      ASSERT_EQ(send[ri][i], contribution(r, i)) << "rank " << r;
    }
  }
  for (int root : roots) {
    std::vector<double> got(count, -1.0);
    f.cluster.run([&, root](TaskCtx& t) -> CoTask {
      auto r = static_cast<std::size_t>(t.rank);
      co_await f.comm.reduce(t, coll::of(send[r].data(), count),
                             coll::of(got.data(), count), coll::RedOp::sum,
                             root);
    });
    ASSERT_EQ(got, want) << "root " << root;
  }
}

TEST_P(ZooAllreduce, MatchesSequentialReference) {
  auto [algo, nodes, ppn, count, intranode, mapped_smp] = GetParam();
  if (!mapped_smp) {
    Fixture f(nodes, ppn, force(algo, coll::Algo::staged, intranode));
    expect_exact(f, count, {});
    return;
  }
  // The reduce, rooted at the first master, a non-master on the second
  // node, and the last rank: the root leads its node's tree.
  const std::vector<int> roots = {0, ppn + ppn / 2 + 1, nodes * ppn - 1};
  const machine::MachineParams smp = machine::MachineParams::modern_smp();
  Fixture f(nodes, ppn, force_smp(true, coll::TreeKind::binary, intranode),
            smp);
  expect_exact(f, count, roots);
  if (intranode != coll::TreeKind::chain) return;
  Fixture g(nodes, ppn,
            force_smp(false, coll::TreeKind::chain, coll::TreeKind::chain),
            smp);
  expect_exact(g, count, roots);
}

/// The staged cross product, then the single-copy modern_smp cases.
std::vector<ZooAllreduceParam> zoo_allreduce_params() {
  std::vector<ZooAllreduceParam> out;
  const std::size_t counts[] = {1, 3, 2049, 10000};
  for (coll::Algo algo :
       {coll::Algo::ring, coll::Algo::rhalving, coll::Algo::pipeline}) {
    // 3 and 5 nodes exercise the rhalving fold and odd ring geometry;
    // count 3 with 4-5 nodes yields zero-length blocks.
    for (int nodes : {1, 2, 3, 4, 5}) {
      for (int ppn : {1, 4}) {
        for (std::size_t count : counts) {
          // The node reduce of every allreduce algorithm runs the allreduce
          // row's intra-node tree.
          for (coll::TreeKind tree :
               {coll::TreeKind::binomial, coll::TreeKind::binary,
                coll::TreeKind::chain}) {
            out.emplace_back(algo, nodes, ppn, count, tree, false);
          }
        }
      }
    }
  }
  for (auto [nodes, ppn] : {std::pair{3, 16}, std::pair{4, 8}}) {
    for (std::size_t count : counts) {
      for (coll::TreeKind tree :
           {coll::TreeKind::binomial, coll::TreeKind::binary,
            coll::TreeKind::chain}) {
        out.emplace_back(coll::Algo::pipeline, nodes, ppn, count, tree, true);
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZooAllreduce, ::testing::ValuesIn(zoo_allreduce_params()),
    [](const auto& info) {
      return std::string(coll::algo_name(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param)) + "x" +
             std::to_string(std::get<2>(info.param)) + "_c" +
             std::to_string(std::get<3>(info.param)) +
             tree_suffix(std::get<4>(info.param)) +
             (std::get<5>(info.param) ? "_smp_sc" : "");
    });

// ---------------------------------------------------------------------------
// Allreduce zoo: every dtype x operator on one asymmetric shape.
// ---------------------------------------------------------------------------

template <typename T>
void run_typed(coll::Algo algo, coll::RedOp op, coll::TreeKind intranode) {
  const int nodes = 3, ppn = 4, n = nodes * ppn;
  const std::size_t count = 257;
  // prod inputs are 1 or 2 (exact in every dtype; product <= 2^12);
  // everything else uses the integer-valued contribution pattern.
  auto val = [op](int rank, std::size_t i) -> T {
    if (op == coll::RedOp::prod) {
      return static_cast<T>((static_cast<std::size_t>(rank) + i) % 2 + 1);
    }
    return static_cast<T>(contribution(rank, i));
  };
  Fixture f(nodes, ppn, force(algo, coll::Algo::staged, intranode));
  std::vector<std::vector<T>> send(static_cast<std::size_t>(n)),
      recv(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto& s = send[static_cast<std::size_t>(r)];
    s.resize(count);
    for (std::size_t i = 0; i < count; ++i) s[i] = val(r, i);
    recv[static_cast<std::size_t>(r)].assign(count, T{0});
  }
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    auto r = static_cast<std::size_t>(t.rank);
    co_await f.comm.allreduce(t, coll::of(send[r].data(), count),
                              coll::of(recv[r].data(), count), op);
  });
  for (std::size_t i = 0; i < count; ++i) {
    T want = val(0, i);
    for (int r = 1; r < n; ++r) {
      T v = val(r, i);
      switch (op) {
        case coll::RedOp::sum: want = static_cast<T>(want + v); break;
        case coll::RedOp::prod: want = static_cast<T>(want * v); break;
        case coll::RedOp::min: want = v < want ? v : want; break;
        case coll::RedOp::max: want = v > want ? v : want; break;
      }
    }
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(recv[static_cast<std::size_t>(r)][i], want)
          << "rank " << r << " elem " << i;
    }
  }
}

const char* red_op_name(coll::RedOp op) {
  switch (op) {
    case coll::RedOp::sum: return "sum";
    case coll::RedOp::prod: return "prod";
    case coll::RedOp::min: return "min";
    case coll::RedOp::max: return "max";
  }
  return "?";
}

class ZooAllreduceOps
    : public ::testing::TestWithParam<
          std::tuple<coll::Algo, coll::RedOp, coll::TreeKind>> {};

TEST_P(ZooAllreduceOps, AllDtypes) {
  auto [algo, op, intranode] = GetParam();
  run_typed<double>(algo, op, intranode);
  run_typed<float>(algo, op, intranode);
  run_typed<std::int32_t>(algo, op, intranode);
  run_typed<std::int64_t>(algo, op, intranode);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, ZooAllreduceOps,
    ::testing::Combine(
        ::testing::Values(coll::Algo::ring, coll::Algo::rhalving,
                          coll::Algo::pipeline),
        ::testing::Values(coll::RedOp::sum, coll::RedOp::prod,
                          coll::RedOp::min, coll::RedOp::max),
        ::testing::Values(coll::TreeKind::binomial, coll::TreeKind::binary)),
    [](const auto& info) {
      return std::string(coll::algo_name(std::get<0>(info.param))) + "_" +
             red_op_name(std::get<1>(info.param)) +
             tree_suffix(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Scatter+allgather broadcast: shape x size sweep, plus every root on an
// asymmetric cluster (root off the master changes the node leader).
// ---------------------------------------------------------------------------

class ZooBcast
    : public ::testing::TestWithParam<std::tuple<int, int, std::size_t>> {};

TEST_P(ZooBcast, DeliversRootBytes) {
  auto [nodes, ppn, bytes] = GetParam();
  Fixture f(nodes, ppn, force(coll::Algo::pipeline, coll::Algo::scatter_ag));
  int n = nodes * ppn;
  int root = n > 5 ? 5 : 0;  // non-master whenever the shape allows
  std::vector<std::vector<char>> bufs(static_cast<std::size_t>(n),
                                      std::vector<char>(bytes, 0));
  f.cluster.run([&, bytes = bytes, root](TaskCtx& t) -> CoTask {
    auto& buf = bufs[static_cast<std::size_t>(t.rank)];
    if (t.rank == root) {
      for (std::size_t i = 0; i < bytes; ++i) {
        buf[i] = static_cast<char>((i * 131 + 17) % 251);
      }
    }
    co_await f.comm.bcast(t, coll::Buf::bytes(buf.data(), bytes), root);
  });
  for (int r = 0; r < n; ++r) {
    ASSERT_EQ(bufs[static_cast<std::size_t>(r)],
              bufs[static_cast<std::size_t>(root)])
        << "rank " << r << " bytes " << bytes;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZooBcast,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(1, 4),
                       // 1B forces zero-length blocks on every multi-node
                       // shape; 300000 spans many reduce_chunk pieces.
                       ::testing::Values(std::size_t{1}, std::size_t{10},
                                         std::size_t{4096},
                                         std::size_t{65537},
                                         std::size_t{300000})),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "x" +
             std::to_string(std::get<1>(info.param)) + "_b" +
             std::to_string(std::get<2>(info.param));
    });

TEST(ZooBcast, EveryRootOnAsymmetricCluster) {
  Fixture f(3, 5, force(coll::Algo::pipeline, coll::Algo::scatter_ag));
  std::size_t bytes = 3000;
  for (int root : {0, 1, 4, 5, 9, 14}) {
    std::vector<std::vector<char>> bufs(15, std::vector<char>(bytes, 0));
    f.cluster.run([&, root](TaskCtx& t) -> CoTask {
      auto& buf = bufs[static_cast<std::size_t>(t.rank)];
      if (t.rank == root) {
        for (std::size_t i = 0; i < bytes; ++i) {
          buf[i] = static_cast<char>((i + static_cast<std::size_t>(root)) % 127);
        }
      }
      co_await f.comm.bcast(t, coll::Buf::bytes(buf.data(), bytes), root);
    });
    for (int r = 0; r < 15; ++r) {
      ASSERT_EQ(bufs[static_cast<std::size_t>(r)],
                bufs[static_cast<std::size_t>(root)])
          << "root " << root << " rank " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Mixed sequences: a size-banded table alternates zoo algorithms back to
// back on one communicator — the streamed-chunk sequence numbers and credit
// counters must stay balanced across operations.
// ---------------------------------------------------------------------------

TEST(ZooSequence, BandedTableAlternatesAlgorithms) {
  SrmConfig cfg;
  cfg.decisions.profile = "forced";
  cfg.decisions.set(coll::CollKind::allreduce, 0,
                    {coll::Algo::ring, false, coll::TreeKind::binomial});
  cfg.decisions.set(coll::CollKind::allreduce, 8192,
                    {coll::Algo::rhalving, false, coll::TreeKind::binomial});
  cfg.decisions.set(coll::CollKind::bcast, 0,
                    {coll::Algo::scatter_ag, false, coll::TreeKind::binomial});
  Fixture f(4, 3, cfg);
  const int n = 12;
  const std::size_t small = 500, large = 3000;  // 4000B ring / 24000B rhalving
  std::vector<std::vector<double>> a(n), b(n), out(n);
  std::vector<std::vector<char>> bc(n);
  for (int r = 0; r < n; ++r) {
    a[static_cast<std::size_t>(r)].resize(small);
    b[static_cast<std::size_t>(r)].resize(large);
    for (std::size_t i = 0; i < small; ++i) {
      a[static_cast<std::size_t>(r)][i] = contribution(r, i);
    }
    for (std::size_t i = 0; i < large; ++i) {
      b[static_cast<std::size_t>(r)][i] = contribution(r, i + 1);
    }
    out[static_cast<std::size_t>(r)].resize(large);
    bc[static_cast<std::size_t>(r)].assign(2048, 0);
  }
  for (int round = 0; round < 2; ++round) {
    int root = round == 0 ? 0 : 7;
    f.cluster.run([&, root](TaskCtx& t) -> CoTask {
      auto r = static_cast<std::size_t>(t.rank);
      co_await f.comm.allreduce(t, coll::of(a[r].data(), small),
                                coll::of(out[r].data(), small),
                                coll::RedOp::sum);
      if (t.rank == root) {
        for (std::size_t i = 0; i < 2048; ++i) {
          bc[r][i] = static_cast<char>((i * 7 + 3) % 127);
        }
      }
      co_await f.comm.bcast(t, coll::Buf::bytes(bc[r].data(), 2048), root);
      co_await f.comm.allreduce(t, coll::of(b[r].data(), large),
                                coll::of(out[r].data(), large),
                                coll::RedOp::sum);
    });
    for (std::size_t i = 0; i < large; ++i) {
      double want = 0;
      for (int r = 0; r < n; ++r) want += contribution(r, i + 1);
      for (int r = 0; r < n; ++r) {
        ASSERT_EQ(out[static_cast<std::size_t>(r)][i], want)
            << "round " << round << " rank " << r << " elem " << i;
      }
    }
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(bc[static_cast<std::size_t>(r)],
                bc[static_cast<std::size_t>(root)])
          << "round " << round << " rank " << r;
    }
  }
}

// Zoo rows with the mapped column set (and single-copy enabled) must still
// be correct: the zoo's intra-node phases are staged by design, so the
// mapped flag applies only where a mapped variant exists.
TEST(ZooSequence, CoexistsWithSingleCopy) {
  SrmConfig cfg;
  cfg.single_copy = true;
  cfg.decisions.profile = "forced";
  cfg.decisions.set(coll::CollKind::allreduce, 0,
                    {coll::Algo::ring, true, coll::TreeKind::binomial});
  cfg.decisions.set(coll::CollKind::bcast, 0,
                    {coll::Algo::scatter_ag, true, coll::TreeKind::binomial});
  Fixture f(3, 4, cfg);
  const int n = 12;
  const std::size_t count = 1500;
  std::vector<std::vector<double>> send(n), recv(n);
  for (int r = 0; r < n; ++r) {
    send[static_cast<std::size_t>(r)].resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      send[static_cast<std::size_t>(r)][i] = contribution(r, i);
    }
    recv[static_cast<std::size_t>(r)].assign(count, 0);
  }
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    auto r = static_cast<std::size_t>(t.rank);
    co_await f.comm.allreduce(t, coll::of(send[r].data(), count),
                              coll::of(recv[r].data(), count),
                              coll::RedOp::sum);
    co_await f.comm.bcast(t, coll::of(recv[r].data(), count), 5);
  });
  for (std::size_t i = 0; i < count; ++i) {
    double want = 0;
    for (int r = 0; r < n; ++r) want += contribution(r, i);
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(recv[static_cast<std::size_t>(r)][i], want) << "rank " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Symbolic plane: the same forced tables drive the zoo cost runners, which
// must stay digest-exact — movement ops reproduce the root image checksum,
// reductions land on the identical commutative digest the staged baseline
// produces whatever grouping the algorithm combined contributions in.
// ---------------------------------------------------------------------------

TEST(ZooSymbolic, BcastDigestEqualsRootImage) {
  const std::size_t bytes = 100000;
  for (int nodes : {1, 2, 3, 5}) {
    Fixture f(nodes, 3, force(coll::Algo::pipeline, coll::Algo::scatter_ag));
    const int n = nodes * 3;
    const int root = n > 4 ? 4 : 0;
    std::vector<coll::Payload> pays(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      pays[static_cast<std::size_t>(r)] = coll::Payload(1, bytes);
      if (r == root) {
        pays[static_cast<std::size_t>(r)].fill_pattern(coll::Dtype::kByte, 42);
      }
    }
    f.cluster.run([&, root](TaskCtx& t) -> CoTask {
      auto r = static_cast<std::size_t>(t.rank);
      co_await f.comm.bcast(
          t, coll::Buf::symbolic(pays[r], coll::Dtype::kByte, bytes), root);
    });
    coll::Payload want(1, bytes);
    want.fill_pattern(coll::Dtype::kByte, 42);
    for (int r = 0; r < n; ++r) {
      EXPECT_TRUE(pays[static_cast<std::size_t>(r)].identical_to(want))
          << nodes << " nodes, rank " << r;
    }
  }
}

TEST(ZooSymbolic, AllreduceDigestsMatchStagedBaseline) {
  const std::size_t count = 300;
  const std::size_t bytes = count * sizeof(double);
  auto run = [&](int nodes, int ppn, coll::Algo algo) {
    Fixture f(nodes, ppn, force(algo));
    const int n = nodes * ppn;
    std::vector<coll::Payload> in(static_cast<std::size_t>(n)),
        out(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      auto ri = static_cast<std::size_t>(r);
      in[ri] = coll::Payload(1, bytes);
      in[ri].fill_pattern(coll::Dtype::f64,
                          100 + static_cast<std::uint64_t>(r));
      out[ri] = coll::Payload(1, bytes);
    }
    f.cluster.run([&](TaskCtx& t) -> CoTask {
      auto r = static_cast<std::size_t>(t.rank);
      co_await f.comm.allreduce(
          t, coll::Buf::symbolic(in[r], coll::Dtype::f64, count),
          coll::Buf::symbolic(out[r], coll::Dtype::f64, count),
          coll::RedOp::sum);
    });
    return out;
  };
  const std::vector<std::pair<int, int>> shapes{{1, 4}, {3, 4}, {4, 1}, {5, 2}};
  for (auto [nodes, ppn] : shapes) {
    auto base = run(nodes, ppn, coll::Algo::rd);
    for (coll::Algo algo : {coll::Algo::ring, coll::Algo::rhalving}) {
      auto got = run(nodes, ppn, algo);
      for (std::size_t r = 0; r < got.size(); ++r) {
        EXPECT_TRUE(got[r].identical_to(base[r]))
            << coll::algo_name(algo) << " n" << nodes << "x" << ppn
            << " rank " << r;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: the zoo paths run on the same discrete-event engine — two
// identical runs must land on identical virtual time and event counts.
// ---------------------------------------------------------------------------

TEST(ZooDeterminism, IdenticalRunsIdenticalTimings) {
  auto run_once = [](coll::Algo algo) {
    Fixture f(4, 4, force(algo, coll::Algo::scatter_ag));
    const int n = 16;
    const std::size_t count = 5000;
    std::vector<std::vector<double>> send(n), recv(n);
    for (int r = 0; r < n; ++r) {
      send[static_cast<std::size_t>(r)].resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        send[static_cast<std::size_t>(r)][i] = contribution(r, i);
      }
      recv[static_cast<std::size_t>(r)].assign(count, 0);
    }
    f.cluster.run([&](TaskCtx& t) -> CoTask {
      auto r = static_cast<std::size_t>(t.rank);
      co_await f.comm.allreduce(t, coll::of(send[r].data(), count),
                                coll::of(recv[r].data(), count),
                                coll::RedOp::sum);
      co_await f.comm.bcast(t, coll::of(recv[r].data(), count), 3);
    });
    return std::pair{f.cluster.engine().now(),
                     f.cluster.engine().events_processed()};
  };
  for (coll::Algo algo : {coll::Algo::ring, coll::Algo::rhalving}) {
    auto first = run_once(algo);
    auto second = run_once(algo);
    EXPECT_EQ(first, second) << coll::algo_name(algo);
  }
}

}  // namespace
}  // namespace srm
