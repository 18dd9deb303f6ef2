// Data-movement accounting: the paper's §2.2 / Fig. 2 argument, verified
// quantitatively through the srm::obs counter registry. "SRM reduce within
// an SMP node involves a memory copy for processes that are at the lowest
// level in a binomial tree... For eight processes, there are four memory
// copies. The remainder of the tree simply involves execution of the
// operator... the message-passing implementation requires seven data
// movement operations... [which] might internally involve 7 or even 14
// memory copies."
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/communicator.hpp"
#include "mpi/comm.hpp"

namespace srm {
namespace {

using machine::Cluster;
using machine::ClusterConfig;
using machine::TaskCtx;
using sim::CoTask;

ClusterConfig one_node(int p) {
  ClusterConfig c;
  c.nodes = 1;
  c.tasks_per_node = p;
  return c;
}

struct Moves {
  std::uint64_t copies;
  std::uint64_t combines;
};

Moves srm_reduce_moves(int p, std::size_t count, SrmConfig cfg = {}) {
  Cluster cluster(one_node(p));
  lapi::Fabric fabric(cluster);
  Communicator comm(cluster, fabric, cfg);
  std::vector<double> out(count, 0.0);
  cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> mine(count, 1.0 * t.rank);
    co_await comm.reduce(t, coll::of(mine.data(), count),
                         coll::of(out.data(), count), coll::RedOp::sum, 0);
  });
  return {cluster.obs().count("mem.copy"), cluster.obs().count("mem.combine")};
}

Moves mpi_reduce_moves(int p, std::size_t count) {
  Cluster cluster(one_node(p));
  minimpi::World world(cluster, cluster.params().mpi_ibm, "ibm");
  std::vector<double> out(count, 0.0);
  cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> mine(count, 1.0 * t.rank);
    co_await world.comm(t.rank).reduce(mine.data(), out.data(), count,
                                       coll::Dtype::f64, coll::RedOp::sum,
                                       0);
  });
  return {cluster.obs().count("mem.copy"), cluster.obs().count("mem.combine")};
}

class CopyCounts : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kEnabled) {
      GTEST_SKIP() << "built with SRM_OBS=OFF; counters compile to no-ops";
    }
  }
};

TEST_F(CopyCounts, Fig2EightTaskSmpReduce) {
  // The paper's exact example: eight processes, one chunk.
  Moves srm = srm_reduce_moves(8, 100);
  // Four leaf copies (P1, P3, P5, P7); everything else is pure operator
  // execution (7 combines: one per tree edge).
  EXPECT_EQ(srm.copies, 4u);
  EXPECT_EQ(srm.combines, 7u);

  Moves mpi = mpi_reduce_moves(8, 100);
  // Message passing moves data at every tree edge: 7 sends, each a 2-copy
  // shared-memory transfer (14 copies) plus the root's send->recv seed copy.
  EXPECT_GE(mpi.copies, 14u);
  EXPECT_EQ(mpi.combines, 7u);
}

TEST_F(CopyCounts, SmpReduceCopiesEqualLeafCount) {
  // Property: one copy per *leaf* of the intranode binomial tree per chunk;
  // interior tasks never copy, they only combine.
  for (int p : {2, 4, 16}) {
    Moves m = srm_reduce_moves(p, 10);
    coll::Tree tree = coll::binomial_tree(p, 0);
    std::uint64_t leaves = 0;
    for (int v = 0; v < p; ++v) {
      if (tree.children[static_cast<std::size_t>(v)].empty() && v != 0) {
        ++leaves;
      }
    }
    EXPECT_EQ(m.copies, leaves) << "p=" << p;
    EXPECT_EQ(m.combines, static_cast<std::uint64_t>(p - 1)) << "p=" << p;
  }
}

TEST_F(CopyCounts, SmpBcastOneCopyInPlusOnePerConsumer) {
  Cluster cluster(one_node(8));
  lapi::Fabric fabric(cluster);
  Communicator comm(cluster, fabric);
  cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<char> buf(1024, static_cast<char>(t.rank == 0));
    co_await comm.bcast(t, coll::Buf::bytes(buf.data(), buf.size()), 0);
  });
  // Root copies into the shared buffer; 7 consumers copy out.
  EXPECT_EQ(cluster.obs().count("mem.copy"), 8u);
  // Every moved byte is accounted: 8 copies x 1 KiB.
  EXPECT_DOUBLE_EQ(cluster.obs().value("mem.copy"), 8 * 1024.0);
}

TEST_F(CopyCounts, SrmMovesLessDataThanMpiAcrossTheBoard) {
  for (int p : {4, 8, 16}) {
    Moves s = srm_reduce_moves(p, 500);
    Moves m = mpi_reduce_moves(p, 500);
    EXPECT_LT(s.copies, m.copies) << "p=" << p;
  }
}

TEST_F(CopyCounts, NetworkBytesMatchProtocol) {
  // Inter-node: a 1 KiB broadcast on 4 nodes is 3 data puts (one per child
  // edge of the internode tree) plus 3 zero-byte credit signals back, and
  // nothing else. The LAPI-layer counters split the two.
  ClusterConfig cc;
  cc.nodes = 4;
  cc.tasks_per_node = 4;
  Cluster cluster(cc);
  lapi::Fabric fabric(cluster);
  Communicator comm(cluster, fabric);
  cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<char> buf(1024, static_cast<char>(t.rank == 0));
    co_await comm.bcast(t, coll::Buf::bytes(buf.data(), buf.size()), 0);
  });
  EXPECT_EQ(cluster.obs().count("lapi.put"), 3u);
  EXPECT_DOUBLE_EQ(cluster.obs().value("lapi.put"), 3 * 1024.0);
  EXPECT_EQ(cluster.obs().count("lapi.signal"), 3u);
  EXPECT_DOUBLE_EQ(cluster.network().bytes(), 3 * 1024.0);
}

TEST_F(CopyCounts, PerNodeAttribution) {
  // Counters are keyed by id: an intra-node reduce on node 0 of a two-node
  // cluster must charge node 0 only... unless the op spans nodes, in which
  // case every node's memory system shows traffic. Run a 2-node reduce and
  // check the per-node split covers the total.
  ClusterConfig cc;
  cc.nodes = 2;
  cc.tasks_per_node = 4;
  Cluster cluster(cc);
  lapi::Fabric fabric(cluster);
  Communicator comm(cluster, fabric);
  std::vector<double> out(64, 0.0);
  cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> mine(64, 1.0 * t.rank);
    co_await comm.reduce(t, coll::of(mine.data(), 64),
                         coll::of(out.data(), 64), coll::RedOp::sum, 0);
  });
  auto& reg = cluster.obs();
  std::uint64_t total = reg.count("mem.copy");
  std::uint64_t split = reg.counter("mem.copy", 0).count +
                        reg.counter("mem.copy", 1).count;
  EXPECT_GT(total, 0u);
  EXPECT_EQ(total, split);
  EXPECT_GT(reg.counter("mem.copy", 0).count, 0u);
  EXPECT_GT(reg.counter("mem.copy", 1).count, 0u);
}

// --- single-copy (cross-mapped) vs staged ----------------------------------

/// Single-copy on, and the paper's table with every row mapped.
SrmConfig mapped_cfg() {
  SrmConfig cfg;
  cfg.single_copy = true;
  cfg.decisions = coll::DecisionTable::ibm_sp();
  cfg.decisions.for_each_decision([](coll::Decision& d) { d.mapped = true; });
  return cfg;
}

Moves srm_bcast_moves(int p, std::size_t bytes, SrmConfig cfg) {
  Cluster cluster(one_node(p));
  lapi::Fabric fabric(cluster);
  Communicator comm(cluster, fabric, cfg);
  cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<char> buf(bytes, static_cast<char>(t.rank == 0));
    co_await comm.bcast(t, coll::Buf::bytes(buf.data(), buf.size()), 0);
  });
  return {cluster.obs().count("mem.copy"), cluster.obs().count("mem.combine")};
}

TEST_F(CopyCounts, MappedBcastCopiesOncePerConsumer) {
  // The staging hop gone: the root exports its user buffer and each of the
  // N-1 consumers pulls straight out of it — N-1 copies total, versus the
  // staged path's copy-in plus N-1 copy-outs.
  Moves staged = srm_bcast_moves(8, 1024, {});
  Moves mapped = srm_bcast_moves(8, 1024, mapped_cfg());
  EXPECT_EQ(staged.copies, 8u);
  EXPECT_EQ(mapped.copies, 7u);

  // Pairwise it is the textbook claim: one copy where staging needs two
  // (N-1 vs 2(N-1) for N=2).
  Moves staged2 = srm_bcast_moves(2, 1024, {});
  Moves mapped2 = srm_bcast_moves(2, 1024, mapped_cfg());
  EXPECT_EQ(staged2.copies, 2u);
  EXPECT_EQ(mapped2.copies, 1u);
}

TEST_F(CopyCounts, MappedReduceIsPureOperatorExecution) {
  // Leaves export their send buffers instead of copying into staging slots:
  // the whole intra-node reduce is p-1 combines and zero memory copies,
  // where the staged tree pays one copy per leaf.
  for (int p : {2, 4, 8, 16}) {
    Moves staged = srm_reduce_moves(p, 10);
    Moves mapped = srm_reduce_moves(p, 10, mapped_cfg());
    EXPECT_EQ(mapped.copies, 0u) << "p=" << p;
    EXPECT_EQ(mapped.combines, static_cast<std::uint64_t>(p - 1)) << "p=" << p;
    EXPECT_GT(staged.copies, mapped.copies) << "p=" << p;
  }
}

// --- algorithm attribution in the trace -------------------------------------

TEST_F(CopyCounts, CollSpansRecordChosenAlgorithm) {
  // Every coll.<op> span carries the decision the call resolved to in its
  // args, so a trace names the zoo member that produced the data movement
  // the counters above account for.
  ClusterConfig cc;
  cc.nodes = 2;
  cc.tasks_per_node = 2;
  Cluster cluster(cc);
  lapi::Fabric fabric(cluster);
  SrmConfig cfg;
  cfg.decisions.profile = "forced";
  cfg.decisions.set(coll::CollKind::allreduce, 0,
                    {coll::Algo::ring, false, coll::TreeKind::binomial});
  cfg.decisions.set(coll::CollKind::bcast, 0,
                    {coll::Algo::staged, false, coll::TreeKind::binomial});
  Communicator comm(cluster, fabric, cfg);
  cluster.obs().set_trace_enabled(true);
  std::vector<double> out(64, 0.0);
  cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> mine(64, 1.0 * t.rank);
    co_await comm.allreduce(t, coll::of(mine.data(), 64),
                            coll::of(out.data(), 64), coll::RedOp::sum);
    std::vector<char> buf(256, static_cast<char>(t.rank == 0));
    co_await comm.bcast(t, coll::Buf::bytes(buf.data(), buf.size()), 0);
  });
  int allreduce_spans = 0, bcast_spans = 0;
  for (const obs::SpanRec& s : cluster.obs().spans()) {
    if (s.name == "coll.allreduce") {
      EXPECT_NE(s.args.find("\"algo\":\"ring\""), std::string::npos)
          << s.args;
      ++allreduce_spans;
    } else if (s.name == "coll.bcast") {
      EXPECT_NE(s.args.find("\"algo\":\"staged\""), std::string::npos)
          << s.args;
      ++bcast_spans;
    }
  }
  EXPECT_EQ(allreduce_spans, 4);  // one per rank
  EXPECT_EQ(bcast_spans, 4);

  // The "+sc" suffix follows dispatch, not the mapped column alone.
  auto algos = [](int nodes, int ppn, const SrmConfig& c, auto&& body) {
    ClusterConfig shape;
    shape.nodes = nodes;
    shape.tasks_per_node = ppn;
    Cluster cl(shape);
    lapi::Fabric fab(cl);
    Communicator cm(cl, fab, c);
    cl.obs().set_trace_enabled(true);
    cl.run([&](TaskCtx& t) -> CoTask { co_await body(cm, t); });
    std::map<std::string, int> out;  // "<op>:<algo>" -> spans
    for (const obs::SpanRec& s : cl.obs().spans()) {
      if (s.name.rfind("coll.", 0) != 0) continue;
      std::size_t at = s.args.find("\"algo\":\"") + 8;
      ++out[s.name.substr(5) + ":" +
            s.args.substr(at, s.args.find('"', at) - at)];
    }
    return out;
  };
  using Labels = std::map<std::string, int>;
  SrmConfig sc;
  sc.single_copy = true;
  // A mapped scatter_ag row: bcast_scatter_ag has no mapped variant.
  SrmConfig sag = sc;
  sag.decisions.profile = "forced";
  sag.decisions.set(coll::CollKind::bcast, 0,
                    {coll::Algo::scatter_ag, true, coll::TreeKind::binomial});
  EXPECT_EQ(algos(2, 2, sag,
                  [](Communicator& cm, TaskCtx& t) -> CoTask {
                    std::vector<char> b(256, static_cast<char>(t.rank == 0));
                    co_await cm.bcast(t, coll::Buf::bytes(b.data(), 256), 0);
                  }),
            (Labels{{"bcast:scatter_ag", 4}}));
  // ibm_sp above 16 KiB: the pipeline maps both of its halves.
  EXPECT_EQ(algos(2, 2, sc,
                  [](Communicator& cm, TaskCtx& t) -> CoTask {
                    std::vector<double> in(4096, 1.0), res(4096);
                    co_await cm.allreduce(t, coll::of(in.data(), 4096),
                                          coll::of(res.data(), 4096),
                                          coll::RedOp::sum);
                  }),
            (Labels{{"allreduce:pipeline+sc", 4}}));
  // One task per node: scatter and gather run staged whatever the row says.
  SrmConfig one = sc;
  one.decisions.profile = "forced";
  for (coll::CollKind op : {coll::CollKind::scatter, coll::CollKind::gather}) {
    one.decisions.set(op, 0, {coll::Algo::staged, true,
                              coll::TreeKind::binomial});
  }
  EXPECT_EQ(algos(2, 1, one,
                  [](Communicator& cm, TaskCtx& t) -> CoTask {
                    std::vector<char> all(128), mine(64);
                    co_await cm.scatter(t, coll::Buf::bytes(all.data(), 64),
                                        coll::Buf::bytes(mine.data(), 64), 0);
                    co_await cm.gather(t, coll::Buf::bytes(mine.data(), 64),
                                       coll::Buf::bytes(all.data(), 64), 0);
                  }),
            (Labels{{"scatter:staged", 2}, {"gather:staged", 2}}));
}

// --- one row, one path ------------------------------------------------------

struct PipelineRun {
  std::vector<double> result;
  sim::Time virt;
  std::uint64_t copies, combines, puts;
  bool operator==(const PipelineRun&) const = default;
  friend void PrintTo(const PipelineRun& r, std::ostream* os) {
    *os << "virt " << r.virt << " ns, " << r.copies << " copies, "
        << r.combines << " combines, " << r.puts << " puts";
  }
};

/// A 256 KiB allreduce on 4 nodes x 8 tasks, single-copy on, under @p t.
PipelineRun pipelined_allreduce(const coll::DecisionTable& t) {
  constexpr std::size_t kCount = 256 * 1024 / sizeof(double);
  ClusterConfig cc;
  cc.nodes = 4;
  cc.tasks_per_node = 8;
  Cluster cluster(cc);
  lapi::Fabric fabric(cluster);
  SrmConfig cfg;
  cfg.single_copy = true;
  cfg.decisions = t;
  Communicator comm(cluster, fabric, cfg);
  std::vector<double> res(kCount);
  cluster.run([&](TaskCtx& tc) -> CoTask {
    std::vector<double> in(kCount), out(kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
      in[i] = static_cast<double>((tc.rank + 1) * (i % 7 + 1));
    }
    co_await comm.allreduce(tc, coll::of(in.data(), kCount),
                            coll::of(out.data(), kCount), coll::RedOp::sum);
    if (tc.rank == 5) res = out;
  });
  auto& reg = cluster.obs();
  return {res, cluster.engine().now(), reg.count("mem.copy"),
          reg.count("mem.combine"), reg.count("lapi.put")};
}

TEST_F(CopyCounts, PipelinedAllreduceReadsOnlyItsOwnRow) {
  using coll::Algo;
  using coll::TreeKind;
  coll::DecisionTable a;
  a.profile = "forced";
  a.set(coll::CollKind::allreduce, 0,
        {Algo::pipeline, false, TreeKind::binomial, TreeKind::binomial});
  a.set(coll::CollKind::reduce, 0,
        {Algo::staged, false, TreeKind::binomial, TreeKind::binomial});
  a.set(coll::CollKind::bcast, 0, {Algo::direct, false, TreeKind::binomial});
  // Same allreduce row; every column of the reduce and bcast rows the
  // pipeline's halves could read differs.
  coll::DecisionTable b = a;
  b.set(coll::CollKind::reduce, 0,
        {Algo::staged, true, TreeKind::binary, TreeKind::binary});
  b.set(coll::CollKind::bcast, 0, {Algo::direct, true, TreeKind::binary});
  PipelineRun base = pipelined_allreduce(a);
  EXPECT_EQ(pipelined_allreduce(b), base);
  for (std::size_t i = 0; i < base.result.size(); ++i) {
    ASSERT_EQ(base.result[i], 528.0 * static_cast<double>(i % 7 + 1)) << i;
  }
  // The allreduce row's own columns drive both halves.
  coll::DecisionTable tree = a;
  tree.set(coll::CollKind::allreduce, 0,
           {Algo::pipeline, false, TreeKind::binomial, TreeKind::binary});
  coll::DecisionTable mapped = a;
  mapped.set(coll::CollKind::allreduce, 0,
             {Algo::pipeline, true, TreeKind::binomial, TreeKind::binomial});
  // On a mapped row too: the mapped node reduce lays the row's intra-node
  // tree over the cache domains.
  coll::DecisionTable mapped_tree = a;
  mapped_tree.set(coll::CollKind::allreduce, 0,
                  {Algo::pipeline, true, TreeKind::binomial, TreeKind::binary});
  PipelineRun by_tree = pipelined_allreduce(tree);
  PipelineRun by_mapped = pipelined_allreduce(mapped);
  PipelineRun by_mapped_tree = pipelined_allreduce(mapped_tree);
  EXPECT_EQ(by_tree.result, base.result);
  EXPECT_EQ(by_mapped.result, base.result);
  EXPECT_EQ(by_mapped_tree.result, base.result);
  EXPECT_NE(by_tree.virt, base.virt);
  EXPECT_NE(by_mapped.virt, base.virt);
  EXPECT_NE(by_mapped_tree.virt, by_mapped.virt);
  EXPECT_LT(by_mapped.copies, base.copies);
}

}  // namespace
}  // namespace srm
