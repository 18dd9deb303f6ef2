// Every configuration the ablation benches sweep must stay *correct* —
// decision tables with other inter-node trees or switch points, buffers
// too small for the table's bands, single-buffer mode, tree-based SMP
// broadcast, unusual chunk sizes, interrupt management off — plus API
// misuse checks.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/communicator.hpp"

namespace srm {
namespace {

using machine::Cluster;
using machine::ClusterConfig;
using machine::TaskCtx;
using sim::CoTask;

ClusterConfig shape(int nodes, int ppn) {
  ClusterConfig c;
  c.nodes = nodes;
  c.tasks_per_node = ppn;
  return c;
}

// Runs the full operation mix under a given config and checks data.
void exercise(SrmConfig cfg, int nodes = 3, int ppn = 4) {
  Cluster cluster(shape(nodes, ppn));
  lapi::Fabric fabric(cluster);
  Communicator comm(cluster, fabric, cfg);
  int n = nodes * ppn;
  cluster.run([&](TaskCtx& t) -> CoTask {
    for (std::size_t bytes : {64ul, 12000ul, 70000ul}) {
      std::vector<char> buf(bytes, 0);
      int root = static_cast<int>(bytes) % n;
      if (t.rank == root) {
        for (std::size_t i = 0; i < bytes; ++i) {
          buf[i] = static_cast<char>(i % 97);
        }
      }
      co_await comm.bcast(t, coll::Buf::bytes(buf.data(), bytes), root);
      for (std::size_t i = 0; i < bytes; ++i) {
        EXPECT_EQ(buf[i], static_cast<char>(i % 97)) << "bytes " << bytes;
      }
    }
    for (std::size_t count : {7ul, 1000ul, 5000ul}) {
      std::vector<double> in(count, 1.0 + t.rank), out(count, 0.0);
      co_await comm.allreduce(t, coll::of(in.data(), count),
                              coll::of(out.data(), count), coll::RedOp::sum);
      double expect = n + n * (n - 1) / 2.0;
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_DOUBLE_EQ(out[i], expect) << "count " << count;
      }
    }
    co_await comm.barrier(t);
  });
}

/// The paper's table with every row's inter-node tree set to @p kind.
SrmConfig every_row_tree(coll::TreeKind kind) {
  SrmConfig cfg;
  cfg.decisions = coll::DecisionTable::ibm_sp();
  cfg.decisions.for_each_decision(
      [kind](coll::Decision& d) { d.internode = kind; });
  return cfg;
}

TEST(SrmConfig, BinaryInternodeTree) {
  exercise(every_row_tree(coll::TreeKind::binary));
}

TEST(SrmConfig, FibonacciInternodeTree) {
  exercise(every_row_tree(coll::TreeKind::fibonacci), 5, 3);
}

TEST(SrmConfig, FlatInternodeTree) {
  exercise(every_row_tree(coll::TreeKind::flat), 4, 2);
}

TEST(SrmConfig, BinaryIntranodeTree) {
  SrmConfig cfg;
  cfg.intranode_tree = coll::TreeKind::binary;
  exercise(cfg, 2, 13);
}

TEST(SrmConfig, FlatIntranodeTree) {
  SrmConfig cfg;
  cfg.intranode_tree = coll::TreeKind::flat;
  exercise(cfg, 2, 16);
}

TEST(SrmConfig, SingleBufferMode) {
  SrmConfig cfg;
  cfg.use_two_buffers = false;
  exercise(cfg);
}

TEST(SrmConfig, TreeSmpBroadcast) {
  SrmConfig cfg;
  cfg.smp_bcast_tree = true;
  exercise(cfg, 2, 16);
}

TEST(SrmConfig, InterruptManagementOff) {
  SrmConfig cfg;
  cfg.manage_interrupts = false;
  exercise(cfg);
}

TEST(SrmConfig, TinyPipelineChunks) {
  SrmConfig cfg;
  cfg.bcast_pipe_chunk = 1024;
  exercise(cfg);
}

TEST(SrmConfig, PipeliningDisabled) {
  SrmConfig cfg;
  cfg.bcast_pipe_min = 0;
  cfg.bcast_pipe_max = 0;  // empty band: single-shot up to 64 KB
  exercise(cfg);
}

TEST(SrmConfig, EarlyLargeProtocolSwitch) {
  // The paper's table with the bcast switch moved from 64 KB to 16 KB.
  SrmConfig cfg;
  cfg.decisions = coll::DecisionTable::ibm_sp();
  cfg.decisions.set(coll::CollKind::bcast, 16 * 1024 + 1,
                    {coll::Algo::direct, true, coll::TreeKind::binomial});
  cfg.bcast_pipe_max = 8 * 1024;
  exercise(cfg);
}

TEST(SrmConfig, SmallReduceChunks) {
  SrmConfig cfg;
  cfg.reduce_chunk = 4096;
  exercise(cfg);
}

TEST(SrmConfig, LargeNetChunk) {
  SrmConfig cfg;
  cfg.bcast_net_chunk = 256 * 1024;
  exercise(cfg);
}

TEST(SrmConfig, SmallSharedBuffersRerouteWhatTheyCannotCarry) {
  // Shared buffers far below the table's 64 KB staged band and 16 KB rd
  // band: the feasibility rule sends the staged bcasts and rd allreduces
  // that do not fit to the direct and pipelined paths.
  SrmConfig cfg;
  cfg.smp_buf_bytes = 4096;
  exercise(cfg);
}

TEST(SrmConfig, MisalignedReduceChunkThrows) {
  Cluster cluster(shape(2, 2));
  lapi::Fabric fabric(cluster);
  SrmConfig cfg;
  cfg.reduce_chunk = 1001;  // not a multiple of 8
  EXPECT_THROW(Communicator(cluster, fabric, cfg), util::CheckError);
}

TEST(SrmApi, InvalidRootThrows) {
  Cluster cluster(shape(1, 2));
  lapi::Fabric fabric(cluster);
  Communicator comm(cluster, fabric);
  char buf[8] = {};
  EXPECT_THROW(cluster.run([&](TaskCtx& t) -> CoTask {
    co_await comm.bcast(t, coll::Buf::bytes(buf, sizeof buf), 5);
  }),
               util::CheckError);
}

TEST(SrmApi, AliasedReduceBuffersThrow) {
  Cluster cluster(shape(1, 2));
  lapi::Fabric fabric(cluster);
  Communicator comm(cluster, fabric);
  double x[4] = {};
  EXPECT_THROW(cluster.run([&](TaskCtx& t) -> CoTask {
    co_await comm.reduce(t, coll::of(x, 4), coll::of(x, 4), coll::RedOp::sum,
                         0);
  }),
               util::CheckError);
}

TEST(SrmConfig, SingleBufferIsSlowerForPipelinedSizes) {
  // The performance property behind the A/B pair: with one buffer the
  // two-stage pipeline degenerates and pipelined broadcasts serialize.
  auto timed = [](bool two) {
    SrmConfig cfg;
    cfg.use_two_buffers = two;
    Cluster cluster(shape(4, 8));
    lapi::Fabric fabric(cluster);
    Communicator comm(cluster, fabric, cfg);
    cluster.run([&](TaskCtx& t) -> CoTask {
      std::vector<char> buf(24 * 1024, static_cast<char>(t.rank == 0));
      for (int i = 0; i < 3; ++i) {
        co_await comm.bcast(t, coll::Buf::bytes(buf.data(), buf.size()), 0);
      }
    });
    return cluster.engine().now();
  };
  EXPECT_LT(timed(true), timed(false));
}

}  // namespace
}  // namespace srm
