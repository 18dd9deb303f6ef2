// Every configuration the ablation benches sweep must stay *correct* —
// decision tables with other inter-node trees or switch points, buffers
// too small for the table's bands, single-buffer mode, tree-based SMP
// broadcast, unusual chunk sizes, interrupt management off — plus API
// misuse checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
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

// Runs the full operation mix under a given config and checks data. The
// allgather broadcasts the gathered vector, so it runs the bcast row at
// ranks x 5600 B (67200 B at the default 3x4, beyond one 64 KB buffer).
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
    for (std::size_t count : {1ul, 700ul}) {
      std::vector<double> mine(count),
          all(count * static_cast<std::size_t>(n), -1.0);
      for (std::size_t i = 0; i < count; ++i) {
        mine[i] = static_cast<double>(t.rank * 1000 + i % 13);
      }
      co_await comm.allgather(t, coll::of(mine.data(), count),
                              coll::of(all.data(), count));
      for (std::size_t i = 0; i < all.size(); ++i) {
        double expect = static_cast<double>(i / count * 1000 + i % count % 13);
        if (all[i] != expect) {
          ADD_FAILURE() << "allgather count " << count << " element " << i
                        << ": " << all[i] << " != " << expect;
          break;
        }
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

TEST(SrmConfig, ChainInternodeTree) {
  exercise(every_row_tree(coll::TreeKind::chain), 5, 3);
}

/// The paper's table with every row's intra-node tree set to @p kind.
SrmConfig every_row_intranode(coll::TreeKind kind) {
  SrmConfig cfg;
  cfg.decisions = coll::DecisionTable::ibm_sp();
  cfg.decisions.for_each_decision(
      [kind](coll::Decision& d) { d.intranode = kind; });
  return cfg;
}

TEST(SrmConfig, BinaryIntranodeTree) {
  exercise(every_row_intranode(coll::TreeKind::binary), 2, 13);
}

TEST(SrmConfig, FlatIntranodeTree) {
  exercise(every_row_intranode(coll::TreeKind::flat), 2, 16);
}

TEST(SrmConfig, ChainIntranodeTree) {
  exercise(every_row_intranode(coll::TreeKind::chain), 3, 13);
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

/// The paper's table with its chunked bcast rows (the (8, 32] KB band)
/// pipelined in @p chunk bytes instead of 4 KB (0: single-shot).
SrmConfig band_chunk(std::size_t chunk) {
  SrmConfig cfg;
  cfg.decisions = coll::DecisionTable::ibm_sp();
  cfg.decisions.for_each_decision([chunk](coll::Decision& d) {
    if (d.chunk != 0) d.chunk = chunk;
  });
  return cfg;
}

TEST(SrmConfig, TinyPipelineChunks) { exercise(band_chunk(1024)); }

TEST(SrmConfig, PipeliningDisabled) {
  exercise(band_chunk(0));  // empty band: single-shot up to 64 KB
}

TEST(SrmConfig, EarlyLargeProtocolSwitch) {
  // The paper's table with the bcast switch moved from 64 KB to 16 KB and
  // no chunked rows: every bcast row above 16 KB runs direct.
  SrmConfig cfg = band_chunk(0);
  for (std::size_t b : {16 * 1024 + 1, 32 * 1024 + 1}) {
    cfg.decisions.set(coll::CollKind::bcast, b,
                      {coll::Algo::direct, true, coll::TreeKind::binomial});
  }
  exercise(cfg);
}

TEST(SrmConfig, ChunkedStagedBcastCarriesEverySize) {
  // One staged bcast row for every size: the landing-buffer protocol in
  // chunk-sized steps, beyond the 64 KB shared buffer too, for the bcasts
  // and the allgathers' bcast half.
  for (std::size_t chunk : {4 * 1024, 32 * 1024}) {
    SrmConfig cfg;
    cfg.decisions.profile = "forced";
    cfg.decisions.set(coll::CollKind::bcast, 0,
                      {coll::Algo::staged, false, coll::TreeKind::binomial,
                       coll::TreeKind::binomial, chunk});
    EXPECT_EQ(cfg.sanitize(coll::CollKind::bcast,
                           cfg.decisions.decide(coll::CollKind::bcast, 1 << 20),
                           1 << 20)
                  .algo,
              coll::Algo::staged);
    exercise(cfg, 3, 5);
    exercise(cfg, 5, 3);
  }
}

/// Element-dependent small-integer inputs (exact in any summation order):
/// a slot read one chunk early or late returns other values.
double reduce_input(int rank, std::size_t i) {
  return static_cast<double>((rank + 1) * static_cast<int>(i % 1021 + 1));
}

/// One reduce of @p count doubles to @p root on @p cc (@p root < 0: an
/// allreduce; @p scatter: a reduce_scatter of @p count per rank) under
/// @p cfg, with the race checker on. Every result element must equal the
/// sequential sum and the checker must stay silent. Returns the virtual
/// time of the call.
sim::Time checked_reduction(const SrmConfig& cfg, ClusterConfig cc,
                            std::size_t count, int root,
                            bool scatter = false) {
  Cluster cluster(cc);
  cluster.checker().set_enabled(true);
  lapi::Fabric fabric(cluster);
  Communicator comm(cluster, fabric, cfg);
  const int n = cc.nodes * cc.tasks_per_node;
  const std::size_t in_count = scatter ? count * static_cast<std::size_t>(n)
                                       : count;
  int wrong_ranks = 0;
  cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> in(in_count), out(count, -1.0);
    for (std::size_t i = 0; i < in_count; ++i) in[i] = reduce_input(t.rank, i);
    if (scatter) {
      co_await comm.reduce_scatter(t, coll::of(in.data(), count),
                                   coll::of(out.data(), count),
                                   coll::RedOp::sum);
    } else if (root < 0) {
      co_await comm.allreduce(t, coll::of(in.data(), count),
                              coll::of(out.data(), count), coll::RedOp::sum);
    } else {
      co_await comm.reduce(t, coll::of(in.data(), count),
                           coll::of(out.data(), count), coll::RedOp::sum,
                           root);
      if (t.rank != root) co_return;
    }
    const std::size_t first = scatter ? count * static_cast<std::size_t>(t.rank)
                                      : 0;
    for (std::size_t i = 0; i < count; ++i) {
      double expect = n * (n + 1) / 2.0 *
                      static_cast<double>((first + i) % 1021 + 1);
      if (out[i] != expect) {
        if (wrong_ranks++ == 0) {
          ADD_FAILURE() << "rank " << t.rank << " element " << i << ": "
                        << out[i] << " != " << expect;
        }
        break;
      }
    }
  });
  EXPECT_EQ(wrong_ranks, 0);
  for (const auto& r : cluster.checker().reports()) {
    ADD_FAILURE() << r.to_string();
  }
  return cluster.engine().now();
}

ClusterConfig smp_shape(int nodes, int ppn) {
  ClusterConfig cc = shape(nodes, ppn);
  cc.params = machine::MachineParams::modern_smp();
  return cc;
}

TEST(SrmConfig, ShortLastReduceChunkDoesNotOvertakeTheFullOne) {
  // A short last chunk lands after its leader entered Waitcntr while the
  // full chunk before it still waits out its interrupt; the landing pair
  // counts both slots on one counter, so the dispatcher must keep arrival
  // order or the leader combines a slot the full chunk has not written.
  SrmConfig cfg;
  cfg.reduce_chunk = 4096;
  checked_reduction(cfg, smp_shape(8, 16), 1137, 33);
}

TEST(SrmConfig, ShortLastPipelineChunkDoesNotOvertakeTheFullOne) {
  // The same hazard in the pipelined allreduce's reduce half, under the
  // builtin 64 KiB row.
  SrmConfig cfg;
  cfg.reduce_chunk = 8192;
  checked_reduction(cfg, smp_shape(8, 16), 8409, -1);
}

TEST(SrmConfig, ChunkedReducePipelineRowsAreExact) {
  // A reduce row's chunk steps the reduce (and reduce_scatter's reduce), a
  // pipeline row's chunk both halves of the pipelined allreduce: 4 and
  // 8 KiB, a chunk that is not a multiple of the element size (1001 B: 125
  // doubles) and one below an element (3 B: one double per step). Every
  // TreeKind between and within nodes, staged and mapped, sizes that leave
  // a short last chunk, three roots; the checker must stay silent.
  const coll::TreeKind kinds[] = {
      coll::TreeKind::binomial, coll::TreeKind::binary,
      coll::TreeKind::fibonacci, coll::TreeKind::flat,
      coll::TreeKind::bine,     coll::TreeKind::chain};
  const std::size_t nkinds = std::size(kinds);
  for (ClusterConfig cc : {smp_shape(8, 16), smp_shape(3, 5), shape(5, 3)}) {
    const int n = cc.nodes * cc.tasks_per_node;
    for (std::size_t chunk : {4096ul, 8192ul, 1001ul, 3ul}) {
      // Three full steps and a short one; per rank for reduce_scatter.
      std::size_t step_elems = std::max<std::size_t>(1, chunk / 8);
      std::size_t count = 3 * step_elems + step_elems / 2 + 1;
      std::size_t per_rank = count / static_cast<std::size_t>(n) + 1;
      for (std::size_t k = 0; k < nkinds; ++k) {
        for (bool mapped : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << cc.nodes << "x" << cc.tasks_per_node << " chunk "
                       << chunk << " kind " << k << " mapped " << mapped);
          coll::TreeKind other = kinds[(k + 1) % nkinds];
          SrmConfig cfg;
          cfg.single_copy = true;
          cfg.decisions.profile = "forced";
          cfg.decisions.set(coll::CollKind::reduce, 0,
                            {coll::Algo::staged, mapped, kinds[k], other,
                             chunk});
          cfg.decisions.set(coll::CollKind::allreduce, 0,
                            {coll::Algo::pipeline, mapped, other, kinds[k],
                             chunk});
          for (int root : {0, n / 2 + 1, n - 1}) {
            checked_reduction(cfg, cc, count, root);
          }
          checked_reduction(cfg, cc, count, -1);
          checked_reduction(cfg, cc, per_rank, -1, /*scatter=*/true);
        }
      }
    }
  }
}

TEST(SrmConfig, ChunkAboveOneSlotRunsThePapersStep) {
  // A chunk beyond one reduce_chunk slot is infeasible (sanitize): the row
  // keeps its algorithm and trees and steps in reduce_chunk, exactly as
  // its unchunked twin. rd, ring and rhalving rows never read the column.
  ClusterConfig cc = smp_shape(3, 4);
  constexpr std::size_t kCount = 9000;  // 72000 B: five 16 KiB steps
  auto timed = [&](coll::Decision d, std::size_t n) {
    bool reduce = d.algo == coll::Algo::staged;
    SrmConfig cfg;
    cfg.decisions.profile = "forced";
    cfg.decisions.set(
        reduce ? coll::CollKind::reduce : coll::CollKind::allreduce, 0, d);
    return checked_reduction(cfg, cc, n, reduce ? 2 : -1);
  };
  const auto bin = coll::TreeKind::binomial;
  for (coll::Algo a : {coll::Algo::staged, coll::Algo::pipeline}) {
    EXPECT_EQ(timed({a, false, bin, bin, 32 * 1024}, kCount),
              timed({a, false, bin, bin, 0}, kCount));
  }
  for (coll::Algo a : {coll::Algo::ring, coll::Algo::rhalving}) {
    EXPECT_EQ(timed({a, false, bin, bin, 4096}, kCount),
              timed({a, false, bin, bin}, kCount));
  }
  // rd carries at most one slot: 1500 doubles.
  EXPECT_EQ(timed({coll::Algo::rd, false, bin, bin, 4096}, 1500),
            timed({coll::Algo::rd}, 1500));
}

TEST(SrmConfig, ChunkedPipelineRowIsExactAndFasterOnModernSmp) {
  // A 16 KiB step gives a 64 KiB allreduce only 4 chunks, too few to fill
  // the pipeline of a chain within nodes (15 hops); 4 KiB steps give it
  // 16. Same one-row table, one column apart.
  constexpr std::size_t kCount = 64 * 1024 / sizeof(double);
  auto timed = [&](std::size_t chunk) {
    SrmConfig cfg;
    cfg.single_copy = true;
    cfg.decisions.profile = "forced";
    cfg.decisions.set(coll::CollKind::allreduce, 0,
                      {coll::Algo::pipeline, true, coll::TreeKind::binary,
                       coll::TreeKind::chain, chunk});
    return checked_reduction(cfg, smp_shape(8, 16), kCount, -1);
  };
  EXPECT_LT(timed(4 * 1024), timed(0));
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

TEST(SrmConfig, BinaryReduceRowIsExactAndFasterOnModernSmp) {
  // A 16-way binomial root combines 4 children per chunk and bounds the
  // pipelined reduce; a binary root combines 2, and every vertex of a chain
  // 1. Same one-row table, one column apart.
  constexpr std::size_t kCount = 256 * 1024 / sizeof(double);
  constexpr int kNodes = 8, kPpn = 16, kRoot = 5;
  auto timed = [&](coll::TreeKind tree) {
    SrmConfig cfg;
    cfg.decisions.profile = "forced";
    cfg.decisions.set(coll::CollKind::reduce, 0,
                      {coll::Algo::staged, false, coll::TreeKind::binomial,
                       tree});
    ClusterConfig cc = shape(kNodes, kPpn);
    cc.params = machine::MachineParams::modern_smp();
    Cluster cluster(cc);
    lapi::Fabric fabric(cluster);
    Communicator comm(cluster, fabric, cfg);
    EXPECT_EQ(comm.decide(coll::CollKind::reduce, kCount * sizeof(double))
                  .intranode,
              tree);
    cluster.run([&](TaskCtx& t) -> CoTask {
      std::vector<double> in(kCount), out(kCount, -1.0);
      for (std::size_t i = 0; i < kCount; ++i) {
        in[i] = static_cast<double>((t.rank + 1) * (i % 13 + 1));
      }
      co_await comm.reduce(t, coll::of(in.data(), kCount),
                           coll::of(out.data(), kCount), coll::RedOp::sum,
                           kRoot);
      if (t.rank != kRoot) co_return;
      const int n = kNodes * kPpn;
      for (std::size_t i = 0; i < kCount; ++i) {
        double expect = n * (n + 1) / 2.0 * static_cast<double>(i % 13 + 1);
        if (out[i] != expect) {
          ADD_FAILURE() << "element " << i << ": " << out[i] << " != "
                        << expect;
          break;
        }
      }
    });
    return cluster.engine().now();
  };
  double binary = timed(coll::TreeKind::binary);
  EXPECT_LT(binary, timed(coll::TreeKind::binomial));
  EXPECT_LT(timed(coll::TreeKind::chain), binary);
}

TEST(SrmConfig, ChunkedStagedBcastIsExactAndFasterOnModernSmp) {
  // Off the root node the direct protocol lands each chunk in the leader's
  // user buffer and restages it through the Fig. 3 buffers, where the
  // local tasks read it dirty from the leader's cache; a chunked staged row
  // publishes from the landing buffer the NIC wrote. The far socket pulls
  // each chunk across once either way (smp_bcast_chunk's split), which
  // leaves direct a smaller restage penalty: at 256 KiB it now beats
  // 32 KiB chunks, and modern_smp()'s 64 KiB chunks beat it. One-row
  // tables.
  constexpr std::size_t kBytes = 256 * 1024;
  constexpr int kNodes = 8, kPpn = 16, kRoot = 37;
  auto timed = [&](coll::Decision d) {
    SrmConfig cfg;
    cfg.decisions.profile = "forced";
    cfg.decisions.set(coll::CollKind::bcast, 0, d);
    ClusterConfig cc = shape(kNodes, kPpn);
    cc.params = machine::MachineParams::modern_smp();
    Cluster cluster(cc);
    lapi::Fabric fabric(cluster);
    Communicator comm(cluster, fabric, cfg);
    EXPECT_EQ(comm.decide(coll::CollKind::bcast, kBytes), d);
    cluster.run([&](TaskCtx& t) -> CoTask {
      std::vector<char> buf(kBytes, 0);
      if (t.rank == kRoot) {
        for (std::size_t i = 0; i < kBytes; ++i) {
          buf[i] = static_cast<char>(i % 251);
        }
      }
      co_await comm.bcast(t, coll::Buf::bytes(buf.data(), kBytes), kRoot);
      for (std::size_t i = 0; i < kBytes; ++i) {
        if (buf[i] != static_cast<char>(i % 251)) {
          ADD_FAILURE() << "rank " << t.rank << " byte " << i;
          break;
        }
      }
    });
    return cluster.engine().now();
  };
  const auto bin = coll::TreeKind::binomial;
  EXPECT_LT(timed({coll::Algo::staged, false, bin, bin, 64 * 1024}),
            timed({coll::Algo::direct, false, bin}));
}

/// Bcast from every root in @p roots, allgather and allreduce under @p cfg
/// on @p cc with the race checker on: every element must arrive exact and
/// the checker must stay silent. Bcasts of 1 B and 7 B leave most readers
/// of a far group an empty slice; 64 KiB + 3 spans two Fig. 3 buffers.
/// Allgather takes 1 B, 7 B and 2 KiB per rank, allreduce 1, 7 and 8 Ki
/// doubles.
void exercise_sockets(const SrmConfig& cfg, const ClusterConfig& cc,
                      const std::vector<int>& roots) {
  Cluster cluster(cc);
  cluster.checker().set_enabled(true);
  lapi::Fabric fabric(cluster);
  Communicator comm(cluster, fabric, cfg);
  const int n = cc.nodes * cc.tasks_per_node;
  int wrong = 0;
  auto check = [&wrong](bool ok, const std::string& what) {
    if (!ok && wrong++ == 0) ADD_FAILURE() << what;
  };
  cluster.run([&](TaskCtx& t) -> CoTask {
    for (std::size_t bytes : {1ul, 7ul, 64ul * 1024 + 3}) {
      for (int root : roots) {
        std::vector<char> buf(bytes, 0);
        if (t.rank == root) {
          for (std::size_t i = 0; i < bytes; ++i) {
            buf[i] = static_cast<char>(i % 97 + root);
          }
        }
        co_await comm.bcast(t, coll::Buf::bytes(buf.data(), bytes), root);
        for (std::size_t i = 0; i < bytes; ++i) {
          if (buf[i] != static_cast<char>(i % 97 + root)) {
            check(false, "bcast " + std::to_string(bytes) + " B root " +
                             std::to_string(root) + " rank " +
                             std::to_string(t.rank) + " byte " +
                             std::to_string(i));
            break;
          }
        }
      }
      // 1 and 7 B per rank, and about 64 KiB gathered on 32 ranks.
      std::size_t per = bytes > 64 ? bytes / 32 : bytes;
      std::vector<char> mine(per), all(per * static_cast<std::size_t>(n), 0);
      for (std::size_t i = 0; i < per; ++i) {
        mine[i] = static_cast<char>(t.rank * 7 + i % 5);
      }
      co_await comm.allgather(t, coll::Buf::bytes(mine.data(), per),
                              coll::Buf::bytes(all.data(), per));
      for (std::size_t i = 0; i < all.size(); ++i) {
        if (all[i] != static_cast<char>(static_cast<int>(i / per) * 7 +
                                        static_cast<int>(i % per % 5))) {
          check(false, "allgather " + std::to_string(per) + " B/rank rank " +
                           std::to_string(t.rank) + " byte " +
                           std::to_string(i));
          break;
        }
      }
      std::size_t count = bytes > 64 ? bytes / sizeof(double) : bytes;
      std::vector<double> in(count), out(count, -1.0);
      for (std::size_t i = 0; i < count; ++i) in[i] = reduce_input(t.rank, i);
      co_await comm.allreduce(t, coll::of(in.data(), count),
                              coll::of(out.data(), count), coll::RedOp::sum);
      for (std::size_t i = 0; i < count; ++i) {
        if (out[i] != n * (n + 1) / 2.0 * static_cast<double>(i % 1021 + 1)) {
          check(false, "allreduce " + std::to_string(count) + " rank " +
                           std::to_string(t.rank) + " element " +
                           std::to_string(i));
          break;
        }
      }
    }
  });
  EXPECT_EQ(wrong, 0);
  for (const auto& r : cluster.checker().reports()) {
    ADD_FAILURE() << r.to_string();
  }
  // Every node's far socket (socket 1) split its chunks.
  for (int node = 0; node < cc.nodes; ++node) {
    EXPECT_TRUE(cluster.node(node).seg.contains("srm/srm0/bc_far1_0"))
        << "node " << node;
  }
}

TEST(SrmConfig, FarSocketSplitIsExactOnEveryShape) {
  // modern_smp sockets hold 8 tasks: 2x16 has one far group of 8, 3x12
  // sockets of 8 and 4, and 1x24 three groups, two of them far from any
  // leader. Roots sit on every socket. The staged rows publish from the
  // landing buffers (clean) and rd from the leader's bc_buf (dirty); the
  // direct and pipelined rows publish through smp_publish_staged.
  const auto bin = coll::TreeKind::binomial;
  SrmConfig staged_rd;
  staged_rd.decisions.profile = "forced";
  staged_rd.decisions.set(coll::CollKind::bcast, 0,
                          {coll::Algo::staged, false, bin, bin, 32 * 1024});
  staged_rd.decisions.set(coll::CollKind::allreduce, 0,
                          {coll::Algo::rd, false, bin});
  SrmConfig direct_pipe;
  direct_pipe.decisions.profile = "forced";
  direct_pipe.decisions.set(coll::CollKind::bcast, 0,
                            {coll::Algo::direct, false, bin});
  direct_pipe.decisions.set(coll::CollKind::allreduce, 0,
                            {coll::Algo::pipeline, false, bin});
  for (const SrmConfig& cfg : {staged_rd, direct_pipe}) {
    exercise_sockets(cfg, smp_shape(2, 16), {0, 9, 19, 28});
    exercise_sockets(cfg, smp_shape(3, 12), {5, 10, 21, 26});
    exercise_sockets(cfg, smp_shape(1, 24), {3, 12, 20});
  }
}

TEST(SrmConfig, FlatCrossbarNeverSplitsTheFanOut) {
  // ibm_sp at 32 tasks per node wraps its 16-core "socket" into two groups,
  // but every topology factor is 1.0: a split would cost 1/k + 1 stream
  // bytes per chunk byte against the flat pull's 1, so the staged bcast
  // keeps one copy per task per chunk (the leader's fill, 31 copy-outs).
  SrmConfig cfg;
  cfg.decisions.profile = "forced";
  const auto bin = coll::TreeKind::binomial;
  cfg.decisions.set(coll::CollKind::bcast, 0,
                    {coll::Algo::staged, false, bin, bin, 4 * 1024});
  constexpr std::size_t kBytes = 12 * 1024;  // three 4 KiB chunks
  Cluster cluster(shape(1, 32));
  cluster.checker().set_enabled(true);
  lapi::Fabric fabric(cluster);
  Communicator comm(cluster, fabric, cfg);
  cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<char> buf(kBytes, 0);
    if (t.rank == 20) {
      for (std::size_t i = 0; i < kBytes; ++i) buf[i] = static_cast<char>(i);
    }
    co_await comm.bcast(t, coll::Buf::bytes(buf.data(), kBytes), 20);
    for (std::size_t i = 0; i < kBytes; ++i) {
      if (buf[i] != static_cast<char>(i)) {
        ADD_FAILURE() << "rank " << t.rank << " byte " << i;
        break;
      }
    }
  });
  EXPECT_EQ(cluster.node(0).mem.copies(), 3u * 32u);
  EXPECT_DOUBLE_EQ(cluster.node(0).mem.copy_bytes(), 32.0 * kBytes);
  EXPECT_FALSE(cluster.node(0).seg.contains("srm/srm0/bc_far0_0"));
  EXPECT_FALSE(cluster.node(0).seg.contains("srm/srm0/bc_far1_0"));
  EXPECT_TRUE(cluster.checker().reports().empty());
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
