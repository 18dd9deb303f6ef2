// Extended SRM collectives: scatter, gather, allgather, reduce_scatter —
// data correctness across shapes, sizes (multi-chunk node blocks), roots,
// and back-to-back sequences; plus the mini-MPI counterparts.
#include <gtest/gtest.h>

#include <algorithm>
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

struct Fixture {
  Fixture(int nodes, int per_node)
      : cluster(make_cfg(nodes, per_node)),
        fabric(cluster),
        comm(cluster, fabric) {}
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

double element(int rank, std::size_t i) {
  return rank * 1000.0 + static_cast<double>(i);
}

class GatherScatterShapes
    : public ::testing::TestWithParam<std::tuple<int, int, std::size_t>> {};

TEST_P(GatherScatterShapes, ScatterDeliversEachBlock) {
  auto [nodes, ppn, count] = GetParam();
  Fixture f(nodes, ppn);
  int n = nodes * ppn;
  int root = n > 2 ? 2 : 0;
  std::vector<std::vector<double>> got(static_cast<std::size_t>(n));
  f.cluster.run([&, count = count, root](TaskCtx& t) -> CoTask {
    std::vector<double> send;
    if (t.rank == root) {
      send.resize(count * static_cast<std::size_t>(t.nranks()));
      for (int r = 0; r < t.nranks(); ++r) {
        for (std::size_t i = 0; i < count; ++i) {
          send[static_cast<std::size_t>(r) * count + i] = element(r, i);
        }
      }
    }
    std::vector<double> recv(count, -1.0);
    co_await f.comm.scatter(t, coll::of(send.data(), count),
                            coll::of(recv.data(), count), root);
    got[static_cast<std::size_t>(t.rank)] = recv;
  });
  for (int r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(got[static_cast<std::size_t>(r)][i], element(r, i))
          << "rank " << r << " i " << i;
    }
  }
}

TEST_P(GatherScatterShapes, GatherAssemblesRankOrder) {
  auto [nodes, ppn, count] = GetParam();
  Fixture f(nodes, ppn);
  int n = nodes * ppn;
  int root = n - 1;
  std::vector<double> out(count * static_cast<std::size_t>(n), -1.0);
  f.cluster.run([&, count = count, root](TaskCtx& t) -> CoTask {
    std::vector<double> mine(count);
    for (std::size_t i = 0; i < count; ++i) mine[i] = element(t.rank, i);
    co_await f.comm.gather(
        t, coll::of(mine.data(), count),
        coll::of(t.rank == root ? out.data() : nullptr, count), root);
  });
  for (int r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[static_cast<std::size_t>(r) * count + i], element(r, i))
          << "rank " << r << " i " << i;
    }
  }
}

TEST_P(GatherScatterShapes, AllgatherEveryoneHasEverything) {
  auto [nodes, ppn, count] = GetParam();
  Fixture f(nodes, ppn);
  int n = nodes * ppn;
  std::vector<std::vector<double>> got(static_cast<std::size_t>(n));
  f.cluster.run([&, count = count](TaskCtx& t) -> CoTask {
    std::vector<double> mine(count);
    for (std::size_t i = 0; i < count; ++i) mine[i] = element(t.rank, i);
    std::vector<double> all(count * static_cast<std::size_t>(t.nranks()),
                            -1.0);
    co_await f.comm.allgather(t, coll::of(mine.data(), count),
                              coll::of(all.data(), count));
    got[static_cast<std::size_t>(t.rank)] = std::move(all);
  });
  for (int holder = 0; holder < n; ++holder) {
    for (int r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < count; i += count > 8 ? 7 : 1) {
        ASSERT_EQ(got[static_cast<std::size_t>(holder)]
                     [static_cast<std::size_t>(r) * count + i],
                  element(r, i))
            << "holder " << holder << " rank " << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GatherScatterShapes,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 4),
        ::testing::Values(1, 4, 16),
        // Node blocks spanning < 1 chunk, exactly 1 chunk, and many chunks
        // of the 64 KB staging buffers.
        ::testing::Values(std::size_t{1}, std::size_t{300},
                          std::size_t{4096}, std::size_t{20000})),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "x" +
             std::to_string(std::get<1>(info.param)) + "_c" +
             std::to_string(std::get<2>(info.param));
    });

TEST(SrmReduceScatter, SumsAndSplits) {
  Fixture f(3, 4);
  int n = 12;
  std::size_t per = 100;
  std::vector<std::vector<double>> got(static_cast<std::size_t>(n));
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> mine(per * static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < mine.size(); ++i) {
      mine[i] = t.rank + static_cast<double>(i);
    }
    std::vector<double> out(per, -1.0);
    co_await f.comm.reduce_scatter(t, coll::of(mine.data(), per),
                                   coll::of(out.data(), per),
                                   coll::RedOp::sum);
    got[static_cast<std::size_t>(t.rank)] = out;
  });
  double rank_sum = n * (n - 1) / 2.0;
  for (int r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < per; ++i) {
      std::size_t gi = static_cast<std::size_t>(r) * per + i;
      ASSERT_DOUBLE_EQ(got[static_cast<std::size_t>(r)][i],
                       rank_sum + n * static_cast<double>(gi))
          << "rank " << r << " i " << i;
    }
  }
}

TEST(SrmGatherScatter, BackToBackMixedRootsAndSizes) {
  Fixture f(3, 5);
  int n = 15;
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    for (int round = 0; round < 5; ++round) {
      std::size_t count = round % 2 == 0 ? 50 : 9000;  // 1 vs many chunks
      int root = (round * 7) % n;
      // gather then scatter back: everyone should recover its own block.
      std::vector<double> mine(count);
      for (std::size_t i = 0; i < count; ++i) {
        mine[i] = element(t.rank, i) + round;
      }
      std::vector<double> all;
      if (t.rank == root) {
        all.resize(count * static_cast<std::size_t>(n));
      }
      co_await f.comm.gather(t, coll::of(mine.data(), count),
                             coll::of(all.data(), count), root);
      std::vector<double> back(count, -1.0);
      co_await f.comm.scatter(t, coll::of(all.data(), count),
                              coll::of(back.data(), count), root);
      for (std::size_t i = 0; i < count; i += 11) {
        EXPECT_EQ(back[i], mine[i]) << "round " << round << " rank "
                                    << t.rank;
      }
    }
  });
}

TEST(SrmGatherScatter, InterleavedWithOtherCollectives) {
  Fixture f(2, 8);
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> mine(64, 1.0 * t.rank);
    std::vector<double> all(64 * 16, 0.0);
    co_await f.comm.allgather(t, coll::of(mine.data(), 64),
                              coll::of(all.data(), 64));
    double s = 0.0, total = 0.0;
    for (double v : all) s += v;
    co_await f.comm.allreduce(t, coll::of(&s, 1), coll::of(&total, 1),
                              coll::RedOp::max);
    EXPECT_DOUBLE_EQ(total, 64.0 * (15 * 16 / 2));
    co_await f.comm.barrier(t);
  });
}

// ---- root-free reduce_scatter (Algo::direct) ----

/// @p calls back-to-back reduce_scatters of @p count elements per rank
/// under a table whose only reduce_scatter row is @p row, with the race
/// checker on and single-copy on when the row is mapped; every element
/// must equal the sequential sum.
void direct_reduce_scatter(const machine::MachineParams& params, int nodes,
                           int ppn, std::size_t count, coll::Decision row,
                           int calls = 2) {
  ClusterConfig cc;
  cc.nodes = nodes;
  cc.tasks_per_node = ppn;
  cc.params = params;
  Cluster cluster(cc);
  cluster.checker().set_enabled(true);
  lapi::Fabric fabric(cluster);
  SrmConfig cfg;
  cfg.single_copy = row.mapped;
  cfg.decisions.profile = "forced";
  cfg.decisions.set(coll::CollKind::reduce_scatter, 0, row);
  Communicator comm(cluster, fabric, cfg);
  int n = nodes * ppn;
  auto input = [](int rank, int call, std::size_t i) {
    return rank * 3.0 + call * 0.5 + static_cast<double>(i % 17);
  };
  int wrong = 0;
  cluster.run([&](TaskCtx& t) -> CoTask {
    for (int call = 0; call < calls; ++call) {
      std::size_t total = count * static_cast<std::size_t>(n);
      std::vector<double> in(total), out(count, -1.0);
      for (std::size_t i = 0; i < total; ++i) in[i] = input(t.rank, call, i);
      co_await comm.reduce_scatter(t, coll::of(in.data(), count),
                                   coll::of(out.data(), count),
                                   coll::RedOp::sum);
      std::size_t base = static_cast<std::size_t>(t.rank) * count;
      for (std::size_t i = 0; i < count; ++i) {
        double want = 0.0;
        for (int r = 0; r < n; ++r) want += input(r, call, base + i);
        if (out[i] != want) {
          ++wrong;
          ADD_FAILURE() << nodes << "x" << ppn << " count " << count
                        << " call " << call << " rank " << t.rank
                        << " element " << i << ": " << out[i]
                        << " != " << want;
          break;
        }
      }
    }
  });
  EXPECT_EQ(wrong, 0);
  for (const auto& r : cluster.checker().reports()) {
    ADD_FAILURE() << r.to_string();
  }
}

coll::Decision direct_row(coll::TreeKind tree, std::size_t chunk = 0) {
  return {coll::Algo::direct, false, coll::TreeKind::binomial, tree, chunk};
}

/// The share form's row: mapped over a flat domain tree.
coll::Decision shares_row(std::size_t chunk = 0) {
  coll::Decision d = direct_row(coll::TreeKind::flat, chunk);
  d.mapped = true;
  return d;
}

TEST(SrmReduceScatterDirect, SumsOnEveryDomainSplit) {
  // modern_smp sockets hold 8 tasks: 8x16 one-step segments land every
  // remote round in its own landing slot, 2x16 runs two domains of 8, 3x12
  // domains of 8 and 4, 2x9 of 8 and 1, 1x16 has no remote round and 5x1
  // no intra-node tree; ibm_sp 4x8 is one domain. Blocks of one element
  // and odd counts; node segments shorter than one 16 KiB step and
  // spanning several. Over socket chains and binomial trees, and in the
  // share form (mapped over a flat tree, single-copy on), which the
  // one-task nodes run as a chain.
  const auto smp = machine::MachineParams::modern_smp();
  const auto sp = machine::MachineParams::ibm_sp();
  for (const coll::Decision& row : {direct_row(coll::TreeKind::chain),
                                    direct_row(coll::TreeKind::binomial),
                                    shares_row()}) {
    direct_reduce_scatter(smp, 8, 16, 1, row);
    direct_reduce_scatter(smp, 2, 16, 1, row);
    direct_reduce_scatter(smp, 2, 16, 333, row);
    direct_reduce_scatter(smp, 3, 12, 7, row);
    direct_reduce_scatter(smp, 3, 12, 1501, row);
    direct_reduce_scatter(smp, 2, 9, 77, row);
    direct_reduce_scatter(smp, 1, 16, 999, row);
    direct_reduce_scatter(smp, 5, 1, 3001, row);
    direct_reduce_scatter(sp, 4, 8, 1, row);
    direct_reduce_scatter(sp, 4, 8, 777, row);
  }
}

/// The virtual time at which the last rank returns from one call of @p op
/// on modern_smp 2x16 (a reduce_scatter of 96 doubles per rank, or an
/// allreduce of 16384 doubles) under the one-row table @p row, with
/// single-copy @p single_copy; the sums are checked.
double one_call_us(coll::CollKind op, coll::Decision row, bool single_copy) {
  ClusterConfig cc;
  cc.nodes = 2;
  cc.tasks_per_node = 16;
  cc.params = machine::MachineParams::modern_smp();
  Cluster cluster(cc);
  lapi::Fabric fabric(cluster);
  SrmConfig cfg;
  cfg.single_copy = single_copy;
  cfg.decisions.profile = "forced";
  cfg.decisions.set(op, 0, row);
  Communicator comm(cluster, fabric, cfg);
  const bool rs = op == coll::CollKind::reduce_scatter;
  const std::size_t count = rs ? 96 : 16384;
  const std::size_t total = rs ? count * 32 : count;
  sim::Time end = 0;
  cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> in(total, 1.0 + t.rank), out(count, -1.0);
    if (rs) {
      co_await comm.reduce_scatter(t, coll::of(in.data(), count),
                                   coll::of(out.data(), count),
                                   coll::RedOp::sum);
    } else {
      co_await comm.allreduce(t, coll::of(in.data(), count),
                              coll::of(out.data(), count), coll::RedOp::sum);
    }
    end = std::max(end, t.eng->now());
    EXPECT_EQ(out[count - 1], 32.0 * 33.0 / 2.0) << "rank " << t.rank;
  });
  return sim::to_us(end);
}

TEST(SrmReduceScatterDirect, FlatRowRunsTheChainWithoutSingleCopy) {
  // Without windows a flat direct row runs the chain: with single-copy off
  // the reduce_scatter row and the allreduce row take exactly the chain
  // row's time. With it on they run the share form, which times apart.
  coll::Decision chain = direct_row(coll::TreeKind::chain);
  chain.mapped = true;
  for (coll::CollKind op :
       {coll::CollKind::reduce_scatter, coll::CollKind::allreduce}) {
    EXPECT_EQ(one_call_us(op, shares_row(), false),
              one_call_us(op, chain, false))
        << coll::coll_name(op);
    EXPECT_NE(one_call_us(op, shares_row(), true),
              one_call_us(op, chain, true))
        << coll::coll_name(op);
  }
}

TEST(SrmReduceScatterDirect, SumsInSubSlotSteps) {
  // Steps that carry whole blocks: 8x16 at 65 elements per rank runs 3
  // steps of 5-6 blocks per segment in 4 KiB steps, 3x12 at 100 elements
  // 2 steps of 6 in 8 KiB steps, and 2x16 at 192 elements 3 steps of 5-6
  // blocks, up to 9216 B: past the 8 KiB row step, within one 16 KiB
  // reduce slot. Steps that split an owner's block across steps and a
  // step across owners, where the block-aligned layout does not fit: 3x12
  // at 600 elements (4800 B blocks, longer than a 4 KiB step) runs 15
  // fixed steps, and at 758 elements (6064 B blocks, three to a 16 KiB
  // slot) 5 fixed 16 KiB steps.
  const auto smp = machine::MachineParams::modern_smp();
  direct_reduce_scatter(smp, 8, 16, 65,
                        direct_row(coll::TreeKind::chain, 4 * 1024));
  direct_reduce_scatter(smp, 3, 12, 100,
                        direct_row(coll::TreeKind::binary, 8 * 1024), 3);
  direct_reduce_scatter(smp, 2, 16, 192,
                        direct_row(coll::TreeKind::chain, 8 * 1024));
  direct_reduce_scatter(smp, 3, 12, 600,
                        direct_row(coll::TreeKind::chain, 4 * 1024));
  direct_reduce_scatter(smp, 3, 12, 758, direct_row(coll::TreeKind::chain));
  // The share form in the same steps: 8x16 reuses every landing slot.
  direct_reduce_scatter(smp, 8, 16, 129, shares_row(4 * 1024), 3);
  direct_reduce_scatter(smp, 3, 12, 1501, shares_row(8 * 1024));
  direct_reduce_scatter(smp, 3, 12, 600, shares_row(4 * 1024));
}

/// Three rounds of a reduce_scatter on @p row alternating with a staged
/// reduce, rooted off the first socket, on modern_smp 2x16 with the race
/// checker on (single-copy on when the row is mapped).
void interleave_with_reduce(coll::Decision row) {
  ClusterConfig cc;
  cc.nodes = 2;
  cc.tasks_per_node = 16;
  cc.params = machine::MachineParams::modern_smp();
  Cluster cluster(cc);
  cluster.checker().set_enabled(true);
  lapi::Fabric fabric(cluster);
  SrmConfig cfg;
  cfg.single_copy = row.mapped;
  cfg.decisions.profile = "forced";
  cfg.decisions.set(coll::CollKind::reduce_scatter, 0, row);
  Communicator comm(cluster, fabric, cfg);
  const std::size_t per = 129;
  cluster.run([&](TaskCtx& t) -> CoTask {
    for (int round = 0; round < 3; ++round) {
      std::vector<double> in(per * 32, 1.0 * (t.rank + round));
      std::vector<double> out(per, -1.0), red(per * 32, -1.0);
      co_await comm.reduce_scatter(t, coll::of(in.data(), per),
                                   coll::of(out.data(), per),
                                   coll::RedOp::sum);
      double want = 32.0 * round + 31.0 * 32.0 / 2.0;
      EXPECT_EQ(out[0], want) << "round " << round << " rank " << t.rank;
      EXPECT_EQ(out[per - 1], want);
      co_await comm.reduce(t, coll::of(in.data(), per * 32),
                           coll::of(red.data(), per * 32), coll::RedOp::sum,
                           9 + round);
      if (t.rank == 9 + round) {
        EXPECT_EQ(red[per * 31], want);
      }
    }
  });
  EXPECT_TRUE(cluster.checker().reports().empty());
}

TEST(SrmReduceScatterDirect, InterleavesWithTheOtherReduceSlots) {
  // The domain pipeline shares the per-local red_slot counters with the
  // reduce; in the share form only the heads' slots advance.
  interleave_with_reduce(direct_row(coll::TreeKind::chain));
  interleave_with_reduce(shares_row());
}

// ---- root-free allgather and allreduce (Algo::direct) ----

/// A communicator on @p nodes x @p ppn of @p params whose only row of
/// @p op is @p row, with the race checker and single-copy on (a mapped
/// row binds).
struct Forced {
  Forced(const machine::MachineParams& params, int nodes, int ppn,
         coll::CollKind op, coll::Decision row)
      : cluster(cfg(params, nodes, ppn)),
        fabric(cluster),
        comm(cluster, fabric, srm_cfg(op, row)) {
    cluster.checker().set_enabled(true);
  }
  static ClusterConfig cfg(const machine::MachineParams& params, int nodes,
                           int ppn) {
    ClusterConfig cc;
    cc.nodes = nodes;
    cc.tasks_per_node = ppn;
    cc.params = params;
    return cc;
  }
  static SrmConfig srm_cfg(coll::CollKind op, coll::Decision row) {
    SrmConfig c;
    c.single_copy = true;
    c.decisions.profile = "forced";
    c.decisions.set(op, 0, row);
    return c;
  }
  void expect_no_races() {
    for (const auto& r : cluster.checker().reports()) {
      ADD_FAILURE() << r.to_string();
    }
  }
  Cluster cluster;
  lapi::Fabric fabric;
  Communicator comm;
};

/// Two back-to-back allreduces of @p count doubles on a one-row table:
/// every element on every rank must equal the sequential sum.
void direct_allreduce(const machine::MachineParams& params, int nodes,
                      int ppn, std::size_t count, coll::Decision row) {
  Forced f(params, nodes, ppn, coll::CollKind::allreduce, row);
  int n = nodes * ppn;
  auto input = [](int rank, int call, std::size_t i) {
    return rank * 2.0 + call * 0.25 + static_cast<double>(i % 13);
  };
  int wrong = 0;
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    for (int call = 0; call < 2; ++call) {
      std::vector<double> in(count), out(count, -1.0);
      for (std::size_t i = 0; i < count; ++i) in[i] = input(t.rank, call, i);
      co_await f.comm.allreduce(t, coll::of(in.data(), count),
                                coll::of(out.data(), count),
                                coll::RedOp::sum);
      for (std::size_t i = 0; i < count; ++i) {
        double want = 0.0;
        for (int r = 0; r < n; ++r) want += input(r, call, i);
        if (out[i] != want) {
          ++wrong;
          ADD_FAILURE() << nodes << "x" << ppn << " count " << count
                        << " call " << call << " rank " << t.rank
                        << " element " << i << ": " << out[i]
                        << " != " << want;
          break;
        }
      }
    }
  });
  EXPECT_EQ(wrong, 0);
  f.expect_no_races();
}

/// Two back-to-back allgathers of @p count doubles per rank on a one-row
/// table: every rank must hold every block.
void direct_allgather(const machine::MachineParams& params, int nodes,
                      int ppn, std::size_t count, coll::Decision row) {
  Forced f(params, nodes, ppn, coll::CollKind::allgather, row);
  int n = nodes * ppn;
  int wrong = 0;
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    for (int call = 0; call < 2; ++call) {
      std::vector<double> mine(count);
      for (std::size_t i = 0; i < count; ++i) {
        mine[i] = element(t.rank, i) + call;
      }
      std::vector<double> all(count * static_cast<std::size_t>(n), -1.0);
      co_await f.comm.allgather(t, coll::of(mine.data(), count),
                                coll::of(all.data(), count));
      for (int r = 0; r < n && wrong == 0; ++r) {
        for (std::size_t i = 0; i < count; ++i) {
          if (all[static_cast<std::size_t>(r) * count + i] !=
              element(r, i) + call) {
            ++wrong;
            ADD_FAILURE() << nodes << "x" << ppn << " count " << count
                          << " call " << call << " holder " << t.rank
                          << " block " << r << " element " << i;
            break;
          }
        }
      }
    }
  });
  EXPECT_EQ(wrong, 0);
  f.expect_no_races();
}

/// The shapes of the direct protocols' tests: modern_smp 8x16 (two
/// sockets of 8), 2x16, 3x12 (domains of 8 and 4), 1x16 (no ring) and 5x1
/// (no node assembly), and the one-socket ibm_sp 4x8.
struct Shape {
  machine::MachineParams params;
  int nodes;
  int ppn;
};
std::vector<Shape> direct_shapes() {
  const auto smp = machine::MachineParams::modern_smp();
  const auto sp = machine::MachineParams::ibm_sp();
  return {{smp, 8, 16}, {smp, 2, 16}, {smp, 3, 12},
          {smp, 1, 16}, {smp, 5, 1},  {sp, 4, 8}};
}

TEST(SrmAllreduceDirect, SumsOnEveryShapeAndRaggedCount) {
  // Counts 1, P - 1, P, P + 1 (ragged blocks, some empty below P), a prime,
  // and one whose longest segment spans several 4 KiB steps; each with the
  // node ring and, mapped, the socket leaders' rings (allgather_sockets),
  // over socket chains and over flat trees (the reduce_scatter half's
  // share form).
  coll::Decision mapped = direct_row(coll::TreeKind::chain, 4 * 1024);
  mapped.mapped = true;
  for (const Shape& sh : direct_shapes()) {
    auto p = static_cast<std::size_t>(sh.nodes * sh.ppn);
    for (std::size_t count :
         {std::size_t{1}, p - 1, p, p + 1, std::size_t{1009}, p * 160 + 3}) {
      direct_allreduce(sh.params, sh.nodes, sh.ppn, count,
                       direct_row(coll::TreeKind::chain, 4 * 1024));
      direct_allreduce(sh.params, sh.nodes, sh.ppn, count, mapped);
      direct_allreduce(sh.params, sh.nodes, sh.ppn, count,
                       shares_row(4 * 1024));
    }
  }
}

TEST(SrmAllreduceDirect, MappedAssemblyAndBinaryDomains) {
  const auto smp = machine::MachineParams::modern_smp();
  coll::Decision mapped = direct_row(coll::TreeKind::binary);
  mapped.mapped = true;
  direct_allreduce(smp, 2, 16, 31, mapped);
  direct_allreduce(smp, 3, 12, 20011, mapped);
  direct_allreduce(smp, 8, 16, 9001, direct_row(coll::TreeKind::binary));
  // Mapped over a flat tree: the reduce_scatter half in the share form.
  direct_allreduce(smp, 8, 16, 16384, shares_row());
}

TEST(SrmAllgatherDirect, DeliversOnEveryShape) {
  // Node blocks under one Fig. 3 buffer, and one just over it (published
  // in two equal steps), on the node ring and, mapped, on the socket
  // leaders' rings (allgather_sockets), which also take per-rank counts
  // P - 1, P, P + 1 and a prime.
  coll::Decision staged{coll::Algo::direct, false};
  coll::Decision mapped{coll::Algo::direct, true};
  for (const Shape& sh : direct_shapes()) {
    auto p = static_cast<std::size_t>(sh.nodes * sh.ppn);
    for (std::size_t count : {std::size_t{1}, std::size_t{513}}) {
      direct_allgather(sh.params, sh.nodes, sh.ppn, count, staged);
      direct_allgather(sh.params, sh.nodes, sh.ppn, count, mapped);
    }
    for (std::size_t count : {p - 1, p, p + 1, std::size_t{1009}}) {
      direct_allgather(sh.params, sh.nodes, sh.ppn, count, mapped);
    }
  }
}

/// Virtual end time of two back-to-back calls of @p op (an allgather of 64
/// doubles per rank, or a reduce_scatter of 96) on modern_smp 2x16 under
/// the one-row table @p row, traced or not; with @p spans, the number of
/// spans of each name the traced run recorded.
double two_calls_us(coll::CollKind op, coll::Decision row, bool traced,
                    std::map<std::string, int>* spans = nullptr) {
  Forced f(machine::MachineParams::modern_smp(), 2, 16, op, row);
  f.cluster.obs().set_trace_enabled(traced);
  const bool ag = op == coll::CollKind::allgather;
  const std::size_t count = ag ? 64 : 96;
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    for (int call = 0; call < 2; ++call) {
      std::vector<double> in(ag ? count : count * 32, 1.0 + t.rank);
      std::vector<double> out(ag ? count * 32 : count, -1.0);
      if (ag) {
        co_await f.comm.allgather(t, coll::of(in.data(), count),
                                  coll::of(out.data(), count));
      } else {
        co_await f.comm.reduce_scatter(t, coll::of(in.data(), count),
                                       coll::of(out.data(), count),
                                       coll::RedOp::sum);
      }
    }
  });
  if (spans != nullptr) {
    for (const obs::SpanRec& s : f.cluster.obs().spans()) ++(*spans)[s.name];
  }
  f.expect_no_races();
  return sim::to_us(f.cluster.engine().now());
}

TEST(SrmMappedSpans, EachMappedStageOpensOneSpanPerCallAndRank) {
  // perfbench's shm.mapped layer counts smp.*_mapped spans: the socket
  // leaders' allgather and the reduce_scatter's share form each open one
  // per call and rank, their unmapped forms none, and tracing moves no
  // virtual time.
  if (!obs::kEnabled) GTEST_SKIP() << "SRM_OBS=OFF";
  struct Case {
    coll::CollKind op;
    coll::Decision mapped, staged;
    const char* name;
  };
  for (const Case& c :
       {Case{coll::CollKind::allgather, {coll::Algo::direct, true},
             {coll::Algo::direct, false}, "smp.allgather_mapped"},
        Case{coll::CollKind::reduce_scatter, shares_row(),
             direct_row(coll::TreeKind::chain), "smp.reduce_scatter_mapped"}}) {
    std::map<std::string, int> spans;
    const double traced = two_calls_us(c.op, c.mapped, true, &spans);
    EXPECT_EQ(spans[c.name], 2 * 32) << c.name;
    EXPECT_EQ(traced, two_calls_us(c.op, c.mapped, false)) << c.name;
    int mapped_spans = 0;
    for (const auto& [name, k] : spans) {
      if (name.rfind("smp.", 0) == 0 && name.ends_with("_mapped")) {
        mapped_spans += k;
      }
    }
    EXPECT_EQ(mapped_spans, 2 * 32) << c.name;
    std::map<std::string, int> staged;
    two_calls_us(c.op, c.staged, true, &staged);
    EXPECT_EQ(staged.count(c.name), 0u) << c.name;
  }
}

// ---- an error inside a collective ----

/// Rank 5 fails while the others wait inside a mapped allreduce, their
/// frames holding exported windows, spans and checker scopes: it throws,
/// or with @p skip it returns without joining and the others deadlock.
void fail_mid_collective(Forced& f, bool skip) {
  f.cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> in(4096, 1.0), out(4096, -1.0);
    if (t.rank == 5) {
      co_await t.eng->sleep(sim::us(3));
      if (skip) co_return;
      throw util::CheckError("rank 5 fails mid-collective");
    }
    co_await f.comm.allreduce(t, coll::of(in.data(), in.size()),
                              coll::of(out.data(), out.size()),
                              coll::RedOp::sum);
  });
}

TEST(SrmCollectiveError, ReachesTheCallerAndLeavesTheClusterDestructible) {
  for (bool skip : {false, true}) {
    Forced f(machine::MachineParams::modern_smp(), 2, 16,
             coll::CollKind::allreduce, shares_row());
    const std::string want =
        skip ? "simulation deadlock" : "rank 5 fails mid-collective";
    try {
      fail_mid_collective(f, skip);
      ADD_FAILURE() << "no CheckError escaped Cluster::run";
    } catch (const util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(f.cluster.engine().live_processes(), 0u) << want;
  }
}

TEST(SrmCollectiveError, NextTestRunsAfterTheError) {
  // Runs after the test above in the same binary: a fresh cluster sums.
  direct_allreduce(machine::MachineParams::modern_smp(), 2, 16, 333,
                   shares_row());
}

// ---- mini-MPI counterparts ----

TEST(MpiGatherScatter, LinearAlgorithmsCorrect) {
  ClusterConfig cc;
  cc.nodes = 2;
  cc.tasks_per_node = 4;
  Cluster cluster(cc);
  minimpi::World world(cluster, cluster.params().mpi_ibm, "ibm");
  int n = 8;
  std::size_t count = 500;
  std::vector<double> gathered(count * 8, -1.0);
  std::vector<std::vector<double>> scattered(8);
  cluster.run([&](TaskCtx& t) -> CoTask {
    auto& c = world.comm(t.rank);
    std::vector<double> mine(count);
    for (std::size_t i = 0; i < count; ++i) mine[i] = element(t.rank, i);
    co_await c.gather(mine.data(), t.rank == 3 ? gathered.data() : nullptr,
                      count * sizeof(double), 3);
    std::vector<double> recv(count, -1.0);
    co_await c.scatter(gathered.data(), recv.data(), count * sizeof(double),
                       3);
    scattered[static_cast<std::size_t>(t.rank)] = recv;
  });
  for (int r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < count; i += 13) {
      ASSERT_EQ(gathered[static_cast<std::size_t>(r) * count + i],
                element(r, i));
      ASSERT_EQ(scattered[static_cast<std::size_t>(r)][i], element(r, i));
    }
  }
}

TEST(MpiGatherScatter, AllgatherAndReduceScatter) {
  ClusterConfig cc;
  cc.nodes = 2;
  cc.tasks_per_node = 3;
  Cluster cluster(cc);
  minimpi::World world(cluster, cluster.params().mpi_mpich, "mpich");
  cluster.run([&](TaskCtx& t) -> CoTask {
    auto& c = world.comm(t.rank);
    std::vector<double> mine(10, 1.0 * t.rank);
    std::vector<double> all(60, -1.0);
    co_await c.allgather(mine.data(), all.data(), 10 * sizeof(double));
    for (int r = 0; r < 6; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r) * 10], 1.0 * r);
    }
    std::vector<double> big(60, 1.0 * t.rank);
    std::vector<double> piece(10, -1.0);
    co_await c.reduce_scatter(big.data(), piece.data(), 10,
                              coll::Dtype::f64, coll::RedOp::sum);
    for (double v : piece) EXPECT_DOUBLE_EQ(v, 15.0);  // sum of ranks 0..5
  });
}

}  // namespace
}  // namespace srm
