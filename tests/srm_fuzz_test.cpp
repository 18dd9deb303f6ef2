// Deterministic operation-sequence fuzzing: long random mixes of all eight
// collectives with random roots and sizes (straddling every protocol
// switch), verified element-exactly against a sequential reference, on the
// paper's machine and on the hierarchical profile with its builtin table.
// This is the strongest guard on the cross-operation slot/credit state
// machines (landing parity, credit conservation, staging reuse).
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "core/communicator.hpp"
#include "util/rng.hpp"

namespace srm {
namespace {

using machine::Cluster;
using machine::ClusterConfig;
using machine::TaskCtx;
using sim::CoTask;

struct OpPlan {
  enum Kind {
    bcast,
    reduce,
    allreduce,
    barrier,
    scatter,
    gather,
    allgather,
    reduce_scatter
  } kind;
  std::size_t count;  // elements (f64) or bytes for bcast
  int root;
};

std::vector<OpPlan> make_plan(std::uint64_t seed, int nranks, int nops) {
  util::SplitMix64 rng(seed);
  // Sizes chosen to land in each protocol regime.
  const std::size_t bcast_sizes[] = {8,     700,   8192,  12000,
                                     32768, 65536, 65537, 200000};
  const std::size_t red_counts[] = {1, 60, 2048, 2049, 7000, 20000};
  const std::size_t blk_counts[] = {1, 33, 900, 9000};
  std::vector<OpPlan> plan;
  for (int i = 0; i < nops; ++i) {
    OpPlan op;
    op.kind = static_cast<OpPlan::Kind>(rng.next_below(8));
    op.root = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nranks)));
    switch (op.kind) {
      case OpPlan::bcast:
        op.count = bcast_sizes[rng.next_below(8)];
        break;
      case OpPlan::reduce:
      case OpPlan::allreduce:
        op.count = red_counts[rng.next_below(6)];
        break;
      case OpPlan::scatter:
      case OpPlan::gather:
      case OpPlan::allgather:
      case OpPlan::reduce_scatter:
        op.count = blk_counts[rng.next_below(4)];
        break;
      case OpPlan::barrier:
        op.count = 0;
        break;
    }
    plan.push_back(op);
  }
  return plan;
}

double value(int rank, int op_index, std::size_t i) {
  return (rank % 13) + (op_index % 7) * 0.5 + static_cast<double>(i % 11);
}

/// With @p race_check the happens-before checker runs too, and each of
/// its reports fails the test.
void run_fuzz(std::uint64_t seed, int nodes, int ppn, int nops,
              const machine::MachineParams& params =
                  machine::MachineParams::ibm_sp(),
              SrmConfig cfg = {}, bool race_check = false) {
  ClusterConfig cc;
  cc.nodes = nodes;
  cc.tasks_per_node = ppn;
  cc.params = params;
  Cluster cluster(cc);
  cluster.checker().set_enabled(race_check);
  lapi::Fabric fabric(cluster);
  Communicator comm(cluster, fabric, cfg);
  int n = nodes * ppn;
  auto plan = make_plan(seed, n, nops);

  cluster.run([&](TaskCtx& t) -> CoTask {
    for (int k = 0; k < static_cast<int>(plan.size()); ++k) {
      const OpPlan& op = plan[static_cast<std::size_t>(k)];
      switch (op.kind) {
        case OpPlan::bcast: {
          std::vector<char> buf(op.count, 0);
          if (t.rank == op.root) {
            for (std::size_t i = 0; i < op.count; ++i) {
              buf[i] = static_cast<char>((i + static_cast<std::size_t>(k)) %
                                         113);
            }
          }
          co_await comm.bcast(t, coll::Buf::bytes(buf.data(), op.count),
                              op.root);
          for (std::size_t i = 0; i < op.count; i += 97) {
            EXPECT_EQ(buf[i],
                      static_cast<char>((i + static_cast<std::size_t>(k)) %
                                        113))
                << "op " << k << " rank " << t.rank;
          }
          break;
        }
        case OpPlan::reduce:
        case OpPlan::allreduce: {
          std::vector<double> in(op.count), out(op.count, -1.0);
          for (std::size_t i = 0; i < op.count; ++i) {
            in[i] = value(t.rank, k, i);
          }
          if (op.kind == OpPlan::reduce) {
            co_await comm.reduce(t, coll::of(in.data(), op.count),
                                 coll::of(out.data(), op.count),
                                 coll::RedOp::sum, op.root);
          } else {
            co_await comm.allreduce(t, coll::of(in.data(), op.count),
                                    coll::of(out.data(), op.count),
                                    coll::RedOp::sum);
          }
          if (op.kind == OpPlan::allreduce || t.rank == op.root) {
            for (std::size_t i = 0; i < op.count; i += 61) {
              double expect = 0.0;
              for (int r = 0; r < n; ++r) expect += value(r, k, i);
              EXPECT_DOUBLE_EQ(out[i], expect)
                  << "op " << k << " rank " << t.rank;
            }
          }
          break;
        }
        case OpPlan::barrier:
          co_await comm.barrier(t);
          break;
        case OpPlan::scatter: {
          std::vector<double> send;
          if (t.rank == op.root) {
            send.resize(op.count * static_cast<std::size_t>(n));
            for (int r = 0; r < n; ++r) {
              for (std::size_t i = 0; i < op.count; ++i) {
                send[static_cast<std::size_t>(r) * op.count + i] =
                    value(r, k, i);
              }
            }
          }
          std::vector<double> recv(op.count, -1.0);
          co_await comm.scatter(t, coll::of(send.data(), op.count),
                                coll::of(recv.data(), op.count), op.root);
          for (std::size_t i = 0; i < op.count; i += 37) {
            EXPECT_EQ(recv[i], value(t.rank, k, i))
                << "op " << k << " rank " << t.rank;
          }
          break;
        }
        case OpPlan::gather:
        case OpPlan::allgather: {
          std::vector<double> mine(op.count);
          for (std::size_t i = 0; i < op.count; ++i) {
            mine[i] = value(t.rank, k, i);
          }
          std::vector<double> all;
          bool holder = op.kind == OpPlan::allgather || t.rank == op.root;
          if (holder) {
            all.assign(op.count * static_cast<std::size_t>(n), -1.0);
          }
          if (op.kind == OpPlan::gather) {
            co_await comm.gather(t, coll::of(mine.data(), op.count),
                                 coll::of(all.data(), op.count), op.root);
          } else {
            co_await comm.allgather(t, coll::of(mine.data(), op.count),
                                    coll::of(all.data(), op.count));
          }
          if (holder) {
            for (int r = 0; r < n; r += 3) {
              for (std::size_t i = 0; i < op.count; i += 41) {
                EXPECT_EQ(all[static_cast<std::size_t>(r) * op.count + i],
                          value(r, k, i))
                    << "op " << k << " rank " << t.rank;
              }
            }
          }
          break;
        }
        case OpPlan::reduce_scatter: {
          // Element i of rank r's block sums value(q, k, r * count + i)
          // over every rank q.
          std::size_t total = op.count * static_cast<std::size_t>(n);
          std::vector<double> in(total), out(op.count, -1.0);
          for (std::size_t i = 0; i < total; ++i) in[i] = value(t.rank, k, i);
          co_await comm.reduce_scatter(t, coll::of(in.data(), op.count),
                                       coll::of(out.data(), op.count),
                                       coll::RedOp::sum);
          std::size_t base = static_cast<std::size_t>(t.rank) * op.count;
          for (std::size_t i = 0; i < op.count; ++i) {
            double expect = 0.0;
            for (int r = 0; r < n; ++r) expect += value(r, k, base + i);
            if (out[i] != expect) {
              ADD_FAILURE() << "op " << k << " rank " << t.rank
                            << " element " << i << ": " << out[i]
                            << " != " << expect;
              break;
            }
          }
          break;
        }
      }
    }
  });
  for (const auto& r : cluster.checker().reports()) {
    ADD_FAILURE() << r.to_string();
  }
}

class SrmFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SrmFuzz, RandomSequenceSmallCluster) {
  run_fuzz(GetParam(), 3, 4, 25);
}

TEST_P(SrmFuzz, RandomSequenceFatNodes) {
  run_fuzz(GetParam() ^ 0xabcdef, 2, 16, 18);
}

// The race checker runs in the suites it finds clean. In the others it
// reports Fig. 3 buffers written by a later op's leader unordered with an
// earlier op's reader (CHANGES.md).
TEST_P(SrmFuzz, RandomSequenceManyThinNodes) {
  run_fuzz(GetParam() ^ 0x1234, 7, 2, 18, machine::MachineParams::ibm_sp(),
           {}, /*race_check=*/true);
}

// The hierarchical profile with single-copy on and its builtin table: the
// mapped, zoo and root-free reduce_scatter rows run between the others.
// 3x12 splits each node into sockets of 8 and 4.
SrmConfig single_copy() {
  SrmConfig cfg;
  cfg.single_copy = true;
  return cfg;
}

TEST_P(SrmFuzz, RandomSequenceModernSmp2x16) {
  run_fuzz(GetParam() ^ 0x2016, 2, 16, 18,
           machine::MachineParams::modern_smp(), single_copy());
}

TEST_P(SrmFuzz, RandomSequenceModernSmp3x12) {
  run_fuzz(GetParam() ^ 0x3012, 3, 12, 18,
           machine::MachineParams::modern_smp(), single_copy(),
           /*race_check=*/true);
}

// Every allreduce, allgather and reduce_scatter on a root-free row, at
// counts that do not split evenly over the ranks (ragged blocks, empty ones
// below one element per rank), between the builtin table's other rows.
// The three low bits of seed - 1 pick the allreduce row, so seeds 1-8 run
// each once: bit 0 maps it (its allgather half on the socket rings, else
// the node ring), bit 1 lays its socket trees flat when mapped (its
// reduce_scatter half in shares out of the locals' windows) and as binary
// trees when not (else chains), bit 2 steps in 16 KiB (else 4 KiB). The
// reduce_scatter row takes the same step, is mapped where the allreduce
// row is not, and is flat where bit 1 is set: shares when mapped, else
// the chain a flat row runs without windows. The allgather row runs the
// socket rings when those bits have even parity, the node ring otherwise,
// so either allgather form meets both allreduce forms. Seed 1 is an
// unmapped chain in 4 KiB steps with a mapped allgather and a mapped
// chain reduce_scatter.
SrmConfig direct_rows(std::uint64_t seed) {
  const unsigned bits = static_cast<unsigned>(seed - 1) & 7u;
  SrmConfig cfg = single_copy();
  const coll::DecisionTable builtin = coll::DecisionTable::modern_smp();
  cfg.decisions = builtin;
  const bool mapped = (bits & 1u) != 0;
  const bool wide = (bits & 2u) != 0;
  const std::size_t step = (bits & 4u) != 0 ? 0 : 4 * 1024;
  const auto bin = coll::TreeKind::binomial;
  const auto chain = coll::TreeKind::chain;
  const coll::Decision ar{
      coll::Algo::direct, mapped, bin,
      wide ? (mapped ? coll::TreeKind::flat : coll::TreeKind::binary)
           : chain,
      step};
  const coll::Decision rs{coll::Algo::direct, !mapped, bin,
                          wide ? coll::TreeKind::flat : chain, step};
  const coll::Decision ag{coll::Algo::direct,
                          (std::popcount(bits) & 1) == 0};
  for (coll::CollKind op :
       {coll::CollKind::allreduce, coll::CollKind::allgather,
        coll::CollKind::reduce_scatter}) {
    const coll::Decision& d = op == coll::CollKind::allreduce ? ar
                              : op == coll::CollKind::allgather ? ag
                                                                : rs;
    cfg.decisions.set(op, 0, d);
    for (const auto& r : builtin.rows(op)) {
      cfg.decisions.set(op, r.min_bytes, d);
    }
  }
  return cfg;
}

TEST_P(SrmFuzz, RandomSequenceDirectRows3x12) {
  run_fuzz(GetParam() ^ 0xd312, 3, 12, 18,
           machine::MachineParams::modern_smp(), direct_rows(GetParam()),
           /*race_check=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SrmFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace srm
