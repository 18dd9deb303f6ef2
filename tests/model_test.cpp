// The analytic cost model vs simulation: sa::algo_cost, which prices every
// candidate algorithm from the mc protocol IR on the 2-node x 4-task shape,
// must track one isolated simulated call of the same algorithm within a
// documented envelope on both machine profiles, and must rank the
// configurations a tuner chooses between the way the simulator does.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/harness.hpp"
#include "coll/decision.hpp"
#include "mc/protocols.hpp"
#include "sa/dominance.hpp"

namespace srm {
namespace {

using coll::CollKind;

constexpr int kNodes = 2, kTasks = 4;  // the shape the IR models

/// Envelope of sa_us / sim_us over the grid below. The misses it absorbs
/// are documented in DESIGN.md §16: the scatter+allgather bcast and the
/// ring / recursive-halving allreduces run the whole message as one IR
/// chunk where the runtime pipelines it (ratios up to 2.13), and the
/// mapped reduce is priced below the staged one although the simulator
/// times them alike at 2x4 (0.69).
constexpr double kLo = 0.6, kHi = 2.25;

const machine::MachineParams kProfiles[] = {
    machine::MachineParams::ibm_sp(), machine::MachineParams::modern_smp()};

CollKind kind_of(const std::string& op) {
  for (int k = 0; k < 8; ++k) {
    auto c = static_cast<CollKind>(k);
    if (op == coll::coll_name(c)) return c;
  }
  ADD_FAILURE() << "unknown op " << op;
  return CollKind::barrier;
}

/// One isolated call of @p op with @p d forced as its only table row and
/// single-copy on, on @p nodes x @p tasks (the IR's shape by default).
/// @p bytes is the decision-table key (sa::algo_cost).
double simulated(CollKind op, coll::Decision d, std::size_t bytes,
                 const machine::MachineParams& mp, int nodes = kNodes,
                 int tasks = kTasks) {
  SrmConfig cfg;
  cfg.decisions.set(op, 0, d);
  cfg.single_copy = true;
  bench::Bench b(bench::Impl::srm, nodes, tasks, cfg, mp);
  switch (op) {
    case CollKind::bcast: return b.time_bcast(bytes, 1);
    case CollKind::reduce: return b.time_reduce(bytes / 8, 1);
    case CollKind::allreduce: return b.time_allreduce(bytes / 8, 1);
    case CollKind::barrier: return b.time_barrier(1);
    case CollKind::scatter: return b.time_scatter(bytes / tasks, 1);
    case CollKind::gather: return b.time_gather(bytes / tasks, 1);
    case CollKind::allgather: return b.time_allgather(bytes, 1);
    case CollKind::reduce_scatter: return b.time_reduce_scatter(bytes, 1);
  }
  return 0.0;
}

// The op is a std::string, not a const char*: gtest prints a pointer
// parameter as its address, which would put a per-run value into the
// listed test names.
class ModelAccuracy
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {
};

TEST_P(ModelAccuracy, WithinEnvelope) {
  auto [name, bytes] = GetParam();
  CollKind op = kind_of(name);
  const SrmConfig cfg;
  for (const machine::MachineParams& mp : kProfiles) {
    for (const coll::Decision& d : sa::algo_menu(op)) {
      sa::AlgoCost c = sa::algo_cost(op, d, bytes, cfg, mp);
      if (!c.feasible) continue;
      double sa_us = c.ns / 1000.0;
      double sim_us = simulated(op, d, bytes, mp);
      double ratio = sa_us / sim_us;
      std::string what = name + " " + std::to_string(bytes) + " " +
                         mp.profile + " " + coll::algo_name(d.algo) +
                         (d.mapped ? "+sc" : "") +
                         " sa=" + std::to_string(sa_us) +
                         " sim=" + std::to_string(sim_us);
      EXPECT_GT(ratio, kLo) << what;
      EXPECT_LT(ratio, kHi) << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelAccuracy,
    ::testing::Values(
        std::tuple{std::string("bcast"), std::size_t{8}},
        std::tuple{std::string("bcast"), std::size_t{16384}},
        std::tuple{std::string("bcast"), std::size_t{1u << 20}},
        std::tuple{std::string("reduce"), std::size_t{8}},
        std::tuple{std::string("reduce"), std::size_t{1u << 20}},
        std::tuple{std::string("allreduce"), std::size_t{1024}},
        std::tuple{std::string("allreduce"), std::size_t{1u << 20}},
        std::tuple{std::string("barrier"), std::size_t{0}},
        std::tuple{std::string("scatter"), std::size_t{1024}},
        std::tuple{std::string("gather"), std::size_t{1024}},
        std::tuple{std::string("allgather"), std::size_t{1024}},
        std::tuple{std::string("reduce_scatter"), std::size_t{1024}}),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param));
    });

// The mapped root-free rows are not menu candidates (abl_model_validation
// prints the menu), but the table runs them: the socket-leader allgather
// (mc::Proto::sc_allgather, one ring and window per socket domain of the
// model's 4-task node, one on both profiles as on the simulated 2x4) and
// the allreduce whose allgather half it is must sit in the same envelope.
TEST(Model, SocketLeaderRowsWithinEnvelope) {
  const SrmConfig cfg;
  const coll::Decision ag{coll::Algo::direct, true};
  const coll::Decision ar{coll::Algo::direct, true, coll::TreeKind::binomial,
                          coll::TreeKind::chain};
  for (const machine::MachineParams& mp : kProfiles) {
    for (auto [op, d, bytes] :
         {std::tuple{CollKind::allgather, ag, std::size_t{1024}},
          std::tuple{CollKind::allgather, ag, std::size_t{64 * 1024}},
          std::tuple{CollKind::allreduce, ar, std::size_t{1u << 20}}}) {
      sa::AlgoCost c = sa::algo_cost(op, d, bytes, cfg, mp);
      ASSERT_TRUE(c.feasible);
      double ratio = c.ns / 1000.0 / simulated(op, d, bytes, mp);
      std::string what = std::string(coll::coll_name(op)) + " " +
                         std::to_string(bytes) + " " + mp.profile +
                         " ratio " + std::to_string(ratio);
      EXPECT_GT(ratio, kLo) << what;
      EXPECT_LT(ratio, kHi) << what;
    }
  }
}

// The root-free reduce_scatter's share form (a mapped flat row,
// mc::Proto::sc_reduce_scatter: every local streams its share of a step
// out of its mates' windows) and the allreduce whose first half it is sit
// in the same envelope, on both profiles, as does the chain form priced
// with the landing slots of a kTableNodes-node call.
TEST(Model, ShareFormRowsWithinEnvelope) {
  const SrmConfig cfg;
  const auto bin = coll::TreeKind::binomial;
  const coll::Decision shares{coll::Algo::direct, true, bin,
                              coll::TreeKind::flat};
  const coll::Decision chain{coll::Algo::direct, false, bin,
                             coll::TreeKind::chain};
  for (const machine::MachineParams& mp : kProfiles) {
    for (auto [op, d, bytes] :
         {std::tuple{CollKind::reduce_scatter, shares, std::size_t{1024}},
          std::tuple{CollKind::reduce_scatter, shares, std::size_t{8192}},
          std::tuple{CollKind::reduce_scatter, chain, std::size_t{1024}},
          std::tuple{CollKind::allreduce, shares, std::size_t{64 * 1024}},
          std::tuple{CollKind::allreduce, shares, std::size_t{1u << 20}}}) {
      sa::AlgoCost c = sa::algo_cost(op, d, bytes, cfg, mp);
      ASSERT_TRUE(c.feasible);
      double ratio = c.ns / 1000.0 / simulated(op, d, bytes, mp);
      std::string what = std::string(coll::coll_name(op)) + " " +
                         coll::tree_kind_name(d.intranode) + " " +
                         std::to_string(bytes) + " " + mp.profile +
                         " ratio " + std::to_string(ratio);
      EXPECT_GT(ratio, kLo) << what;
      EXPECT_LT(ratio, kHi) << what;
    }
  }
}

// sa ranks the two root-free allgather forms as the simulator does on the
// 2x4 modern_smp grid, one socket domain per node: the socket-leader form
// (its readers pull landed segments clean and the node's own segment from
// the locals that wrote it) against the node ring.
TEST(Model, RootFreeAllgatherFormsRankAsSimulated) {
  const SrmConfig cfg;
  const machine::MachineParams mp = machine::MachineParams::modern_smp();
  const coll::Decision mapped{coll::Algo::direct, true};
  const coll::Decision ring{coll::Algo::direct, false};
  for (std::size_t bytes : {std::size_t{1024}, std::size_t{64 * 1024}}) {
    double sa_mapped =
        sa::algo_cost(CollKind::allgather, mapped, bytes, cfg, mp).ns / 1e3;
    double sa_ring =
        sa::algo_cost(CollKind::allgather, ring, bytes, cfg, mp).ns / 1e3;
    double sim_mapped = simulated(CollKind::allgather, mapped, bytes, mp);
    double sim_ring = simulated(CollKind::allgather, ring, bytes, mp);
    EXPECT_EQ(sa_mapped < sa_ring, sim_mapped < sim_ring)
        << bytes << " B blocks: sa " << sa_mapped << " mapped, " << sa_ring
        << " ring; simulated " << sim_mapped << " mapped, " << sim_ring
        << " ring";
  }
}

// On a node whose four tasks span two sockets, sa and the simulator both
// run the socket-leader allgather over two domains: the cross-socket pulls
// of the assembly and two socket rings sharing the node's link. Its price
// stays in the envelope there. (sa does not rank it against the node ring
// on this shape as the simulator does: it prices the node ring's far-socket
// readers flat, DESIGN.md §16.)
TEST(Model, SocketLeaderAssemblyAcrossSocketsWithinEnvelope) {
  const SrmConfig cfg;
  machine::MachineParams mp = machine::MachineParams::modern_smp();
  mp.topo.cores_per_l3 = 2;
  mp.topo.l3_per_socket = 1;
  const coll::Decision mapped{coll::Algo::direct, true};
  for (std::size_t bytes : {std::size_t{1024}, std::size_t{64 * 1024}}) {
    sa::AlgoCost c = sa::algo_cost(CollKind::allgather, mapped, bytes, cfg, mp);
    ASSERT_TRUE(c.feasible);
    double ratio = c.ns / 1000.0 /
                   simulated(CollKind::allgather, mapped, bytes, mp);
    EXPECT_GT(ratio, kLo) << bytes << " B blocks, ratio " << ratio;
    EXPECT_LT(ratio, kHi) << bytes << " B blocks, ratio " << ratio;
  }
}

/// A grid cell where sa's cheapest pipeline chunk is not the simulator's
/// fastest (DESIGN.md §16). sa prices the 2x4 IR at every shape, so a
/// deeper tree's longer pipeline fill, which favours smaller chunks, is
/// invisible to it. On the binomial reduce and pipeline rows sa prices
/// 8 KiB steps cheapest at 32 KiB (reduce) and 64 KiB (8x16 allreduce),
/// where the simulator is fastest in 16 KiB steps.
struct ChunkMiss {
  CollKind op;
  const char* profile;
  int nodes, tasks;
  std::size_t bytes;
  std::size_t sa_chunk, sim_chunk;  // 0: the row's default step
};
constexpr ChunkMiss kChunkMisses[] = {
    {CollKind::bcast, "ibm_sp", 2, 4, 8 * 1024, 4 * 1024, 0},
    {CollKind::bcast, "ibm_sp", 8, 16, 16 * 1024, 8 * 1024, 4 * 1024},
    {CollKind::bcast, "ibm_sp", 8, 16, 32 * 1024, 16 * 1024, 8 * 1024},
    {CollKind::bcast, "ibm_sp", 8, 16, 64 * 1024, 16 * 1024, 8 * 1024},
    {CollKind::reduce, "modern_smp", 2, 4, 32 * 1024, 8 * 1024, 16 * 1024},
    {CollKind::reduce, "modern_smp", 8, 16, 32 * 1024, 8 * 1024, 16 * 1024},
    {CollKind::allreduce, "modern_smp", 8, 16, 64 * 1024, 8 * 1024,
     16 * 1024},
};

/// sa's cheapest and the simulator's fastest of @p chunks on @p base's row
/// for @p op at @p bytes, checked against kChunkMisses.
void expect_same_chunk(CollKind op, coll::Decision base, std::size_t bytes,
                       const std::vector<std::size_t>& chunks,
                       const machine::MachineParams& mp, int nodes,
                       int tasks) {
  std::size_t sa_best = 0, sim_best = 0;
  double sa_min = 0.0, sim_min = 0.0, sim_max = 0.0, sa_max = 0.0;
  bool first = true;
  for (std::size_t chunk : chunks) {
    coll::Decision d = base;
    d.chunk = chunk;
    sa::AlgoCost c = sa::algo_cost(op, d, bytes, SrmConfig{}, mp);
    ASSERT_TRUE(c.feasible);
    double sim_us = simulated(op, d, bytes, mp, nodes, tasks);
    if (first || c.ns < sa_min) {
      sa_best = chunk;
      sa_min = c.ns;
    }
    if (first || sim_us < sim_min) {
      sim_best = chunk;
      sim_min = sim_us;
    }
    sa_max = first ? c.ns : std::max(sa_max, c.ns);
    sim_max = first ? sim_us : std::max(sim_max, sim_us);
    first = false;
  }
  std::string cell = std::string(coll::coll_name(op)) + " " + mp.profile +
                     " " + std::to_string(nodes) + "x" +
                     std::to_string(tasks) + " " + std::to_string(bytes) +
                     " B: sa " + std::to_string(sa_best) + " (" +
                     std::to_string(sa_min / 1000.0) + " us), sim " +
                     std::to_string(sim_best) + " (" +
                     std::to_string(sim_min) + " us)";
  // Both sides read the column: the chunks do not all cost the same.
  EXPECT_GT(sa_max, sa_min) << cell;
  EXPECT_GT(sim_max, sim_min) << cell;
  const ChunkMiss* miss = nullptr;
  for (const ChunkMiss& m : kChunkMisses) {
    if (m.op == op && std::string_view(mp.profile) == m.profile &&
        nodes == m.nodes && tasks == m.tasks && bytes == m.bytes) {
      miss = &m;
    }
  }
  if (miss == nullptr) {
    EXPECT_EQ(sa_best, sim_best) << cell;
  } else {
    EXPECT_EQ(sa_best, miss->sa_chunk) << cell;
    EXPECT_EQ(sim_best, miss->sim_chunk) << cell;
  }
}

TEST(Model, RanksPipelineChunkChoices) {
  // The tuning use case the paper's §5 names: the model picks a row's
  // pipeline chunk. On a grid of sizes, profiles and shapes its cheapest
  // chunk must be the simulator's fastest, except at the named misses
  // above. The staged broadcast's chunk (0: one step) on both profiles:
  for (const machine::MachineParams& mp : kProfiles) {
    for (auto [nodes, tasks] : {std::pair{2, 4}, std::pair{8, 16}}) {
      for (std::size_t bytes : {8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024}) {
        std::vector<std::size_t> chunks;
        for (std::size_t kib : {0, 1, 2, 4, 8, 16, 32}) {
          if (kib * 1024 < bytes) chunks.push_back(kib * 1024);
        }
        expect_same_chunk(CollKind::bcast, {}, bytes, chunks, mp, nodes,
                          tasks);
      }
    }
  }
  // The reduce's and the pipelined allreduce's step, up to one
  // reduce_chunk slot, on modern_smp:
  const machine::MachineParams smp = machine::MachineParams::modern_smp();
  const std::vector<std::size_t> steps = {4 * 1024, 8 * 1024, 16 * 1024};
  for (auto [nodes, tasks] : {std::pair{2, 4}, std::pair{8, 16}}) {
    for (std::size_t bytes :
         {32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024}) {
      expect_same_chunk(CollKind::reduce, {coll::Algo::staged}, bytes, steps,
                        smp, nodes, tasks);
      expect_same_chunk(CollKind::allreduce, {coll::Algo::pipeline}, bytes,
                        steps, smp, nodes, tasks);
    }
  }
}

TEST(Model, PredictsFatNodeAdvantage) {
  // Eight ranks as one fat node beat two thin ones: shared memory replaces
  // the network hop. The IR prices both shapes directly.
  const machine::MachineParams mp = machine::MachineParams::ibm_sp();
  auto priced = [&](mc::Proto p, mc::Shape sh, double bytes) {
    sa::Plan plan;
    plan.default_unit = bytes / sh.tasks;
    return sa::analyze(mc::build(p, sh), plan, sa::CostRates::from(mp)).ns;
  };
  auto sim = [&](int nodes, int tasks, bool barrier) {
    bench::Bench b(bench::Impl::srm, nodes, tasks, {}, mp);
    return barrier ? b.time_barrier(1) : b.time_bcast(1024, 1);
  };
  EXPECT_LT(priced(mc::Proto::barrier, {1, 8, 1}, 0),
            priced(mc::Proto::barrier, {2, 4, 1}, 0));
  EXPECT_LT(priced(mc::Proto::bcast, {1, 8, 1}, 1024),
            priced(mc::Proto::bcast, {2, 4, 1}, 1024));
  EXPECT_LT(sim(1, 8, true), sim(2, 4, true));
  EXPECT_LT(sim(1, 8, false), sim(2, 4, false));
}

TEST(Model, MonotoneInSize) {
  const SrmConfig cfg;
  const machine::MachineParams mp = machine::MachineParams::ibm_sp();
  const coll::DecisionTable table = coll::DecisionTable::ibm_sp();
  auto cost = [&](CollKind op, std::size_t bytes) {
    sa::AlgoCost c =
        sa::algo_cost(op, table.decide(op, bytes), bytes, cfg, mp);
    EXPECT_TRUE(c.feasible) << coll::coll_name(op) << " " << bytes;
    return c.ns;
  };
  EXPECT_LT(cost(CollKind::bcast, 64), cost(CollKind::bcast, 65536));
  EXPECT_LT(cost(CollKind::bcast, 65536), cost(CollKind::bcast, 8u << 20));
  EXPECT_LT(cost(CollKind::reduce, 64), cost(CollKind::reduce, 8u << 20));
}

}  // namespace
}  // namespace srm
