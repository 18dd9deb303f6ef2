// Analytical model vs simulation: the model must track the simulated
// latencies within a documented envelope across sizes and machine shapes —
// tight enough to rank configurations when tuning switch points.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "bench/harness.hpp"
#include "model/model.hpp"

namespace srm::model {
namespace {

double simulated(bench::Impl impl, int nodes, int ppn, const std::string& op,
                 std::size_t bytes) {
  bench::Bench b(impl, nodes, ppn);
  if (op == "bcast") return b.time_bcast(bytes, 1);
  if (op == "reduce") return b.time_reduce(bytes / 8, 1);
  if (op == "allreduce") return b.time_allreduce(bytes / 8, 1);
  return b.time_barrier(1);
}

double predicted(int nodes, int ppn, const std::string& op, std::size_t bytes) {
  Inputs in;
  in.nodes = nodes;
  in.tasks_per_node = ppn;
  if (op == "bcast") return bcast_us(in, bytes);
  if (op == "reduce") return reduce_us(in, bytes);
  if (op == "allreduce") return allreduce_us(in, bytes);
  return barrier_us(in);
}

// The op is a std::string, not a const char*: gtest prints a pointer
// parameter as its address, which would put a per-run value into the
// listed test names.
class ModelAccuracy
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {
};

TEST_P(ModelAccuracy, WithinEnvelope) {
  auto [op, bytes] = GetParam();
  for (auto [nodes, ppn] : {std::pair{4, 16}, std::pair{16, 16},
                            std::pair{8, 4}}) {
    double sim_us = simulated(bench::Impl::srm, nodes, ppn, op, bytes);
    double mdl_us = predicted(nodes, ppn, op, bytes);
    double ratio = mdl_us / sim_us;
    EXPECT_GT(ratio, 0.4) << op << " " << bytes << " n" << nodes << "x"
                          << ppn << " sim=" << sim_us << " mdl=" << mdl_us;
    EXPECT_LT(ratio, 2.5) << op << " " << bytes << " n" << nodes << "x"
                          << ppn << " sim=" << sim_us << " mdl=" << mdl_us;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelAccuracy,
    ::testing::Values(std::tuple{std::string("bcast"), std::size_t{8}},
                      std::tuple{std::string("bcast"), std::size_t{16384}},
                      std::tuple{std::string("bcast"), std::size_t{1u << 20}},
                      std::tuple{std::string("reduce"), std::size_t{8}},
                      std::tuple{std::string("reduce"), std::size_t{1u << 20}},
                      std::tuple{std::string("allreduce"), std::size_t{1024}},
                      std::tuple{std::string("allreduce"),
                                 std::size_t{1u << 20}},
                      std::tuple{std::string("barrier"), std::size_t{0}}),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Model, RanksPipelineChunkChoices) {
  // The tuning use case: the model must *rank* the 4 KB pipeline chunk above
  // clearly bad extremes for a 16 KB broadcast, as the paper found.
  Inputs in;
  in.nodes = 16;
  in.tasks_per_node = 16;
  auto with_chunk = [&](std::size_t c) {
    Inputs i = in;
    i.cfg.bcast_pipe_chunk = c;
    return bcast_us(i, 16384);
  };
  double best = with_chunk(4096);
  EXPECT_LT(best, with_chunk(256));    // too-fine chunks: per-chunk overhead
  EXPECT_LT(best, with_chunk(16384));  // no pipelining at all
}

TEST(Model, PredictsFatNodeAdvantage) {
  Inputs fat, thin;
  fat.nodes = 16;
  fat.tasks_per_node = 16;
  thin.nodes = 128;
  thin.tasks_per_node = 2;
  EXPECT_LT(bcast_us(fat, 1024), bcast_us(thin, 1024));
  EXPECT_LT(barrier_us(fat), barrier_us(thin));
}

TEST(Model, MonotoneInSize) {
  Inputs in;
  in.nodes = 16;
  in.tasks_per_node = 16;
  EXPECT_LT(bcast_us(in, 64), bcast_us(in, 65536));
  EXPECT_LT(bcast_us(in, 65536), bcast_us(in, 8u << 20));
  EXPECT_LT(reduce_us(in, 64), reduce_us(in, 8u << 20));
}

}  // namespace
}  // namespace srm::model
