// Analytical-model validation (§5 future work): the static analyzer's cost
// model (sa::algo_cost, priced from the mc protocol IR) against one
// isolated simulated call, for every candidate of sa::algo_menu on the
// 2-node x 4-task shape the IR models, on both machine profiles.
//
// Each candidate is forced as its op's only decision-table row, with
// single-copy on, so the simulated call runs exactly the priced algorithm.
// bytes is what sa::algo_cost takes (sa/dominance.hpp): the node block for
// scatter and gather, the per-rank block for allgather and reduce_scatter,
// the message for the rest.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "sa/dominance.hpp"
#include "util/format.hpp"

using namespace srm;
using namespace srm::bench;
using coll::CollKind;

namespace {

constexpr int kNodes = 2, kTasks = 4;

double simulated(CollKind op, coll::Decision d, std::size_t bytes,
                 const machine::MachineParams& mp) {
  SrmConfig cfg;
  cfg.decisions.set(op, 0, d);
  cfg.single_copy = true;
  Bench b(Impl::srm, kNodes, kTasks, cfg, mp);
  switch (op) {
    case CollKind::bcast: return b.time_bcast(bytes, 1);
    case CollKind::reduce: return b.time_reduce(bytes / 8, 1);
    case CollKind::allreduce: return b.time_allreduce(bytes / 8, 1);
    case CollKind::barrier: return b.time_barrier(1);
    case CollKind::scatter: return b.time_scatter(bytes / kTasks, 1);
    case CollKind::gather: return b.time_gather(bytes / kTasks, 1);
    case CollKind::allgather: return b.time_allgather(bytes, 1);
    case CollKind::reduce_scatter: return b.time_reduce_scatter(bytes, 1);
  }
  return 0.0;
}

}  // namespace

int main() {
  std::printf(
      "Static-analyzer cost model (sa::algo_cost) vs discrete-event "
      "simulation, %d nodes x %d tasks, one isolated call\n",
      kNodes, kTasks);
  struct Row {
    CollKind op;
    std::size_t bytes;
  };
  const std::vector<Row> grid = {
      {CollKind::bcast, 8},           {CollKind::bcast, 16384},
      {CollKind::bcast, 1u << 20},    {CollKind::reduce, 8},
      {CollKind::reduce, 1u << 20},   {CollKind::allreduce, 1024},
      {CollKind::allreduce, 1u << 20}, {CollKind::barrier, 0},
      {CollKind::scatter, 1024},      {CollKind::gather, 1024},
      {CollKind::allgather, 1024},    {CollKind::reduce_scatter, 1024},
  };
  const SrmConfig cfg;
  for (const machine::MachineParams& mp :
       {machine::MachineParams::ibm_sp(),
        machine::MachineParams::modern_smp()}) {
    std::printf("\n-- %s --\n", mp.profile);
    std::printf("%-15s %-13s %10s %12s %12s %8s\n", "op", "candidate",
                "bytes", "sa(us)", "sim(us)", "ratio");
    for (auto [op, bytes] : grid) {
      for (const coll::Decision& d : sa::algo_menu(op)) {
        sa::AlgoCost c = sa::algo_cost(op, d, bytes, cfg, mp);
        if (!c.feasible) continue;
        double sa_us = c.ns / 1000.0;
        double sim_us = simulated(op, d, bytes, mp);
        std::string cand = coll::algo_name(d.algo);
        if (d.mapped) cand += "+sc";
        std::printf("%-15s %-13s %10s %12s %12s %7.2fx\n",
                    coll::coll_name(op), cand.c_str(),
                    util::human_bytes(bytes).c_str(),
                    util::fmt_us(sa_us).c_str(), util::fmt_us(sim_us).c_str(),
                    sa_us / sim_us);
      }
    }
  }
  return 0;
}
