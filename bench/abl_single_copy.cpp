// Ablation (ROADMAP item 2): staged two-copy SMP protocols (Fig. 2/3) vs
// the single-copy cross-mapped variants (SrmConfig::single_copy), on the
// paper's uniform 16-way node (ibm_sp) and on the NUMA-ish modern_smp
// profile where the topology tree and coherence-aware copy costs matter.
//
// The mapped runs set the mapped column on every row of the profile's
// table so the whole sweep takes the mapped path: the small-message rows
// then show the publish/attach handshake overhead losing to the staged
// protocol, and the crossover to the single-copy win is visible inside one
// table. Run with --smoke for a two-size CI sanity pass (one small, one
// large).
#include <cstdio>
#include <cstring>

#include "bench/harness.hpp"
#include "util/format.hpp"

using namespace srm;
using namespace srm::bench;

namespace {

struct Setup {
  const char* label;
  bool mapped;
  machine::MachineParams params;
};

SrmConfig cfg_for(const Setup& s) {
  SrmConfig cfg;
  cfg.single_copy = s.mapped;
  if (s.mapped) {  // whole sweep through the mapped path
    cfg.decisions = *coll::DecisionTable::builtin(s.params.profile);
    cfg.decisions.for_each_decision([](coll::Decision& d) { d.mapped = true; });
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("Ablation: staged vs single-copy intra-node protocols "
              "(single 16-way node)%s\n", smoke ? " [smoke]" : "");
  std::vector<std::size_t> sizes = {4096, 16384, 65536, 262144, 1u << 20};
  if (smoke) sizes = {4096, 1u << 20};

  const std::vector<Setup> setups = {
      {"ibm/staged", false, machine::MachineParams::ibm_sp()},
      {"ibm/mapped", true, machine::MachineParams::ibm_sp()},
      {"smp/staged", false, machine::MachineParams::modern_smp()},
      {"smp/mapped", true, machine::MachineParams::modern_smp()},
  };
  std::vector<std::string> cols;
  for (const Setup& s : setups) cols.emplace_back(s.label);
  std::vector<std::string> rows;
  for (auto s : sizes) rows.push_back(util::human_bytes(s));

  auto sweep = [&](const char* title,
                   double (Bench::*op)(std::size_t, int), bool doubles) {
    std::vector<std::vector<double>> cells(
        sizes.size(), std::vector<double>(setups.size(), 0.0));
    for (std::size_t ci = 0; ci < setups.size(); ++ci) {
      for (std::size_t si = 0; si < sizes.size(); ++si) {
        Bench b(Impl::srm, 1, 16, cfg_for(setups[ci]), setups[ci].params);
        std::size_t arg = doubles ? sizes[si] / 8 : sizes[si];
        cells[si][ci] = (b.*op)(arg, iters_for(sizes[si]));
      }
    }
    print_table(title, "bytes", rows, cols, cells, "us");
  };

  sweep("broadcast: staged (Fig. 3) vs single-copy window", &Bench::time_bcast,
        false);
  sweep("reduce: staged (Fig. 2) vs single-copy window", &Bench::time_reduce,
        true);
  sweep("allreduce (pipelined above the eager threshold)",
        &Bench::time_allreduce, true);
  return 0;
}
