// Ablation (§2.1): inter-node tree type. The paper implemented binomial,
// binary, and Fibonacci trees and found binomial best for inter-node
// communication on the SP. Reproduced for broadcast and reduce on 256 CPUs.
#include <cstdio>

#include "bench/harness.hpp"
#include "util/format.hpp"

using namespace srm;
using namespace srm::bench;

int main() {
  std::printf("Ablation: inter-node tree type (256 CPUs, 16 nodes x 16)\n");
  std::vector<std::size_t> sizes = {8, 1024, 16384, 65536, 1u << 20};
  std::vector<coll::TreeKind> kinds = {coll::TreeKind::binomial,
                                       coll::TreeKind::binary,
                                       coll::TreeKind::fibonacci};
  std::vector<std::string> rows, cols;
  for (auto s : sizes) rows.push_back(util::human_bytes(s));
  for (auto k : kinds) cols.push_back(coll::tree_kind_name(k));

  for (const char* op : {"broadcast", "reduce"}) {
    std::vector<std::vector<double>> cells(sizes.size(),
                                           std::vector<double>(kinds.size()));
    for (std::size_t ki = 0; ki < kinds.size(); ++ki) {
      for (std::size_t si = 0; si < sizes.size(); ++si) {
        // The paper's table with every row's inter-node tree replaced.
        SrmConfig cfg;
        cfg.decisions = coll::DecisionTable::ibm_sp();
        cfg.decisions.for_each_decision(
            [kind = kinds[ki]](coll::Decision& d) { d.internode = kind; });
        Bench b(Impl::srm, 16, 16, cfg);
        cells[si][ki] = op[0] == 'b'
                            ? b.time_bcast(sizes[si], iters_for(sizes[si]))
                            : b.time_reduce(sizes[si] / 8,
                                            iters_for(sizes[si]));
      }
    }
    print_table(std::string("SRM ") + op + " by inter-node tree", "bytes",
                rows, cols, cells, "us");
  }
  return 0;
}
