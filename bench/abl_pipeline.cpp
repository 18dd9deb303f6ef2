// Ablation (§2.4): broadcast pipelining parameters.
//  (a) chunk size for the 8-32 KB pipeline band (paper picked 4 KB);
//  (b) the small/large protocol switch point (paper picked 64 KB).
#include <cstdio>

#include "bench/harness.hpp"
#include "util/format.hpp"

using namespace srm;
using namespace srm::bench;

int main() {
  std::printf("Ablation: broadcast pipeline tuning (256 CPUs)\n");

  {
    std::vector<std::size_t> sizes = {10240, 16384, 24576, 32768};
    std::vector<std::size_t> chunks = {1024, 2048, 4096, 8192, 32768};
    std::vector<std::string> rows, cols;
    for (auto s : sizes) rows.push_back(util::human_bytes(s));
    for (auto c : chunks) {
      cols.push_back(c >= 32768 ? "off" : util::human_bytes(c));
    }
    std::vector<std::vector<double>> cells(sizes.size(),
                                           std::vector<double>(chunks.size()));
    for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
      for (std::size_t si = 0; si < sizes.size(); ++si) {
        SrmConfig cfg;
        cfg.bcast_pipe_chunk = chunks[ci];
        Bench b(Impl::srm, 16, 16, cfg);
        cells[si][ci] = b.time_bcast(sizes[si], 4);
      }
    }
    print_table("(a) pipeline chunk size, 8-32KB band", "bytes", rows, cols,
                cells, "us");
  }

  {
    std::vector<std::size_t> sizes = {32768, 65536, 131072, 262144};
    std::vector<std::size_t> switches = {16384, 65536, 262144};
    std::vector<std::string> rows, cols;
    for (auto s : sizes) rows.push_back(util::human_bytes(s));
    for (auto s : switches) cols.push_back("sw=" + util::human_bytes(s));
    std::vector<std::vector<double>> cells(
        sizes.size(), std::vector<double>(switches.size()));
    for (std::size_t ci = 0; ci < switches.size(); ++ci) {
      for (std::size_t si = 0; si < sizes.size(); ++si) {
        // Staged up to the switch, direct beyond, and shared buffers large
        // enough to stage the switch size.
        SrmConfig cfg;
        cfg.smp_buf_bytes = std::max(cfg.smp_buf_bytes, switches[ci]);
        cfg.decisions.set(coll::CollKind::bcast, 0, {});
        cfg.decisions.set(coll::CollKind::bcast, switches[ci] + 1,
                          {coll::Algo::direct, false, coll::TreeKind::binomial});
        Bench b(Impl::srm, 16, 16, cfg);
        cells[si][ci] = b.time_bcast(sizes[si], iters_for(sizes[si]));
      }
    }
    print_table("(b) small/large protocol switch point", "bytes", rows, cols,
                cells, "us");
  }
  return 0;
}
