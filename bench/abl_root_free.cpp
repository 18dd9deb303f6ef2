// Ablation: the root-free rows of modern_smp() at their tuned shape.
//
// DecisionTable::modern_smp() runs allreduce, allgather and reduce_scatter
// root-free over most of their range (core/allreduce.cpp,
// core/gather_scatter.cpp, core/reduce_scatter.cpp). This program times
// those rows on the 8x16 modern_smp cluster the table was tuned on, with
// single-copy on and the builtin table, as perfbench's smp_tuned runs
// them: allreduce from 16 KiB to 2 MiB, and allgather and reduce_scatter
// per-rank blocks from 64 B to 16 KiB. The allreduce from 1 to 2 MiB and
// the reduce_scatter are also timed with single-copy off, the SrmConfig
// default, where a mapped row runs unmapped. Each cell is timed back to
// back (the harness's average over iters_for calls) and as one isolated
// call (perfbench's methodology). The row column names the algorithm the
// dispatch ran, then its intra-node tree where that is not binomial (the
// domain tree of a root-free row: a flat one runs the share form mapped
// and the chain unmapped, so it reads "chain" with single-copy off), and
// "+sc" when the row is mapped. Run with --smoke for two sizes per op.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "coll/decision.hpp"
#include "util/format.hpp"

using namespace srm;
using namespace srm::bench;

namespace {

constexpr int kNodes = 8;
constexpr int kTpn = 16;

/// The row dispatch resolves for @p op at @p bytes per call argument, and
/// the form it runs.
std::string row_of(coll::CollKind op, std::size_t bytes, bool single_copy) {
  const coll::DecisionTable& t = *coll::DecisionTable::builtin("modern_smp");
  std::size_t key = coll::row_key(op, bytes, kTpn);
  coll::Decision d = SrmConfig{}.sanitize(op, t.decide(op, key), key);
  bool mapped = d.mapped && single_copy;
  coll::TreeKind tree = d.intranode;
  if (d.algo == coll::Algo::direct && tree == coll::TreeKind::flat &&
      !mapped) {
    tree = coll::TreeKind::chain;
  }
  std::string s = coll::algo_name(d.algo);
  if (tree != coll::TreeKind::binomial) {
    s += std::string("+") + coll::tree_kind_name(tree);
  }
  return s + (mapped ? "+sc" : "");
}

double time_op(coll::CollKind op, std::size_t bytes, int iters,
               bool single_copy) {
  SrmConfig cfg;
  cfg.single_copy = single_copy;
  Bench b(Impl::srm, kNodes, kTpn, cfg,
          machine::MachineParams::modern_smp());
  switch (op) {
    case coll::CollKind::allreduce:
      return b.time_allreduce(bytes / 8, iters);
    case coll::CollKind::allgather:
      return b.time_allgather(bytes, iters);
    default:
      return b.time_reduce_scatter(bytes, iters);
  }
}

void sweep(const char* title, coll::CollKind op,
           const std::vector<std::size_t>& sizes, bool single_copy = true) {
  std::printf("\n== %s (us) ==\n", title);
  std::printf("%8s %-20s %12s %12s\n", "bytes", "row", "b2b", "isolated");
  for (std::size_t s : sizes) {
    double b2b = time_op(op, s, iters_for(s), single_copy);
    double iso = time_op(op, s, 1, single_copy);
    std::printf("%8s %-20s %12s %12s\n", util::human_bytes(s).c_str(),
                row_of(op, s, single_copy).c_str(), util::fmt_us(b2b).c_str(),
                util::fmt_us(iso).c_str());
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("Ablation: root-free rows of modern_smp() on %dx%d, "
              "single-copy on, builtin table%s\n",
              kNodes, kTpn, smoke ? " [smoke]" : "");
  std::vector<std::size_t> vec = {16 * 1024,  32 * 1024,   64 * 1024,
                                  128 * 1024, 256 * 1024,  512 * 1024,
                                  1u << 20,   3u << 19,    2u << 20};
  std::vector<std::size_t> off = {1u << 20, 3u << 19, 2u << 20};
  std::vector<std::size_t> blocks;
  for (std::size_t b = 64; b <= 16 * 1024; b *= 2) blocks.push_back(b);
  if (smoke) {
    vec = {64 * 1024, 1u << 20};
    off = {1u << 20};
    blocks = {64, 8 * 1024};
  }
  sweep("allreduce, whole vector", coll::CollKind::allreduce, vec);
  sweep("allreduce, whole vector, single-copy off",
        coll::CollKind::allreduce, off, /*single_copy=*/false);
  sweep("allgather, per-rank block", coll::CollKind::allgather, blocks);
  sweep("reduce_scatter, per-rank block", coll::CollKind::reduce_scatter,
        blocks);
  sweep("reduce_scatter, per-rank block, single-copy off",
        coll::CollKind::reduce_scatter, blocks, /*single_copy=*/false);
  return 0;
}
