// SrmConfig: the buffer and chunk sizes of the SRM protocols, their
// ablation switches, and the one feasibility rule that says which
// decision-table rows those buffers can carry. The protocol switch points
// themselves (staged/direct, rd/pipeline, mapped, inter-node and intra-node
// trees) and the pipeline chunks (the staged broadcast's §2.4 band and
// chunk, the reduce's and the pipelined allreduce's step) live in the
// decision table, not here.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>

#include "coll/decision.hpp"

namespace srm {

struct SrmConfig {
  /// Algorithm-selection table: the only place an algorithm, a tree or the
  /// mapped path is chosen. Empty (the default) means the Communicator
  /// resolves one at construction: the SRM_DECISIONS env var if set (a tuner
  /// JSON artifact), else the builtin table for the machine profile.
  /// Whichever source wins is used verbatim; a non-empty table here wins
  /// over both (tests, ablations and the tuner forcing a path).
  coll::DecisionTable decisions;
  /// Size of each of the two shared-memory broadcast buffers A/B (Fig. 3):
  /// the largest step a staged broadcast moves (its row's chunk, or the
  /// whole message when the row does not pipeline).
  std::size_t smp_buf_bytes = 64 * 1024;

  /// Chunk size of the large-message broadcast / SMP publish pipeline.
  std::size_t bcast_net_chunk = 64 * 1024;

  /// Size of each reduce pipeline slot (intra-node slots and inter-node
  /// landing zones): the default step of a reduce or pipelined-allreduce
  /// row whose chunk is 0, and the cap on any row's chunk (sanitize). Also
  /// the step of the ring and recursive-halving allreduces, the size of
  /// each recursive-doubling exchange slot, and the band of reduces that
  /// run with interrupts off (§2.3).
  std::size_t reduce_chunk = 16 * 1024;

  /// Single-copy cross-mapped intra-node protocols (shm::Mapping): calls
  /// whose decision-table row has the mapped column set export user-buffer
  /// windows and copy/combine directly across address spaces over the
  /// topology tree (machine::TopologyParams), skipping the staged Fig. 2/3
  /// buffers. This is the master enable: the mapped column only takes effect
  /// when it is set. Off by default: the paper-faithful 2-copy path is the
  /// baseline and stays ablatable.
  bool single_copy = false;

  /// Ablation: use a single shared buffer instead of the A/B pair
  /// (disables the two-stage pipeline of Fig. 3).
  bool use_two_buffers = true;

  /// Ablation: tree-structured shared-memory broadcast instead of the flat
  /// two-buffer algorithm the paper found fastest (§2.2).
  bool smp_bcast_tree = false;

  /// Disable interrupts on entry to small-message collectives and re-enable
  /// on exit (§2.3). Turning this off leaves interrupts always enabled.
  bool manage_interrupts = true;

  /// Largest step @p algo can move for @p op with these buffers: a staged
  /// bcast moves one Fig. 3 buffer per step; an rd allreduce moves the
  /// whole vector through one exchange slot and publishes the result
  /// through one Fig. 3 buffer. Every other pairing is unbounded.
  std::size_t max_bytes(coll::CollKind op, coll::Algo algo) const {
    if (op == coll::CollKind::bcast && algo == coll::Algo::staged) {
      return smp_buf_bytes;
    }
    if (op == coll::CollKind::allreduce && algo == coll::Algo::rd) {
      return std::min(reduce_chunk, smp_buf_bytes);
    }
    return std::numeric_limits<std::size_t>::max();
  }

  /// The feasibility rule of dispatch: the decision @p d a table row names
  /// for @p op at @p bytes, rerouted to the op's paper path (direct bcast,
  /// pipelined allreduce, staged everything else) when its algorithm does
  /// not implement the op or one step of it cannot carry its bytes
  /// (max_bytes). A step is the whole message, except on a staged bcast
  /// row with a chunk, which carries any size in chunk-sized steps.
  /// reduce_scatter and allgather implement staged (reduce + scatter,
  /// gather + bcast) and direct (the root-free protocols); allreduce also
  /// implements direct. A reduce, pipelined or direct allreduce, or direct
  /// reduce_scatter row whose chunk exceeds one reduce_chunk slot keeps
  /// its algorithm and falls back to chunk 0, the paper's step. Dispatch,
  /// the static analyzer and the tuners all ask this one function.
  coll::Decision sanitize(coll::CollKind op, coll::Decision d,
                          std::size_t bytes) const {
    using coll::Algo;
    Algo paper = Algo::staged;
    bool implemented = d.algo == Algo::staged;
    std::size_t step = bytes;
    if (op == coll::CollKind::bcast) {
      paper = Algo::direct;
      implemented = d.algo == Algo::staged || d.algo == Algo::direct ||
                    d.algo == Algo::scatter_ag;
      if (d.algo == Algo::staged) step = coll::bcast_step(d.chunk, bytes);
    } else if (op == coll::CollKind::allreduce) {
      paper = Algo::pipeline;
      implemented = d.algo == Algo::rd || d.algo == Algo::pipeline ||
                    d.algo == Algo::ring || d.algo == Algo::rhalving ||
                    d.algo == Algo::direct;
    } else if (op == coll::CollKind::reduce_scatter ||
               op == coll::CollKind::allgather) {
      implemented = d.algo == Algo::staged || d.algo == Algo::direct;
    }
    if (!implemented || step > max_bytes(op, d.algo)) d.algo = paper;
    bool reduce_pipeline =
        op == coll::CollKind::reduce ||
        (op == coll::CollKind::allreduce &&
         (d.algo == Algo::pipeline || d.algo == Algo::direct)) ||
        (op == coll::CollKind::reduce_scatter && d.algo == Algo::direct);
    if (reduce_pipeline && d.chunk > reduce_chunk) d.chunk = 0;
    return d;
  }
};

}  // namespace srm
