// srm::sa — pass (3): decision-table dominance checking.
//
// A DecisionTable row is *dominated* when, at its own min_bytes, some other
// algorithm from the operation's menu would be decisively cheaper under the
// pass-(1) cost model. check_table() proves every row of a table
// non-dominated for a machine profile; crossovers() computes the analytic
// switch points the same model implies, which sa_verify cross-validates
// against the paper's constants (64 KB bcast protocol switch, 16 KB
// allreduce recursive-doubling cap) and against the empirical tuner's
// artifact (bench/tune --out).
//
// The cost of an algorithm at B bytes is the pass-(1) analysis of its IR
// model on the canonical 2-node x 4-task shape, with a Plan scaling model
// bytes to B. Two algorithms have no IR among the eighteen protocol models
// and are synthesized here: the direct (address-exchange) broadcast, and
// the pipelined allreduce as the documented fill+drain composite
// reduce(B) + one-chunk broadcast tail (core/allreduce.cpp overlaps the
// broadcast of chunk c with the reduction of chunk c+1, so the drain is one
// chunk, not a second full message).
//
// The model is a 2-node shape and the builtin tables are tuned for larger
// machines, so dominance uses a deliberate slack (kSlackRel / kSlackAbs): a
// row only fails when the chosen algorithm is decisively worse than an
// alternative, not when two algorithms trade within model error.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "coll/decision.hpp"
#include "core/config.hpp"
#include "machine/params.hpp"
#include "sa/cost.hpp"

namespace srm::sa {

/// Dominance is Pareto over the axes a decision table actually trades:
/// single-call latency, aggregate node bus traffic
/// (AnalyzeResult::bus_bytes), and robustness at the table's native node
/// count. The chosen algorithm of a row is dominated only when some
/// alternative is decisively faster on the 2-node model
///   chosen_ns > alt_ns * kSlackRel + kSlackAbs,
/// still decisively faster once both costs carry the closed-form
/// extrapolations to the 8-node x 16-task tuning scale (LogGP root-link
/// bytes and serial rounds — scale_extra in dominance.cpp — and, for a
/// reduce, the combines its intra-node tree root adds at 16 tasks —
/// tasks_extra), AND the chosen one does not buy a real traffic saving in
/// exchange
///   chosen_bus >= alt_bus * kBusSave.
/// The bus axis is what justifies the single-copy rows: on a full 16-way
/// node the fair-share memory bus saturates (16 x 550 MB/s >> 4 GB/s on
/// the SP), so halving total bytes moved wins even where the uncontended
/// 4-task critical path loses. The node-count axis is what justifies the
/// scatter+allgather and recursive-halving rows: a binomial tree pushes
/// log2(N) full copies through the root's link where an exchange stays at
/// ~2B(N-1)/N, invisible in any 2-node comparison. The tasks-per-node axis
/// is what justifies a binary intra-node reduce tree: its root combines 2
/// children per chunk where a 16-way binomial root combines 4, invisible
/// in the 4-task model, whose every tree root combines 2.
inline constexpr double kSlackRel = 1.35;
inline constexpr double kSlackAbs = 3000.0;  // ns
inline constexpr double kBusSave = 0.90;     // >=10% traffic saving excuses

/// Cost of one (algorithm, mapped) candidate at @p bytes.
struct AlgoCost {
  coll::Algo algo = coll::Algo::staged;
  bool mapped = false;
  bool feasible = false;  ///< false: decide() would never dispatch this here
  double ns = 0.0;
  double bus_bytes = 0.0;
  Formula formula;
};

/// One dominated row.
struct DominanceIssue {
  coll::CollKind op = coll::CollKind::bcast;
  std::size_t min_bytes = 0;
  coll::Decision chosen;
  coll::Decision better;
  double chosen_ns = 0.0;
  double better_ns = 0.0;
  double chosen_bus = 0.0;
  double better_bus = 0.0;
};

/// One analytic switch point: above @p bytes the winner changes.
struct Crossover {
  coll::CollKind op = coll::CollKind::bcast;
  coll::Decision from;
  coll::Decision to;
  std::size_t bytes = 0;       ///< last byte count where `from` still wins
  bool feasibility = false;    ///< the flip is a feasibility cap, not a
                               ///< cost intersection
};

struct DominanceReport {
  std::vector<DominanceIssue> issues;   ///< empty == table proven clean
  std::vector<Crossover> crossovers;    ///< bcast + allreduce switch points
};

/// The candidate menu of an operation: every (algo, mapped) pair decide()
/// can actually dispatch for it.
std::vector<coll::Decision> algo_menu(coll::CollKind op);

/// Evaluate one candidate at @p bytes. Infeasible candidates
/// (SrmConfig::sanitize would reroute them) come back with feasible ==
/// false. @p bytes is the node block (tasks per node x per-rank block) for
/// scatter and gather, as their rows are keyed; the per-rank block for
/// allgather and reduce_scatter (a reduce_scatter row is keyed on the node
/// segment, which check_table divides back); and the message for the rest.
AlgoCost algo_cost(coll::CollKind op, coll::Decision d, std::size_t bytes,
                   const SrmConfig& cfg,
                   const machine::MachineParams& mp);

/// @p c (algo_cost of @p d at @p bytes) extrapolated to the shape the
/// builtin tables were tuned at, 8 nodes x 16 tasks: the 2 x 4 model's
/// cost plus the closed-form node and task terms check_table() judges a
/// row by at scale.
double scaled_ns(coll::CollKind op, const coll::Decision& d,
                 const AlgoCost& c, std::size_t bytes, const SrmConfig& cfg,
                 const machine::MachineParams& mp);

/// Prove every row of @p t non-dominated at its min_bytes and compute the
/// analytic crossovers for bcast and allreduce.
DominanceReport check_table(const coll::DecisionTable& t,
                            const SrmConfig& cfg,
                            const machine::MachineParams& mp);

/// Analytic switch points for one operation on a x2 grid from 64 B to 4 MB,
/// feasibility caps reported exactly, cost intersections refined by
/// bisection to the last byte count where the previous winner still wins.
/// The candidates are @p menu, or the op's algo_menu() when it is empty
/// (a subset asks where the paper's own protocols switch).
std::vector<Crossover> crossovers(coll::CollKind op,
                                  const SrmConfig& cfg,
                                  const machine::MachineParams& mp,
                                  std::vector<coll::Decision> menu = {});

std::string to_string(const DominanceIssue& i);
std::string to_string(const Crossover& c);

}  // namespace srm::sa
