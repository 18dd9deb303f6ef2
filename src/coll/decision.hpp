// coll::Decision / coll::DecisionTable — the single algorithm-selection
// surface for collective dispatch.
//
// The paper hardcodes its crossover points (64 KB bcast protocol switch,
// 16 KB allreduce recursive-doubling limit, 16 KB single-copy crossover);
// the tuning literature (PAPERS.md: "Fast Tuning of Intra-Cluster Collective
// Communications") shows those points must be measured per machine. A
// DecisionTable is that measurement, persisted: per operation, a sorted list
// of {min_bytes -> Decision} rows, where a Decision names the algorithm, the
// mapped (single-copy) flag, and the inter-node tree shape. Backends look up
// decide(op, bytes) once per call and route accordingly.
//
// Sources of a table, in precedence order (core/communicator.cpp); the
// first one present is used verbatim:
//   1. an explicit SrmConfig::decisions (tests, ablations and the tuner
//      forcing a path);
//   2. the SRM_DECISIONS env var naming a JSON file (a tuner artifact);
//   3. the builtin table for the machine profile.
// A row can name an algorithm its buffers cannot carry at some size;
// SrmConfig::sanitize is the one feasibility rule that reroutes it.
//
// The builtin ibm_sp() table re-expresses the paper's constants verbatim:
// with a default SrmConfig on the SP profile, dispatch is byte-identical to
// the pre-table code. The modern_smp() builtin is the tuner's output for the
// hierarchical profile (bench/tune.cpp regenerates it).
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "coll/sig.hpp"
#include "coll/tree.hpp"

namespace srm::coll {

/// The algorithm zoo. `staged` and `direct` are the paper's two protocols
/// (shared-buffer staging vs. address-exchange direct puts); `rd` and
/// `pipeline` its two allreduce modes; the rest are the zoo additions.
enum class Algo : std::uint8_t {
  staged,      ///< shared-buffer staging path (bcast_small / reduce pipeline)
  direct,      ///< large-protocol direct user-buffer puts (bcast_large)
  rd,          ///< recursive-doubling allreduce between node leaders
  pipeline,    ///< pipelined reduce+bcast allreduce (Fig. 5)
  ring,        ///< ring reduce-scatter + ring allgather allreduce
  rhalving,    ///< recursive-halving reduce-scatter + doubling allgather
  scatter_ag,  ///< scatter + allgather broadcast
};
inline constexpr int kAlgoCount = 7;
const char* algo_name(Algo a);
/// Parse @p s into @p out; false (out untouched) when unknown.
bool algo_from_name(std::string_view s, Algo& out);

/// One dispatch outcome: which algorithm, whether the intra-node phases use
/// the single-copy cross-mapped variants, and the inter-node tree shape.
struct Decision {
  Algo algo = Algo::staged;
  bool mapped = false;
  TreeKind internode = TreeKind::binomial;
  bool operator==(const Decision&) const = default;
};

/// Per-op size-banded decisions. Rows are kept sorted ascending by
/// min_bytes; decide() returns the last row whose min_bytes <= bytes (or a
/// default Decision when the op has no rows).
class DecisionTable {
 public:
  struct Row {
    std::size_t min_bytes = 0;
    Decision d;
    bool operator==(const Row&) const = default;
  };

  int version = 1;
  std::string profile;  ///< machine profile the table was tuned for

  /// Insert (or replace, when min_bytes collides) a row for @p op.
  void set(CollKind op, std::size_t min_bytes, Decision d);
  Decision decide(CollKind op, std::size_t bytes) const;
  const std::vector<Row>& rows(CollKind op) const {
    return ops_[static_cast<std::size_t>(op)];
  }
  /// Apply @p f(Decision&) to every row's decision: how an ablation or a
  /// test derives the variant it measures (another tree, every row mapped)
  /// from a builtin table.
  template <class F>
  void for_each_decision(F&& f) {
    for (auto& rows : ops_) {
      for (Row& r : rows) f(r.d);
    }
  }
  bool empty() const;

  std::string to_json() const;
  /// Throws util::CheckError on malformed input or unknown names.
  static DecisionTable from_json(std::string_view text);
  /// File round-trip (load throws on unreadable/malformed files).
  void save(const std::string& path) const;
  static DecisionTable load(const std::string& path);

  /// Builtin tables. ibm_sp() is the paper's constants; modern_smp() is the
  /// tuner's output for the hierarchical profile. builtin() returns nullptr
  /// for unknown profile names.
  static DecisionTable ibm_sp();
  static DecisionTable modern_smp();
  static const DecisionTable* builtin(std::string_view profile);

  bool operator==(const DecisionTable&) const = default;

 private:
  std::array<std::vector<Row>, 8> ops_;  // indexed by CollKind
};

}  // namespace srm::coll
