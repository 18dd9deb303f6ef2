// Workload definitions and the seeded call-list generator.
//
// A workload is a machine shape, a payload plane and an op mix. The seed
// only chooses the concrete calls: sizes (stratified, so every seed draws
// the same size distribution), roots, input offsets, digest tags and the
// call order. The simulator never sees the seed, only the calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "coll/ops.hpp"
#include "coll/sig.hpp"
#include "machine/params.hpp"

namespace perfbench {

using srm::coll::CollKind;

/// Largest input offset, in 8-byte words, a call may start at.
inline constexpr std::size_t kMaxShift = 4096;

/// One collective call: one Cluster::run with every rank calling @p op.
struct Call {
  CollKind op = CollKind::barrier;
  /// Elements in one rank block: doubles for reductions, bytes otherwise.
  std::size_t count = 0;
  int root = 0;  ///< significant for rooted ops only
  /// Input offset in 8-byte words into the benchmark's pattern sources,
  /// so consecutive calls never carry the same data.
  std::size_t shift = 0;
  std::uint64_t tag = 0;  ///< digest tag of symbolic inputs
};

/// One op's share of a workload: @p calls block sizes stratified
/// log-uniformly over [lo, hi] bytes, plus each of @p edges exactly and one
/// element below it (the decision-table row boundaries the mix straddles).
struct OpMix {
  CollKind op;
  int calls;
  std::size_t lo;
  std::size_t hi;
  std::vector<std::size_t> edges;
};

struct Workload {
  const char* name;
  srm::machine::MachineParams params;
  int nodes;
  int tasks_per_node;
  bool symbolic;
  bool single_copy;
  /// How far, as a share of its stratum, a size may stray from the
  /// stratum's middle. Narrow where virtual time is steep in size, so the
  /// metrics move with the code rather than the seed; wide where the median
  /// call is so small that a narrow jitter would draw one size for every
  /// seed.
  double jitter;
  std::vector<OpMix> mix;

  int nranks() const { return nodes * tasks_per_node; }
};

const Workload* find_workload(const std::string& name);
std::string workload_names();

/// Element type of @p op's blocks: f64 for reductions, bytes otherwise.
srm::coll::Dtype dtype_of(CollKind op);
bool is_rooted(CollKind op);

/// The call list of @p w for @p seed: the same seed always gives the same
/// list, and on the symbolic plane it never starts with a barrier.
std::vector<Call> generate(const Workload& w, std::uint64_t seed);

/// FNV-1a over every field of every call.
std::uint64_t fingerprint(const std::vector<Call>& calls);

}  // namespace perfbench
