// srm::chk explorer — schedule-perturbation stress driver.
//
// A discrete-event simulator visits exactly one interleaving per run; a
// protocol bug that only fires when two same-timestamp events land in the
// other order stays invisible forever. The explorer re-executes a fixed
// sequence covering all eight collective operations under many *seeded*
// schedules: each run randomizes the engine's same-timestamp tie-break
// (sim::TieBreak::random) and jitters the machine's propagation/latency
// constants, then verifies every payload element-exactly and collects the
// happens-before checker's race reports. A clean result therefore means:
// under N materially different interleavings, every access stayed ordered
// by the protocol's own flags/counters AND every answer was right.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "machine/params.hpp"

namespace srm::chk {

/// Which coll::Collectives implementation a run drives.
enum class ExploreBackend { srm, mpi_ibm, mpi_mpich };

const char* backend_name(ExploreBackend b);

struct ExploreOptions {
  ExploreBackend backend = ExploreBackend::srm;
  int nodes = 2;
  int tasks_per_node = 2;
  /// The machine every run starts from (before jitter); its profile picks
  /// the SRM backend's builtin decision table.
  machine::MachineParams params = machine::MachineParams::ibm_sp();
  /// Number of seeded schedules to run (seed_base .. seed_base+schedules-1).
  int schedules = 16;
  std::uint64_t seed_base = 1;
  /// Perturb flag-propagation / network-latency constants per seed (about
  /// 0.6x..1.7x) so timestamp *coincidences* themselves vary across runs.
  bool jitter = true;
  /// Run with the happens-before checker recording (SRM backend: shared
  /// segments + LAPI counters; mini-MPI: message clocks).
  bool enable_checker = true;
  /// SRM backend: turn SrmConfig::single_copy on, so the decision table's
  /// mapped rows run their window protocols under the perturbed schedules
  /// (with it off, decide() runs every mapped row unmapped).
  bool single_copy = false;
  /// Stop at the first failing seed instead of finishing the sweep — the
  /// reproducer mode. The failing seed and its synchronization trace are in
  /// the result either way.
  bool stop_on_failure = false;
};

struct ExploreResult {
  /// first_failing_seed when every seed was clean.
  static constexpr std::uint64_t kNoSeed = ~std::uint64_t{0};

  int runs = 0;                 ///< schedules completed (including failed)
  std::uint64_t accesses = 0;   ///< total checker-verified accesses
  std::uint64_t sync_ops = 0;   ///< total happens-before edges recorded
  std::vector<std::string> payload_errors;  ///< "seed S op K rank R: ..."
  std::vector<std::string> races;           ///< formatted checker reports
  std::vector<std::string> deadlocks;       ///< CheckError messages per seed
  /// The first seed whose run failed (payload, race, or deadlock); rerunning
  /// with seed_base = this and schedules = 1 reproduces it deterministically
  /// (that is exactly what SRM_EXPLORE_SEED does).
  std::uint64_t first_failing_seed = kNoSeed;
  /// The failing run's tie-break trace: the checker's synchronization events
  /// in execution order (capped), for debugging without a rerun.
  std::vector<std::string> failing_trace;

  bool clean() const {
    return payload_errors.empty() && races.empty() && deadlocks.empty();
  }
};

/// Run the full eight-operation sequence under opt.schedules seeded
/// schedules. Never throws for protocol failures — they are returned.
///
/// Environment override: when SRM_EXPLORE_SEED is set, the sweep collapses
/// to exactly that one seed (schedules = 1, seed_base = $SRM_EXPLORE_SEED) —
/// the deterministic replay knob for a failure a previous sweep printed.
ExploreResult explore(const ExploreOptions& opt);

/// Human-readable one-paragraph summary (for test logs and CLI output).
std::string summarize(const ExploreOptions& opt, const ExploreResult& r);

}  // namespace srm::chk
