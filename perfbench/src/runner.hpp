// Runs the layers under test from outside: builds the machine, LAPI
// fabric and SRM communicator, prepares each call's inputs, runs the call as
// one Cluster::run, and checks every rank's output against a sequential
// reference.
//
// Real plane: each rank owns a source of small-integer doubles
// (coll::fill_pattern) and an output buffer, allocated and filled once.
// Movement ops read one shared byte pattern, rank r its own block of it. A
// call starts its inputs at a per-call offset, so consecutive calls carry
// different data, and before the call one byte in every 512 of the outputs
// it writes is poisoned, so an output the protocol leaves unwritten cannot
// pass. The reduction reference is one sequential sum over the ranks'
// sources, exact in any combine order because the values are small
// integers.
//
// Symbolic plane: inputs are coll::Payload digests written directly (a
// tag for the checksum, pattern elements for the window), so preparing a
// call is O(ranks) rather than O(ranks x bytes); the reference is the same
// Payload copy/combine applied sequentially, compared with identical_to.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "coll/payload.hpp"
#include "core/communicator.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

/// The layers under test, built in dependency order.
struct Stack {
  std::unique_ptr<srm::machine::Cluster> cluster;
  std::unique_ptr<srm::lapi::Fabric> fabric;
  std::unique_ptr<srm::Communicator> comm;

  void reset() {
    comm.reset();
    fabric.reset();
    cluster.reset();
  }
};

/// Host seconds one set-up spent in each layer's public entry point.
struct SetupTimes {
  double cluster_s = 0;
  double fabric_s = 0;
  double comm_s = 0;
  double warmup_s = 0;  ///< first op: materialises per-node shared state
  double repeat_s = 0;  ///< the same op again; not part of set-up
  double total() const { return cluster_s + fabric_s + comm_s + warmup_s; }
};

/// The cost of one Cluster::run.
struct RunCost {
  /// Slowest rank's return minus the instant every rank was released.
  srm::sim::Duration virt = 0;
  double host_s = 0;
  std::uint64_t events = 0;
  long minflt = 0;
  double user_s = 0;
  double sys_s = 0;
};

class Runner {
 public:
  /// Allocates and fills every input source the workload can need.
  Runner(const Workload& w, std::uint64_t data_seed);
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Builds @p s afresh and runs the warm-up op (a barrier on the real
  /// plane, an 8-byte bcast on the symbolic plane) and a repeat of it.
  /// Spans go to @p trace when given. Throws if either op fails its check.
  SetupTimes set_up(Stack& s, HostTrace* trace);

  /// Inputs and poisoned outputs for @p c. Not timed.
  void prepare(const Call& c);
  /// One Cluster::run of @p c. Throws whatever the simulator throws
  /// (util::CheckError, coll::ValidationError, deadlock).
  RunCost run(Stack& s, const Call& c);
  /// Ranks whose output differs from the reference. With @p corrupt, one
  /// output byte (or digest) is flipped first, to prove the check bites.
  int check(const Call& c, bool corrupt);

  /// Wrong output bytes seen so far (real plane; a wrong symbolic digest
  /// counts one byte).
  std::uint64_t wrong_bytes() const { return wrong_bytes_; }
  /// Peak coll::Payload::live_bytes() seen since the last reset.
  std::uint64_t live_peak() const { return live_peak_; }
  void reset_live_peak() { live_peak_ = 0; }

 private:
  srm::sim::CoTask rank_call(srm::machine::TaskCtx& t, srm::Communicator& comm,
                             const Call& c);

  double* out_f64(int r) { return out_[static_cast<std::size_t>(r)].get(); }
  std::byte* out(int r) { return reinterpret_cast<std::byte*>(out_f64(r)); }
  const double* src(int r, std::size_t shift) const {
    return src_[static_cast<std::size_t>(r)].get() + shift;
  }
  std::byte* bsrc(std::size_t shift) { return bsrc_.get() + 8 * shift; }
  /// Rank @p r's own block of the byte pattern (gather, allgather).
  std::byte* mine(int r, const Call& c) {
    return bsrc(c.shift) + static_cast<std::size_t>(r) * c.count;
  }

  const Workload& w_;
  const int n_;
  const std::uint64_t seed_;

  // Real plane.
  std::vector<std::unique_ptr<double[]>> src_;  // per rank
  std::unique_ptr<double[]> ref_;               // sum over ranks of src_
  std::unique_ptr<std::byte[]> bsrc_;           // shared byte pattern
  std::vector<std::unique_ptr<double[]>> out_;  // per rank

  // Symbolic plane, rebuilt per call.
  std::vector<srm::coll::Payload> send_;
  std::vector<srm::coll::Payload> recv_;
  srm::coll::Payload want_;

  std::vector<srm::sim::Time> end_;
  std::uint64_t live_peak_ = 0;
  std::uint64_t wrong_bytes_ = 0;
};

}  // namespace perfbench
