// Tracing for the per-layer run: host-clock spans around the benchmark's
// calls into each layer, per-call virtual self times from the simulator's
// own obs spans, and one Perfetto-loadable file holding both.
#pragma once

#include <cstddef>
#include <fstream>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

/// Seconds on the host's steady clock since the process started.
double host_now();

/// Host-clock spans recorded by the benchmark's own code.
class HostTrace {
 public:
  struct Span {
    std::string name;
    double begin_s;
    double end_s;
    std::string args;  ///< rendered JSON object or empty
  };

  void add(std::string name, double begin_s, double end_s,
           std::string args = {}) {
    spans_.push_back({std::move(name), begin_s, end_s, std::move(args)});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// One call's obs spans reduced to layer totals. Self time is a span's
/// duration minus the union of the spans nested in it on the same rank
/// (pipelined stages overlap, so children are merged, not summed); the
/// totals are summed over ranks.
struct CallSpans {
  double smp_self_us = 0;        ///< smp.* staged stages and barrier.smp
  double mapped_self_us = 0;     ///< smp.*_mapped (single-copy windows)
  double internode_self_us = 0;  ///< bcast.*, reduce.pipeline, allreduce.*,
                                 ///< barrier.inter
  std::size_t spans = 0;
  std::string algo;  ///< "algo" arg of rank 0's coll.<op> span
};

CallSpans summarize(const std::vector<srm::obs::SpanRec>& spans,
                    srm::sim::Time now);

/// A Chrome trace-event file: the virtual-time spans of the first calls
/// (until @p span_budget spans are written) on process 0, one thread per
/// rank as obs::Registry lays them out, and the host spans on process 1.
class TraceFile {
 public:
  TraceFile(const std::string& path, std::size_t span_budget);
  /// Append the spans @p reg holds now (one call), budget permitting.
  void add_virtual(const srm::obs::Registry& reg);
  /// Write the host track and close the file.
  void finish(const HostTrace& host);

 private:
  std::ofstream out_;
  std::size_t budget_;
  std::size_t written_ = 0;
};

}  // namespace perfbench
