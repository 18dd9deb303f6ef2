#include "model/model.hpp"

#include <algorithm>
#include <cmath>

#include "util/align.hpp"

namespace srm::model {

namespace {

double us(sim::Duration d) { return static_cast<double>(d) / 1000.0; }

/// Effective per-stream copy rate when @p streams copy concurrently.
double fan_copy_rate(const machine::MemoryParams& m, int streams) {
  if (streams <= 0) return m.copy_bw_per_cpu;
  return std::min(m.copy_bw_per_cpu,
                  m.bus_bw_total / static_cast<double>(streams));
}

double copy_us(const machine::MemoryParams& m, double bytes, int streams) {
  if (bytes <= 0) return 0.0;
  return us(m.copy_startup) + bytes / fan_copy_rate(m, streams) * 1e6;
}

double combine_us(const machine::MemoryParams& m, double bytes) {
  if (bytes <= 0) return 0.0;
  return us(m.copy_startup) + bytes / m.reduce_bw_per_cpu * 1e6;
}

int ilog2_ceil(int n) {
  return n <= 1 ? 0 : util::log2_ceil(static_cast<unsigned>(n));
}
int ilog2_floor(int n) {
  return n <= 1 ? 0 : util::log2_floor(static_cast<unsigned>(n));
}

/// Broadcast chunk count and chunk size under the small protocol.
void small_chunks(const SrmConfig& c, std::size_t bytes, std::size_t& chunk,
                  std::size_t& n) {
  chunk = bytes;
  if (bytes > c.bcast_pipe_min && bytes <= c.bcast_pipe_max) {
    chunk = c.bcast_pipe_chunk;
  }
  n = bytes == 0 ? 1 : (bytes + chunk - 1) / chunk;
}

}  // namespace

double hop_us(const Inputs& in, std::size_t bytes) {
  const auto& net = in.params.net;
  const auto& lp = in.params.lapi;
  return us(lp.call_overhead + net.o_send + net.gap + net.latency +
            lp.poll_dispatch + lp.call_overhead) +
         static_cast<double>(bytes) / net.bytes_per_sec * 1e6;
}

double smp_bcast_us(const Inputs& in, std::size_t bytes, bool landed_in_shm) {
  const auto& m = in.params.mem;
  int p = in.tasks_per_node;
  if (p <= 1) {
    return landed_in_shm ? copy_us(m, static_cast<double>(bytes), 1) : 0.0;
  }
  double fill = landed_in_shm
                    ? 0.0
                    : copy_us(m, static_cast<double>(bytes), 1);
  double flags = us(m.flag_propagation) +
                 us(m.flag_poll) * static_cast<double>(p - 1);
  int consumers = landed_in_shm ? p : p - 1;
  double fan = copy_us(m, static_cast<double>(bytes), consumers);
  return fill + flags + fan;
}

double smp_reduce_us(const Inputs& in, std::size_t bytes) {
  const auto& m = in.params.mem;
  int p = in.tasks_per_node;
  if (p <= 1) return copy_us(m, static_cast<double>(bytes), 1);
  // Leaves copy concurrently (about p/2 streams); each binomial level then
  // combines one chunk, and levels serialize along the critical path.
  int depth = ilog2_floor(p) + (util::is_pow2(static_cast<unsigned>(p)) ? 0 : 1);
  double leaf = copy_us(m, static_cast<double>(bytes), p / 2 + 1);
  return leaf + us(m.flag_propagation) +
         static_cast<double>(depth) * combine_us(m, static_cast<double>(bytes));
}

double bcast_us(const Inputs& in, std::size_t bytes) {
  const auto& net = in.params.net;
  int n = in.nodes;
  int depth = ilog2_floor(n);
  double issue = us(in.params.lapi.call_overhead + net.o_send + net.gap);

  if (bytes <= in.cfg.max_bytes(coll::CollKind::bcast, coll::Algo::staged)) {
    std::size_t chunk, nchunks;
    small_chunks(in.cfg, bytes, chunk, nchunks);
    double ser = static_cast<double>(chunk) / net.bytes_per_sec * 1e6;
    // First chunk: down the tree (the root's serial sends add one issue per
    // additional child on the path's branch), then the SMP fan-out.
    double first = static_cast<double>(depth) * hop_us(in, chunk) +
                   static_cast<double>(std::max(0, depth - 1)) * issue;
    // Steady state: the bottleneck link serializes chunk payloads + issues.
    double period = std::max(ser + issue, smp_bcast_us(in, chunk, true));
    return first + static_cast<double>(nchunks - 1) * period +
           smp_bcast_us(in, chunk, true);
  }

  // Large protocol: address exchange + pipelined direct puts + SMP tail.
  std::size_t chunk = in.cfg.bcast_net_chunk;
  std::size_t nchunks = (bytes + chunk - 1) / chunk;
  double ser = static_cast<double>(chunk) / net.bytes_per_sec * 1e6;
  // The root streams to each child in turn: its egress serializes the whole
  // message once per child on the widest level (degree of the root).
  int degree = 0;
  for (int mask = 1; mask < n; mask <<= 1) ++degree;
  double addr = depth > 0 ? hop_us(in, sizeof(void*)) : 0.0;
  double first = static_cast<double>(depth) * hop_us(in, chunk);
  double period = std::max(static_cast<double>(std::max(degree, 1)) * ser,
                           smp_bcast_us(in, chunk, false));
  return addr + first + static_cast<double>(nchunks - 1) * period +
         smp_bcast_us(in, chunk, false);
}

double reduce_us(const Inputs& in, std::size_t bytes) {
  const auto& net = in.params.net;
  int n = in.nodes;
  int depth = ilog2_floor(n);
  std::size_t chunk = std::min<std::size_t>(bytes, in.cfg.reduce_chunk);
  std::size_t nchunks = bytes == 0 ? 1 : (bytes + chunk - 1) / chunk;
  double ser = static_cast<double>(chunk) / net.bytes_per_sec * 1e6;
  double per_level =
      hop_us(in, chunk) + combine_us(in.params.mem, static_cast<double>(chunk));
  double first = smp_reduce_us(in, chunk) +
                 static_cast<double>(depth) * per_level;
  double period =
      std::max({ser + us(net.gap), smp_reduce_us(in, chunk),
                combine_us(in.params.mem, static_cast<double>(chunk)) * 2.0});
  return first + static_cast<double>(nchunks - 1) * period;
}

double allreduce_us(const Inputs& in, std::size_t bytes) {
  int n = in.nodes;
  if (bytes <= in.cfg.max_bytes(coll::CollKind::allreduce, coll::Algo::rd)) {
    int rounds = ilog2_ceil(n);
    double exchange =
        static_cast<double>(rounds) *
        (hop_us(in, bytes) +
         combine_us(in.params.mem, static_cast<double>(bytes)));
    return smp_reduce_us(in, bytes) + exchange +
           smp_bcast_us(in, bytes, false);
  }
  // Four-stage pipeline: reduce latency to rank 0 + broadcast of the first
  // chunk + the common steady-state period over the remaining chunks.
  std::size_t chunk = in.cfg.reduce_chunk;
  std::size_t nchunks = (bytes + chunk - 1) / chunk;
  double ser = static_cast<double>(chunk) / in.params.net.bytes_per_sec * 1e6;
  int depth = ilog2_floor(n);
  double first = smp_reduce_us(in, chunk) +
                 static_cast<double>(depth) *
                     (hop_us(in, chunk) +
                      combine_us(in.params.mem, static_cast<double>(chunk))) +
                 static_cast<double>(depth) * hop_us(in, chunk) +
                 smp_bcast_us(in, chunk, false);
  double period = std::max(
      {2.0 * ser, smp_reduce_us(in, chunk) + smp_bcast_us(in, chunk, false)});
  return first + static_cast<double>(nchunks - 1) * period;
}

double barrier_us(const Inputs& in) {
  const auto& m = in.params.mem;
  int p = in.tasks_per_node;
  double enter = p > 1 ? us(m.flag_propagation) +
                             static_cast<double>(p - 1) * us(m.flag_poll)
                       : 0.0;
  double release = p > 1 ? us(m.flag_propagation) : 0.0;
  int rounds = ilog2_ceil(in.nodes);
  return enter + static_cast<double>(rounds) * hop_us(in, 0) + release;
}

}  // namespace srm::model
