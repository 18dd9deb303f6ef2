// Internal helpers shared by the SRM protocol implementation files.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>

#include "machine/params.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/trigger.hpp"

namespace srm::detail {

/// Number of chunks @p bytes splits into at @p chunk granularity (>= 1).
inline std::size_t chunk_count(std::size_t bytes, std::size_t chunk) {
  return bytes == 0 ? 1 : (bytes + chunk - 1) / chunk;
}

/// The socket domains of a node of @p nlocal tasks: one per socket of
/// TopologyParams, the last one taking any locals past the described
/// sockets, so a single-socket node (every ibm_sp node) is one domain. Its
/// first local is its head: the root-free reduce_scatter reduces each
/// domain to it, and the mapped root-free allgather publishes from it.
struct Domains {
  int per = 1;    ///< locals per socket
  int count = 1;  ///< domains on the node

  Domains(const machine::TopologyParams& tp, int nlocal)
      : per(std::max(1, tp.cores_per_l3 * tp.l3_per_socket)),
        count(std::max(1, std::min(tp.sockets, (nlocal + per - 1) / per))) {}
  int of(int local) const { return std::min(local / per, count - 1); }
  int first(int dom) const { return dom * per; }
  int size(int dom, int nlocal) const {
    return dom + 1 == count ? nlocal - dom * per : per;
  }
  bool head(int local) const { return local == first(of(local)); }
};

/// Landing slots of the root-free reduce_scatter per source domain, at
/// most: one per remote round of a call whose node segment is one step,
/// so such a call never waits for a credit, bounded as nodes grow.
inline constexpr int kRsSlotsMax = 8;
/// The landing slots per source domain on @p nodes nodes: nodes - 1, at
/// least the pair.
inline int rs_slots(int nodes) {
  return std::clamp(nodes - 1, 2, kRsSlotsMax);
}

inline sim::CoTask joined_body(sim::CoTask body,
                               std::shared_ptr<sim::Trigger> done) {
  co_await body;
  done->fire();
}

/// Spawn @p body as a concurrent activity of the current task and return a
/// trigger that fires on completion. Used for the phase overlap of the
/// pipelined allreduce (Fig. 5).
inline std::shared_ptr<sim::Trigger> spawn_joined(sim::Engine& eng,
                                                  sim::CoTask body) {
  auto done = std::make_shared<sim::Trigger>(eng);
  eng.spawn(joined_body(std::move(body), done));
  return done;
}

}  // namespace srm::detail
