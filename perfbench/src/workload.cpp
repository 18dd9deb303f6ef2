#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using srm::machine::MachineParams;

constexpr std::size_t KiB = 1024;
constexpr std::size_t MiB = 1024 * KiB;

// Call counts keep one pass over the list, which the virtual metrics cover,
// inside a 10 s run on a 4-CPU host, and are large enough for the median
// and tail to repeat across seeds to within a few percent.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w;
    // The paper's 256-CPU testbed in its latency band: flags, LAPI
    // call/dispatch and network o/g/L set the virtual time.
    w.push_back({"sp_latency", MachineParams::ibm_sp(), 16, 16, false, false,
                 1.0,
                 {{CollKind::barrier, 60, 0, 0, {}},
                  {CollKind::bcast, 180, 8, 32 * KiB, {}},
                  {CollKind::reduce, 180, 8, 16 * KiB, {}},
                  {CollKind::allreduce, 180, 8, 16 * KiB, {}}}});
    // The same machine in its bandwidth band: the direct bcast protocol and
    // the pipelined reductions, over per-rank buffers far beyond the LLC.
    w.push_back({"sp_bandwidth", MachineParams::ibm_sp(), 16, 16, false,
                 false, 0.1,
                 {{CollKind::bcast, 16, 64 * KiB + 8, 2 * MiB, {}},
                  {CollKind::reduce, 16, 32 * KiB, 2 * MiB, {}},
                  {CollKind::allreduce, 16, 32 * KiB, 2 * MiB, {}}}});
    // The hierarchical profile with single-copy on and its tuned builtin
    // table: every row boundary of that table is hit exactly and from just
    // below, and the four extension ops run beside the paper's three.
    w.push_back(
        {"smp_tuned", MachineParams::modern_smp(), 8, 16, false, true, 0.1,
         {{CollKind::bcast, 100, 4 * KiB, 1 * MiB,
           {16 * KiB, 64 * KiB, 128 * KiB, 512 * KiB}},
          {CollKind::reduce, 60, 256, 16 * KiB, {2 * KiB}},
          {CollKind::allreduce, 100, 4 * KiB, 1 * MiB, {32 * KiB, 512 * KiB}},
          // scatter keys its row on the node block (16 blocks): 128 B
          // blocks sit on its 2 KiB boundary.
          {CollKind::scatter, 40, 64, 8 * KiB, {128}},
          {CollKind::gather, 40, 64, 8 * KiB, {}},
          {CollKind::allgather, 40, 64, 8 * KiB, {}},
          {CollKind::reduce_scatter, 40, 64, 8 * KiB, {}}}});
    // 16K ranks on the symbolic payload plane: coll/symbolic + coll/payload
    // and the engine with tens of thousands of live coroutines.
    w.push_back({"mega_symbolic", MachineParams::ibm_sp(), 256, 64, true,
                 false, 0.1,
                 {{CollKind::bcast, 12, 8, 1 * MiB, {}},
                  {CollKind::allreduce, 12, 8, 64 * KiB, {}},
                  {CollKind::barrier, 4, 0, 0, {}}}});
    return w;
  }();
  return all;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string workload_names() {
  std::string s;
  for (const Workload& w : workloads()) {
    if (!s.empty()) s += ", ";
    s += w.name;
  }
  return s;
}

srm::coll::Dtype dtype_of(CollKind op) {
  switch (op) {
    case CollKind::reduce:
    case CollKind::allreduce:
    case CollKind::reduce_scatter:
      return srm::coll::Dtype::f64;
    default:
      return srm::coll::Dtype::kByte;
  }
}

bool is_rooted(CollKind op) {
  return op == CollKind::bcast || op == CollKind::reduce ||
         op == CollKind::scatter || op == CollKind::gather;
}

std::vector<Call> generate(const Workload& w, std::uint64_t seed) {
  srm::util::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + 0x7065726662656e63ull);
  std::vector<Call> calls;
  auto add = [&](CollKind op, std::size_t bytes) {
    Call c;
    c.op = op;
    if (op != CollKind::barrier) {
      std::size_t esize = srm::coll::dtype_size(dtype_of(op));
      c.count = std::max<std::size_t>(1, bytes / esize);
    }
    if (is_rooted(op)) {
      c.root = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(w.nranks())));
    }
    c.shift = static_cast<std::size_t>(rng.next_below(kMaxShift));
    c.tag = rng.next();
    calls.push_back(c);
  };
  for (const OpMix& m : w.mix) {
    // One size per equal-probability stratum of log(size), jittered around
    // the stratum's middle: every seed draws the same size distribution.
    const double llo = std::log(static_cast<double>(std::max<std::size_t>(m.lo, 1)));
    const double lhi = std::log(static_cast<double>(std::max<std::size_t>(m.hi, 1)));
    for (int i = 0; i < m.calls; ++i) {
      double u = (i + 0.5 + w.jitter * (rng.next_double() - 0.5)) / m.calls;
      add(m.op, static_cast<std::size_t>(std::llround(std::exp(llo + u * (lhi - llo)))));
    }
    const std::size_t esize = srm::coll::dtype_size(dtype_of(m.op));
    for (std::size_t edge : m.edges) {
      SRM_CHECK(edge > esize && edge <= m.hi);
      add(m.op, edge);
      add(m.op, edge - esize);
    }
  }
  for (std::size_t i = calls.size(); i > 1; --i) {
    std::swap(calls[i - 1], calls[static_cast<std::size_t>(rng.next_below(i))]);
  }
  // A barrier takes its plane from history: one before any symbolic op
  // would build the real plane's O(nodes^2) per-link state at 16K ranks.
  if (w.symbolic) {
    auto first = std::find_if(calls.begin(), calls.end(), [](const Call& c) {
      return c.op != CollKind::barrier;
    });
    if (first != calls.end()) std::iter_swap(calls.begin(), first);
  }
  return calls;
}

std::uint64_t fingerprint(const std::vector<Call>& calls) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Call& c : calls) {
    h = fnv(h, static_cast<std::uint64_t>(c.op));
    h = fnv(h, c.count);
    h = fnv(h, static_cast<std::uint64_t>(c.root));
    h = fnv(h, c.shift);
    h = fnv(h, c.tag);
  }
  return h;
}

}  // namespace perfbench
