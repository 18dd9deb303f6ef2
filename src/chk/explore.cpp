// Explorer implementation: one fresh cluster per seed, randomized event
// tie-break, jittered machine constants, the full eight-operation sequence,
// element-exact payload verification, and checker report collection.
#include "chk/explore.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <vector>

#include "core/communicator.hpp"
#include "mpi/comm.hpp"
#include "util/rng.hpp"

namespace srm::chk {
namespace {

constexpr std::size_t kMaxErrors = 64;  // per result, across all seeds

/// Deterministic payload: distinct per (rank, op index, element).
double value(int rank, int k, std::size_t i) {
  return (rank % 13) + (k % 7) * 0.5 + static_cast<double>(i % 11);
}

struct Op {
  enum Kind {
    barrier,
    bcast,
    reduce,
    allreduce,
    scatter,
    gather,
    allgather,
    reduce_scatter
  } kind;
  std::size_t count;  // bytes for bcast, f64 elements otherwise
  int root;
};

/// Fixed sequence: every operation, at sizes straddling the SRM protocol
/// switches (small/large bcast, one-chunk/pipelined reduce, recursive-
/// doubling/pipelined allreduce), with the root moving between nodes.
std::vector<Op> make_plan(int nranks) {
  int last = nranks - 1;
  return {
      {Op::barrier, 0, 0},
      {Op::bcast, 2048, 0},          // small path, one chunk
      {Op::bcast, 12000, last},      // small path, multiple chunks
      {Op::bcast, 80000, 0},         // large path (address exchange)
      {Op::reduce, 900, 0},          // single pipeline chunk
      {Op::reduce, 5000, last},      // multi-chunk pipeline
      {Op::allreduce, 512, 0},       // 4 KB: recursive doubling
      {Op::allreduce, 6000, 0},      // 48 KB: four-stage pipeline
      {Op::scatter, 256, 0},
      {Op::gather, 256, last},
      {Op::allgather, 128, 0},
      {Op::reduce_scatter, 200, 0},
      {Op::barrier, 0, 0},
  };
}

/// Scale a duration by @p f, keeping it positive.
sim::Duration scaled(sim::Duration d, double f) {
  auto v = static_cast<sim::Duration>(static_cast<double>(d) * f);
  return v == 0 ? sim::Duration{1} : v;
}

/// Perturb the timing constants that decide which events *coincide*.
void jitter_params(machine::MachineParams& p, std::uint64_t seed) {
  util::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
  auto f = [&rng] { return 0.6 + 1.1 * rng.next_double(); };
  p.mem.flag_propagation = scaled(p.mem.flag_propagation, f());
  p.mem.flag_poll = scaled(p.mem.flag_poll, f());
  p.net.latency = scaled(p.net.latency, f());
  p.net.gap = scaled(p.net.gap, f());
  p.lapi.poll_dispatch = scaled(p.lapi.poll_dispatch, f());
  p.lapi.call_overhead = scaled(p.lapi.call_overhead, f());
}

constexpr std::size_t kMaxTrace = 160;  // failing-run trace lines kept

std::string format_event(const TraceEvent& ev) {
  std::ostringstream os;
  switch (ev.kind) {
    case TraceEvent::Kind::release:
      os << "a" << ev.actor << " release";
      break;
    case TraceEvent::Kind::acquire:
      os << "a" << ev.actor << " acquire";
      break;
    case TraceEvent::Kind::fork:
      os << "a" << ev.actor << " fork msg#" << ev.msg;
      break;
    case TraceEvent::Kind::join:
      os << "nic(origin a" << ev.actor << ") join msg#" << ev.msg;
      break;
    case TraceEvent::Kind::acquire_msg:
      os << "a" << ev.actor << " recv msg#" << ev.msg;
      break;
    case TraceEvent::Kind::read:
    case TraceEvent::Kind::write:
      os << (ev.remote ? "put(a" : "a") << ev.actor << (ev.remote ? ") " : " ")
         << (ev.kind == TraceEvent::Kind::write ? "write" : "read") << " ["
         << ev.lo << "," << ev.hi << ")";
      break;
  }
  if (!ev.label.empty()) os << " '" << ev.label << "'";
  return os.str();
}

struct Verifier {
  std::uint64_t seed;
  std::vector<std::string>* errors;

  void fail(int k, int rank, const std::string& what) const {
    if (errors->size() >= kMaxErrors) return;
    std::ostringstream os;
    os << "seed " << seed << " op " << k << " rank " << rank << ": " << what;
    errors->push_back(os.str());
  }

  void expect_eq(int k, int rank, std::size_t i, double got,
                 double want) const {
    if (got == want) return;
    std::ostringstream os;
    os << "element " << i << " = " << got << ", expected " << want;
    fail(k, rank, os.str());
  }
};

sim::CoTask run_plan(machine::TaskCtx& t, coll::Collectives& coll,
                     const std::vector<Op>& plan, const Verifier v) {
  int n = t.nranks();
  for (int k = 0; k < static_cast<int>(plan.size()); ++k) {
    const Op& op = plan[static_cast<std::size_t>(k)];
    switch (op.kind) {
      case Op::barrier:
        co_await coll.barrier(t);
        break;
      case Op::bcast: {
        std::vector<char> buf(op.count, 0);
        if (t.rank == op.root) {
          for (std::size_t i = 0; i < op.count; ++i) {
            buf[i] = static_cast<char>((i * 31 + static_cast<std::size_t>(k)) %
                                       127);
          }
        }
        co_await coll.bcast(t, coll::Buf::bytes(buf.data(), op.count),
                            op.root);
        for (std::size_t i = 0; i < op.count; ++i) {
          auto want = static_cast<char>(
              (i * 31 + static_cast<std::size_t>(k)) % 127);
          if (buf[i] != want) {
            v.fail(k, t.rank,
                   "bcast byte " + std::to_string(i) + " corrupt");
            break;
          }
        }
        break;
      }
      case Op::reduce:
      case Op::allreduce: {
        std::vector<double> in(op.count), out(op.count, -1.0);
        for (std::size_t i = 0; i < op.count; ++i) in[i] = value(t.rank, k, i);
        if (op.kind == Op::reduce) {
          co_await coll.reduce(t, coll::of(in.data(), op.count),
                               coll::of(out.data(), op.count),
                               coll::RedOp::sum, op.root);
        } else {
          co_await coll.allreduce(t, coll::of(in.data(), op.count),
                                  coll::of(out.data(), op.count),
                                  coll::RedOp::sum);
        }
        if (op.kind == Op::allreduce || t.rank == op.root) {
          for (std::size_t i = 0; i < op.count; ++i) {
            double want = 0.0;
            for (int r = 0; r < n; ++r) want += value(r, k, i);
            if (out[i] != want) {
              v.expect_eq(k, t.rank, i, out[i], want);
              break;
            }
          }
        }
        break;
      }
      case Op::scatter: {
        std::vector<double> send;
        if (t.rank == op.root) {
          send.resize(op.count * static_cast<std::size_t>(n));
          for (int r = 0; r < n; ++r) {
            for (std::size_t i = 0; i < op.count; ++i) {
              send[static_cast<std::size_t>(r) * op.count + i] =
                  value(r, k, i);
            }
          }
        }
        std::vector<double> recv(op.count, -1.0);
        co_await coll.scatter(t, coll::of(send.data(), op.count),
                              coll::of(recv.data(), op.count), op.root);
        for (std::size_t i = 0; i < op.count; ++i) {
          if (recv[i] != value(t.rank, k, i)) {
            v.expect_eq(k, t.rank, i, recv[i], value(t.rank, k, i));
            break;
          }
        }
        break;
      }
      case Op::gather:
      case Op::allgather: {
        std::vector<double> mine(op.count);
        for (std::size_t i = 0; i < op.count; ++i) {
          mine[i] = value(t.rank, k, i);
        }
        bool holder = op.kind == Op::allgather || t.rank == op.root;
        std::vector<double> all;
        if (holder) all.assign(op.count * static_cast<std::size_t>(n), -1.0);
        if (op.kind == Op::gather) {
          co_await coll.gather(t, coll::of(mine.data(), op.count),
                               coll::of(all.data(), op.count), op.root);
        } else {
          co_await coll.allgather(t, coll::of(mine.data(), op.count),
                                  coll::of(all.data(), op.count));
        }
        if (holder) {
          for (int r = 0; r < n; ++r) {
            for (std::size_t i = 0; i < op.count; ++i) {
              double got = all[static_cast<std::size_t>(r) * op.count + i];
              if (got != value(r, k, i)) {
                v.expect_eq(k, t.rank, i, got, value(r, k, i));
                r = n;
                break;
              }
            }
          }
        }
        break;
      }
      case Op::reduce_scatter: {
        std::vector<double> in(op.count * static_cast<std::size_t>(n));
        for (std::size_t i = 0; i < in.size(); ++i) {
          in[i] = value(t.rank, k, i);
        }
        std::vector<double> out(op.count, -1.0);
        co_await coll.reduce_scatter(t, coll::of(in.data(), op.count),
                                     coll::of(out.data(), op.count),
                                     coll::RedOp::sum);
        std::size_t base = static_cast<std::size_t>(t.rank) * op.count;
        for (std::size_t i = 0; i < op.count; ++i) {
          double want = 0.0;
          for (int r = 0; r < n; ++r) want += value(r, k, base + i);
          if (out[i] != want) {
            v.expect_eq(k, t.rank, base + i, out[i], want);
            break;
          }
        }
        break;
      }
    }
  }
}

}  // namespace

const char* backend_name(ExploreBackend b) {
  switch (b) {
    case ExploreBackend::srm:
      return "srm";
    case ExploreBackend::mpi_ibm:
      return "mpi/ibm";
    case ExploreBackend::mpi_mpich:
      return "mpi/mpich";
  }
  return "?";
}

ExploreResult explore(const ExploreOptions& opt) {
  ExploreResult res;
  std::uint64_t seed_base = opt.seed_base;
  int schedules = opt.schedules;
  // Reproducer override: SRM_EXPLORE_SEED pins the sweep to one exact seed.
  if (const char* env = std::getenv("SRM_EXPLORE_SEED")) {
    char* end = nullptr;
    std::uint64_t pinned = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') {
      seed_base = pinned;
      schedules = 1;
    }
  }
  for (int s = 0; s < schedules; ++s) {
    std::uint64_t seed = seed_base + static_cast<std::uint64_t>(s);
    std::size_t fails_before =
        res.payload_errors.size() + res.races.size() + res.deadlocks.size();

    machine::ClusterConfig cc;
    cc.nodes = opt.nodes;
    cc.tasks_per_node = opt.tasks_per_node;
    cc.params = opt.params;
    if (opt.jitter) jitter_params(cc.params, seed);

    machine::Cluster cluster(cc);
    cluster.engine().set_tiebreak(sim::TieBreak::random, seed);
    cluster.checker().set_enabled(opt.enable_checker);
    // Record the synchronization trace so a failing seed's interleaving can
    // be printed without a rerun (cleared per seed, kept on first failure).
    cluster.checker().set_trace(opt.enable_checker);

    std::unique_ptr<lapi::Fabric> fabric;
    std::unique_ptr<Communicator> srm_impl;
    std::unique_ptr<minimpi::World> mpi_impl;
    coll::Collectives* coll = nullptr;
    switch (opt.backend) {
      case ExploreBackend::srm: {
        fabric = std::make_unique<lapi::Fabric>(cluster);
        SrmConfig cfg;
        cfg.single_copy = opt.single_copy;
        srm_impl = std::make_unique<Communicator>(cluster, *fabric, cfg);
        coll = srm_impl.get();
        break;
      }
      case ExploreBackend::mpi_ibm:
        mpi_impl = std::make_unique<minimpi::World>(
            cluster, cluster.params().mpi_ibm, "ibm");
        coll = mpi_impl.get();
        break;
      case ExploreBackend::mpi_mpich:
        mpi_impl = std::make_unique<minimpi::World>(
            cluster, cluster.params().mpi_mpich, "mpich");
        coll = mpi_impl.get();
        break;
    }

    auto plan = make_plan(cluster.topology().nranks());
    Verifier v{seed, &res.payload_errors};
    try {
      cluster.run([&](machine::TaskCtx& t) -> sim::CoTask {
        return run_plan(t, *coll, plan, v);
      });
    } catch (const util::CheckError& e) {
      res.deadlocks.push_back("seed " + std::to_string(seed) + ": " +
                              e.what());
    }

    ++res.runs;
    Checker& chk = cluster.checker();
    res.accesses += chk.accesses_checked();
    res.sync_ops += chk.sync_ops();
    for (const RaceReport& r : chk.reports()) {
      if (res.races.size() >= kMaxErrors) break;
      res.races.push_back("seed " + std::to_string(seed) + ": " +
                          r.to_string());
    }

    bool failed = res.payload_errors.size() + res.races.size() +
                      res.deadlocks.size() >
                  fails_before;
    if (failed && res.first_failing_seed == ExploreResult::kNoSeed) {
      res.first_failing_seed = seed;
      const std::vector<TraceEvent>& tr = chk.trace();
      std::size_t from = tr.size() > kMaxTrace ? tr.size() - kMaxTrace : 0;
      for (std::size_t i = from; i < tr.size(); ++i) {
        res.failing_trace.push_back(format_event(tr[i]));
      }
    }
    if (failed && opt.stop_on_failure) break;
  }
  return res;
}

std::string summarize(const ExploreOptions& opt, const ExploreResult& r) {
  std::ostringstream os;
  os << "explore[" << backend_name(opt.backend) << " " << opt.nodes << "x"
     << opt.tasks_per_node << (opt.single_copy ? " single-copy" : "")
     << "]: " << r.runs << " schedules, " << r.accesses
     << " accesses checked, " << r.sync_ops << " sync ops, "
     << r.payload_errors.size() << " payload errors, " << r.races.size()
     << " races, " << r.deadlocks.size() << " deadlocks";
  for (const auto& e : r.payload_errors) os << "\n  payload: " << e;
  for (const auto& e : r.races) os << "\n  race: " << e;
  for (const auto& e : r.deadlocks) os << "\n  deadlock: " << e;
  if (r.first_failing_seed != ExploreResult::kNoSeed) {
    os << "\n  first failing seed: " << r.first_failing_seed
       << " (rerun with SRM_EXPLORE_SEED=" << r.first_failing_seed << ")";
    if (!r.failing_trace.empty()) {
      os << "\n  tie-break trace (last " << r.failing_trace.size()
         << " sync events of the failing run):";
      for (const auto& line : r.failing_trace) os << "\n    " << line;
    }
  }
  return os.str();
}

}  // namespace srm::chk
