#include "bench/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>

#include "coll/payload.hpp"
#include "util/format.hpp"

namespace srm::bench {

namespace {

bool env_symbolic() {
  const char* v = std::getenv("SRM_SYMBOLIC");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

/// The canned reductions' inputs and their check. Element i of rank r is
/// (r % 7 + 1) * (i % 1021 + 1): small integers, so every summation order
/// is exact, and element-dependent, so a chunk combined from the wrong
/// slot shows as a wrong sum. Each rank compares its result with the
/// sequential sum on the host, which charges no virtual time; the timed
/// call throws after the run when any result was wrong.
struct SumCheck {
  static constexpr std::size_t kPeriod = 1021;
  explicit SumCheck(int nranks) {
    for (int r = 0; r < nranks; ++r) rank_weights += r % 7 + 1;
  }
  static std::vector<double> input(int rank, std::size_t count) {
    std::vector<double> in(count);
    const auto w = static_cast<double>(rank % 7 + 1);
    for (std::size_t i = 0, e = 0; i < count; ++i) {
      in[i] = w * static_cast<double>(e + 1);
      if (++e == kPeriod) e = 0;
    }
    return in;
  }
  /// Compare @p out with elements [first, first + out.size()) of the sum.
  void check(const std::vector<double>& out, std::size_t first) {
    const auto w = static_cast<double>(rank_weights);
    for (std::size_t i = 0, e = first % kPeriod; i < out.size(); ++i) {
      if (out[i] != w * static_cast<double>(e + 1)) {
        ++wrong;
        return;
      }
      if (++e == kPeriod) e = 0;
    }
  }
  void require(const char* op, std::size_t count) const {
    SRM_CHECK_MSG(wrong == 0, op << " of " << count
                                 << " doubles returned a wrong sum in "
                                 << wrong << " rank call(s)");
  }
  long rank_weights = 0;
  std::size_t wrong = 0;
};

/// The canned data-movement ops' bytes and their check: byte i of rank r's
/// block is a hash of (r, i), so a block from the wrong rank or offset
/// shows as a mismatch. The host builds the whole vector once; each rank
/// fills its send side from it and compares what it received with it,
/// charging no virtual time, and the timed call throws after the run when
/// any result was wrong.
struct ByteCheck {
  ByteCheck(int nranks, std::size_t block_)
      : block(block_), all(block * static_cast<std::size_t>(nranks)) {
    for (int r = 0; r < nranks; ++r) {
      for (std::size_t i = 0; i < block; ++i) {
        auto h = static_cast<std::uint32_t>(r) * 0x9E3779B1u +
                 static_cast<std::uint32_t>(i) * 0x85EBCA77u;
        all[static_cast<std::size_t>(r) * block + i] =
            static_cast<char>(h >> 24);
      }
    }
  }
  /// Rank @p r's block; the blocks of the later ranks follow it.
  const char* of(int r) const {
    return all.data() + static_cast<std::size_t>(r) * block;
  }
  /// Compare @p got with the @p n blocks from rank @p first's.
  void check(const char* got, int first, int n) {
    if (std::memcmp(got, of(first), static_cast<std::size_t>(n) * block) !=
        0) {
      ++wrong;
    }
  }
  void require(const char* op) const {
    SRM_CHECK_MSG(wrong == 0, op << " of " << block << " B blocks delivered "
                                 << "wrong bytes in " << wrong
                                 << " rank call(s)");
  }
  std::size_t block;
  std::vector<char> all;
  std::size_t wrong = 0;
};

}  // namespace

const char* impl_name(Impl i) {
  switch (i) {
    case Impl::srm: return "SRM";
    case Impl::mpi_ibm: return "IBM-MPI";
    case Impl::mpi_mpich: return "MPICH";
  }
  return "?";
}

Bench::Bench(Impl impl, int nodes, int tasks_per_node, SrmConfig srm_cfg,
             machine::MachineParams params)
    : impl_(impl), symbolic_(env_symbolic()) {
  machine::ClusterConfig cc;
  cc.nodes = nodes;
  cc.tasks_per_node = tasks_per_node;
  cc.params = params;
  cluster_ = std::make_unique<machine::Cluster>(cc);
  switch (impl) {
    case Impl::srm:
      fabric_ = std::make_unique<lapi::Fabric>(*cluster_);
      srm_ = std::make_unique<Communicator>(*cluster_, *fabric_, srm_cfg);
      coll_ = srm_.get();
      break;
    case Impl::mpi_ibm:
      mpi_ = std::make_unique<minimpi::World>(*cluster_, params.mpi_ibm,
                                              "ibm");
      coll_ = mpi_.get();
      break;
    case Impl::mpi_mpich:
      mpi_ = std::make_unique<minimpi::World>(*cluster_, params.mpi_mpich,
                                              "mpich");
      coll_ = mpi_.get();
      break;
  }
  if (sv::selfcheck_enabled()) force_selfcheck();
}

Bench::~Bench() {
  if (sv_finish() != 0) {
    std::fflush(nullptr);
    std::_Exit(3);
  }
}

void Bench::force_selfcheck() {
  sv_armed_ = true;
  coll_->set_trace_sink(&sv_rec_);
}

int Bench::sv_finish() {
  if (sv_done_ || !sv_armed_) return 0;
  sv_done_ = true;
  coll_->set_trace_sink(nullptr);
  if (sv_rec_.empty()) return 0;

  std::string program = std::string("bench:") + coll_->label();
  sv::Diag d = sv::align_ranks(sv_rec_.by_rank());
  if (d.ok && !sv_custom_ && !sv_rec_.by_rank()[0].empty()) {
    sv::Skeleton sk{program, sv::Node{}};
    sk.root.kind = sv::Node::Kind::seq;
    sk.root.kids = sv_frags_;
    d = sv::match_skeleton(sk, sv_rec_.by_rank()[0]);
  }
  d.program = program;
  if (!d.ok) {
    std::fprintf(stderr, "%s\n", d.to_string().c_str());
    return 1;
  }
  std::fprintf(stderr, "[sv] %s: ok (%zu ranks, %zu calls per rank%s)\n",
               program.c_str(), sv_rec_.by_rank().size(),
               sv_rec_.by_rank()[0].size(),
               sv_custom_ ? ", alignment only" : "");
  return 0;
}

sv::SigPat Bench::planed(sv::SigPat p) const {
  return symbolic_ ? sv::symbolic(p) : sv::real(p);
}

namespace {

/// Instrumentation-only synchronization: every rank suspends until all have
/// arrived, then all resume at the same virtual instant at zero modelled
/// cost. Any real barrier releases ranks in a wave whose shape correlates
/// with the measured operation's own wave and hides part of its latency;
/// a simulator can sidestep that entirely.
struct PerfectSync {
  explicit PerfectSync(sim::Engine& eng, int n)
      : remaining(n), all_here(eng) {}
  int remaining;
  sim::Trigger all_here;

  sim::CoTask arrive() {
    if (--remaining == 0) {
      all_here.fire();
    } else {
      co_await all_here.wait();
    }
  }
};

sim::CoTask measured_body(
    machine::TaskCtx& t, coll::Collectives& coll,
    const std::function<sim::CoTask(machine::TaskCtx&, coll::Collectives&)>&
        op,
    int iters, int warmup, PerfectSync& sync, std::vector<sim::Time>& start,
    std::vector<sim::Time>& end) {
  for (int i = 0; i < warmup; ++i) co_await op(t, coll);
  co_await sync.arrive();
  start[static_cast<std::size_t>(t.rank)] = t.eng->now();
  for (int i = 0; i < iters; ++i) co_await op(t, coll);
  end[static_cast<std::size_t>(t.rank)] = t.eng->now();
}

}  // namespace

double Bench::time_collective(
    const std::function<sim::CoTask(machine::TaskCtx&, coll::Collectives&)>&
        op,
    int iters, int warmup) {
  // Unknown body: the self-check can still cross-align ranks, but has no
  // declared skeleton fragment to match against.
  sv_custom_ = true;
  return timed(op, iters, warmup);
}

double Bench::timed_sig(
    const std::function<sim::CoTask(machine::TaskCtx&, coll::Collectives&)>&
        op,
    int iters, int warmup, sv::SigPat sig) {
  if (sv_armed_)
    sv_frags_.push_back(sv::loop(warmup + iters, sv::call(sig)));
  return timed(op, iters, warmup);
}

double Bench::timed(
    const std::function<sim::CoTask(machine::TaskCtx&, coll::Collectives&)>&
        op,
    int iters, int warmup) {
  auto n = static_cast<std::size_t>(cluster_->topology().nranks());
  std::vector<sim::Time> start(n, 0), end(n, 0);
  PerfectSync sync(cluster_->engine(), static_cast<int>(n));
  cluster_->run([&](machine::TaskCtx& t) {
    return measured_body(t, *coll_, op, iters, warmup, sync, start, end);
  });
  sim::Time t0 = *std::max_element(start.begin(), start.end());
  sim::Time t1 = *std::max_element(end.begin(), end.end());
  SRM_CHECK(t1 >= t0);
  return sim::to_us(t1 - t0) / iters;
}

double Bench::time_bcast(std::size_t bytes, int iters) {
  bool symbolic = symbolic_;
  ByteCheck bc(1, bytes);
  double lat = timed_sig(
      [bytes, symbolic, &bc](machine::TaskCtx& t,
                             coll::Collectives& c) -> sim::CoTask {
        if (symbolic) {
          coll::Payload pay(1, bytes);
          if (t.rank == 0) pay.fill_pattern(coll::Dtype::kByte, 7);
          co_await c.bcast(
              t, coll::Buf::symbolic(pay, coll::Dtype::kByte, bytes), 0);
        } else {
          std::vector<char> buf(std::max<std::size_t>(bytes, 1),
                                static_cast<char>(t.rank));
          if (t.rank == 0) std::memcpy(buf.data(), bc.of(0), bytes);
          co_await c.bcast(t, coll::Buf::bytes(buf.data(), bytes), 0);
          bc.check(buf.data(), 0, 1);
        }
      },
      iters, 2, planed(sv::sig_bcast(coll::Dtype::kByte, bytes, 0)));
  bc.require("bcast");
  return lat;
}

double Bench::time_reduce(std::size_t count, int iters) {
  bool symbolic = symbolic_;
  SumCheck sums(cluster_->topology().nranks());
  double lat = timed_sig(
      [count, symbolic, &sums](machine::TaskCtx& t,
                               coll::Collectives& c) -> sim::CoTask {
        if (symbolic) {
          coll::Payload in(1, count * sizeof(double)), out(in);
          in.fill_pattern(coll::Dtype::f64,
                          static_cast<std::uint64_t>(t.rank));
          co_await c.reduce(t,
                            coll::Buf::symbolic(in, coll::Dtype::f64, count),
                            coll::Buf::symbolic(out, coll::Dtype::f64, count),
                            coll::RedOp::sum, 0);
        } else {
          std::vector<double> in = SumCheck::input(t.rank, count),
                              out(count, 0.0);
          co_await c.reduce(t, coll::of(in.data(), count),
                            coll::of(out.data(), count), coll::RedOp::sum, 0);
          if (t.rank == 0) sums.check(out, 0);
        }
      },
      iters, 2,
      planed(sv::sig_reduce(coll::Dtype::f64, count, coll::RedOp::sum, 0)));
  sums.require("reduce", count);
  return lat;
}

double Bench::time_allreduce(std::size_t count, int iters) {
  bool symbolic = symbolic_;
  SumCheck sums(cluster_->topology().nranks());
  double lat = timed_sig(
      [count, symbolic, &sums](machine::TaskCtx& t,
                               coll::Collectives& c) -> sim::CoTask {
        if (symbolic) {
          coll::Payload in(1, count * sizeof(double)), out(in);
          in.fill_pattern(coll::Dtype::f64,
                          static_cast<std::uint64_t>(t.rank));
          co_await c.allreduce(
              t, coll::Buf::symbolic(in, coll::Dtype::f64, count),
              coll::Buf::symbolic(out, coll::Dtype::f64, count),
              coll::RedOp::sum);
        } else {
          std::vector<double> in = SumCheck::input(t.rank, count),
                              out(count, 0.0);
          co_await c.allreduce(t, coll::of(in.data(), count),
                               coll::of(out.data(), count),
                               coll::RedOp::sum);
          sums.check(out, 0);
        }
      },
      iters, 2,
      planed(sv::sig_allreduce(coll::Dtype::f64, count, coll::RedOp::sum)));
  sums.require("allreduce", count);
  return lat;
}

double Bench::time_barrier(int iters) {
  return timed_sig(
      [](machine::TaskCtx& t, coll::Collectives& c) -> sim::CoTask {
        co_await c.barrier(t);
      },
      iters, 3, sv::sig_barrier());
}

double Bench::time_scatter(std::size_t bytes_per, int iters) {
  bool symbolic = symbolic_;
  ByteCheck bc(cluster_->topology().nranks(), bytes_per);
  double lat = timed_sig(
      [bytes_per, symbolic, &bc](machine::TaskCtx& t,
                                 coll::Collectives& c) -> sim::CoTask {
        auto nranks = static_cast<std::size_t>(t.nranks());
        if (symbolic) {
          coll::Payload send(t.rank == 0 ? nranks : 0, bytes_per);
          coll::Payload recv(1, bytes_per);
          if (t.rank == 0) send.fill_pattern(coll::Dtype::kByte, 11);
          co_await c.scatter(
              t, coll::Buf::symbolic(send, coll::Dtype::kByte, bytes_per),
              coll::Buf::symbolic(recv, coll::Dtype::kByte, bytes_per), 0);
        } else {
          std::vector<char> send;
          if (t.rank == 0) send = bc.all;
          std::vector<char> recv(bytes_per, 0);
          co_await c.scatter(t, coll::Buf::bytes(send.data(), bytes_per),
                             coll::Buf::bytes(recv.data(), bytes_per), 0);
          bc.check(recv.data(), t.rank, 1);
        }
      },
      iters, 2, planed(sv::sig_scatter(coll::Dtype::kByte, bytes_per, 0)));
  bc.require("scatter");
  return lat;
}

double Bench::time_gather(std::size_t bytes_per, int iters) {
  bool symbolic = symbolic_;
  ByteCheck bc(cluster_->topology().nranks(), bytes_per);
  double lat = timed_sig(
      [bytes_per, symbolic, &bc](machine::TaskCtx& t,
                                 coll::Collectives& c) -> sim::CoTask {
        auto nranks = static_cast<std::size_t>(t.nranks());
        if (symbolic) {
          coll::Payload send(1, bytes_per);
          coll::Payload recv(t.rank == 0 ? nranks : 0, bytes_per);
          send.fill_pattern(coll::Dtype::kByte,
                            static_cast<std::uint64_t>(t.rank));
          co_await c.gather(
              t, coll::Buf::symbolic(send, coll::Dtype::kByte, bytes_per),
              coll::Buf::symbolic(recv, coll::Dtype::kByte, bytes_per), 0);
        } else {
          std::vector<char> send(bc.of(t.rank), bc.of(t.rank + 1));
          std::vector<char> recv;
          if (t.rank == 0) recv.resize(bytes_per * nranks);
          co_await c.gather(t, coll::Buf::bytes(send.data(), bytes_per),
                            coll::Buf::bytes(recv.data(), bytes_per), 0);
          if (t.rank == 0) bc.check(recv.data(), 0, t.nranks());
        }
      },
      iters, 2, planed(sv::sig_gather(coll::Dtype::kByte, bytes_per, 0)));
  bc.require("gather");
  return lat;
}

double Bench::time_allgather(std::size_t bytes_per, int iters) {
  bool symbolic = symbolic_;
  ByteCheck bc(cluster_->topology().nranks(), bytes_per);
  double lat = timed_sig(
      [bytes_per, symbolic, &bc](machine::TaskCtx& t,
                                 coll::Collectives& c) -> sim::CoTask {
        auto nranks = static_cast<std::size_t>(t.nranks());
        if (symbolic) {
          coll::Payload send(1, bytes_per);
          coll::Payload recv(nranks, bytes_per);
          send.fill_pattern(coll::Dtype::kByte,
                            static_cast<std::uint64_t>(t.rank));
          co_await c.allgather(
              t, coll::Buf::symbolic(send, coll::Dtype::kByte, bytes_per),
              coll::Buf::symbolic(recv, coll::Dtype::kByte, bytes_per));
        } else {
          std::vector<char> send(bc.of(t.rank), bc.of(t.rank + 1));
          std::vector<char> recv(bytes_per * nranks, 0);
          co_await c.allgather(t, coll::Buf::bytes(send.data(), bytes_per),
                               coll::Buf::bytes(recv.data(), bytes_per));
          bc.check(recv.data(), 0, t.nranks());
        }
      },
      iters, 2, planed(sv::sig_allgather(coll::Dtype::kByte, bytes_per)));
  bc.require("allgather");
  return lat;
}

double Bench::time_reduce_scatter(std::size_t bytes_per, int iters) {
  std::size_t count = std::max<std::size_t>(bytes_per / sizeof(double), 1);
  bool symbolic = symbolic_;
  SumCheck sums(cluster_->topology().nranks());
  double lat = timed_sig(
      [count, symbolic, &sums](machine::TaskCtx& t,
                               coll::Collectives& c) -> sim::CoTask {
        auto nranks = static_cast<std::size_t>(t.nranks());
        if (symbolic) {
          coll::Payload in(nranks, count * sizeof(double));
          coll::Payload out(1, count * sizeof(double));
          in.fill_pattern(coll::Dtype::f64,
                          static_cast<std::uint64_t>(t.rank));
          co_await c.reduce_scatter(
              t, coll::Buf::symbolic(in, coll::Dtype::f64, count),
              coll::Buf::symbolic(out, coll::Dtype::f64, count),
              coll::RedOp::sum);
        } else {
          std::vector<double> in = SumCheck::input(t.rank, count * nranks),
                              out(count, 0.0);
          co_await c.reduce_scatter(t, coll::of(in.data(), count),
                                    coll::of(out.data(), count),
                                    coll::RedOp::sum);
          sums.check(out, count * static_cast<std::size_t>(t.rank));
        }
      },
      iters, 2,
      planed(sv::sig_reduce_scatter(coll::Dtype::f64, count,
                                    coll::RedOp::sum)));
  sums.require("reduce_scatter", count);
  return lat;
}

std::string Bench::stats_json(const std::string& bench) const {
  const auto& topo = cluster_->topology();
  std::ostringstream os;
  os << "{\"bench\":\"" << bench << "\",\"impl\":\"" << impl_name(impl_)
     << "\",\"label\":\"" << coll_->label() << "\",\"nodes\":" << topo.nodes()
     << ",\"tasks_per_node\":" << topo.tasks_per_node()
     << ",\"virtual_time_us\":" << sim::to_us(cluster_->engine().now())
     << ",\"events\":" << cluster_->engine().events_processed()
     << ",\"net\":{\"messages\":" << cluster_->network().messages()
     << ",\"bytes\":" << cluster_->network().bytes()
     << "},\"obs\":" << cluster_->obs().counters_json() << "}";
  return os.str();
}

void Bench::emit_stats(const std::string& bench) const {
  std::string json = stats_json(bench);
  std::printf("BENCH_JSON %s\n", json.c_str());
  std::ofstream out("BENCH_" + bench + ".json");
  out << json << "\n";
}

void Bench::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  out << cluster_->obs().chrome_trace_json() << "\n";
}

std::vector<std::size_t> size_sweep(std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> v;
  for (std::size_t s = lo; s <= hi; s *= 2) v.push_back(s);
  return v;
}

std::vector<int> cpu_sweep() { return {16, 32, 64, 128, 256}; }

void print_table(const std::string& title, const std::string& row_header,
                 const std::vector<std::string>& row_labels,
                 const std::vector<std::string>& col_labels,
                 const std::vector<std::vector<double>>& cells,
                 const std::string& unit) {
  std::printf("\n== %s (%s) ==\n", title.c_str(), unit.c_str());
  std::printf("%12s", row_header.c_str());
  for (const auto& c : col_labels) std::printf(" %12s", c.c_str());
  std::printf("\n");
  for (std::size_t r = 0; r < row_labels.size(); ++r) {
    std::printf("%12s", row_labels[r].c_str());
    for (double v : cells[r]) {
      std::printf(" %12s", util::fmt_us(v).c_str());
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

}  // namespace srm::bench
