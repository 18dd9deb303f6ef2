#include "runner.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using srm::coll::Buf;
using srm::coll::Dtype;
using srm::coll::Payload;
using srm::coll::RedOp;

constexpr std::size_t kPoisonStride = 512;
constexpr std::byte kPoison{0xA5};

/// Marks [p, p + bytes) as unwritten: no pattern byte is 0xA5, and neither
/// is the low byte of a small-integer double.
void poison(std::byte* p, std::size_t bytes) {
  if (bytes == 0) return;
  for (std::size_t off = 0; off < bytes; off += kPoisonStride) p[off] = kPoison;
  p[bytes - 1] = kPoison;
}

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// The digest checksum the symbolic inputs carry for (call tag, rank).
std::uint64_t digest_tag(std::uint64_t tag, int rank) {
  srm::util::SplitMix64 mix(tag ^ (static_cast<std::uint64_t>(rank) << 32));
  return mix.next();
}

}  // namespace

Runner::Runner(const Workload& w, std::uint64_t data_seed)
    : w_(w), n_(w.nranks()), seed_(data_seed) {
  end_.assign(static_cast<std::size_t>(n_), 0);
  if (w.symbolic) return;
  const auto n = static_cast<std::size_t>(n_);
  // Buffer sizes come from the mix bounds, not the drawn calls, so memory
  // does not depend on the seed.
  std::size_t src_words = 0, bsrc_bytes = 0, out_bytes = 0;
  for (const OpMix& m : w.mix) {
    const std::size_t hi = m.hi;
    switch (m.op) {
      case CollKind::bcast:
        bsrc_bytes = std::max(bsrc_bytes, hi);
        out_bytes = std::max(out_bytes, hi);
        break;
      case CollKind::reduce:
      case CollKind::allreduce:
        src_words = std::max(src_words, hi / 8);
        out_bytes = std::max(out_bytes, hi);
        break;
      case CollKind::reduce_scatter:
        src_words = std::max(src_words, n * (hi / 8));
        out_bytes = std::max(out_bytes, hi);
        break;
      case CollKind::scatter:
        bsrc_bytes = std::max(bsrc_bytes, n * hi);
        out_bytes = std::max(out_bytes, hi);
        break;
      case CollKind::gather:
      case CollKind::allgather:
        bsrc_bytes = std::max(bsrc_bytes, n * hi);
        out_bytes = std::max(out_bytes, n * hi);
        break;
      case CollKind::barrier:
        break;
    }
  }
  if (src_words > 0) {
    src_words += kMaxShift;
    ref_ = std::make_unique<double[]>(src_words);  // zeroed
    for (std::size_t r = 0; r < n; ++r) {
      src_.push_back(std::make_unique_for_overwrite<double[]>(src_words));
      srm::coll::fill_pattern(src_.back().get(), Dtype::f64, 1, src_words,
                              seed_, r);
      const double* s = src_.back().get();
      for (std::size_t j = 0; j < src_words; ++j) ref_[j] += s[j];
    }
  }
  if (bsrc_bytes > 0) {
    bsrc_bytes += 8 * kMaxShift;
    bsrc_ = std::make_unique_for_overwrite<std::byte[]>(bsrc_bytes);
    srm::coll::fill_pattern(bsrc_.get(), Dtype::kByte, 1, bsrc_bytes,
                            seed_ + 1, n);
  }
  // Zero-filled, so every page is resident before the first timed call.
  for (std::size_t r = 0; r < n; ++r) {
    out_.push_back(std::make_unique<double[]>((out_bytes + 7) / 8));
  }
}

SetupTimes Runner::set_up(Stack& s, HostTrace* trace) {
  s.reset();
  srm::machine::ClusterConfig cc;
  cc.nodes = w_.nodes;
  cc.tasks_per_node = w_.tasks_per_node;
  cc.params = w_.params;
  srm::SrmConfig cfg;
  cfg.single_copy = w_.single_copy;

  SetupTimes st;
  const double t0 = host_now();
  s.cluster = std::make_unique<srm::machine::Cluster>(cc);
  const double t1 = host_now();
  s.fabric = std::make_unique<srm::lapi::Fabric>(*s.cluster);
  const double t2 = host_now();
  s.comm = std::make_unique<srm::Communicator>(*s.cluster, *s.fabric, cfg);
  const double t3 = host_now();
  st.cluster_s = t1 - t0;
  st.fabric_s = t2 - t1;
  st.comm_s = t3 - t2;

  Call warm;  // a barrier on the real plane
  if (w_.symbolic) {
    warm.op = CollKind::bcast;
    warm.count = 8;
    warm.tag = 1;
  }
  double spans[2][2] = {};
  for (int i = 0; i < 2; ++i) {
    prepare(warm);
    spans[i][0] = host_now();
    const RunCost rc = run(s, warm);
    spans[i][1] = host_now();
    (i == 0 ? st.warmup_s : st.repeat_s) = rc.host_s;
    SRM_CHECK_MSG(check(warm, false) == 0, "warm-up op failed its check");
  }
  if (trace != nullptr) {
    trace->add("machine.Cluster()", t0, t1);
    trace->add("lapi.Fabric()", t1, t2);
    trace->add("core.Communicator()", t2, t3);
    trace->add("core.warmup_op", spans[0][0], spans[0][1]);
    trace->add("core.repeat_op", spans[1][0], spans[1][1]);
  }
  return st;
}

void Runner::prepare(const Call& c) {
  const std::size_t bytes = c.count * srm::coll::dtype_size(dtype_of(c.op));
  const auto n = static_cast<std::size_t>(n_);
  if (w_.symbolic) {
    send_.clear();
    recv_.clear();
    if (c.op == CollKind::barrier) return;
    send_.assign(n, Payload(1, bytes));
    if (c.op == CollKind::bcast) {
      Payload::Block& b = send_[static_cast<std::size_t>(c.root)].block(0);
      b.sum = c.tag;
      for (std::size_t i = 0; i < send_[0].win_len(); ++i) {
        b.win[i] = static_cast<std::byte>(
            srm::coll::pattern_value(seed_ + 1, n, 8 * c.shift + i) & 0xff);
      }
      want_ = send_[static_cast<std::size_t>(c.root)];
      return;
    }
    SRM_CHECK_MSG(c.op == CollKind::allreduce,
                  "the symbolic plane runs bcast, allreduce and barrier");
    recv_.assign(n, Payload(1, bytes));
    for (std::size_t r = 0; r < n; ++r) {
      Payload::Block& b = send_[r].block(0);
      b.sum = digest_tag(c.tag, static_cast<int>(r));
      for (std::size_t i = 0; i < send_[r].win_len() / 8; ++i) {
        const auto v =
            static_cast<double>(srm::coll::pattern_value(seed_, r, c.shift + i));
        std::memcpy(b.win.data() + 8 * i, &v, 8);
      }
    }
    want_ = send_[0];
    for (std::size_t r = 1; r < n; ++r) {
      want_.combine_blocks(send_[r], 0, 0, 1, Dtype::f64, RedOp::sum);
    }
    return;
  }
  switch (c.op) {
    case CollKind::bcast:
      for (int r = 0; r < n_; ++r) poison(out(r), bytes);
      std::memcpy(out(c.root), bsrc(c.shift), bytes);
      break;
    case CollKind::reduce:
      poison(out(c.root), bytes);
      break;
    case CollKind::gather:
      poison(out(c.root), n * bytes);
      break;
    case CollKind::allgather:
      for (int r = 0; r < n_; ++r) poison(out(r), n * bytes);
      break;
    case CollKind::allreduce:
    case CollKind::reduce_scatter:
    case CollKind::scatter:
      for (int r = 0; r < n_; ++r) poison(out(r), bytes);
      break;
    case CollKind::barrier:
      break;
  }
}

srm::sim::CoTask Runner::rank_call(srm::machine::TaskCtx& t,
                                   srm::Communicator& comm, const Call& c) {
  const int r = t.rank;
  const std::size_t k = c.count;
  if (w_.symbolic) {
    const auto ri = static_cast<std::size_t>(r);
    switch (c.op) {
      case CollKind::bcast:
        co_await comm.bcast(t, Buf::symbolic(send_[ri], Dtype::kByte, k),
                            c.root);
        break;
      case CollKind::allreduce:
        co_await comm.allreduce(t, Buf::symbolic(send_[ri], Dtype::f64, k),
                                Buf::symbolic(recv_[ri], Dtype::f64, k),
                                RedOp::sum);
        break;
      default:
        co_await comm.barrier(t);
        break;
    }
    live_peak_ = std::max(live_peak_, Payload::live_bytes());
  } else {
    switch (c.op) {
      case CollKind::bcast:
        co_await comm.bcast(t, Buf::bytes(out(r), k), c.root);
        break;
      case CollKind::reduce:
        co_await comm.reduce(t, srm::coll::of(src(r, c.shift), k),
                             srm::coll::of(out_f64(r), k), RedOp::sum, c.root);
        break;
      case CollKind::allreduce:
        co_await comm.allreduce(t, srm::coll::of(src(r, c.shift), k),
                                srm::coll::of(out_f64(r), k), RedOp::sum);
        break;
      case CollKind::barrier:
        co_await comm.barrier(t);
        break;
      case CollKind::scatter:
        co_await comm.scatter(t, Buf::bytes(bsrc(c.shift), k),
                              Buf::bytes(out(r), k), c.root);
        break;
      case CollKind::gather:
        co_await comm.gather(t, Buf::bytes(mine(r, c), k),
                             Buf::bytes(out(r), k), c.root);
        break;
      case CollKind::allgather:
        co_await comm.allgather(t, Buf::bytes(mine(r, c), k),
                                Buf::bytes(out(r), k));
        break;
      case CollKind::reduce_scatter:
        co_await comm.reduce_scatter(t, srm::coll::of(src(r, c.shift), k),
                                     srm::coll::of(out_f64(r), k), RedOp::sum);
        break;
    }
  }
  end_[static_cast<std::size_t>(r)] = t.eng->now();
}

RunCost Runner::run(Stack& s, const Call& c) {
  auto& cluster = *s.cluster;
  std::fill(end_.begin(), end_.end(), 0);
  if (w_.symbolic) live_peak_ = std::max(live_peak_, Payload::live_bytes());
  const srm::sim::Time start = cluster.engine().now();
  const std::uint64_t ev0 = cluster.engine().events_processed();
  rusage ru0{}, ru1{};
  getrusage(RUSAGE_SELF, &ru0);
  const auto h0 = std::chrono::steady_clock::now();
  cluster.run([&](srm::machine::TaskCtx& t) { return rank_call(t, *s.comm, c); });
  const auto h1 = std::chrono::steady_clock::now();
  getrusage(RUSAGE_SELF, &ru1);

  RunCost rc;
  rc.virt = *std::max_element(end_.begin(), end_.end()) - start;
  rc.host_s = std::chrono::duration<double>(h1 - h0).count();
  rc.events = cluster.engine().events_processed() - ev0;
  rc.minflt = ru1.ru_minflt - ru0.ru_minflt;
  rc.user_s = tv_s(ru1.ru_utime) - tv_s(ru0.ru_utime);
  rc.sys_s = tv_s(ru1.ru_stime) - tv_s(ru0.ru_stime);
  return rc;
}

int Runner::check(const Call& c, bool corrupt) {
  int bad = 0;
  const std::size_t bytes = c.count * srm::coll::dtype_size(dtype_of(c.op));
  const std::size_t n = static_cast<std::size_t>(n_);
  if (w_.symbolic) {
    auto cmp = [&](Payload& got) {
      if (corrupt) {
        got.block(0).sum ^= 1;
        corrupt = false;
      }
      if (!got.identical_to(want_)) {
        ++bad;
        ++wrong_bytes_;
      }
    };
    for (std::size_t r = 0; r < n && c.op != CollKind::barrier; ++r) {
      cmp(c.op == CollKind::bcast ? send_[r] : recv_[r]);
    }
    return bad;
  }
  auto cmp = [&](std::byte* got, const void* want, std::size_t len) {
    if (corrupt) {
      got[0] ^= std::byte{0xff};
      corrupt = false;
    }
    if (std::memcmp(got, want, len) == 0) return;
    ++bad;
    const auto* w = static_cast<const std::byte*>(want);
    for (std::size_t i = 0; i < len; ++i) wrong_bytes_ += got[i] != w[i];
  };
  const double* ref = ref_ ? ref_.get() + c.shift : nullptr;
  switch (c.op) {
    case CollKind::bcast:
      for (int r = 0; r < n_; ++r) cmp(out(r), bsrc(c.shift), bytes);
      break;
    case CollKind::reduce:
      cmp(out(c.root), ref, bytes);
      break;
    case CollKind::allreduce:
      for (int r = 0; r < n_; ++r) cmp(out(r), ref, bytes);
      break;
    case CollKind::reduce_scatter:
      for (int r = 0; r < n_; ++r) {
        cmp(out(r), ref + static_cast<std::size_t>(r) * c.count, bytes);
      }
      break;
    case CollKind::scatter:
      for (int r = 0; r < n_; ++r) {
        cmp(out(r), bsrc(c.shift) + static_cast<std::size_t>(r) * bytes, bytes);
      }
      break;
    case CollKind::gather:
      cmp(out(c.root), bsrc(c.shift), n * bytes);
      break;
    case CollKind::allgather:
      for (int r = 0; r < n_; ++r) cmp(out(r), bsrc(c.shift), n * bytes);
      break;
    case CollKind::barrier:
      break;
  }
  return bad;
}

}  // namespace perfbench
