#include "lapi/lapi.hpp"

#include <cstring>

namespace srm::lapi {

Endpoint::Endpoint(machine::TaskCtx& ctx)
    : ctx_(&ctx),
      lp_(&ctx.P->lapi),
      put_ctr_(ctx.obs != nullptr ? &ctx.obs->counter("lapi.put", ctx.rank)
                                  : nullptr),
      signal_ctr_(ctx.obs != nullptr
                      ? &ctx.obs->counter("lapi.signal", ctx.rank)
                      : nullptr),
      wait_ctr_(ctx.obs != nullptr ? &ctx.obs->counter("lapi.wait", ctx.rank)
                                   : nullptr),
      call_wq_(*ctx.eng) {}

void Endpoint::on_arrival(std::function<void()> process) {
  sim::Engine& eng = *ctx_->eng;
  std::uint64_t seq = run_seq_ + arrivals_.size();
  arrivals_.push_back(std::move(process));
  if (in_call_) {
    dispatch_at(eng.now() + lp_->poll_dispatch, seq);
  } else if (interrupts_) {
    ++interrupts_taken_;
    dispatch_at(eng.now() + lp_->interrupt_cost, seq);
  }
}

void Endpoint::dispatch_at(sim::Time at, std::uint64_t seq) {
  pending_seq_ = seq + 1;
  ctx_->eng->call_at(at, [this, seq] {
    while (!arrivals_.empty() && run_seq_ <= seq) {
      std::function<void()> process = std::move(arrivals_.front());
      arrivals_.pop_front();
      ++run_seq_;
      process();
    }
  });
}

void Endpoint::drain_pending() {
  sim::Time t = ctx_->eng->now();
  std::uint64_t end = run_seq_ + arrivals_.size();
  while (pending_seq_ < end) {
    t += lp_->poll_dispatch;
    dispatch_at(t, pending_seq_);
  }
}

void Endpoint::set_interrupts(bool enabled) {
  interrupts_ = enabled;
  // Toggling the mode is itself a LAPI library call — a progress
  // opportunity: everything queued while interrupts were off is handled by
  // the dispatcher inline at polling cost, not via an interrupt.
  if (enabled) drain_pending();
}

sim::CoTask Endpoint::put(Endpoint& target, void* dst, const void* src,
                          std::size_t bytes, Counter* tgt_cntr,
                          Counter* org_cntr) {
  SRM_CHECK_MSG(ctx_->node() != target.ctx_->node(),
                "LAPI put must cross nodes (use shared memory locally)");
  if (bytes > 0) {
    if (put_ctr_ != nullptr) put_ctr_->add(static_cast<double>(bytes));
  } else if (signal_ctr_ != nullptr) {
    signal_ctr_->add();
  }
  co_await ctx_->delay(lp_->call_overhead + ctx_->P->net.o_send);

  // Happens-before: the put carries a clock snapshot from the origin (fork).
  // The NIC's read of the source buffer is an origin-attributed access; the
  // deposit at the target is a write attributed to the same message; every
  // counter bump joins the message clock so Waitcntr acquires it.
  std::shared_ptr<chk::MsgClock> msg;
  chk::Checker* ck = nullptr;
  if (chk::on(ctx_->chk)) {
    ck = ctx_->chk.checker;
    msg = std::make_shared<chk::MsgClock>(ck->fork(ctx_->chk.actor));
    if (bytes > 0 && src != nullptr) {
      ck->access_remote(*msg, src, bytes, chk::Access::read);
    }
  }

  // LAPI semantics: the origin buffer is reusable once the message has left
  // the adapter (org_cntr). Model that faithfully by snapshotting the
  // payload at egress-complete time; the deposit at the target then reads
  // the snapshot, so a (correctly synchronized) origin-side overwrite after
  // the org bump cannot corrupt the data in flight — while an overwrite
  // *before* the bump corrupts it exactly as real hardware would.
  auto staging = std::make_shared<std::vector<std::byte>>();
  auto process = [dst, bytes, tgt_cntr, staging, ck, msg] {
    if (bytes > 0) {
      SRM_CHECK(dst != nullptr);
      SRM_CHECK(staging->size() == bytes);
      if (ck != nullptr) {
        ck->access_remote(*msg, dst, bytes, chk::Access::write);
      }
      std::memcpy(dst, staging->data(), bytes);
    }
    if (tgt_cntr != nullptr) {
      if (ck != nullptr) ck->join(tgt_cntr->sync_, *msg);
      tgt_cntr->bump();
    }
  };

  auto res = ctx_->cluster->network().inject(
      ctx_->node(), target.ctx_->node(), static_cast<double>(bytes),
      [&target, process = std::move(process)]() mutable {
        target.on_arrival(std::move(process));
      });

  if (bytes > 0) {
    SRM_CHECK(src != nullptr);
    const std::byte* sp = static_cast<const std::byte*>(src);
    ctx_->eng->call_at(res.egress_end, [staging, sp, bytes] {
      staging->assign(sp, sp + bytes);
    });
  }

  if (org_cntr != nullptr) {
    // Origin buffer reusable once fully injected; the origin dispatcher
    // makes the bump visible under the usual rules.
    ctx_->eng->call_at(res.egress_end, [this, org_cntr, ck, msg] {
      on_arrival([org_cntr, ck, msg] {
        if (ck != nullptr) ck->join(org_cntr->sync_, *msg);
        org_cntr->bump();
      });
    });
  }
}

sim::CoTask Endpoint::wait_cntr(Counter& c, std::uint64_t value) {
  co_await ctx_->delay(lp_->call_overhead);
  ++in_call_;
  drain_pending();
  sim::Time blocked_from = ctx_->eng->now();
  co_await c.wq_.wait_until([&c, value] { return c.value_ >= value; },
                            ctx_->rank);
  c.value_ -= value;
  chk::acq(&ctx_->chk, c.sync_,
           c.label_.empty() ? nullptr : c.label_.c_str());
  if (wait_ctr_ != nullptr)
    wait_ctr_->add(static_cast<double>(ctx_->eng->now() - blocked_from));
  --in_call_;
}

Fabric::Fabric(machine::Cluster& cluster) : cluster_(&cluster) {
  eps_.resize(static_cast<std::size_t>(cluster.topology().nranks()));
}

}  // namespace srm::lapi
