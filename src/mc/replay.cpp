#include "mc/replay.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <sstream>
#include <utility>

#include "machine/params.hpp"
#include "shm/flag.hpp"
#include "sim/wait.hpp"
#include "util/check.hpp"

namespace srm::mc {
namespace {

/// FIFO queue of in-flight message clock snapshots (a put on the wire).
struct Chan {
  std::deque<chk::MsgClock> q;
  std::unique_ptr<sim::WaitQueue> wq;
};

/// The turn token: step i belongs to thread order[i]; once the order is
/// exhausted, every thread may run (free-run tail).
struct Turn {
  std::vector<int> order;
  std::size_t next = 0;
  std::unique_ptr<sim::WaitQueue> wq;

  bool mine(int tid) const {
    return next >= order.size() || order[next] == tid;
  }
  void advance() {
    if (next < order.size()) {
      ++next;
      wq->notify();
    }
  }
};

struct Ctx {
  const Program* prog;
  sim::Engine eng;
  chk::Checker checker;
  std::vector<std::unique_ptr<shm::SharedFlag>> flags;
  std::vector<std::vector<std::byte>> bufs;
  std::vector<Chan> chans;
  Turn turn;
  std::size_t threads_done = 0;

  Ctx(const Program& p, const ReplayOptions& opt)
      : prog(&p), checker(eng, static_cast<int>(p.threads.size())) {
    eng.set_tiebreak(opt.tiebreak, opt.seed);
    checker.set_enabled(opt.checker);
    checker.set_trace(opt.trace);
    machine::MemoryParams mem;  // the paper-calibrated flag propagation
    for (std::size_t v = 0; v < p.var_names.size(); ++v) {
      flags.push_back(std::make_unique<shm::SharedFlag>(
          eng, mem, p.var_init[v], p.var_names[v]));
    }
    bufs.resize(p.buf_names.size());
    std::vector<std::uint64_t> hi(p.buf_names.size(), 1);
    for (const Thread& t : p.threads) {
      for (const Op& op : t.ops) {
        if (is_access(op.kind)) {
          std::size_t b = static_cast<std::size_t>(op.obj);
          hi[b] = std::max(hi[b], op.b);
        }
      }
    }
    for (std::size_t b = 0; b < bufs.size(); ++b) {
      bufs[b].resize(hi[b]);
      checker.register_region(bufs[b].data(), bufs[b].size(),
                              p.buf_names[b]);
    }
    chans.resize(p.chan_names.size());
    for (std::size_t c = 0; c < chans.size(); ++c) {
      chans[c].wq =
          std::make_unique<sim::WaitQueue>(eng, p.chan_names[c]);
    }
    turn.wq = std::make_unique<sim::WaitQueue>(eng, "mc.schedule");
  }
};

void run_access(Ctx& cx, const chk::TaskChk& me, const Op& op) {
  std::vector<std::byte>& b = cx.bufs[static_cast<std::size_t>(op.obj)];
  const std::byte* p = b.data() + op.a;
  std::size_t len = op.b - op.a;
  if (op.kind == OpKind::write) {
    chk::note_write(me, p, len);
  } else {
    chk::note_read(me, p, len);
  }
}

sim::CoTask run_sync(Ctx& cx, int tid, const chk::TaskChk& me, const Op& op) {
  shm::SharedFlag* f =
      !is_access(op.kind) && op.kind != OpKind::send && op.kind != OpKind::recv
          ? cx.flags[static_cast<std::size_t>(op.obj)].get()
          : nullptr;
  switch (op.kind) {
    case OpKind::set:
      f->set(op.a, &me);
      break;
    case OpKind::add:
      f->add(op.a, &me);
      break;
    case OpKind::await_eq:
      co_await f->await_value(op.a, &me);
      break;
    case OpKind::await_ne:
      co_await f->await_not(op.a, &me);
      break;
    case OpKind::await_ge:
      co_await f->await_at_least(op.a, &me);
      break;
    case OpKind::wait_dec:
      // LAPI_Waitcntr: block until the counter reaches the threshold, then
      // atomically subtract it (the waiter's own store).
      co_await f->await_at_least(op.a, &me);
      f->set(f->raw_get() - op.a, &me);
      break;
    case OpKind::send: {
      Chan& ch = cx.chans[static_cast<std::size_t>(op.obj)];
      ch.q.push_back(cx.checker.enabled() ? cx.checker.fork(tid)
                                          : chk::MsgClock{});
      ch.wq->notify();
      break;
    }
    case OpKind::recv: {
      Chan& ch = cx.chans[static_cast<std::size_t>(op.obj)];
      co_await ch.wq->wait_until([&ch] { return !ch.q.empty(); }, tid);
      chk::MsgClock m = std::move(ch.q.front());
      ch.q.pop_front();
      if (cx.checker.enabled()) {
        cx.checker.acquire_msg(tid, m, op.label.c_str());
      }
      break;
    }
    case OpKind::write:
    case OpKind::read:
      SRM_CHECK_MSG(false, "access reached run_sync");
  }
}

sim::CoTask run_thread(Ctx& cx, int tid) {
  const std::vector<Op>& ops =
      cx.prog->threads[static_cast<std::size_t>(tid)].ops;
  chk::TaskChk me{&cx.checker, tid};
  std::size_t i = 0;
  // Leading accesses happen before any synchronization (model: at init).
  while (i < ops.size() && is_access(ops[i].kind)) run_access(cx, me, ops[i++]);
  while (i < ops.size()) {
    co_await cx.turn.wq->wait_until(
        [&cx, tid] { return cx.turn.mine(tid); }, tid);
    co_await run_sync(cx, tid, me, ops[i++]);
    // Trailing accesses ride on the synchronization step just taken.
    while (i < ops.size() && is_access(ops[i].kind)) {
      run_access(cx, me, ops[i++]);
    }
    cx.turn.advance();
  }
  ++cx.threads_done;
}

}  // namespace

std::string ReplayResult::to_string() const {
  std::ostringstream os;
  os << (completed ? "completed" : deadlocked ? "deadlocked" : "incomplete")
     << " pinned=" << steps_pinned << " races=" << races.size()
     << " accesses=" << accesses_checked << " sync_ops=" << sync_ops;
  if (deadlocked) os << "\n" << deadlock;
  for (const chk::RaceReport& r : races) os << "\n" << r.to_string();
  return os.str();
}

ReplayResult replay(const Program& p, const std::vector<int>& schedule,
                    const ReplayOptions& opt) {
  p.validate();
  for (int tid : schedule) {
    SRM_CHECK_MSG(tid >= 0 &&
                      static_cast<std::size_t>(tid) < p.threads.size(),
                  "replay: schedule names thread " << tid << " but program '"
                                                   << p.name << "' has "
                                                   << p.threads.size());
  }
  Ctx cx(p, opt);
  cx.turn.order = schedule;
  for (std::size_t t = 0; t < p.threads.size(); ++t) {
    cx.eng.spawn(run_thread(cx, static_cast<int>(t)));
  }
  ReplayResult res;
  try {
    cx.eng.run();
  } catch (const util::CheckError& e) {
    res.deadlocked = true;
    res.deadlock = e.what();
  }
  res.completed = cx.threads_done == p.threads.size();
  res.steps_pinned = cx.turn.next;
  res.races = cx.checker.reports();
  res.accesses_checked = cx.checker.accesses_checked();
  res.sync_ops = cx.checker.sync_ops();
  if (opt.trace) res.trace = cx.checker.trace();
  return res;
}

}  // namespace srm::mc
