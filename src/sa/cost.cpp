#include "sa/cost.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <set>
#include <sstream>
#include <utility>

namespace srm::sa {
namespace {

double dur_ns(sim::Duration d) { return static_cast<double>(d); }

/// Thread taxonomy by the protocol naming convention: rank threads are
/// "r<node>.<local>", per-node dispatcher threads "nic<n>", origin-side
/// adapter engines "adp<n>".
struct ThreadInfo {
  enum class Kind { rank, nic, adp } kind = Kind::rank;
  int node = 0;
  int local = 0;
};

ThreadInfo classify_thread(const std::string& name) {
  ThreadInfo ti;
  if (name.rfind("nic", 0) == 0) {
    ti.kind = ThreadInfo::Kind::nic;
    ti.node = std::atoi(name.c_str() + 3);
  } else if (name.rfind("adp", 0) == 0) {
    ti.kind = ThreadInfo::Kind::adp;
    ti.node = std::atoi(name.c_str() + 3);
  } else if (name.rfind("r", 0) == 0) {
    ti.kind = ThreadInfo::Kind::rank;
    ti.node = std::atoi(name.c_str() + 1);
    auto dot = name.find('.');
    if (dot != std::string::npos) ti.local = std::atoi(name.c_str() + dot + 1);
  }
  return ti;
}

struct Msg {
  double deliver = 0.0;
  Formula f;
  std::vector<std::uint64_t> vc;
};

struct AccessRec {
  int tid = 0;
  std::uint64_t lo = 0, hi = 0;
  bool write = false;
  std::uint64_t epoch = 0;
  std::string label;
};

void join_into(std::vector<std::uint64_t>& dst,
               const std::vector<std::uint64_t>& src) {
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = std::max(dst[i], src[i]);
}

}  // namespace

const char* atom_name(Atom a) {
  switch (a) {
    case Atom::copy_start: return "copy_start";
    case Atom::copy_bytes: return "B_copy";
    case Atom::combine_bytes: return "B_combine";
    case Atom::flag_set: return "flag_set";
    case Atom::flag_poll: return "poll";
    case Atom::lapi_call: return "lapi";
    case Atom::poll_dispatch: return "dispatch";
    case Atom::o_send: return "o_send";
    case Atom::gap: return "g";
    case Atom::latency: return "L";
    case Atom::wire_bytes: return "B_wire";
    case Atom::map_publish: return "map_publish";
    case Atom::map_attach: return "map_attach";
  }
  return "?";
}

CostRates CostRates::from(const machine::MachineParams& p) {
  CostRates r;
  auto at = [&r](Atom a) -> double& {
    return r.ns[static_cast<std::size_t>(a)];
  };
  at(Atom::copy_start) = dur_ns(p.mem.copy_startup);
  at(Atom::copy_bytes) = 1e9 / p.mem.copy_bw_per_cpu;
  at(Atom::combine_bytes) = 1e9 / p.mem.reduce_bw_per_cpu;
  at(Atom::flag_set) = dur_ns(p.mem.flag_propagation);
  at(Atom::flag_poll) = dur_ns(p.mem.flag_poll);
  at(Atom::lapi_call) = dur_ns(p.lapi.call_overhead);
  at(Atom::poll_dispatch) = dur_ns(p.lapi.poll_dispatch);
  at(Atom::o_send) = dur_ns(p.net.o_send);
  at(Atom::gap) = dur_ns(p.net.gap);
  at(Atom::latency) = dur_ns(p.net.latency);
  at(Atom::wire_bytes) = 1e9 / p.net.bytes_per_sec;
  at(Atom::map_publish) = dur_ns(p.topo.map_publish);
  at(Atom::map_attach) = dur_ns(p.topo.map_attach);
  r.topo = p.topo;
  return r;
}

void Formula::accumulate(const Formula& o) {
  for (int i = 0; i < kAtomCount; ++i) n[static_cast<std::size_t>(i)] +=
      o.n[static_cast<std::size_t>(i)];
}

double Formula::eval(const CostRates& r) const {
  double total = 0.0;
  for (int i = 0; i < kAtomCount; ++i) {
    total += n[static_cast<std::size_t>(i)] * r.ns[static_cast<std::size_t>(i)];
  }
  return total;
}

std::string Formula::to_string() const {
  std::ostringstream os;
  bool first = true;
  for (int i = 0; i < kAtomCount; ++i) {
    double v = n[static_cast<std::size_t>(i)];
    if (v == 0.0) continue;
    if (!first) os << " + ";
    first = false;
    if (v == std::floor(v)) {
      os << static_cast<long long>(v);
    } else {
      os << v;
    }
    os << " " << atom_name(static_cast<Atom>(i));
  }
  if (first) os << "0";
  return os.str();
}

double Plan::unit_of(const std::string& buf_name) const {
  for (const auto& [needle, unit] : unit_overrides) {
    if (buf_name.find(needle) != std::string::npos) return unit;
  }
  return default_unit;
}

bool Plan::accumulates(const std::string& buf_name) const {
  for (const std::string& needle : accumulators) {
    if (buf_name.find(needle) != std::string::npos) return true;
  }
  return false;
}

AnalyzeResult analyze(const mc::Program& p, const Plan& plan,
                      const CostRates& rates) {
  const int nthreads = static_cast<int>(p.threads.size());
  auto rate = [&rates](Atom a) {
    return rates.ns[static_cast<std::size_t>(a)];
  };

  std::vector<ThreadInfo> tinfo;
  tinfo.reserve(p.threads.size());
  for (const mc::Thread& t : p.threads) tinfo.push_back(classify_thread(t.name));

  // --- static pre-passes ----------------------------------------------------
  // Channel classification: the (single) receiving thread decides whether a
  // send is an origin-side handoff to the adapter (local, o_send only) or a
  // wire message (link occupancy + latency); the k-th recv site's following
  // deposit write sizes the k-th message's payload.
  const int nchans = static_cast<int>(p.chan_names.size());
  std::vector<int> chan_receiver(static_cast<std::size_t>(nchans), -1);
  std::vector<std::vector<double>> chan_payload(
      static_cast<std::size_t>(nchans));
  for (int tid = 0; tid < nthreads; ++tid) {
    const auto& ops = p.threads[static_cast<std::size_t>(tid)].ops;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind != mc::OpKind::recv) continue;
      auto c = static_cast<std::size_t>(ops[i].obj);
      chan_receiver[c] = tid;
      // Payload: the first deposit write after this recv, before the next
      // blocking op. Counter-only receptions are zero-byte signals.
      double bytes = 0.0;
      for (std::size_t j = i + 1; j < ops.size(); ++j) {
        if (mc::blocking(ops[j].kind)) break;
        if (ops[j].kind == mc::OpKind::write) {
          const std::string& bn =
              p.buf_names[static_cast<std::size_t>(ops[j].obj)];
          bytes = static_cast<double>(ops[j].b - ops[j].a) * plan.unit_of(bn);
          break;
        }
      }
      chan_payload[c].push_back(bytes);
    }
  }

  // Maximal runs of consecutive buffer accesses: one run is one data
  // movement (e.g. read slot + write res = one combine), charged when its
  // last access executes.
  std::vector<std::vector<std::size_t>> run_last(
      static_cast<std::size_t>(nthreads));
  for (int tid = 0; tid < nthreads; ++tid) {
    const auto& ops = p.threads[static_cast<std::size_t>(tid)].ops;
    auto& rl = run_last[static_cast<std::size_t>(tid)];
    rl.assign(ops.size(), 0);
    std::size_t i = 0;
    while (i < ops.size()) {
      if (!mc::is_access(ops[i].kind)) {
        rl[i] = i;
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j + 1 < ops.size() && mc::is_access(ops[j + 1].kind)) ++j;
      for (std::size_t k = i; k <= j; ++k) rl[k] = j;
      i = j + 1;
    }
  }

  // Window lookup (single-copy protocols): buffer -> window index.
  std::vector<int> win_of_buf(p.buf_names.size(), -1);
  std::vector<int> win_of_pub(p.var_names.size(), -1);
  for (std::size_t w = 0; w < p.windows.size(); ++w) {
    win_of_buf[static_cast<std::size_t>(p.windows[w].buf)] =
        static_cast<int>(w);
    win_of_pub[static_cast<std::size_t>(p.windows[w].pub_var)] =
        static_cast<int>(w);
  }

  // --- dynamic state --------------------------------------------------------
  struct TState {
    std::size_t pc = 0;
    double t = 0.0;
    Formula f;
    std::vector<std::uint64_t> vc;
    double run_read = 0.0, run_write = 0.0;
    bool run_combine = false;
  };
  // One release (set / add / wait_dec) of a variable. Awaits complete
  // *eagerly*: against the earliest release whose resulting value satisfies
  // their guard, acquiring only the clock accumulated up to that release.
  // Resuming against the latest release instead (the lazy schedule) would
  // hand the awaiter happens-before edges from everything the producer did
  // since, masking races that a dropped-gate mutant actually has; the eager
  // completion is itself a legal interleaving (awaits write nothing, so they
  // commute backwards past unrelated later releases).
  struct Rel {
    std::uint64_t val = 0;  ///< variable value after this release
    double t = 0.0;         ///< visibility time (release + flag propagation)
    Formula f;              ///< critical path an awaiter adopts
    std::vector<std::uint64_t> vc;  ///< clock accumulated through here
    int rel_tid = 0;
    std::uint64_t rel_epoch = 0;    ///< releaser's own clock at the release
  };
  struct VState {
    std::uint64_t v = 0;
    double t = 0.0;
    Formula f;
    std::vector<std::uint64_t> vc;
    std::vector<Rel> hist;
  };
  std::vector<TState> th(static_cast<std::size_t>(nthreads));
  for (int i = 0; i < nthreads; ++i) {
    th[static_cast<std::size_t>(i)].vc.assign(
        static_cast<std::size_t>(nthreads), 0);
    th[static_cast<std::size_t>(i)].vc[static_cast<std::size_t>(i)] = 1;
  }
  std::vector<VState> vars(p.var_names.size());
  for (std::size_t i = 0; i < vars.size(); ++i) {
    vars[i].v = p.var_init[i];
    vars[i].vc.assign(static_cast<std::size_t>(nthreads), 0);
  }
  std::vector<std::deque<Msg>> chans(static_cast<std::size_t>(nchans));
  std::vector<int> chan_sends(static_cast<std::size_t>(nchans), 0);
  std::vector<double> link_free;  // per-node egress occupancy
  std::vector<std::vector<AccessRec>> recs(p.buf_names.size());
  std::set<std::pair<int, int>> attached;  // (tid, window): attach paid once

  AnalyzeResult out;
  std::set<std::string> race_keys;

  auto link_slot = [&link_free](int node) -> double& {
    if (static_cast<std::size_t>(node) >= link_free.size()) {
      link_free.resize(static_cast<std::size_t>(node) + 1, 0.0);
    }
    return link_free[static_cast<std::size_t>(node)];
  };

  auto record_access = [&](int tid, const mc::Op& op) {
    auto& rv = recs[static_cast<std::size_t>(op.obj)];
    bool is_w = op.kind == mc::OpKind::write;
    const auto& vc = th[static_cast<std::size_t>(tid)].vc;
    for (const AccessRec& r : rv) {
      bool overlap = r.lo < op.b && op.a < r.hi;
      if (!overlap || (!r.write && !is_w) || r.tid == tid) continue;
      if (vc[static_cast<std::size_t>(r.tid)] >= r.epoch) continue;
      std::string key = p.buf_names[static_cast<std::size_t>(op.obj)] + "|" +
                        r.label + "|" + op.label;
      if (race_keys.insert(key).second) {
        out.races.push_back(
            Race{p.buf_names[static_cast<std::size_t>(op.obj)],
                 p.threads[static_cast<std::size_t>(r.tid)].name, r.label,
                 p.threads[static_cast<std::size_t>(tid)].name, op.label});
      }
    }
    rv.push_back(AccessRec{tid, op.a, op.b, is_w,
                           vc[static_cast<std::size_t>(tid)], op.label});
  };

  auto release_var = [&](VState& vs, TState& ts, int tid) {
    Rel r;
    r.val = vs.v;
    r.t = vs.t;
    r.f = vs.f;
    r.vc = vs.vc;
    r.rel_tid = tid;
    r.rel_epoch = ts.vc[static_cast<std::size_t>(tid)];
    vs.hist.push_back(std::move(r));
  };

  auto guard_ok = [](const mc::Op& op, std::uint64_t val) {
    switch (op.kind) {
      case mc::OpKind::await_eq:
        return val == op.a;
      case mc::OpKind::await_ne:
        return val != op.a;
      default:  // await_ge
        return val >= op.a;
    }
  };

  // Earliest state of op.obj this await can complete against. States are
  // "init" (-1) and "after release k". A state is admissible only if no
  // *later* release already happens-before the awaiting thread (you cannot
  // observe a value you provably know was overwritten). Returns the release
  // index, or -2 when no admissible state satisfies the guard (blocked).
  auto await_pick = [&](const TState& ts, const mc::Op& op) -> int {
    const VState& vs = vars[static_cast<std::size_t>(op.obj)];
    int m = -1;
    for (int j = static_cast<int>(vs.hist.size()) - 1; j >= 0; --j) {
      const Rel& r = vs.hist[static_cast<std::size_t>(j)];
      if (ts.vc[static_cast<std::size_t>(r.rel_tid)] >= r.rel_epoch) {
        m = j;
        break;
      }
    }
    for (int k = m; k < static_cast<int>(vs.hist.size()); ++k) {
      std::uint64_t val =
          k < 0 ? p.var_init[static_cast<std::size_t>(op.obj)]
                : vs.hist[static_cast<std::size_t>(k)].val;
      if (guard_ok(op, val)) return k;
    }
    return -2;
  };

  // --- canonical ASAP schedule ---------------------------------------------
  const std::size_t max_steps = p.total_ops() + 1;
  for (std::size_t step = 0; step < max_steps * 2; ++step) {
    int best = -1;
    double best_start = 0.0;
    bool best_blocking = false;
    for (int tid = 0; tid < nthreads; ++tid) {
      auto& ts = th[static_cast<std::size_t>(tid)];
      const auto& ops = p.threads[static_cast<std::size_t>(tid)].ops;
      if (ts.pc >= ops.size()) continue;
      const mc::Op& op = ops[ts.pc];
      double start = ts.t;
      bool enabled = true;
      bool is_blocking = mc::blocking(op.kind);
      switch (op.kind) {
        case mc::OpKind::await_eq:
        case mc::OpKind::await_ne:
        case mc::OpKind::await_ge: {
          int k = await_pick(ts, op);
          enabled = k != -2;
          if (enabled && k >= 0) {
            start = std::max(
                start, vars[static_cast<std::size_t>(op.obj)]
                           .hist[static_cast<std::size_t>(k)]
                           .t);
          }
          break;
        }
        case mc::OpKind::wait_dec:
          enabled = vars[static_cast<std::size_t>(op.obj)].v >= op.a;
          if (enabled) {
            start = std::max(start, vars[static_cast<std::size_t>(op.obj)].t);
          }
          break;
        case mc::OpKind::recv:
          enabled = !chans[static_cast<std::size_t>(op.obj)].empty();
          if (enabled) {
            start = std::max(start,
                             chans[static_cast<std::size_t>(op.obj)].front()
                                 .deliver);
          }
          break;
        default:
          break;
      }
      if (!enabled) continue;
      if (best < 0 || start < best_start ||
          (start == best_start && is_blocking && !best_blocking)) {
        best = tid;
        best_start = start;
        best_blocking = is_blocking;
      }
    }
    if (best < 0) break;

    auto& ts = th[static_cast<std::size_t>(best)];
    const auto& ops = p.threads[static_cast<std::size_t>(best)].ops;
    const mc::Op& op = ops[ts.pc];
    const ThreadInfo& ti = tinfo[static_cast<std::size_t>(best)];

    switch (op.kind) {
      case mc::OpKind::set:
      case mc::OpKind::add: {
        auto& vs = vars[static_cast<std::size_t>(op.obj)];
        int w = win_of_pub[static_cast<std::size_t>(op.obj)];
        if (op.kind == mc::OpKind::set) {
          if (w >= 0 && op.a != 0 &&
              p.windows[static_cast<std::size_t>(w)].owner == best) {
            ts.t += rate(Atom::map_publish);
            ts.f.bump(Atom::map_publish);
          }
          vs.v = op.a;
        } else {
          vs.v += op.a;
        }
        vs.t = ts.t + rate(Atom::flag_set);
        vs.f = ts.f;
        vs.f.bump(Atom::flag_set);
        join_into(vs.vc, ts.vc);
        release_var(vs, ts, best);
        ++ts.vc[static_cast<std::size_t>(best)];
        break;
      }
      case mc::OpKind::await_eq:
      case mc::OpKind::await_ne:
      case mc::OpKind::await_ge:
      case mc::OpKind::wait_dec: {
        auto& vs = vars[static_cast<std::size_t>(op.obj)];
        int pick = op.kind == mc::OpKind::wait_dec ? -1 : await_pick(ts, op);
        if (op.kind == mc::OpKind::wait_dec) {
          if (vs.t > ts.t) ts.f = vs.f;
        } else if (pick >= 0) {
          const Rel& r = vs.hist[static_cast<std::size_t>(pick)];
          if (r.t > ts.t) ts.f = r.f;
        }
        ts.t = best_start + rate(Atom::flag_poll);
        ts.f.bump(Atom::flag_poll);
        int w = win_of_pub[static_cast<std::size_t>(op.obj)];
        if (w >= 0 && p.windows[static_cast<std::size_t>(w)].owner != best &&
            attached.insert({best, w}).second) {
          ts.t += rate(Atom::map_attach);
          ts.f.bump(Atom::map_attach);
        }
        if (op.kind == mc::OpKind::wait_dec) {
          join_into(ts.vc, vs.vc);
          ts.t += rate(Atom::lapi_call);
          ts.f.bump(Atom::lapi_call);
          vs.v -= op.a;
          vs.t = ts.t + rate(Atom::flag_set);
          vs.f = ts.f;
          join_into(vs.vc, ts.vc);
          release_var(vs, ts, best);
          ++ts.vc[static_cast<std::size_t>(best)];
        } else if (pick >= 0) {
          join_into(ts.vc, vs.hist[static_cast<std::size_t>(pick)].vc);
        }
        break;
      }
      case mc::OpKind::write:
      case mc::OpKind::read: {
        record_access(best, op);
        const std::string& bn =
            p.buf_names[static_cast<std::size_t>(op.obj)];
        double bytes =
            static_cast<double>(op.b - op.a) * plan.unit_of(bn);
        int w = win_of_buf[static_cast<std::size_t>(op.obj)];
        if (ti.kind != ThreadInfo::Kind::rank) {
          bytes = 0.0;  // wire / handoff time is charged at the send
        } else if (w >= 0) {
          const mc::Window& win = p.windows[static_cast<std::size_t>(w)];
          if (win.owner == best) {
            // The window *is* the owner's user buffer: its writes model
            // production and retract-reuse, not a staging copy.
            bytes = 0.0;
          } else if (op.kind == mc::OpKind::read && op.b > op.a) {
            // Each byte is pulled from where its last write left it:
            // dirty from the rank that wrote it, clean from the owner's
            // memory when a NIC deposited it, dirty from the owner when
            // nobody wrote it.
            int owner = tinfo[static_cast<std::size_t>(win.owner)].local;
            const auto& rv = recs[static_cast<std::size_t>(op.obj)];
            double f = 0.0;
            for (std::uint64_t x = op.a; x < op.b; ++x) {
              int src = owner;
              bool dirty = true;
              for (auto r = rv.rbegin(); r != rv.rend(); ++r) {
                if (!r->write || x < r->lo || x >= r->hi) continue;
                const ThreadInfo& wi = tinfo[static_cast<std::size_t>(r->tid)];
                if (wi.kind == ThreadInfo::Kind::rank) {
                  src = wi.local;
                } else {
                  dirty = false;
                }
                break;
              }
              f += rates.topo.copy_factor(src, ti.local, dirty);
            }
            bytes *= f / static_cast<double>(op.b - op.a);
          }
        }
        if (op.kind == mc::OpKind::write) {
          ts.run_write += bytes;
          if (plan.accumulates(bn)) ts.run_combine = true;
        } else {
          ts.run_read += bytes;
        }
        if (ts.pc == run_last[static_cast<std::size_t>(best)][ts.pc]) {
          double eff = std::max(ts.run_read, ts.run_write);
          bool combine = ts.run_combine && ts.run_read > 0.0;
          if (eff > 0.0) {
            ts.t += rate(Atom::copy_start) +
                    eff * rate(combine ? Atom::combine_bytes
                                       : Atom::copy_bytes);
            ts.f.bump(Atom::copy_start);
            ts.f.bump(combine ? Atom::combine_bytes : Atom::copy_bytes, eff);
            out.bus_bytes += eff;
          }
          ts.run_read = ts.run_write = 0.0;
          ts.run_combine = false;
        }
        break;
      }
      case mc::OpKind::send: {
        auto c = static_cast<std::size_t>(op.obj);
        int rcv = chan_receiver[c];
        bool handoff =
            rcv >= 0 &&
            tinfo[static_cast<std::size_t>(rcv)].kind == ThreadInfo::Kind::adp;
        Msg m;
        if (handoff) {
          ts.t += rate(Atom::o_send);
          ts.f.bump(Atom::o_send);
          m.deliver = ts.t;
          m.f = ts.f;
        } else {
          if (ti.kind == ThreadInfo::Kind::rank) {
            ts.t += rate(Atom::o_send);
            ts.f.bump(Atom::o_send);
          }
          int k = chan_sends[c];
          double payload =
              static_cast<std::size_t>(k) < chan_payload[c].size()
                  ? chan_payload[c][static_cast<std::size_t>(k)]
                  : 0.0;
          double& lf = link_slot(ti.node);
          double inj = std::max(lf, ts.t);
          double busy_end =
              inj + rate(Atom::gap) + payload * rate(Atom::wire_bytes);
          lf = busy_end;
          m.deliver = busy_end + rate(Atom::latency);
          m.f = ts.f;
          m.f.bump(Atom::gap);
          m.f.bump(Atom::wire_bytes, payload);
          m.f.bump(Atom::latency);
          if (ti.kind == ThreadInfo::Kind::adp) ts.t = busy_end;
        }
        m.vc = ts.vc;
        chans[c].push_back(std::move(m));
        ++chan_sends[c];
        ++ts.vc[static_cast<std::size_t>(best)];
        break;
      }
      case mc::OpKind::recv: {
        auto c = static_cast<std::size_t>(op.obj);
        Msg m = std::move(chans[c].front());
        chans[c].pop_front();
        if (m.deliver > ts.t) ts.f = m.f;
        ts.t = best_start + rate(Atom::poll_dispatch);
        ts.f.bump(Atom::poll_dispatch);
        join_into(ts.vc, m.vc);
        break;
      }
    }
    ++ts.pc;
  }

  out.completed = true;
  for (int tid = 0; tid < nthreads; ++tid) {
    const auto& ts = th[static_cast<std::size_t>(tid)];
    const auto& ops = p.threads[static_cast<std::size_t>(tid)].ops;
    if (ts.pc < ops.size()) {
      out.completed = false;
      out.stalls.push_back(
          Stall{p.threads[static_cast<std::size_t>(tid)].name,
                static_cast<int>(ts.pc), ops[ts.pc].label});
    }
    if (ts.t > out.ns) {
      out.ns = ts.t;
      out.critical_path = ts.f;
    }
  }
  return out;
}

}  // namespace srm::sa
