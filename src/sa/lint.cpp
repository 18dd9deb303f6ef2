#include "sa/lint.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "machine/params.hpp"
#include "sa/cost.hpp"

namespace srm::sa {
namespace {

using mc::Op;
using mc::OpKind;
using mc::Program;
using mc::Thread;

bool is_await(OpKind k) {
  return k == OpKind::await_eq || k == OpKind::await_ne ||
         k == OpKind::await_ge;
}

bool touches_var(OpKind k) {
  return k == OpKind::set || k == OpKind::add || is_await(k) ||
         k == OpKind::wait_dec;
}

bool writes_var(OpKind k) {
  return k == OpKind::set || k == OpKind::add || k == OpKind::wait_dec;
}

struct Linter {
  const Program& p;
  std::vector<Diag> out;

  void diag(const std::string& rule, int tid, std::size_t idx,
            const std::string& msg) {
    const Thread& t = p.threads[static_cast<std::size_t>(tid)];
    out.push_back(Diag{rule, t.name, static_cast<int>(idx),
                       idx < t.ops.size() ? t.ops[idx].label : std::string(),
                       msg});
  }

  bool guard_holds(const Op& op, std::uint64_t v) const {
    switch (op.kind) {
      case OpKind::await_eq: return v == op.a;
      case OpKind::await_ne: return v != op.a;
      case OpKind::await_ge:
      case OpKind::wait_dec: return v >= op.a;
      default: return true;
    }
  }

  // --- R1: await guards no reachable value can satisfy ----------------------
  void r1() {
    for (std::size_t tid = 0; tid < p.threads.size(); ++tid) {
      const auto& ops = p.threads[tid].ops;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op& op = ops[i];
        if (!is_await(op.kind)) continue;
        auto v = static_cast<std::size_t>(op.obj);
        bool other_writer = false;
        for (std::size_t t2 = 0; t2 < p.threads.size(); ++t2) {
          if (t2 == tid) continue;
          for (const Op& o : p.threads[t2].ops) {
            if (writes_var(o.kind) && static_cast<std::size_t>(o.obj) == v) {
              other_writer = true;
              break;
            }
          }
          if (other_writer) break;
        }
        if (!other_writer) {
          // Deterministic: fold this thread's own updates up to the await.
          std::uint64_t val = p.var_init[v];
          for (std::size_t j = 0; j < i; ++j) {
            const Op& o = ops[j];
            if (static_cast<std::size_t>(o.obj) != v) continue;
            if (o.kind == OpKind::set) val = o.a;
            else if (o.kind == OpKind::add) val += o.a;
            else if (o.kind == OpKind::wait_dec) val = val >= o.a ? val - o.a
                                                                  : val;
          }
          if (!guard_holds(op, val)) {
            std::ostringstream m;
            m << "guard can never hold: no other thread writes '"
              << p.var_names[v] << "' and its value here is " << val
              << "; this and every later op of the thread is dead";
            diag("R1", static_cast<int>(tid), i, m.str());
          }
          continue;
        }
        if (op.kind == OpKind::await_ne) continue;
        // Reachable upper bound: max of init and every set value, plus the
        // sum of every add (wait_dec only lowers it).
        std::uint64_t ub = p.var_init[v];
        std::uint64_t adds = 0;
        for (const Thread& t : p.threads) {
          for (const Op& o : t.ops) {
            if (static_cast<std::size_t>(o.obj) != v) continue;
            if (o.kind == OpKind::set) ub = std::max(ub, o.a);
            else if (o.kind == OpKind::add) adds += o.a;
          }
        }
        ub += adds;
        if (op.a > ub) {
          std::ostringstream m;
          m << "guard can never hold: '" << p.var_names[v]
            << "' is bounded above by " << ub << " < " << op.a
            << "; this and every later op of the thread is dead";
          diag("R1", static_cast<int>(tid), i, m.str());
        }
      }
    }
  }

  // --- R2: wait_dec demand exceeds total credit supply ----------------------
  void r2() {
    for (std::size_t v = 0; v < p.var_names.size(); ++v) {
      std::uint64_t dec = 0, adds = 0;
      bool has_set = false;
      int first_tid = -1;
      std::size_t first_idx = 0;
      for (std::size_t tid = 0; tid < p.threads.size(); ++tid) {
        const auto& ops = p.threads[tid].ops;
        for (std::size_t i = 0; i < ops.size(); ++i) {
          const Op& o = ops[i];
          if (static_cast<std::size_t>(o.obj) != v || !touches_var(o.kind)) {
            continue;
          }
          if (o.kind == OpKind::set) has_set = true;
          else if (o.kind == OpKind::add) adds += o.a;
          else if (o.kind == OpKind::wait_dec) {
            dec += o.a;
            if (first_tid < 0) {
              first_tid = static_cast<int>(tid);
              first_idx = i;
            }
          }
        }
      }
      if (has_set || first_tid < 0) continue;  // resets defeat flow counting
      std::uint64_t supply = p.var_init[v] + adds;
      if (dec > supply) {
        std::ostringstream m;
        m << "counter underflow: wait_dec demand " << dec << " on '"
          << p.var_names[v] << "' exceeds supply " << supply
          << " (init + all adds); some waiter stalls forever";
        diag("R2", first_tid, first_idx, m.str());
      }
    }
  }

  // --- R3: send/recv arity mismatch per channel -----------------------------
  void r3() {
    for (std::size_t c = 0; c < p.chan_names.size(); ++c) {
      int sends = 0, recvs = 0;
      int tid = -1;
      std::size_t idx = 0;
      for (std::size_t t = 0; t < p.threads.size(); ++t) {
        const auto& ops = p.threads[t].ops;
        for (std::size_t i = 0; i < ops.size(); ++i) {
          const Op& o = ops[i];
          if (static_cast<std::size_t>(o.obj) != c) continue;
          if (o.kind == OpKind::send) {
            ++sends;
            if (tid < 0) { tid = static_cast<int>(t); idx = i; }
          } else if (o.kind == OpKind::recv) {
            ++recvs;
            if (tid < 0) { tid = static_cast<int>(t); idx = i; }
          }
        }
      }
      if (sends != recvs && tid >= 0) {
        std::ostringstream m;
        m << "channel '" << p.chan_names[c] << "' has " << sends
          << " send(s) but " << recvs << " recv(s): "
          << (sends < recvs ? "a recv must starve" : "a message is orphaned");
        diag("R3", tid, idx, m.str());
      }
    }
  }

  // --- R4: window publish/attach/detach/retract discipline ------------------
  void r4() {
    for (const mc::Window& w : p.windows) {
      auto wbuf = static_cast<std::size_t>(w.buf);
      auto pubv = static_cast<std::size_t>(w.pub_var);
      auto donev = static_cast<std::size_t>(w.done_var);
      // (a) + (b): non-owner readers. The owner's own adapter reads the
      // window as the source of the owner's put, on the owner's behalf.
      for (std::size_t tid = 0; tid < p.threads.size(); ++tid) {
        if (static_cast<int>(tid) == w.owner) continue;
        if (p.threads[tid].serves == w.owner) continue;
        const auto& ops = p.threads[tid].ops;
        bool attached = false;
        std::size_t last_read = 0;
        bool reads = false;
        for (std::size_t i = 0; i < ops.size(); ++i) {
          const Op& o = ops[i];
          if (is_await(o.kind) && static_cast<std::size_t>(o.obj) == pubv) {
            attached = true;
          }
          if (o.kind == OpKind::read &&
              static_cast<std::size_t>(o.obj) == wbuf) {
            reads = true;
            last_read = i;
            if (!attached) {
              diag("R4", static_cast<int>(tid), i,
                   "window '" + p.buf_names[wbuf] +
                       "' read before any await on its publish flag '" +
                       p.var_names[pubv] + "' (attach-before-publish)");
              attached = true;  // one diagnostic per thread is enough
            }
          }
        }
        if (!reads) continue;
        bool detaches = false;
        for (std::size_t i = last_read + 1; i < ops.size(); ++i) {
          const Op& o = ops[i];
          if (static_cast<std::size_t>(o.obj) != donev) continue;
          if (o.kind == OpKind::add ||
              (o.kind == OpKind::set && o.a != 0)) {
            detaches = true;
            break;
          }
        }
        if (!detaches) {
          diag("R4", static_cast<int>(tid), last_read,
               "window '" + p.buf_names[wbuf] +
                   "' reader never bumps detach counter '" +
                   p.var_names[donev] + "' after its last read");
        }
      }
      // (c) + (d): the owner.
      const auto& ops = p.threads[static_cast<std::size_t>(w.owner)].ops;
      bool owner_writes = false;
      for (const Op& o : ops) {
        if (o.kind == OpKind::write &&
            static_cast<std::size_t>(o.obj) == wbuf) {
          owner_writes = true;
          break;
        }
      }
      bool has_reader = false;
      for (std::size_t tid = 0; tid < p.threads.size(); ++tid) {
        if (static_cast<int>(tid) == w.owner) continue;
        for (const Op& o : p.threads[tid].ops) {
          if (o.kind == OpKind::read &&
              static_cast<std::size_t>(o.obj) == wbuf) {
            has_reader = true;
            break;
          }
        }
        if (has_reader) break;
      }
      bool published = false;
      bool wrote = false;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op& o = ops[i];
        if (o.kind == OpKind::write &&
            static_cast<std::size_t>(o.obj) == wbuf) {
          // A publish nobody attaches to guards nothing — reuse is legal.
          if (published && has_reader) {
            diag("R4", w.owner, i,
                 "window '" + p.buf_names[wbuf] +
                     "' overwritten while published: no wait on detach "
                     "counter '" + p.var_names[donev] +
                     "' since the publish (reuse-before-retract)");
            published = false;
          }
          wrote = true;
        } else if (o.kind == OpKind::set &&
                   static_cast<std::size_t>(o.obj) == pubv && o.a != 0) {
          if (owner_writes && !wrote) {
            diag("R4", w.owner, i,
                 "window '" + p.buf_names[wbuf] +
                     "' published before the owner wrote it "
                     "(publish-before-write)");
          }
          published = true;
          wrote = false;
        } else if ((o.kind == OpKind::await_ge ||
                    o.kind == OpKind::wait_dec) &&
                   static_cast<std::size_t>(o.obj) == donev) {
          published = false;  // detaches collected: the window is retracted
        }
      }
    }
  }

  // --- R5: signal before deposit --------------------------------------------
  void r5() {
    for (std::size_t tid = 0; tid < p.threads.size(); ++tid) {
      const auto& ops = p.threads[tid].ops;
      std::set<int> bumped;
      for (const Op& o : ops) {
        if (o.kind == OpKind::add || (o.kind == OpKind::set && o.a != 0)) {
          bumped.insert(o.obj);
        }
      }
      for (int v : bumped) {
        // Aggregate the consumers' read sets: every buffer some other thread
        // reads *directly after* a blocking op on v (before its next
        // blocking op of any kind). The narrow window separates deposit
        // signals from credit returns — a credit waiter's following reads
        // are of its own source, not of anything the bumper deposited.
        std::set<int> consumed;
        for (std::size_t t2 = 0; t2 < p.threads.size(); ++t2) {
          if (t2 == tid) continue;
          const auto& cops = p.threads[t2].ops;
          bool open = false;
          for (const Op& o : cops) {
            if (mc::blocking(o.kind)) {
              open = o.kind != OpKind::recv && o.obj == v;
              continue;
            }
            if (open && o.kind == OpKind::read) consumed.insert(o.obj);
          }
        }
        if (consumed.empty()) continue;
        bool writes_some = false;
        for (const Op& o : ops) {
          if (o.kind == OpKind::write && consumed.count(o.obj)) {
            writes_some = true;
            break;
          }
        }
        if (!writes_some) continue;  // the deposits come from elsewhere
        // A NIC's arrival counter (its dispatcher writes a consumed buffer,
        // then adds to the counter before its next blocking op) relays the
        // deposits a Waitcntr on it consumes, one per unit: a head flags
        // the segment the network landed in its buffer.
        std::set<int> landed;
        for (std::size_t t2 = 0; t2 < p.threads.size(); ++t2) {
          if (t2 == tid || p.threads[t2].name.rfind("nic", 0) != 0) continue;
          bool wrote = false;
          for (const Op& o : p.threads[t2].ops) {
            if (mc::blocking(o.kind)) wrote = false;
            if (o.kind == OpKind::write && consumed.count(o.obj)) wrote = true;
            if (wrote && o.kind == OpKind::add) landed.insert(o.obj);
          }
        }
        std::uint64_t bumps = 0, writes = 0;
        for (std::size_t i = 0; i < ops.size(); ++i) {
          const Op& o = ops[i];
          if (o.kind == OpKind::write && consumed.count(o.obj)) ++writes;
          if (o.kind == OpKind::wait_dec && landed.count(o.obj)) writes += o.a;
          if ((o.kind == OpKind::add ||
               (o.kind == OpKind::set && o.a != 0)) &&
              o.obj == v) {
            ++bumps;
            if (writes < bumps) {
              std::ostringstream m;
              m << "signal before deposit: bump #" << bumps << " of '"
                << p.var_names[static_cast<std::size_t>(v)]
                << "' is preceded by only " << writes
                << " write(s) of the buffers its consumers read";
              diag("R5", static_cast<int>(tid), i, m.str());
              break;
            }
          }
        }
      }
    }
  }

  // --- R6: flag generation overwritten without a recycle gate ---------------
  void r6() {
    std::set<int> pub_vars;
    for (const mc::Window& w : p.windows) pub_vars.insert(w.pub_var);
    for (std::size_t tid = 0; tid < p.threads.size(); ++tid) {
      const auto& ops = p.threads[tid].ops;
      // var -> index of the last nonzero set not yet followed by a blocking
      // read of the var.
      std::vector<int> armed(p.var_names.size(), -1);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op& o = ops[i];
        if (!touches_var(o.kind)) continue;
        auto v = static_cast<std::size_t>(o.obj);
        if (o.kind == OpKind::set && o.a != 0 && !pub_vars.count(o.obj)) {
          if (armed[v] >= 0) {
            diag("R6", static_cast<int>(tid), i,
                 "flag '" + p.var_names[v] +
                     "' set again with no blocking read of it since '" +
                     ops[static_cast<std::size_t>(armed[v])].label +
                     "': the previous generation can be lost");
          }
          armed[v] = static_cast<int>(i);
        } else if (mc::blocking(o.kind)) {
          armed[v] = -1;
        }
      }
    }
  }

  // --- R7: origin source buffer reused without waiting on the adapter -------
  void r7() {
    // Handoff channels: the receiving thread is an adapter ("adp*"). Record
    // which buffer the adapter reads after the recv (the origin's source)
    // and which counters it bumps afterwards (origin-completion counters).
    for (std::size_t c = 0; c < p.chan_names.size(); ++c) {
      int adp = -1;
      for (std::size_t t = 0; t < p.threads.size(); ++t) {
        if (p.threads[t].name.rfind("adp", 0) != 0) continue;
        for (const Op& o : p.threads[t].ops) {
          if (o.kind == OpKind::recv && static_cast<std::size_t>(o.obj) == c) {
            adp = static_cast<int>(t);
            break;
          }
        }
        if (adp >= 0) break;
      }
      if (adp < 0) continue;
      const auto& aops = p.threads[static_cast<std::size_t>(adp)].ops;
      int src_buf = -1;
      std::set<int> org_vars;
      for (std::size_t i = 0; i < aops.size(); ++i) {
        if (aops[i].kind != OpKind::recv ||
            static_cast<std::size_t>(aops[i].obj) != c) {
          continue;
        }
        bool seen_read = false;
        for (std::size_t j = i + 1; j < aops.size(); ++j) {
          if (aops[j].kind == OpKind::recv) break;
          if (aops[j].kind == OpKind::read) {
            if (src_buf < 0) src_buf = aops[j].obj;
            seen_read = true;
          }
          if (seen_read && aops[j].kind == OpKind::add) {
            org_vars.insert(aops[j].obj);
          }
        }
      }
      if (src_buf < 0 || org_vars.empty()) continue;
      // Every sender reusing the source buffer after a send must first wait
      // on one of the adapter's origin counters.
      for (std::size_t t = 0; t < p.threads.size(); ++t) {
        const auto& ops = p.threads[t].ops;
        for (std::size_t i = 0; i < ops.size(); ++i) {
          if (ops[i].kind != OpKind::send ||
              static_cast<std::size_t>(ops[i].obj) != c) {
            continue;
          }
          for (std::size_t j = i + 1; j < ops.size(); ++j) {
            const Op& o = ops[j];
            if ((o.kind == OpKind::wait_dec || o.kind == OpKind::await_ge) &&
                org_vars.count(o.obj)) {
              break;  // origin completion collected before any reuse
            }
            if (o.kind == OpKind::write && o.obj == src_buf) {
              diag("R7", static_cast<int>(t), j,
                   "source buffer '" +
                       p.buf_names[static_cast<std::size_t>(src_buf)] +
                       "' overwritten after 'send " + p.chan_names[c] +
                       "' with no wait on the adapter's origin counter: "
                       "the put may still be reading it");
              break;
            }
          }
        }
      }
    }
  }

  // --- R8: canonical-execution residue --------------------------------------
  void r8() {
    AnalyzeResult res =
        analyze(p, Plan{}, CostRates::from(machine::MachineParams::ibm_sp()));
    for (const Stall& s : res.stalls) {
      out.push_back(Diag{"R8-deadlock", s.thread, s.op_index, s.label,
                         "thread wedged on the canonical schedule: '" +
                             s.label + "' never becomes enabled"});
    }
    for (const Race& r : res.races) {
      out.push_back(
          Diag{"R8-race", r.thread_b, -1, r.label_b,
               "race on '" + r.buf + "': '" + r.label_a + "' (" + r.thread_a +
                   ") unordered with '" + r.label_b + "' (" + r.thread_b +
                   ") on the canonical schedule"});
    }
  }
};

}  // namespace

std::vector<Diag> lint(const mc::Program& p) {
  Linter l{p, {}};
  l.r1();
  l.r2();
  l.r3();
  l.r4();
  l.r5();
  l.r6();
  l.r7();
  l.r8();
  return l.out;
}

std::vector<std::string> fired_rules(const std::vector<Diag>& diags) {
  std::set<std::string> fams;
  for (const Diag& d : diags) {
    fams.insert(d.rule.substr(0, 2));
  }
  return std::vector<std::string>(fams.begin(), fams.end());
}

}  // namespace srm::sa
