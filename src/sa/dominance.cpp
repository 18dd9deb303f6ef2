#include "sa/dominance.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "coll/tree.hpp"
#include "core/detail.hpp"
#include "mc/protocols.hpp"

namespace srm::sa {
namespace {

using coll::Algo;
using coll::CollKind;
using coll::Decision;

constexpr int kTasks = 4;  // canonical 2-node x 4-task model shape

/// Node count the builtin tables were tuned at (the paper's 8-node SP
/// testbed; modern_smp's tuner sweep is 8 nodes x 16 tasks). The IR models
/// exactly one internode hop, so check_table() evaluates each comparison a
/// second time with a closed-form LogGP extrapolation to this scale
/// (scale_extra): root-link bytes — a binomial tree pushes d = log2 N
/// subtree copies through the root's single link where an exchange keeps
/// per-link bytes ~2B(N-1)/N — and serial rounds beyond the one modeled
/// chain. A row is dominated only when it loses decisively at BOTH scales;
/// this is the term that separates tree algorithms from bandwidth-optimal
/// exchanges, invisible in any 2-node comparison.
constexpr int kTableNodes = 8;

/// Tasks per node the builtin tables were tuned at (both profiles' sweeps
/// run 16-way nodes). The IR models kTasks, so check_table() also charges
/// the intra-node tree's fan-in at this width (tasks_extra).
constexpr int kTableTasks = 16;

/// Children the kTasks IR's reduce root combines per chunk, whatever tree
/// the row names: the IR has one fixed node tree.
constexpr int kModelRootFanIn = 2;

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

int chunks_for(CollKind op, const Decision& d, std::size_t bytes,
               const SrmConfig& cfg) {
  if (op == CollKind::bcast && d.algo == Algo::staged) {
    // bcast_small pipelines in the row's chunk (0: one step).
    if (bytes == 0) return 1;
    return static_cast<int>(
        ceil_div(bytes, coll::bcast_step(d.chunk, bytes)));
  }
  if (op == CollKind::bcast && d.algo == Algo::direct) {
    return static_cast<int>(std::max<std::size_t>(
        1, ceil_div(bytes, cfg.bcast_net_chunk)));
  }
  if (op == CollKind::reduce ||
      (op == CollKind::allreduce && d.algo == Algo::pipeline)) {
    // reduce_impl steps in the row's chunk (0: one reduce_chunk slot).
    return static_cast<int>(std::max<std::size_t>(
        1, ceil_div(bytes, coll::reduce_step(d.chunk, cfg.reduce_chunk))));
  }
  if (op == CollKind::reduce_scatter && d.algo == Algo::direct) {
    // reduce_scatter_direct steps through the node segment (bytes is the
    // per-rank block) in the row's chunk.
    return static_cast<int>(std::max<std::size_t>(
        1, ceil_div(bytes * kTasks,
                    coll::reduce_step(d.chunk, cfg.reduce_chunk))));
  }
  return 1;
}

/// The address-exchange direct broadcast (core/bcast.cpp bcast_large) has
/// no entry among the eighteen protocol models, so the dominance pass
/// synthesizes its skeleton: the child announces its landing address, the
/// root hands each chunk to its adapter (origin counter dorg), the put
/// deposits in the child's dispatcher (arrival counter darr), and both
/// nodes fan the chunk out through the Fig. 3 shared-buffer pattern.
mc::Program direct_bcast(int tasks, int chunks) {
  mc::Program p;
  p.name = "direct_bcast";
  auto num = [](int v) { return std::to_string(v); };
  const auto W = static_cast<std::uint64_t>(tasks);
  int root = p.thread("r0.0");
  int child = p.thread("r1.0");
  int nic0 = p.thread("nic0");
  int nic1 = p.thread("nic1");
  int adp0 = p.thread("adp0");

  int addr10 = p.chan("addr10");
  int addrarr = p.var("addrarr");
  p.send(child, addr10);
  p.recv(nic0, addr10);
  p.add(nic0, addrarr, 1);
  p.wait_dec(root, addrarr, 1);

  int dorg = p.var("dorg");
  int darr = p.var("darr");
  auto smp_out = [&](int n, int leader, int c, int src) {
    if (tasks == 1) {
      if (src >= 0) p.read(leader, src, 0, W);
      return;
    }
    int s = c % 2;
    int bb = p.buf("bb" + num(n) + ".s" + num(s));
    std::vector<int> ready;
    for (int l = 1; l < tasks; ++l) {
      ready.push_back(p.var("ready" + num(n) + ".s" + num(s) + "[" +
                            num(l) + "]"));
    }
    for (int r : ready) p.await_eq(leader, r, 0);
    if (src >= 0) p.read(leader, src, 0, W);
    p.write(leader, bb, 0, W);
    for (int r : ready) p.set(leader, r, 1);
    for (int l = 1; l < tasks; ++l) {
      int t = p.thread("r" + num(n) + "." + num(l));
      p.await_eq(t, ready[static_cast<std::size_t>(l - 1)], 1);
      p.read(t, bb, 0, W);
      p.set(t, ready[static_cast<std::size_t>(l - 1)], 0);
    }
  };
  for (int c = 0; c < chunks; ++c) {
    int oput = p.chan("oput" + num(c));
    int dput = p.chan("dput" + num(c));
    int uland = p.buf("uland" + num(c));
    p.send(root, oput);
    p.recv(adp0, oput);
    p.add(adp0, dorg, 1);
    p.send(adp0, dput);
    p.recv(nic1, dput);
    p.write(nic1, uland, 0, W);
    p.add(nic1, darr, 1);
    smp_out(0, root, c, -1);  // the root's copy is its private user buffer
    p.wait_dec(child, darr, 1);
    smp_out(1, child, c, uland);
  }
  p.wait_dec(root, dorg, static_cast<std::uint64_t>(chunks));
  p.validate();
  return p;
}

AlgoCost eval_model(const mc::Program& prog, const Plan& plan,
                    const machine::MachineParams& mp) {
  AlgoCost c;
  c.feasible = true;
  AnalyzeResult r = analyze(prog, plan, CostRates::from(mp));
  c.ns = r.ns;
  c.bus_bytes = r.bus_bytes;
  c.formula = r.critical_path;
  return c;
}

AlgoCost eval_proto(mc::Proto proto, int chunks, const Plan& plan,
                    const machine::MachineParams& mp, int sockets = 1) {
  mc::Shape sh{2, kTasks, chunks, sockets};
  return eval_model(mc::build(proto, sh), plan, mp);
}

/// The socket domains a node of the model's kTasks locals forms, as the
/// runtime lays them (detail::Domains): the root-free reduce_scatter and
/// the mapped root-free allgather, and so both halves of the root-free
/// allreduce, are priced on the same node layout the simulated 2 x kTasks
/// call runs.
int model_domains(const machine::MachineParams& mp) {
  return detail::Domains(mp.topo, kTasks).count;
}

}  // namespace

std::vector<Decision> algo_menu(CollKind op) {
  auto d = [](Algo a, bool m) {
    Decision x;
    x.algo = a;
    x.mapped = m;
    return x;
  };
  switch (op) {
    case CollKind::bcast:
      return {d(Algo::staged, false), d(Algo::staged, true),
              d(Algo::direct, false), d(Algo::scatter_ag, false)};
    case CollKind::allreduce:
      return {d(Algo::rd, false), d(Algo::pipeline, false),
              d(Algo::ring, false), d(Algo::rhalving, false),
              d(Algo::direct, false)};
    case CollKind::reduce:
    case CollKind::scatter:
    case CollKind::gather:
      return {d(Algo::staged, false), d(Algo::staged, true)};
    case CollKind::reduce_scatter:
    case CollKind::allgather:
      return {d(Algo::staged, false), d(Algo::direct, false)};
    default:
      // barrier has one implementation and no single-copy variant: its
      // mapped column is never read.
      return {d(Algo::staged, false)};
  }
}

AlgoCost algo_cost(CollKind op, Decision d, std::size_t bytes,
                   const SrmConfig& cfg,
                   const machine::MachineParams& mp) {
  AlgoCost out;
  out.algo = d.algo;
  out.mapped = d.mapped;
  Decision s = cfg.sanitize(op, d, bytes);
  if (s.algo != d.algo) return out;  // decide() would reroute: infeasible

  const double B = static_cast<double>(bytes);
  const double W = static_cast<double>(kTasks);
  const int C = chunks_for(op, s, bytes, cfg);
  const double chunk_unit = B / (static_cast<double>(C) * W);

  Plan plan;
  plan.default_unit = chunk_unit;
  switch (op) {
    case CollKind::bcast:
      if (d.algo == Algo::staged && !d.mapped) {
        out = eval_proto(mc::Proto::bcast, C, plan, mp);
      } else if (d.algo == Algo::staged && d.mapped) {
        plan.default_unit = B / W;
        out = eval_proto(mc::Proto::sc_bcast, 1, plan, mp);
      } else if (d.algo == Algo::scatter_ag) {
        plan.default_unit = B / W;
        plan.unit_overrides = {{"scland", B / (2 * W)},
                               {"agland", B / (2 * W)}};
        out = eval_proto(mc::Proto::sa_bcast, 1, plan, mp);
      } else {
        out = eval_model(direct_bcast(kTasks, C), plan, mp);
      }
      break;
    case CollKind::reduce:
      plan.accumulators = {"res", "out", "acc"};
      out = eval_proto(d.mapped ? mc::Proto::sc_reduce : mc::Proto::reduce,
                       C, plan, mp);
      break;
    case CollKind::allreduce:
      if (d.algo == Algo::rd) {
        plan.default_unit = B / W;
        plan.accumulators = {"res", "out"};
        out = eval_proto(mc::Proto::allreduce, 1, plan, mp);
      } else if (d.algo == Algo::direct) {
        // The root-free reduce_scatter of the ranks' blocks, then the
        // root-free allgather of them: 2 x kTasks blocks of B / 8 each.
        std::size_t block = std::max<std::size_t>(bytes / (2 * kTasks), 1);
        Decision rs = d;
        rs.mapped = false;
        AlgoCost a = algo_cost(CollKind::reduce_scatter, rs, block, cfg, mp);
        Decision ag{Algo::direct, d.mapped};
        AlgoCost b = algo_cost(CollKind::allgather, ag, block, cfg, mp);
        out.feasible = a.feasible && b.feasible;
        out.ns = a.ns + b.ns;
        out.bus_bytes = a.bus_bytes + b.bus_bytes;
        out.formula = a.formula;
        out.formula.accumulate(b.formula);
      } else if (d.algo == Algo::ring || d.algo == Algo::rhalving) {
        plan.default_unit = B / W;
        plan.unit_overrides = {{"rsland", B / (2 * W)},
                               {"agland", B / (2 * W)},
                               {"hxland", B / (2 * W)},
                               {"hbland", B / (2 * W)}};
        plan.accumulators = {"res"};
        out = eval_proto(d.algo == Algo::ring ? mc::Proto::ring_allreduce
                                              : mc::Proto::rh_allreduce,
                         1, plan, mp);
      } else {
        // Fig. 5 composite: the broadcast of chunk c overlaps the reduction
        // of chunk c+1, so cost = full reduce + a one-chunk broadcast drain.
        Plan red;
        red.default_unit = chunk_unit;
        red.accumulators = {"res", "out"};
        AlgoCost reduce_cost = eval_proto(mc::Proto::reduce, C, red, mp);
        Plan tail;
        tail.default_unit = chunk_unit;
        AlgoCost drain = eval_model(direct_bcast(kTasks, 1), tail, mp);
        out.feasible = true;
        out.ns = reduce_cost.ns + drain.ns;
        out.bus_bytes = reduce_cost.bus_bytes + drain.bus_bytes;
        out.formula = reduce_cost.formula;
        out.formula.accumulate(drain.formula);
        out.algo = d.algo;
        out.mapped = d.mapped;
      }
      break;
    case CollKind::barrier:
      plan.default_unit = 0.0;
      out = eval_proto(mc::Proto::barrier, 1, plan, mp);
      break;
    case CollKind::scatter:
      plan.default_unit = B / W;
      out = eval_proto(d.mapped ? mc::Proto::sc_scatter : mc::Proto::scatter,
                       1, plan, mp);
      break;
    case CollKind::gather:
      plan.default_unit = B / W;
      out = eval_proto(d.mapped ? mc::Proto::sc_gather : mc::Proto::gather,
                       1, plan, mp);
      break;
    case CollKind::allgather:
      // The gather half stages T per-rank blocks of B (unit T*B/W = B); the
      // broadcast half moves the full gathered vector (2 nodes: 2*T*B).
      // The root-free protocol moves node blocks (unit B) throughout; its
      // mapped form runs one ring and window per model domain.
      plan.default_unit = B;
      if (d.algo == Algo::direct && d.mapped) {
        out = eval_proto(mc::Proto::sc_allgather, 1, plan, mp,
                         model_domains(mp));
        break;
      }
      if (d.algo == Algo::direct) {
        out = eval_proto(mc::Proto::ag_direct, 1, plan, mp);
        break;
      }
      plan.unit_overrides = {{"bc.", 2 * B}};
      out = eval_proto(mc::Proto::allgather, 1, plan, mp);
      break;
    case CollKind::reduce_scatter:
      if (d.algo == Algo::direct) {
        // Per step, a domain's partial spans the node segment's step
        // (kTasks x B / C); every owner reads its model byte of it. The
        // node's domains are the model's.
        plan.default_unit = B / static_cast<double>(C);
        plan.accumulators = {"rslot"};
        out = eval_proto(mc::Proto::rs_direct, C, plan, mp,
                         model_domains(mp));
        break;
      }
      plan.default_unit = B;
      plan.unit_overrides = {{"rd.", 2 * B}};
      plan.accumulators = {"res", "out"};
      out = eval_proto(mc::Proto::reduce_scatter, 1, plan, mp);
      break;
  }
  out.algo = d.algo;
  out.mapped = d.mapped;
  return out;
}
namespace {


double scale_extra(CollKind op, Algo algo, const AlgoCost& c, int chunks,
                   std::size_t bytes, const machine::MachineParams& mp) {
  const double n = kTableNodes;
  const double d = std::ceil(std::log2(n));
  const double B = static_cast<double>(bytes);
  const double G = 1.0 / mp.net.bytes_per_sec * 1e9;
  const double hop = static_cast<double>(mp.net.latency + mp.net.gap);
  const double C = static_cast<double>(std::max(chunks, 1));
  // Root-link bytes beyond the one modeled hop, plus serial rounds beyond
  // the modeled chain, per algorithm:
  //   binomial tree: the root pushes every chunk to d subtree children
  //   (d*B egress; the model ships B), and the first chunk rides d hops.
  //   recursive doubling: d full-vector rounds (model: 1 exchange).
  //   bandwidth-optimal exchanges: per-link bytes ~2B(N-1)/N (model: B for
  //   the allreduce exchanges, B for scatter+allgather), but the rounds
  //   serialize: d + (N-1) for scatter+allgather, 2(N-1) ring, 2d halving.
  const double band_extra = (2.0 * (n - 1.0) / n - 1.0) * B * G;
  switch (op) {
    case CollKind::bcast:
      if (algo == Algo::scatter_ag) {
        // The 2-node skeleton store-and-forwards the whole fan-out after
        // assembly; the runtime (core/zoo.cpp) publishes each of the N
        // blocks as it lands, so all but the final ~2 blocks' worth of the
        // modeled copy path overlaps the ring rounds. Credit that overlap
        // from the measured coefficient (zero at N = 2, where the
        // skeleton is exact).
        double overlap = c.formula[Atom::copy_bytes] * (1.0 - 2.0 / n) /
                         mp.mem.copy_bw_per_cpu * 1e9;
        return band_extra + (d + (n - 1.0) - 2.0) * hop - overlap;
      }
      return (d - 1.0) * B * G + (d - 1.0) * hop / C;
    case CollKind::allreduce:
      if (algo == Algo::rd) return (d - 1.0) * (B * G + hop);
      // The root-free allreduce moves the ring's link bytes in as many
      // rounds: n - 1 reduce_scatter rounds and n - 1 ring steps.
      if (algo == Algo::ring || algo == Algo::direct) {
        return band_extra + (2.0 * (n - 1.0) - 2.0) * hop;
      }
      if (algo == Algo::rhalving) return band_extra + (2.0 * d - 2.0) * hop;
      // pipelined reduce+bcast: both trees pay the root link in full
      return 2.0 * (d - 1.0) * B * G + 2.0 * (d - 1.0) * hop / C;
    case CollKind::reduce_scatter:
      // The root-free protocol walks one round per node (the model: its
      // own segment and one peer's), each a pass of the domain pipeline;
      // the composition's reduce runs d levels deep (the model: one) and
      // its scatter root puts to n - 1 nodes (the model: one).
      if (algo == Algo::direct) return (n - 2.0) * c.ns / 2.0;
      return (d - 1.0) * hop + (n - 2.0) * static_cast<double>(mp.net.o_send);
    case CollKind::allgather:
      // The root-free ring forwards n - 1 node blocks over every link (the
      // model: one); the composition's scaling is left to its staged ops.
      if (algo == Algo::direct) {
        return (n - 2.0) * (static_cast<double>(kTasks) * B * G + hop);
      }
      return 0.0;
    default:
      return 0.0;  // single-root staged ops: menu entries share the scaling
  }
}

/// Children of the node root in the intra-node reduce tree of @p d at
/// kTableTasks local ranks. Both paths run the row's tree, as
/// core/reduce.cpp does: the mapped path lays it over the cache domains
/// (coll::topo_tree).
int root_fan_in(const Decision& d, const machine::MachineParams& mp) {
  coll::Tree t = d.mapped
                     ? coll::topo_tree(mp.topo, kTableTasks, 0, d.intranode)
                     : coll::build_tree(d.intranode, kTableTasks, 0);
  return static_cast<int>(t.children[0].size());
}

/// The tasks-per-node counterpart of scale_extra.
///
/// Reduce: the leader combines every child's chunk in turn, so at
/// kTableTasks it combines root_fan_in() chunks where the kTasks model
/// combines kModelRootFanIn. Each child more (or fewer) is one pass over
/// the message more (or fewer) at the combine rate on the pipeline's
/// bottleneck. At 16 tasks the binomial root has 4 children, the binary
/// root 2 and the chain root 1. Laid over modern_smp's cache domains, the
/// binomial root has 3, the binary root 2 and the chain root 1 (on a
/// single-domain node the layout is the plain tree).
///
/// Root-free allgather: a node segment holds one block per local, so at
/// kTableTasks every copy of it on the critical path (@p c's copy bytes)
/// streams kTableTasks / kTasks times the bytes. The node ring's Fig. 3
/// publish also stores one READY flag per reader, one flag_poll each
/// (smp_bcast_chunk), before any reader copies, where a socket head adds
/// one to its ready count whatever its readers.
double tasks_extra(CollKind op, const Decision& d, const AlgoCost& c,
                   std::size_t bytes, const machine::MachineParams& mp) {
  if (op == CollKind::allgather && d.algo == Algo::direct) {
    double grow = static_cast<double>(kTableTasks) / kTasks - 1.0;
    double extra = grow * c.formula[Atom::copy_bytes] * 1e9 /
                   mp.mem.copy_bw_per_cpu;
    if (!d.mapped) {
      extra += (kTableTasks - kTasks) * static_cast<double>(mp.mem.flag_poll);
    }
    return extra;
  }
  if (op != CollKind::reduce) return 0.0;
  int extra = root_fan_in(d, mp) - kModelRootFanIn;
  return extra * static_cast<double>(bytes) * 1e9 / mp.mem.reduce_bw_per_cpu;
}

bool best_at(CollKind op, std::size_t bytes, const SrmConfig& cfg,
             const machine::MachineParams& mp,
             const std::vector<Decision>& menu, Decision& best,
             double& best_ns) {
  bool found = false;
  for (const Decision& d : menu) {
    AlgoCost c = algo_cost(op, d, bytes, cfg, mp);
    if (!c.feasible) continue;
    if (!found || c.ns < best_ns) {
      best = d;
      best_ns = c.ns;
      found = true;
    }
  }
  return found;
}

}  // namespace

std::vector<Crossover> crossovers(CollKind op, const SrmConfig& cfg,
                                  const machine::MachineParams& mp,
                                  std::vector<Decision> menu) {
  if (menu.empty()) menu = algo_menu(op);
  std::vector<Crossover> out;
  constexpr std::size_t kLo = 64, kHi = 4u * 1024 * 1024;
  Decision prev;
  double prev_ns = 0.0;
  if (!best_at(op, kLo, cfg, mp, menu, prev, prev_ns)) return out;
  std::size_t prev_b = kLo;
  for (std::size_t b = kLo * 2; b <= kHi; b *= 2) {
    Decision cur;
    double cur_ns = 0.0;
    if (!best_at(op, b, cfg, mp, menu, cur, cur_ns)) break;
    if (!(cur == prev)) {
      Crossover x;
      x.op = op;
      x.from = prev;
      x.to = cur;
      std::size_t cap = cfg.max_bytes(op, prev.algo);
      if (cap >= prev_b && cap < b) {
        x.bytes = cap;
        x.feasibility = true;
      } else {
        // Bisect to the last byte count where the previous winner wins.
        std::size_t lo = prev_b, hi = b;
        while (hi - lo > 1) {
          std::size_t mid = lo + (hi - lo) / 2;
          Decision m;
          double m_ns = 0.0;
          if (best_at(op, mid, cfg, mp, menu, m, m_ns) && m == prev) {
            lo = mid;
          } else {
            hi = mid;
          }
        }
        x.bytes = lo;
        x.feasibility = false;
      }
      out.push_back(x);
    }
    prev = cur;
    prev_b = b;
  }
  return out;
}

double scaled_ns(CollKind op, const Decision& d, const AlgoCost& c,
                 std::size_t bytes, const SrmConfig& cfg,
                 const machine::MachineParams& mp) {
  return c.ns +
         scale_extra(op, d.algo, c, chunks_for(op, d, bytes, cfg), bytes,
                     mp) +
         tasks_extra(op, d, c, bytes, mp);
}

DominanceReport check_table(const coll::DecisionTable& t,
                            const SrmConfig& cfg,
                            const machine::MachineParams& mp) {
  DominanceReport rep;
  for (int k = 0; k < 8; ++k) {
    auto op = static_cast<CollKind>(k);
    for (const auto& row : t.rows(op)) {
      std::size_t bytes = std::max<std::size_t>(row.min_bytes, 64);
      // A reduce_scatter or allgather row is keyed on the node segment
      // (coll::row_key); its cost takes the per-rank block.
      if (op == CollKind::reduce_scatter || op == CollKind::allgather) {
        bytes = std::max<std::size_t>(row.min_bytes / kTableTasks, 8);
      }
      Decision chosen = cfg.sanitize(op, row.d, bytes);
      AlgoCost cc = algo_cost(op, chosen, bytes, cfg, mp);
      if (!cc.feasible) continue;
      for (const Decision& alt : algo_menu(op)) {
        if (alt == chosen) continue;
        AlgoCost ac = algo_cost(op, alt, bytes, cfg, mp);
        if (!ac.feasible) continue;
        bool slower = cc.ns > ac.ns * kSlackRel + kSlackAbs;
        bool buys_traffic = cc.bus_bytes < ac.bus_bytes * kBusSave;
        double cx = scaled_ns(op, chosen, cc, bytes, cfg, mp);
        double ax = scaled_ns(op, alt, ac, bytes, cfg, mp);
        bool slower_at_n = cx > ax * kSlackRel + kSlackAbs;
        if (slower && slower_at_n && !buys_traffic) {
          rep.issues.push_back(DominanceIssue{op, row.min_bytes, chosen, alt,
                                             cc.ns, ac.ns, cc.bus_bytes,
                                             ac.bus_bytes});
        }
      }
    }
  }
  for (CollKind op : {CollKind::bcast, CollKind::allreduce}) {
    auto xs = crossovers(op, cfg, mp);
    rep.crossovers.insert(rep.crossovers.end(), xs.begin(), xs.end());
  }
  return rep;
}

std::string to_string(const DominanceIssue& i) {
  std::ostringstream os;
  os << coll_name(i.op) << " row @" << i.min_bytes << "B: chosen "
     << coll::algo_name(i.chosen.algo) << (i.chosen.mapped ? "+mapped" : "")
     << " costs " << i.chosen_ns << " ns / " << i.chosen_bus << " bus B but "
     << coll::algo_name(i.better.algo) << (i.better.mapped ? "+mapped" : "")
     << " costs " << i.better_ns << " ns / " << i.better_bus
     << " bus B (dominated)";
  return os.str();
}

std::string to_string(const Crossover& c) {
  std::ostringstream os;
  os << coll_name(c.op) << ": " << coll::algo_name(c.from.algo)
     << (c.from.mapped ? "+mapped" : "") << " -> "
     << coll::algo_name(c.to.algo) << (c.to.mapped ? "+mapped" : "")
     << " above " << c.bytes << " B"
     << (c.feasibility ? " (feasibility cap)" : " (cost intersection)");
  return os.str();
}

}  // namespace srm::sa
