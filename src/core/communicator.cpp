#include "core/communicator.hpp"

#include <cstdlib>

#include "util/align.hpp"

namespace srm {

namespace {

/// Where a Communicator's table actually came from, for the construction
/// span: which precedence branch won, plus the identifying detail (the
/// artifact path for env, the profile name for builtin).
struct ResolvedTable {
  coll::DecisionTable table;
  const char* source = "builtin";  // "config" | "env" | "builtin"
  std::string detail;
};

/// The table-source precedence of config.hpp: an explicit config table, an
/// SRM_DECISIONS artifact, or the builtin profile table (ibm_sp for unknown
/// profiles), whichever comes first, used verbatim.
ResolvedTable resolve_table(const SrmConfig& cfg,
                            const machine::MachineParams& params) {
  if (!cfg.decisions.empty()) {
    return {cfg.decisions, "config", cfg.decisions.profile};
  }
  if (const char* env = std::getenv("SRM_DECISIONS");
      env != nullptr && env[0] != '\0') {
    return {coll::DecisionTable::load(env), "env", env};
  }
  if (const coll::DecisionTable* bt =
          coll::DecisionTable::builtin(params.profile)) {
    return {*bt, "builtin", params.profile};
  }
  return {coll::DecisionTable::ibm_sp(), "builtin", "ibm_sp"};
}

/// Minimal JSON string escaping for the span args (paths may carry
/// backslashes on exotic setups; quotes are the only realistic hazard).
std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Communicator::NodeState::NodeState(sim::Engine& eng,
                                   const machine::MemoryParams& mp,
                                   const machine::Topology& topo,
                                   const SrmConfig& cfg, shm::Segment& seg,
                                   const std::string& prefix)
    : nlocal(topo.tasks_per_node()),
      rs_slots(detail::rs_slots(topo.nodes())),
      eng_(&eng),
      mp_(&mp),
      seg_(&seg),
      prefix_(prefix),
      smp_buf_bytes_(cfg.smp_buf_bytes),
      reduce_chunk_(cfg.reduce_chunk),
      sc_acc_(static_cast<std::size_t>(nlocal)) {
  auto counter = [&eng, &prefix](const std::string& label) {
    return std::make_unique<lapi::Counter>(eng, prefix + "/" + label);
  };

  // --- SMP broadcast buffers + READY flags (Fig. 3) ---
  alloc(bc_buf, "bc_buf", cfg.smp_buf_bytes);
  for (int b = 0; b < 2; ++b) {
    bc_ready[static_cast<std::size_t>(b)] = std::make_unique<shm::FlagArray>(
        eng, mp, nlocal, 0, prefix + "/bc_ready" + std::to_string(b));
  }

  // --- SMP reduce slots + chunk counters ---
  for (int s = 0; s < 2; ++s) {
    auto& slots = red_slot[static_cast<std::size_t>(s)];
    slots.reserve(static_cast<std::size_t>(nlocal));
    for (int l = 0; l < nlocal; ++l) {
      slots.push_back(seg.buffer(
          prefix + "/red_slot" + std::to_string(s) + "_" + std::to_string(l),
          cfg.reduce_chunk));
    }
  }
  red_published = std::make_unique<shm::FlagArray>(eng, mp, nlocal, 0,
                                                   prefix + "/red_published");
  for (int s2 = 0; s2 < 2; ++s2) {
    red_consumed[static_cast<std::size_t>(s2)] =
        std::make_unique<shm::FlagArray>(
            eng, mp, nlocal, 0, prefix + "/red_consumed" + std::to_string(s2));
  }

  // --- SMP barrier flags ---
  bar_flag = std::make_unique<shm::FlagArray>(eng, mp, nlocal, 0,
                                              prefix + "/bar_flag");

  // --- reduce network state (the per-child landing pairs are per link) ---
  red_free = counter("red_free");
  red_free->set(2);  // two landing slots at the parent start free
  alloc(red_out, "red_out", cfg.reduce_chunk);
  red_out_org = counter("red_out_org");

  // --- allreduce recursive-doubling state ---
  int nnodes = topo.nodes();
  int rounds = nnodes > 1 ? util::log2_ceil(static_cast<unsigned>(nnodes)) : 0;
  ar_buf.resize(static_cast<std::size_t>(rounds));
  ar_arrived.resize(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    alloc(ar_buf[static_cast<std::size_t>(r)],
          "ar_buf" + std::to_string(r) + "_", cfg.reduce_chunk);
    ar_arrived[static_cast<std::size_t>(r)] =
        counter("ar_arrived" + std::to_string(r));
  }
  ar_fold_in_arr = counter("ar_fold_in_arr");
  ar_fold_out_arr = counter("ar_fold_out_arr");

  // --- barrier round counters ---
  bar_round.resize(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    bar_round[static_cast<std::size_t>(r)] =
        counter("bar_round" + std::to_string(r));
  }
  bar_fold_in = counter("bar_fold_in");
  bar_fold_out = counter("bar_fold_out");

  // --- gather counters (the staging pair waits for the first gather) ---
  for (int s = 0; s < 2; ++s) {
    ga_filled[static_cast<std::size_t>(s)] = std::make_unique<shm::SharedFlag>(
        eng, mp, 0, prefix + "/ga_filled" + std::to_string(s));
    ga_freed[static_cast<std::size_t>(s)] = std::make_unique<shm::SharedFlag>(
        eng, mp, 0, prefix + "/ga_freed" + std::to_string(s));
  }

  zoo_org = counter("zoo_org");

  // --- single-copy cross-mapping windows + mapped-reduce counters ---
  map = &seg.object<shm::Mapping>(prefix + "/map", eng, mp, nlocal,
                                  prefix + "/map");
  for (int s = 0; s < 2; ++s) {
    sc_cons[static_cast<std::size_t>(s)] = std::make_unique<shm::FlagArray>(
        eng, mp, nlocal, 0, prefix + "/sc_cons" + std::to_string(s));
  }
  sc_pub =
      std::make_unique<shm::FlagArray>(eng, mp, nlocal, 0, prefix + "/sc_pub");
}

Communicator::NodeState::Link::Link(sim::Engine& eng,
                                    const std::string& prefix, int peer) {
  std::string p = std::to_string(peer);
  auto counter = [&eng, &prefix](const std::string& label) {
    return std::make_unique<lapi::Counter>(eng, prefix + "/" + label);
  };
  for (int s = 0; s < 2; ++s) {
    std::string link = p + "_" + std::to_string(s);
    bc_arrived[static_cast<std::size_t>(s)] = counter("bc_arrived" + link);
    auto& cr = bc_free[static_cast<std::size_t>(s)];
    cr = counter("bc_free" + link);
    cr->set(1);  // both remote landing buffers start free
  }
  bc_addr_arrived = counter("bc_addr_arrived" + p);
  bc_large_arrived = counter("bc_large_arrived" + p);
  red_arrived = counter("red_arrived" + p);
  ga_done = counter("ga_done" + p);
  zoo_addr_arr = counter("zoo_addr_arr" + p);
  zoo_got = counter("zoo_got" + p);
  zoo_arr = counter("zoo_arr" + p);
  zoo_free = counter("zoo_free" + p);
  zoo_free->set(2);  // both landing slots start free
}

Communicator::NodeState::Pair& Communicator::NodeState::alloc(
    Pair& p, const std::string& stem, std::size_t bytes) {
  if (p[0].data() == nullptr) {
    for (int s = 0; s < 2; ++s) {
      p[static_cast<std::size_t>(s)] =
          seg_->buffer(prefix_ + "/" + stem + std::to_string(s), bytes);
    }
  }
  return p;
}

Communicator::NodeState::Link& Communicator::NodeState::link(int peer) {
  // try_emplace constructs a record only when the key is new.
  return links_.try_emplace(peer, *eng_, prefix_, peer).first->second;
}

Communicator::NodeState::Pair& Communicator::NodeState::bc_land(int peer) {
  return alloc(link(peer).bc_land, "bc_land" + std::to_string(peer) + "_",
               smp_buf_bytes_);
}

Communicator::NodeState::FarPair& Communicator::NodeState::bc_far(
    int socket) {
  FarPair& f = bc_far_[socket];
  if (f.filled[0] == nullptr) {
    std::string stem = "bc_far" + std::to_string(socket) + "_";
    alloc(f.buf, stem, smp_buf_bytes_);
    for (int s = 0; s < 2; ++s) {
      f.filled[static_cast<std::size_t>(s)] = std::make_unique<shm::SharedFlag>(
          *eng_, *mp_, 0, prefix_ + "/" + stem + "filled" + std::to_string(s));
    }
  }
  return f;
}

Communicator::NodeState::Pair& Communicator::NodeState::red_land(int peer) {
  return alloc(link(peer).red_land, "red_land" + std::to_string(peer) + "_",
               reduce_chunk_);
}

Communicator::NodeState::Pair& Communicator::NodeState::zoo_land(int peer) {
  return alloc(link(peer).zoo_land, "zoo_land" + std::to_string(peer) + "_",
               reduce_chunk_);
}

Communicator::NodeState::Link::GaCell& Communicator::NodeState::ga_cell(
    int peer, int root_local) {
  Link::GaCell& c = link(peer).ga_cells[root_local];
  if (c.arr == nullptr) {
    c.arr = std::make_unique<lapi::Counter>(
        *eng_, prefix_ + "/ga_addr_arr" + std::to_string(peer) + "_" +
                   std::to_string(root_local));
  }
  return c;
}

Communicator::NodeState::Pair& Communicator::NodeState::ar_fold_in() {
  return alloc(ar_fold_in_, "ar_fold_in", reduce_chunk_);
}

Communicator::NodeState::Pair& Communicator::NodeState::ar_fold_out() {
  return alloc(ar_fold_out_, "ar_fold_out", reduce_chunk_);
}

Communicator::NodeState::Pair& Communicator::NodeState::ga_stage() {
  return alloc(ga_stage_, "ga_stage", smp_buf_bytes_);
}

Communicator::NodeState::Pair& Communicator::NodeState::sc_acc(int l) {
  return alloc(sc_acc_[static_cast<std::size_t>(l)],
               "sc_acc" + std::to_string(l) + "_", reduce_chunk_);
}

Communicator::NodeState::RsDomain& Communicator::NodeState::rs_dom(int dom) {
  RsDomain& r = rs_dom_[dom];
  if (r.land.empty()) {
    std::string stem = prefix_ + "/rs" + std::to_string(dom) + "_";
    auto flag = [&](const std::string& name) {
      return std::make_unique<shm::SharedFlag>(*eng_, *mp_, 0, stem + name);
    };
    for (int s = 0; s < rs_slots; ++s) {
      std::string slot = std::to_string(s);
      r.land.push_back(seg_->buffer(stem + "land" + slot, reduce_chunk_));
      r.landed.push_back(flag("landed" + slot));
      r.read.push_back(flag("read" + slot));
      r.arrived.emplace_back();
      for (int l = 0; l < nlocal; ++l) {
        r.arrived.back().push_back(std::make_unique<lapi::Counter>(
            *eng_, stem + "arrived" + slot + "_" + std::to_string(l)));
      }
    }
    for (std::size_t s = 0; s < 2; ++s) {
      r.own_read[s] = flag("own_read" + std::to_string(s));
      r.shares[s] = flag("shares" + std::to_string(s));
    }
  }
  return r;
}

Communicator::NodeState::Link::RingCells&
Communicator::NodeState::sock_ring(int peer, int dom) {
  Link::RingCells& r = link(peer).sock_ring[dom];
  if (r.got == nullptr) {
    std::string stem = prefix_ + "/ag" + std::to_string(dom) + "_";
    std::string p = std::to_string(peer);
    r.addr_arr = std::make_unique<lapi::Counter>(*eng_, stem + "addr_arr" + p);
    r.got = std::make_unique<lapi::Counter>(*eng_, stem + "got" + p);
  }
  return r;
}

Communicator::NodeState::AgFlags& Communicator::NodeState::ag_flags(
    int dom) {
  AgFlags& f = ag_[dom];
  if (f.ready == nullptr) {
    std::string stem = prefix_ + "/ag" + std::to_string(dom) + "_";
    f.ready = std::make_unique<shm::SharedFlag>(*eng_, *mp_, 0, stem + "ready");
    f.assembled =
        std::make_unique<shm::SharedFlag>(*eng_, *mp_, 0, stem + "assembled");
  }
  return f;
}

lapi::Counter& Communicator::NodeState::rs_credit(int dom, int dest,
                                                  std::size_t slot) {
  auto& c = rs_credit_[{dom, dest, slot}];
  if (c == nullptr) {
    c = std::make_unique<lapi::Counter>(
        *eng_, prefix_ + "/rs" + std::to_string(dom) + "_credit" +
                   std::to_string(dest) + "_" + std::to_string(slot));
  }
  return *c;
}

std::byte* Communicator::NodeState::rh_scratch(std::size_t bytes) {
  return seg_->scratch(prefix_ + "/rh_scratch", bytes).data();
}

Communicator::Communicator(machine::Cluster& cluster, lapi::Fabric& fabric,
                           SrmConfig cfg, std::string name)
    : cluster_(&cluster),
      fabric_(&fabric),
      cfg_(cfg),
      name_(std::move(name)),
      sym_(cluster, coll::sym::Profile{cluster.params().net.o_send,
                                       cfg.bcast_net_chunk}) {
  ResolvedTable rt = resolve_table(cfg, cluster.params());
  table_ = std::move(rt.table);
  // Record which precedence branch supplied the table. A mis-set
  // SRM_DECISIONS silently changing every dispatch is otherwise invisible
  // in a trace; this span makes the provenance a first-class artifact.
  std::size_t sid = cluster.obs().span_begin(
      0, "srm.decisions",
      "{\"source\":" + json_str(rt.source) +
          ",\"detail\":" + json_str(rt.detail) +
          ",\"profile\":" + json_str(table_.profile) + "}");
  cluster.obs().span_end(sid);
  SRM_CHECK(cfg_.reduce_chunk % 8 == 0);
  SRM_CHECK(cfg_.bcast_net_chunk > 0);
  // Only the per-rank scalar bookkeeping is eager; the per-node shared
  // structures wait for the first real op, per-link state for its link.
  ranks_.resize(static_cast<std::size_t>(cluster.topology().nranks()));
}

void Communicator::ensure_real_state() {
  if (real_ready_) return;
  real_ready_ = true;
  const auto& topo = cluster_->topology();
  nodes_.reserve(static_cast<std::size_t>(topo.nodes()));
  for (int n = 0; n < topo.nodes(); ++n) {
    auto& node = cluster_->node(n);
    nodes_.push_back(&node.seg.object<NodeState>(
        "srm/" + name_, cluster_->engine(), cluster_->params().mem, topo,
        cfg_, node.seg, "srm/" + name_));
  }
  auto nlocal = static_cast<std::size_t>(topo.tasks_per_node());
  for (auto& r : ranks_) {
    r.smp_red_base.assign(nlocal, 0);
    r.map_gen.assign(nlocal, 0);
    r.sc_base.assign(nlocal, 0);
  }
}

// ---------------------------------------------------------------------------
// Decision lookup
// ---------------------------------------------------------------------------

coll::Decision Communicator::decide(coll::CollKind op,
                                    std::size_t op_bytes) const {
  return cfg_.sanitize(op, table_.decide(op, op_bytes), op_bytes);
}

coll::Decision Communicator::decide(const machine::TaskCtx& t,
                                    coll::CollKind op,
                                    std::size_t bytes) const {
  using coll::Algo;
  using coll::CollKind;
  coll::Decision d = decide(op, coll::row_key(op, bytes, t.nlocal()));
  // The algorithms with a mapped variant: staged and direct bcast, staged
  // reduce, both halves of the pipelined allreduce, and, on nodes of more
  // than one task, scatter, gather, the direct allgather and allreduce
  // (whose allgather then runs on the socket leaders' windows) and the
  // direct reduce_scatter over a flat domain tree (its share form).
  bool rank_blocks =
      op == CollKind::scatter || op == CollKind::gather ||
      (op == CollKind::allgather && d.algo == Algo::direct) ||
      (op == CollKind::allreduce && d.algo == Algo::direct) ||
      (op == CollKind::reduce_scatter && d.algo == Algo::direct &&
       d.intranode == coll::TreeKind::flat);
  bool variant = op == CollKind::reduce ||
                 (op == CollKind::bcast && d.algo != Algo::scatter_ag) ||
                 (op == CollKind::allreduce && d.algo == Algo::pipeline) ||
                 (rank_blocks && t.nlocal() > 1);
  d.mapped = d.mapped && variant && cfg_.single_copy;
  return d;
}

std::string Communicator::v_algo(const machine::TaskCtx& t,
                                 const coll::CallSig& sig) const {
  coll::Decision d =
      decide(t, sig.op, sig.count * coll::dtype_size(sig.dtype));
  return std::string(coll::algo_name(d.algo)) + (d.mapped ? "+sc" : "");
}

// ---------------------------------------------------------------------------
// Plane dispatch (coll::Collectives hooks)
// ---------------------------------------------------------------------------

sim::CoTask Communicator::v_bcast(machine::TaskCtx& t, coll::Buf buf,
                                  int root) {
  if (buf.symbolic()) {
    obs::Span span(*t.obs, t.rank, "srm.bcast");
    chk::StageScope stage(t.chk, "srm.bcast");
    rank_state(t).op_seq++;
    sym_used_ = true;
    co_await sym_.bcast(t, buf, root,
                        decide(coll::CollKind::bcast, buf.count * buf.esize()));
  } else {
    if (buf.count != 0) ensure_real_state();
    co_await real_bcast(t, buf.data, buf.count * buf.esize(), root);
  }
}

sim::CoTask Communicator::v_reduce(machine::TaskCtx& t, coll::Buf send,
                                   coll::Buf recv, coll::RedOp op, int root) {
  if (send.symbolic()) {
    obs::Span span(*t.obs, t.rank, "srm.reduce");
    chk::StageScope stage(t.chk, "srm.reduce");
    rank_state(t).op_seq++;
    sym_used_ = true;
    co_await sym_.reduce(
        t, send, recv, op, root,
        decide(coll::CollKind::reduce, send.count * send.esize()));
  } else {
    if (send.count != 0) ensure_real_state();
    co_await real_reduce(t, send.data, recv.data, send.count, send.dtype, op,
                         root);
  }
}

sim::CoTask Communicator::v_allreduce(machine::TaskCtx& t, coll::Buf send,
                                      coll::Buf recv, coll::RedOp op) {
  if (send.symbolic()) {
    obs::Span span(*t.obs, t.rank, "srm.allreduce");
    chk::StageScope stage(t.chk, "srm.allreduce");
    rank_state(t).op_seq++;
    sym_used_ = true;
    co_await sym_.allreduce(
        t, send, recv, op,
        decide(coll::CollKind::allreduce, send.count * send.esize()));
  } else {
    if (send.count != 0) ensure_real_state();
    co_await real_allreduce(t, send.data, recv.data, send.count, send.dtype,
                            op);
  }
}

sim::CoTask Communicator::v_barrier(machine::TaskCtx& t) {
  if (sym_used_ && !real_ready_) {
    obs::Span span(*t.obs, t.rank, "srm.barrier");
    chk::StageScope stage(t.chk, "srm.barrier");
    rank_state(t).op_seq++;
    co_await sym_.barrier(t);
  } else {
    ensure_real_state();
    co_await real_barrier(t);
  }
}

sim::CoTask Communicator::v_scatter(machine::TaskCtx& t, coll::Buf send,
                                    coll::Buf recv, int root) {
  if (recv.symbolic()) {
    obs::Span span(*t.obs, t.rank, "srm.scatter");
    chk::StageScope stage(t.chk, "srm.scatter");
    rank_state(t).op_seq++;
    sym_used_ = true;
    co_await sym_.scatter(t, send, recv, root);
  } else {
    if (recv.count != 0) ensure_real_state();
    co_await real_scatter(t, send.data, recv.data,
                          recv.count * recv.esize(), root);
  }
}

sim::CoTask Communicator::v_gather(machine::TaskCtx& t, coll::Buf send,
                                   coll::Buf recv, int root) {
  if (send.symbolic()) {
    obs::Span span(*t.obs, t.rank, "srm.gather");
    chk::StageScope stage(t.chk, "srm.gather");
    rank_state(t).op_seq++;
    sym_used_ = true;
    co_await sym_.gather(t, send, recv, root);
  } else {
    if (send.count != 0) ensure_real_state();
    co_await real_gather(t, send.data, recv.data,
                         send.count * send.esize(), root);
  }
}

sim::CoTask Communicator::v_allgather(machine::TaskCtx& t, coll::Buf send,
                                      coll::Buf recv) {
  if (send.symbolic()) {
    obs::Span span(*t.obs, t.rank, "srm.allgather");
    chk::StageScope stage(t.chk, "srm.allgather");
    sym_used_ = true;
    co_await sym_.allgather(t, send, recv);
  } else {
    if (send.count != 0) ensure_real_state();
    co_await real_allgather(t, send.data, recv.data,
                            send.count * send.esize());
  }
}

sim::CoTask Communicator::v_reduce_scatter(machine::TaskCtx& t,
                                           coll::Buf send, coll::Buf recv,
                                           coll::RedOp op) {
  if (send.symbolic()) {
    obs::Span span(*t.obs, t.rank, "srm.reduce_scatter");
    chk::StageScope stage(t.chk, "srm.reduce_scatter");
    sym_used_ = true;
    co_await sym_.reduce_scatter(t, send, recv, op);
  } else {
    if (recv.count != 0) ensure_real_state();
    co_await real_reduce_scatter(t, send.data, recv.data, recv.count,
                                 recv.dtype, op);
  }
}

// ---------------------------------------------------------------------------
// Real plane
// ---------------------------------------------------------------------------

sim::CoTask Communicator::real_bcast(machine::TaskCtx& t, void* buf,
                                     std::size_t bytes, int root) {
  SRM_CHECK(root >= 0 && root < t.nranks());
  SRM_CHECK(bytes == 0 || buf != nullptr);
  obs::Span span(*t.obs, t.rank, "srm.bcast");
  chk::StageScope stage(t.chk, "srm.bcast");
  rank_state(t).op_seq++;
  if (bytes == 0) co_return;
  coll::Decision dec = decide(t, coll::CollKind::bcast, bytes);
  coll::Embedding emb = coll::embed(*t.topo, root, dec.internode);
  bool small = dec.algo == coll::Algo::staged;
  bool leader = emb.leader[static_cast<std::size_t>(t.node())] == t.rank;
  bool manage = cfg_.manage_interrupts && small && leader && t.nnodes() > 1;
  if (manage) ep(t.rank).set_interrupts(false);
  switch (dec.algo) {
    case coll::Algo::staged:
      co_await bcast_small(t, buf, bytes, emb, dec.mapped, dec.chunk);
      break;
    case coll::Algo::scatter_ag:
      co_await bcast_scatter_ag(t, buf, bytes, emb);
      break;
    default:
      co_await bcast_large(t, buf, bytes, emb, cfg_.bcast_net_chunk, nullptr,
                           dec.mapped);
      break;
  }
  if (manage) ep(t.rank).set_interrupts(true);
}

sim::CoTask Communicator::real_reduce(machine::TaskCtx& t, const void* send,
                                      void* recv, std::size_t count,
                                      coll::Dtype d, coll::RedOp op,
                                      int root) {
  SRM_CHECK(root >= 0 && root < t.nranks());
  SRM_CHECK(send != recv);
  obs::Span span(*t.obs, t.rank, "srm.reduce");
  chk::StageScope stage(t.chk, "srm.reduce");
  rank_state(t).op_seq++;
  if (count == 0) co_return;
  std::size_t bytes = count * coll::dtype_size(d);
  coll::Decision dec = decide(t, coll::CollKind::reduce, bytes);
  // Interrupt management (§2.3): off during small-message collectives on the
  // tasks that face the network.
  bool small = bytes <= cfg_.reduce_chunk;
  bool leader = t.node() == t.topo->node_of(root) ? t.rank == root
                                                  : t.is_master();
  bool manage = cfg_.manage_interrupts && small && leader && t.nnodes() > 1;
  if (manage) ep(t.rank).set_interrupts(false);
  co_await reduce_impl(t, send, recv, count, d, op, root, dec, nullptr);
  if (manage) ep(t.rank).set_interrupts(true);
}

sim::CoTask Communicator::real_allreduce(machine::TaskCtx& t,
                                         const void* send, void* recv,
                                         std::size_t count, coll::Dtype d,
                                         coll::RedOp op) {
  SRM_CHECK(send != recv);
  obs::Span span(*t.obs, t.rank, "srm.allreduce");
  chk::StageScope stage(t.chk, "srm.allreduce");
  rank_state(t).op_seq++;
  if (count == 0) co_return;
  std::size_t bytes = count * coll::dtype_size(d);
  coll::Decision dec = decide(t, coll::CollKind::allreduce, bytes);
  switch (dec.algo) {
    case coll::Algo::rd: {
      bool leader = t.is_master();
      bool manage = cfg_.manage_interrupts && leader && t.nnodes() > 1;
      if (manage) ep(t.rank).set_interrupts(false);
      co_await allreduce_rd(t, send, recv, count, d, op, dec);
      if (manage) ep(t.rank).set_interrupts(true);
      break;
    }
    case coll::Algo::ring:
      co_await ring_allreduce(t, send, recv, count, d, op, dec);
      break;
    case coll::Algo::rhalving:
      co_await rhalving_allreduce(t, send, recv, count, d, op, dec);
      break;
    case coll::Algo::direct:
      co_await allreduce_direct(t, send, recv, count, d, op, dec);
      break;
    default:
      co_await allreduce_pipelined(t, send, recv, count, d, op, dec);
      break;
  }
}

sim::CoTask Communicator::real_barrier(machine::TaskCtx& t) {
  obs::Span span(*t.obs, t.rank, "srm.barrier");
  chk::StageScope stage(t.chk, "srm.barrier");
  rank_state(t).op_seq++;
  bool manage = cfg_.manage_interrupts && t.is_master() && t.nnodes() > 1;
  if (manage) ep(t.rank).set_interrupts(false);
  co_await smp_barrier_enter(t);
  if (t.is_master()) {
    if (t.nnodes() > 1) co_await internode_barrier(t);
    smp_barrier_release(t);
  }
  if (manage) ep(t.rank).set_interrupts(true);
}

}  // namespace srm
