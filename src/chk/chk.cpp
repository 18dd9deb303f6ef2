#include "chk/chk.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace srm::chk {
namespace {

constexpr std::size_t kMaxReports = 64;

void join_into(std::vector<Clock>& dst, const std::vector<Clock>& src) {
  if (dst.size() < src.size()) dst.resize(src.size(), 0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = std::max(dst[i], src[i]);
  }
}

std::string join_stages(const std::vector<const char*>& stages) {
  std::string out;
  for (const char* s : stages) {
    if (!out.empty()) out += " > ";
    out += s;
  }
  return out;
}

const char* kind_name(Access k) {
  return k == Access::write ? "write" : "read";
}

}  // namespace

std::string RaceReport::to_string() const {
  std::ostringstream os;
  os << "race on '" << region << "' bytes [" << lo << "," << hi << "): "
     << kind_name(cur_kind) << " by task " << cur_actor << " at t="
     << sim::to_us(cur_time) << "us"
     << (cur_stage.empty() ? "" : " (" + cur_stage + ")")
     << " unordered with " << kind_name(prev_kind) << " by task "
     << prev_actor << " at t=" << sim::to_us(prev_time) << "us"
     << (prev_stage.empty() ? "" : " (" + prev_stage + ")");
  return os.str();
}

Checker::Checker(sim::Engine& eng, int nactors) : eng_(&eng) {
  // Vector clocks materialize lazily (vc_of): an eager nactors x nactors
  // matrix is O(ranks^2) — hopeless at mega scale (256K ranks). An absent
  // component reads as 0 everywhere.
  actors_.resize(static_cast<std::size_t>(nactors));
  eng_->add_blocked_source(this);
}

std::vector<Clock>& Checker::vc_of(int actor) {
  auto& a = actors_[static_cast<std::size_t>(actor)];
  auto self = static_cast<std::size_t>(actor);
  if (a.vc.size() <= self) a.vc.resize(self + 1, 0);
  // Start the actor's own component at 1 so an initial access is not
  // spuriously ordered before every other actor (whose clocks read 0).
  if (a.vc[self] == 0) a.vc[self] = 1;
  return a.vc;
}

Checker::~Checker() { eng_->remove_blocked_source(this); }

void Checker::set_enabled(bool on) { enabled_ = kEnabled && on; }

void Checker::register_region(const void* base, std::size_t bytes,
                              std::string name) {
  if (!kEnabled || bytes == 0) return;
  Region rg;
  rg.name = std::move(name);
  rg.size = bytes;
  regions_[base] = std::move(rg);
}

void Checker::unregister_region(const void* base) {
  auto it = regions_.find(base);
  if (it == regions_.end()) return;
  // A deadlock dump may still name the region as an actor's last access.
  for (ActorState& a : actors_) {
    if (a.last_access.rg != &it->second) continue;
    a.last_access.rg = nullptr;
    a.last_access.retired = it->second.name;
  }
  regions_.erase(it);
}

void Checker::release(int actor, SyncVar& v, const char* what) {
  auto& a = actors_[static_cast<std::size_t>(actor)];
  join_into(v.vc, vc_of(actor));
  ++a.vc[static_cast<std::size_t>(actor)];
  ++sync_ops_;
  if (trace_on_) {
    trace_.push_back(TraceEvent{TraceEvent::Kind::release, actor, &v, 0, 0,
                                0, false, what ? what : ""});
  }
  a.last_sync = std::string("release '") + (what ? what : "<sync>") + "'";
  a.last_sync_t = eng_->now();
}

void Checker::acquire(int actor, SyncVar& v, const char* what) {
  auto& a = actors_[static_cast<std::size_t>(actor)];
  join_into(a.vc, v.vc);
  ++sync_ops_;
  if (trace_on_) {
    trace_.push_back(TraceEvent{TraceEvent::Kind::acquire, actor, &v, 0, 0,
                                0, false, what ? what : ""});
  }
  a.last_sync = std::string("acquire '") + (what ? what : "<sync>") + "'";
  a.last_sync_t = eng_->now();
}

MsgClock Checker::fork(int actor) {
  auto& a = actors_[static_cast<std::size_t>(actor)];
  MsgClock m;
  m.vc = vc_of(actor);
  m.origin = actor;
  m.id = next_msg_id_++;
  m.stages = stage_names(actor);
  ++a.vc[static_cast<std::size_t>(actor)];
  ++sync_ops_;
  if (trace_on_) {
    trace_.push_back(TraceEvent{TraceEvent::Kind::fork, actor, nullptr, m.id,
                                0, 0, false, ""});
  }
  return m;
}

void Checker::join(SyncVar& v, const MsgClock& m) {
  join_into(v.vc, m.vc);
  ++sync_ops_;
  if (trace_on_) {
    trace_.push_back(TraceEvent{TraceEvent::Kind::join, m.origin, &v, m.id,
                                0, 0, true, ""});
  }
}

void Checker::acquire_msg(int actor, const MsgClock& m, const char* what) {
  auto& a = actors_[static_cast<std::size_t>(actor)];
  join_into(a.vc, m.vc);
  ++sync_ops_;
  if (trace_on_) {
    trace_.push_back(TraceEvent{TraceEvent::Kind::acquire_msg, actor, nullptr,
                                m.id, 0, 0, false, what ? what : ""});
  }
  a.last_sync = std::string("recv '") + (what ? what : "<msg>") + "'";
  a.last_sync_t = eng_->now();
}

Checker::Region* Checker::find_region(const void* p, std::size_t len,
                                      std::size_t& off) {
  if (regions_.empty() || len == 0) return nullptr;
  auto it = regions_.upper_bound(p);
  if (it == regions_.begin()) return nullptr;
  --it;
  const char* base = static_cast<const char*>(it->first);
  const char* q = static_cast<const char*>(p);
  if (q < base || q + len > base + it->second.size) return nullptr;
  off = static_cast<std::size_t>(q - base);
  return &it->second;
}

void Checker::check_access(Region& rg, const std::vector<Clock>& vc,
                           int actor, Clock epoch, std::size_t lo,
                           std::size_t hi, Access k,
                           const std::vector<const char*>& stages) {
  ++accesses_;
  std::size_t kept = 0;
  for (Record& r : rg.recs) {
    // Same actor => program order (or NIC FIFO for same-origin puts).
    // Lazy clocks: a component beyond the stored length reads as 0.
    auto ri = static_cast<std::size_t>(r.actor);
    Clock seen = ri < vc.size() ? vc[ri] : 0;
    bool ordered = r.actor == actor || seen >= r.epoch;
    if (!ordered && r.lo < hi && lo < r.hi &&
        (k == Access::write || r.kind == Access::write)) {
      if (reports_.size() < kMaxReports) {
        RaceReport rep;
        rep.region = rg.name;
        rep.lo = std::max(lo, r.lo);
        rep.hi = std::min(hi, r.hi);
        rep.prev_kind = r.kind;
        rep.cur_kind = k;
        rep.prev_actor = r.actor;
        rep.cur_actor = actor;
        rep.prev_time = r.t;
        rep.cur_time = eng_->now();
        rep.prev_stage = join_stages(r.stages);
        rep.cur_stage = join_stages(stages);
        reports_.push_back(std::move(rep));
      }
    }
    // Prune records this access supersedes: the record happens-before us,
    // covers no bytes we do not cover, and any future access racing with it
    // would also race with us (we are a write, or it was only a read).
    bool subsumed = ordered && lo <= r.lo && r.hi <= hi &&
                    (k == Access::write || r.kind == Access::read);
    if (!subsumed) rg.recs[kept++] = std::move(r);
  }
  rg.recs.resize(kept);
  rg.recs.push_back(Record{actor, epoch, lo, hi, k, eng_->now(), stages});
}

void Checker::access(int actor, const void* p, std::size_t len, Access k) {
  if (!enabled()) return;
  std::size_t off = 0;
  Region* rg = find_region(p, len, off);
  if (rg == nullptr) return;
  const auto& vc = vc_of(actor);
  Clock epoch = vc[static_cast<std::size_t>(actor)];
  check_access(*rg, vc, actor, epoch, off, off + len, k, stage_names(actor));
  if (trace_on_) {
    trace_.push_back(TraceEvent{
        k == Access::write ? TraceEvent::Kind::write : TraceEvent::Kind::read,
        actor, static_cast<const char*>(p) - off, 0, off, off + len, false,
        rg->name});
  }
  note_last_access(actor, *rg, off, off + len, k);
}

void Checker::access_remote(const MsgClock& m, const void* p, std::size_t len,
                            Access k) {
  if (!enabled() || m.origin < 0) return;
  std::size_t off = 0;
  Region* rg = find_region(p, len, off);
  if (rg == nullptr) return;
  Clock epoch = m.vc[static_cast<std::size_t>(m.origin)];
  check_access(*rg, m.vc, m.origin, epoch, off, off + len, k, m.stages);
  if (trace_on_) {
    trace_.push_back(TraceEvent{
        k == Access::write ? TraceEvent::Kind::write : TraceEvent::Kind::read,
        m.origin, static_cast<const char*>(p) - off, m.id, off, off + len,
        true, rg->name});
  }
}

std::uint64_t Checker::stage_push(int actor, const char* name) {
  std::uint64_t token = next_stage_token_++;
  actors_[static_cast<std::size_t>(actor)].stages.emplace_back(token, name);
  return token;
}

void Checker::stage_pop(int actor, std::uint64_t token) {
  auto& st = actors_[static_cast<std::size_t>(actor)].stages;
  for (auto it = st.begin(); it != st.end(); ++it) {
    if (it->first == token) {
      st.erase(it);
      return;
    }
  }
}

std::vector<const char*> Checker::stage_names(int actor) const {
  const auto& st = actors_[static_cast<std::size_t>(actor)].stages;
  std::vector<const char*> names;
  names.reserve(st.size());
  for (const auto& [token, name] : st) names.push_back(name);
  return names;
}

void Checker::note_last_access(int actor, const Region& rg, std::size_t lo,
                               std::size_t hi, Access k) {
  auto& a = actors_[static_cast<std::size_t>(actor)];
  a.last_access.rg = &rg;
  a.last_access.lo = lo;
  a.last_access.hi = hi;
  a.last_access.k = k;
  a.last_access.t = eng_->now();
}

std::string Checker::last_event(int actor) const {
  const auto& a = actors_[static_cast<std::size_t>(actor)];
  std::ostringstream os;
  bool any = false;
  if (a.last_access.rg != nullptr || !a.last_access.retired.empty()) {
    os << kind_name(a.last_access.k) << " '"
       << (a.last_access.rg != nullptr ? a.last_access.rg->name
                                       : a.last_access.retired)
       << "' [" << a.last_access.lo << "," << a.last_access.hi << ") at t="
       << sim::to_us(a.last_access.t) << "us";
    any = true;
  }
  if (!a.last_sync.empty()) {
    if (any) os << "; ";
    os << a.last_sync << " at t=" << sim::to_us(a.last_sync_t) << "us";
    any = true;
  }
  if (any) {
    std::string stages = join_stages(stage_names(actor));
    if (!stages.empty()) os << "; in " << stages;
  }
  return os.str();
}

void Checker::describe_blocked(std::ostream& os) const {
  if (!enabled()) return;
  for (int a = 0; a < nactors(); ++a) {
    std::string ev = last_event(a);
    if (ev.empty()) continue;
    os << "\n  task " << a << " last chk event: " << ev;
  }
}

}  // namespace srm::chk
