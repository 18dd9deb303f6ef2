#include "sim/engine.hpp"

#include <sstream>

namespace srm::sim {

Engine::EventId Engine::call_at(Time t, std::function<void()> fn) {
  SRM_CHECK_MSG(t >= now_, "event scheduled in the past");
  EventId id = next_id_++;
  queue_.push(Ev{t, next_key(), id, {}, std::move(fn)});
  return id;
}

Engine::EventId Engine::resume_at(Time t, std::coroutine_handle<> h) {
  SRM_CHECK_MSG(t >= now_, "resume scheduled in the past");
  SRM_CHECK(h);
  EventId id = next_id_++;
  queue_.push(Ev{t, next_key(), id, h, {}});
  return id;
}

void Engine::cancel(EventId id) { cancelled_.insert(id); }

void Engine::spawn(CoTask task) {
  SRM_CHECK(task.valid());
  std::uint64_t key = next_root_++;
  auto h = task.handle();
  h.promise().on_complete = [this, key](std::exception_ptr e) noexcept {
    if (e && !first_error_) first_error_ = e;
    reap_.push_back(key);
  };
  roots_.emplace(key, std::move(task));
  resume_at(now_, h);
}

void Engine::add_blocked_source(BlockedInfoSource* src) {
  SRM_CHECK(src != nullptr);
  std::uint64_t id = next_source_id_++;
  blocked_sources_.emplace(id, src);
  blocked_source_ids_.emplace(src, id);
}

void Engine::remove_blocked_source(BlockedInfoSource* src) {
  auto it = blocked_source_ids_.find(src);
  if (it == blocked_source_ids_.end()) return;
  blocked_sources_.erase(it->second);
  blocked_source_ids_.erase(it);
}

std::string Engine::describe_deadlock() const {
  std::ostringstream os;
  os << "simulation deadlock: event queue empty but " << roots_.size()
     << " process(es) still suspended at t=" << to_us(now_) << "us";
  for (const auto& [id, src] : blocked_sources_) src->describe_blocked(os);
  return os.str();
}

void Engine::reap_finished() {
  for (std::uint64_t key : reap_) roots_.erase(key);
  reap_.clear();
}

void Engine::abandon() {
  // Drop the events first: they may resume frames destroyed below.
  while (!queue_.empty()) queue_.pop();
  cancelled_.clear();
  // Destroying a root frame destroys the frames it awaits. Their locals'
  // destructors still run against a live cluster here, where destroying
  // them with the engine would run them after the nodes they touch.
  roots_.clear();
  reap_.clear();
}

void Engine::run() {
  while (!queue_.empty()) {
    Ev ev = queue_.pop();
    if (auto it = cancelled_.find(ev.id); it != cancelled_.end()) {
      cancelled_.erase(it);
      continue;
    }
    SRM_CHECK(ev.t >= now_);
    now_ = ev.t;
    ++processed_;
    if (ev.h) {
      ev.h.resume();
    } else {
      ev.fn();
    }
    reap_finished();
    if (first_error_) {
      auto e = std::exchange(first_error_, nullptr);
      abandon();
      std::rethrow_exception(e);
    }
  }
  if (!roots_.empty()) {
    std::string what = describe_deadlock();
    abandon();
    throw util::CheckError(what);
  }
}

}  // namespace srm::sim
