#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>

namespace perfbench {

namespace {

enum class Layer { none, smp, mapped, internode };

bool starts_with(const std::string& s, const char* p) {
  return s.rfind(p, 0) == 0;
}

bool ends_with(const std::string& s, const char* p) {
  const std::string suffix(p);
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Layer layer_of(const std::string& name) {
  if (starts_with(name, "smp.")) {
    return ends_with(name, "_mapped") ? Layer::mapped : Layer::smp;
  }
  if (name == "barrier.smp") return Layer::smp;
  if (starts_with(name, "bcast.") || starts_with(name, "allreduce.") ||
      name == "reduce.pipeline" || name == "barrier.inter") {
    return Layer::internode;
  }
  return Layer::none;
}

std::string algo_arg(const std::string& args) {
  const std::string key = "\"algo\":\"";
  auto at = args.find(key);
  if (at == std::string::npos) return {};
  at += key.size();
  return args.substr(at, args.find('"', at) - at);
}

const auto kStart = std::chrono::steady_clock::now();

}  // namespace

double host_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kStart)
      .count();
}

CallSpans summarize(const std::vector<srm::obs::SpanRec>& spans,
                    srm::sim::Time now) {
  using srm::sim::Time;
  CallSpans out;
  out.spans = spans.size();
  auto end_of = [now](const srm::obs::SpanRec& s) {
    return s.open ? now : s.end;
  };
  // Per rank, by begin; an enclosing span sorts before what it encloses
  // (longer first, then creation order for identical intervals).
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = spans[a];
    const auto& y = spans[b];
    if (x.rank != y.rank) return x.rank < y.rank;
    if (x.begin != y.begin) return x.begin < y.begin;
    if (end_of(x) != end_of(y)) return end_of(x) > end_of(y);
    return a < b;
  });
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto& s = spans[order[i]];
    if (out.algo.empty() && s.rank == 0 && starts_with(s.name, "coll.")) {
      out.algo = algo_arg(s.args);
    }
    Layer layer = layer_of(s.name);
    if (layer == Layer::none) continue;
    const Time e = end_of(s);
    // Union of the later spans on this rank that lie inside [begin, e].
    Time covered = 0, cb = 0, ce = 0;
    bool open = false;
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      const auto& c = spans[order[j]];
      if (c.rank != s.rank || c.begin >= e) break;
      const Time c_end = end_of(c);
      if (c_end > e) continue;  // overlaps without nesting: not a child
      if (!open || c.begin > ce) {
        if (open) covered += ce - cb;
        cb = c.begin;
        ce = c_end;
        open = true;
      } else {
        ce = std::max(ce, c_end);
      }
    }
    if (open) covered += ce - cb;
    const double self_us = static_cast<double>(e - s.begin - covered) / 1e3;
    switch (layer) {
      case Layer::smp: out.smp_self_us += self_us; break;
      case Layer::mapped: out.mapped_self_us += self_us; break;
      case Layer::internode: out.internode_self_us += self_us; break;
      case Layer::none: break;
    }
  }
  return out;
}

TraceFile::TraceFile(const std::string& path, std::size_t span_budget)
    : out_(path), budget_(span_budget) {
  out_ << "{\"traceEvents\":["
       << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":"
          "{\"name\":\"simulated ranks (virtual time)\"}},"
       << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":"
          "{\"name\":\"perfbench (host clock)\"}},"
       << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":\"layer calls\"}}";
}

void TraceFile::add_virtual(const srm::obs::Registry& reg) {
  if (written_ >= budget_ || reg.spans().empty()) return;
  const std::string doc = reg.chrome_trace_json();
  // Splice the event array of the registry's document into ours.
  const auto lo = doc.find('[');
  const auto hi = doc.rfind(']');
  if (lo == std::string::npos || hi == std::string::npos || hi <= lo + 1) {
    return;
  }
  out_ << ',';
  out_.write(doc.data() + lo + 1, static_cast<std::streamsize>(hi - lo - 1));
  written_ += reg.spans().size();
}

void TraceFile::finish(const HostTrace& host) {
  char buf[64];
  for (const auto& s : host.spans()) {
    out_ << ",{\"name\":\"" << s.name << "\",\"cat\":\"host\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                  s.begin_s * 1e6, (s.end_s - s.begin_s) * 1e6);
    out_ << buf << ",\"pid\":1,\"tid\":0";
    if (!s.args.empty()) out_ << ",\"args\":" << s.args;
    out_ << '}';
  }
  out_ << "],\"displayTimeUnit\":\"ms\"}\n";
  out_.close();
}

}  // namespace perfbench
