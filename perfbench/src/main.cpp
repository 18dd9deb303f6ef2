// perfbench: seeded end-to-end benchmark of the SRM collectives.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out DIR] [--calls N] [--corrupt-call K]
//
// The seed generates one call list per workload. --trace 0 runs the whole
// list once, then keeps cycling it until S seconds have passed, and prints
// the end-to-end metrics: virtual time over the list, peak RSS, set-up time
// and the share of calls that passed (host throughput goes to an info line).
// --trace 1 runs the list once untraced and once with obs tracing on,
// prints the per-layer metrics, and writes a Chrome trace and a per-layer
// summary to DIR. Every call is checked against a sequential reference; the
// last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}.
//
// --calls keeps only the first N calls of the list; --corrupt-call flips one
// output byte of the first checked call at or after index K (self-tests).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runner.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

constexpr int kSetupReps = 7;
// Virtual-time spans written to the trace file per workload; the host track
// is always complete.
constexpr std::size_t kTraceSpanBudget = 60000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
  long calls = -1;
  long corrupt_call = -1;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) return false;
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--calls") {
      a.calls = std::strtol(v, &end, 10);
    } else if (k == "--corrupt-call") {
      a.corrupt_call = std::strtol(v, &end, 10);
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !a.workload.empty() && a.seconds > 0;
}

// ---- statistics ----

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The highest reported percentile that leaves at least ten of @p n
/// samples beyond it.
double tail_pct(std::size_t n) {
  for (double p : {99.9, 99.5, 99.0, 98.0, 97.0, 95.0, 90.0, 85.0, 80.0, 75.0,
                   70.0, 60.0}) {
    const auto at = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (n >= at + 10) return p;
  }
  return 50.0;
}

std::string num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(long attempted, long failed, const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

/// Best-of-five single-threaded memcpy bandwidth over arrays of four times
/// the last-level cache, each.
double memcpy_peak_gbps(std::size_t& array_bytes, std::size_t& llc_bytes) {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  llc_bytes = llc > 0 ? static_cast<std::size_t>(llc) : std::size_t{32} << 20;
  array_bytes = 4 * llc_bytes;
  auto a = std::make_unique_for_overwrite<char[]>(array_bytes);
  auto b = std::make_unique_for_overwrite<char[]>(array_bytes);
  std::memset(a.get(), 1, array_bytes);
  std::memset(b.get(), 0, array_bytes);
  double best = 0;
  for (int i = 0; i < 5; ++i) {
    a[static_cast<std::size_t>(i)] = static_cast<char>(i);
    const double t0 = host_now();
    std::memcpy(b.get(), a.get(), array_bytes);
    const double t1 = host_now();
    best = std::max(best, static_cast<double>(array_bytes) / (t1 - t0));
  }
  if (b[4] != 4) std::abort();  // keeps the copies observable
  return best / 1e9;
}

// ---- one call ----

struct Outcome {
  bool ran = false;  ///< false: the simulator threw; the stack is unusable
  bool ok = false;   ///< ran and every rank matched the reference
  RunCost cost;
  double check_s = 0;
};

Outcome run_one(Runner& d, Stack& s, const Call& c, bool corrupt,
                HostTrace* host, const char* phase) {
  Outcome o;
  const std::string what = std::string(srm::coll::coll_name(c.op)) + " of " +
                           std::to_string(c.count) + " elements";
  double r0 = 0, r1 = 0;
  try {
    d.prepare(c);
    r0 = host_now();
    o.cost = d.run(s, c);
    r1 = host_now();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(), e.what());
    return o;
  }
  o.ran = true;
  const std::uint64_t wrong_before = d.wrong_bytes();
  const double c0 = host_now();
  const int bad = d.check(c, corrupt);
  const double c1 = host_now();
  o.check_s = c1 - c0;
  o.ok = bad == 0;
  if (!o.ok) {
    std::fprintf(stderr, "perfbench: %s: wrong output on %d ranks (%llu bytes)\n",
                 what.c_str(), bad,
                 static_cast<unsigned long long>(d.wrong_bytes() - wrong_before));
  }
  if (host != nullptr) {
    const std::string args = "{\"phase\":\"" + std::string(phase) +
                             "\",\"op\":\"" + srm::coll::coll_name(c.op) +
                             "\",\"count\":" + std::to_string(c.count) + "}";
    host->add("machine.Cluster::run", r0, r1, args);
    host->add("perfbench.check", c0, c1, args);
  }
  return o;
}

/// Totals over one pass of the call list.
struct Pass {
  long attempted = 0;
  long failed = 0;
  bool broken = false;
  std::vector<double> virt_us;  ///< per call that ran, in list order
  std::vector<double> host_s;
  std::uint64_t events = 0;
  long minflt = 0;
  double user_s = 0;
  double sys_s = 0;
  double check_s = 0;

  double host_total() const {
    double t = 0;
    for (double h : host_s) t += h;
    return t;
  }
  /// Calls simulated per host second of Cluster::run.
  double rate() const {
    const double t = host_total();
    return t > 0 ? static_cast<double>(host_s.size()) / t : 0;
  }
  /// Accounts one call; false once the stack is unusable, after charging
  /// the @p remaining calls that can no longer run as failed.
  bool add(const Outcome& o, long remaining) {
    ++attempted;
    if (!o.ran) {
      broken = true;
      attempted += remaining;
      failed += 1 + remaining;
      return false;
    }
    failed += o.ok ? 0 : 1;
    virt_us.push_back(static_cast<double>(o.cost.virt) / 1e3);
    host_s.push_back(o.cost.host_s);
    events += o.cost.events;
    minflt += o.cost.minflt;
    user_s += o.cost.user_s;
    sys_s += o.cost.sys_s;
    check_s += o.check_s;
    return true;
  }
};

/// Simulator counters the per-layer metrics difference across a pass.
struct Counters {
  double copies = 0, copy_bytes = 0, combine_bytes = 0;
  double puts = 0, put_bytes = 0, signals = 0, ams = 0, wait_ns = 0;
  double net_msgs = 0, net_bytes = 0, interrupts = 0;
};

Counters snapshot(Stack& s, bool real_plane) {
  auto& reg = s.cluster->obs();
  Counters c;
  c.copies = static_cast<double>(reg.count("mem.copy"));
  c.copy_bytes = reg.value("mem.copy");
  c.combine_bytes = reg.value("mem.combine");
  c.puts = static_cast<double>(reg.count("lapi.put"));
  c.put_bytes = reg.value("lapi.put");
  c.signals = static_cast<double>(reg.count("lapi.signal"));
  c.ams = static_cast<double>(reg.count("lapi.am"));
  c.wait_ns = reg.value("lapi.wait");
  c.net_msgs = static_cast<double>(s.cluster->network().messages());
  c.net_bytes = s.cluster->network().bytes();
  // Endpoints materialise on first use; asking every rank creates the
  // missing ones, which is harmless on the real plane and pointless on the
  // symbolic one (it never touches LAPI).
  if (real_plane) {
    for (int r = 0; r < s.cluster->topology().nranks(); ++r) {
      c.interrupts += static_cast<double>(s.fabric->ep(r).interrupts_taken());
    }
  }
  return c;
}

struct Setup {
  std::vector<double> total, cluster, fabric, comm, first_op;
};

Setup set_up(Runner& d, Stack& s, HostTrace* host) {
  Setup out;
  for (int i = 0; i < kSetupReps; ++i) {
    const SetupTimes t = d.set_up(s, host);
    out.total.push_back(t.total());
    out.cluster.push_back(t.cluster_s);
    out.fabric.push_back(t.fabric_s);
    out.comm.push_back(t.comm_s);
    out.first_op.push_back(t.warmup_s - t.repeat_s);
  }
  return out;
}

/// The decision table the communicator resolved, by profile.
void print_decisions(Stack& s) {
  std::printf("perfbench: decisions=%s\n",
              s.comm->decisions().profile.c_str());
}

int run_end_to_end(const Args& a, const std::vector<Call>& calls,
                   Runner& d) {
  Stack s;
  Setup setup = set_up(d, s, nullptr);
  print_decisions(s);
  const auto n = static_cast<long>(calls.size());
  Pass first, all;
  long corrupt_from = a.corrupt_call;
  const double t0 = host_now();
  for (long k = 0;; ++k) {
    if (k >= n && host_now() - t0 >= a.seconds) break;
    const Call& c = calls[static_cast<std::size_t>(k % n)];
    const bool corrupt =
        corrupt_from >= 0 && k >= corrupt_from && c.op != CollKind::barrier;
    if (corrupt) corrupt_from = -1;
    const Outcome o = run_one(d, s, c, corrupt, nullptr, "timed");
    const long remaining = n - 1 - k % n;
    if (k < n) first.add(o, remaining);
    if (!all.add(o, remaining)) break;
  }
  // As many set-ups again at the end, so the median spans the whole run
  // rather than the host's state in its first moments.
  const Setup late = set_up(d, s, nullptr);
  setup.total.insert(setup.total.end(), late.total.begin(), late.total.end());
  const double pct = tail_pct(first.virt_us.size());
  double makespan = 0;
  for (double v : first.virt_us) makespan += v;
  std::printf(
      "perfbench: virt_call_tail_us is p%s of %zu calls; host: %zu calls "
      "(%.2f passes), %.2f calls/s, p50 %.3f ms per call\n",
      num(pct).c_str(), first.virt_us.size(), all.host_s.size(),
      static_cast<double>(all.host_s.size()) / static_cast<double>(n),
      all.rate(), median(all.host_s) * 1e3);
  std::vector<Metric> ms = {
      {"virt_call_p50_us", median(first.virt_us), "us"},
      {"virt_call_tail_us", percentile(first.virt_us, pct), "us"},
      {"virt_makespan_us", makespan, "us"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", median(setup.total), "s"},
      {"calls_ok_frac",
       all.attempted > 0
           ? static_cast<double>(all.attempted - all.failed) /
                 static_cast<double>(all.attempted)
           : 0,
       "frac"},
  };
  print_result(all.attempted, all.failed, ms);
  return 0;
}

int run_layers(const Args& a, const Workload& w, const std::vector<Call>& calls,
               Runner& d, const std::string& stem) {
  std::size_t memcpy_bytes = 0, llc_bytes = 0;
  const double memcpy_gbps = memcpy_peak_gbps(memcpy_bytes, llc_bytes);

  HostTrace host;
  Stack s;
  const Setup setup = set_up(d, s, &host);
  print_decisions(s);
  const auto n = static_cast<long>(calls.size());
  const double nranks = w.nranks();

  // Untraced pass: host-side costs with tracing off.
  Pass plain;
  const Counters p0 = snapshot(s, false);
  for (long k = 0; k < n; ++k) {
    const Call& c = calls[static_cast<std::size_t>(k)];
    if (!plain.add(run_one(d, s, c, false, &host, "untraced"), n - 1 - k)) break;
  }
  const Counters p1 = snapshot(s, false);

  // Traced pass: the same list with the program's spans on.
  Pass traced;
  TraceFile file(a.out + "/" + stem + ".trace.json", kTraceSpanBudget);
  std::map<std::string, double> algo_calls;
  std::map<CollKind, std::vector<double>> op_virt;
  double mapped = 0, overridden = 0, spans = 0;
  double smp_us = 0, mapped_us = 0, inter_us = 0;
  Counters t0, t1;
  if (!plain.broken) {
    auto& reg = s.cluster->obs();
    reg.set_trace_enabled(true);
    reg.clear_spans();
    d.reset_live_peak();
    t0 = snapshot(s, !w.symbolic);
    for (long k = 0; k < n; ++k) {
      const Call& c = calls[static_cast<std::size_t>(k)];
      const Outcome o = run_one(d, s, c, false, &host, "traced");
      const CallSpans cs = summarize(reg.spans(), s.cluster->engine().now());
      file.add_virtual(reg);
      reg.clear_spans();
      if (!traced.add(o, n - 1 - k)) break;
      op_virt[c.op].push_back(static_cast<double>(o.cost.virt) / 1e3);
      smp_us += cs.smp_self_us;
      mapped_us += cs.mapped_self_us;
      inter_us += cs.internode_self_us;
      spans += static_cast<double>(cs.spans);
      std::string algo = cs.algo;
      if (const auto sc = algo.find("+sc"); sc != std::string::npos) {
        algo.erase(sc);
        mapped += 1;
      }
      algo_calls[algo] += 1;
      // The decision key: scatter and gather key on the node block.
      std::size_t key = c.count * srm::coll::dtype_size(dtype_of(c.op));
      if (c.op == CollKind::scatter || c.op == CollKind::gather) {
        key *= static_cast<std::size_t>(w.tasks_per_node);
      }
      overridden += s.comm->decide(c.op, key) !=
                            s.comm->decisions().decide(c.op, key)
                        ? 1
                        : 0;
    }
    reg.set_trace_enabled(false);
    t1 = snapshot(s, !w.symbolic);
  }
  file.finish(host);

  const double calls_t = std::max<double>(1, traced.virt_us.size());
  const double calls_p = std::max<double>(1, plain.host_s.size());
  const double plain_host = plain.host_total();
  double seg_buffers = 0, seg_objects = 0;
  for (int i = 0; i < w.nodes; ++i) {
    seg_buffers += static_cast<double>(s.cluster->node(i).seg.buffer_count());
    seg_objects += static_cast<double>(s.cluster->node(i).seg.object_count());
  }
  std::vector<Metric> ms = {
      {"sim.events_per_call", static_cast<double>(traced.events) / calls_t,
       "count"},
      {"sim.host_ns_per_event",
       plain.events > 0 ? plain_host * 1e9 / static_cast<double>(plain.events)
                        : 0,
       "ns"},
      {"machine.copies_per_call", (t1.copies - t0.copies) / calls_t, "count"},
      {"machine.copy_bytes_per_call", (t1.copy_bytes - t0.copy_bytes) / calls_t,
       "B"},
      {"machine.combine_bytes_per_call",
       (t1.combine_bytes - t0.combine_bytes) / calls_t, "B"},
      {"machine.net_msgs_per_call", (t1.net_msgs - t0.net_msgs) / calls_t,
       "count"},
      {"machine.net_bytes_per_call", (t1.net_bytes - t0.net_bytes) / calls_t,
       "B"},
      {"machine.setup_s", median(setup.cluster), "s"},
      {"shm.smp_self_us_per_call", smp_us / nranks / calls_t, "us"},
      {"shm.mapped_self_us_per_call", mapped_us / nranks / calls_t, "us"},
      {"shm.segment_buffers", seg_buffers, "count"},
      {"shm.segment_objects", seg_objects, "count"},
      {"lapi.puts_per_call", (t1.puts - t0.puts) / calls_t, "count"},
      {"lapi.put_bytes_per_call", (t1.put_bytes - t0.put_bytes) / calls_t,
       "B"},
      {"lapi.signals_per_call", (t1.signals - t0.signals) / calls_t, "count"},
      {"lapi.am_per_call", (t1.ams - t0.ams) / calls_t, "count"},
      {"lapi.wait_us_per_call", (t1.wait_ns - t0.wait_ns) / 1e3 / calls_t,
       "us"},
      {"lapi.interrupts_per_call", (t1.interrupts - t0.interrupts) / calls_t,
       "count"},
      {"lapi.setup_s", median(setup.fabric), "s"},
  };
  for (int i = 0; i < srm::coll::kAlgoCount; ++i) {
    const char* name = srm::coll::algo_name(static_cast<srm::coll::Algo>(i));
    ms.push_back({std::string("coll.algo_share.") + name,
                  algo_calls[name] / calls_t, "frac"});
  }
  ms.push_back({"coll.mapped_share", mapped / calls_t, "frac"});
  ms.push_back({"coll.table_override_share", overridden / calls_t, "frac"});
  ms.push_back({"coll.sym_virt_call_p50_us",
                w.symbolic ? median(traced.virt_us) : 0, "us"});
  ms.push_back({"coll.sym_live_mb",
                w.symbolic ? static_cast<double>(d.live_peak()) / 1e6 : 0,
                "MB"});
  ms.push_back(
      {"core.internode_self_us_per_call", inter_us / nranks / calls_t, "us"});
  for (CollKind op :
       {CollKind::bcast, CollKind::reduce, CollKind::allreduce,
        CollKind::barrier, CollKind::scatter, CollKind::gather,
        CollKind::allgather, CollKind::reduce_scatter}) {
    ms.push_back({std::string("core.") + srm::coll::coll_name(op) +
                      ".virt_p50_us",
                  median(op_virt[op]), "us"});
  }
  ms.push_back({"core.setup_s", median(setup.comm), "s"});
  ms.push_back({"core.first_op_s", median(setup.first_op), "s"});
  ms.push_back({"obs.trace_overhead_frac",
                traced.rate() > 0 ? plain.rate() / traced.rate() - 1 : 0,
                "frac"});
  ms.push_back({"obs.spans_per_call", spans / calls_t, "count"});
  const double cpu = plain.user_s + plain.sys_s;
  ms.push_back({"host.sim_calls_per_s", plain.rate(), "1/s"});
  ms.push_back({"host.call_p50_ms", median(plain.host_s) * 1e3, "ms"});
  ms.push_back({"host.minflt_per_call",
                static_cast<double>(plain.minflt) / calls_p, "count"});
  ms.push_back({"host.sys_frac", cpu > 0 ? plain.sys_s / cpu : 0, "frac"});
  ms.push_back({"host.call_tail_ms",
                percentile(plain.host_s, tail_pct(plain.host_s.size())) * 1e3,
                "ms"});
  const double moved = (p1.copy_bytes - p0.copy_bytes) +
                       (p1.combine_bytes - p0.combine_bytes);
  ms.push_back({"host.memmove_gbps",
                !w.symbolic && plain_host > 0 ? moved / plain_host / 1e9 : 0,
                "GB/s"});
  ms.push_back({"host.memcpy_peak_gbps", memcpy_gbps, "GB/s"});
  ms.push_back({"host.check_s", plain.check_s, "s"});

  // Per-layer summary beside the trace.
  std::ofstream sum(a.out + "/" + stem + ".layers.json");
  sum << "{\"workload\":\"" << w.name << "\",\"seed\":" << a.seed
      << ",\"calls\":" << n << ",\"decisions_profile\":\""
      << s.comm->decisions().profile << "\",\"build_type\":\""
      << PERFBENCH_BUILD_TYPE << "\",\"memcpy_array_bytes\":" << memcpy_bytes
      << ",\"llc_bytes\":" << llc_bytes << ",\"metrics\":{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    sum << (i > 0 ? "," : "") << "\"" << ms[i].name
        << "\":{\"value\":" << num(ms[i].value) << ",\"unit\":\"" << ms[i].unit
        << "\"}";
  }
  sum << "}}\n";
  std::printf(
      "perfbench: memcpy peak over %zu-byte arrays (LLC %zu bytes); trace "
      "%s/%s.trace.json, summary %s.layers.json\n",
      memcpy_bytes, llc_bytes, a.out.c_str(), stem.c_str(), stem.c_str());
  print_result(plain.attempted + traced.attempted,
               plain.failed + traced.failed, ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--calls N] [--corrupt-call K]\n");
    return 2;
  }
  // Each of these silently changes what runs (decision table, payload
  // plane, sv shim, schedule exploration).
  for (const char* v : {"SRM_DECISIONS", "SRM_SYMBOLIC", "SRM_SV_SELFCHECK",
                        "SRM_EXPLORE_SEED"}) {
    if (std::getenv(v) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", v);
      return 2;
    }
  }
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (have: %s)\n",
                 a.workload.c_str(), workload_names().c_str());
    return 2;
  }
  std::vector<Call> calls = generate(*w, a.seed);
  if (a.calls > 0 && static_cast<std::size_t>(a.calls) < calls.size()) {
    calls.resize(static_cast<std::size_t>(a.calls));
  }
  std::filesystem::create_directories(a.out);
  const std::string stem =
      std::string(w->name) + "-seed" + std::to_string(a.seed);
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(fingerprint(calls)));
  std::printf(
      "perfbench: workload=%s seed=%llu trace=%d build_type=%s ranks=%d "
      "plane=%s single_copy=%d\n",
      w->name, static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
      PERFBENCH_BUILD_TYPE, w->nranks(), w->symbolic ? "symbolic" : "real",
      w->single_copy ? 1 : 0);
  std::printf("perfbench: calls=%zu fingerprint=%s\n", calls.size(), fp);
  std::fflush(stdout);
  try {
    Runner d(*w, a.seed);
    return a.trace ? run_layers(a, *w, calls, d, stem)
                   : run_end_to_end(a, calls, d);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }
}
