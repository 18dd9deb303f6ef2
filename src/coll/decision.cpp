#include "coll/decision.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "util/check.hpp"

namespace srm::coll {

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::staged: return "staged";
    case Algo::direct: return "direct";
    case Algo::rd: return "rd";
    case Algo::pipeline: return "pipeline";
    case Algo::ring: return "ring";
    case Algo::rhalving: return "rhalving";
    case Algo::scatter_ag: return "scatter_ag";
  }
  return "?";
}

bool algo_from_name(std::string_view s, Algo& out) {
  for (int i = 0; i < kAlgoCount; ++i) {
    auto a = static_cast<Algo>(i);
    if (s == algo_name(a)) {
      out = a;
      return true;
    }
  }
  return false;
}

namespace {

constexpr std::array<CollKind, 8> kAllOps = {
    CollKind::bcast,     CollKind::reduce,    CollKind::allreduce,
    CollKind::barrier,   CollKind::scatter,   CollKind::gather,
    CollKind::allgather, CollKind::reduce_scatter,
};

bool coll_from_name(std::string_view s, CollKind& out) {
  for (CollKind k : kAllOps) {
    if (s == coll_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

}  // namespace

std::size_t row_key(CollKind op, std::size_t bytes, int tasks_per_node) {
  bool per_rank = op == CollKind::scatter || op == CollKind::gather;
  return per_rank ? bytes * static_cast<std::size_t>(tasks_per_node) : bytes;
}

void DecisionTable::set(CollKind op, std::size_t min_bytes, Decision d) {
  auto& rows = ops_[static_cast<std::size_t>(op)];
  auto it = std::lower_bound(
      rows.begin(), rows.end(), min_bytes,
      [](const Row& r, std::size_t b) { return r.min_bytes < b; });
  if (it != rows.end() && it->min_bytes == min_bytes) {
    it->d = d;
  } else {
    rows.insert(it, Row{min_bytes, d});
  }
}

Decision DecisionTable::decide(CollKind op, std::size_t bytes) const {
  const auto& rows = ops_[static_cast<std::size_t>(op)];
  Decision d;
  for (const Row& r : rows) {
    if (r.min_bytes > bytes) break;
    d = r.d;
  }
  return d;
}

bool DecisionTable::empty() const {
  for (const auto& rows : ops_) {
    if (!rows.empty()) return false;
  }
  return true;
}

// ---- JSON ------------------------------------------------------------------
//
// The format is a strict subset of JSON (objects, arrays, strings, unsigned
// integers, booleans); the writer below and the tuner are the only producers,
// so the hand-rolled reader stays honest by round-tripping in the tests.

std::string DecisionTable::to_json() const {
  std::ostringstream os;
  os << "{\n  \"version\": " << version << ",\n  \"profile\": \"" << profile
     << "\",\n  \"ops\": {";
  bool first_op = true;
  for (CollKind k : kAllOps) {
    const auto& rows = ops_[static_cast<std::size_t>(k)];
    if (rows.empty()) continue;
    os << (first_op ? "" : ",") << "\n    \"" << coll_name(k) << "\": [";
    first_op = false;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      os << (i == 0 ? "" : ",") << "\n      {\"min_bytes\": " << r.min_bytes
         << ", \"algo\": \"" << algo_name(r.d.algo)
         << "\", \"mapped\": " << (r.d.mapped ? "true" : "false")
         << ", \"internode\": \"" << tree_kind_name(r.d.internode)
         << "\", \"intranode\": \"" << tree_kind_name(r.d.intranode)
         << "\", \"chunk\": " << r.d.chunk << "}";
    }
    os << "\n    ]";
  }
  os << "\n  }\n}\n";
  return os.str();
}

namespace {

/// Minimal recursive-descent scanner for the subset the writer emits.
struct Scan {
  std::string_view s;
  std::size_t i = 0;

  [[noreturn]] void die(const std::string& why) const {
    std::ostringstream os;
    os << "DecisionTable JSON at byte " << i << ": " << why;
    throw util::CheckError(os.str());
  }
  void ws() {
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i])) != 0) {
      ++i;
    }
  }
  bool peek(char c) {
    ws();
    return i < s.size() && s[i] == c;
  }
  void expect(char c) {
    ws();
    if (i >= s.size() || s[i] != c) die(std::string("expected '") + c + "'");
    ++i;
  }
  std::string string() {
    expect('"');
    std::string out;
    while (i < s.size() && s[i] != '"') out.push_back(s[i++]);
    if (i >= s.size()) die("unterminated string");
    ++i;
    return out;
  }
  std::uint64_t number() {
    ws();
    std::size_t start = i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])) != 0)
      ++i;
    if (i == start) die("expected a number");
    std::uint64_t v = 0;
    for (std::size_t j = start; j < i; ++j) {
      v = v * 10 + static_cast<std::uint64_t>(s[j] - '0');
    }
    return v;
  }
  bool boolean() {
    ws();
    if (s.substr(i, 4) == "true") {
      i += 4;
      return true;
    }
    if (s.substr(i, 5) == "false") {
      i += 5;
      return false;
    }
    die("expected true/false");
  }
};

}  // namespace

DecisionTable DecisionTable::from_json(std::string_view text) {
  DecisionTable t;
  Scan sc{text};
  sc.expect('{');
  bool first = true;
  while (!sc.peek('}')) {
    if (!first) sc.expect(',');
    first = false;
    std::string key = sc.string();
    sc.expect(':');
    if (key == "version") {
      t.version = static_cast<int>(sc.number());
    } else if (key == "profile") {
      t.profile = sc.string();
    } else if (key == "ops") {
      sc.expect('{');
      bool first_op = true;
      while (!sc.peek('}')) {
        if (!first_op) sc.expect(',');
        first_op = false;
        std::string op_name = sc.string();
        CollKind op;
        if (!coll_from_name(op_name, op)) sc.die("unknown op " + op_name);
        sc.expect(':');
        sc.expect('[');
        bool first_row = true;
        bool have_prev = false;
        std::size_t prev_min = 0;
        while (!sc.peek(']')) {
          if (!first_row) sc.expect(',');
          first_row = false;
          sc.expect('{');
          std::size_t min_bytes = 0;
          Decision d;
          bool first_field = true;
          while (!sc.peek('}')) {
            if (!first_field) sc.expect(',');
            first_field = false;
            std::string f = sc.string();
            sc.expect(':');
            if (f == "min_bytes") {
              min_bytes = sc.number();
            } else if (f == "algo") {
              std::string a = sc.string();
              if (!algo_from_name(a, d.algo)) sc.die("unknown algo " + a);
            } else if (f == "mapped") {
              d.mapped = sc.boolean();
            } else if (f == "internode" || f == "intranode") {
              // A row without "intranode" keeps the binomial default: the
              // column joined the format without a version bump.
              std::string k = sc.string();
              if (!tree_kind_from_name(
                      k, f == "internode" ? d.internode : d.intranode))
                sc.die("unknown tree kind " + k);
            } else if (f == "chunk") {
              // Likewise a row without "chunk" runs unpipelined (0).
              d.chunk = sc.number();
            } else {
              sc.die("unknown row field " + f);
            }
          }
          sc.expect('}');
          // set() silently replaces a colliding row, which is the right
          // API for programmatic edits but hides authoring mistakes in a
          // loaded file: a duplicate or out-of-order min_bytes means one
          // row silently wins. Reject those with a structured error.
          if (have_prev && min_bytes <= prev_min) {
            std::ostringstream os;
            os << "rows for \"" << op_name
               << "\" must be strictly ascending in min_bytes: " << min_bytes
               << " follows " << prev_min;
            throw ValidationError(op, -1, "min_bytes", os.str());
          }
          have_prev = true;
          prev_min = min_bytes;
          t.set(op, min_bytes, d);
        }
        sc.expect(']');
      }
      sc.expect('}');
    } else {
      sc.die("unknown key " + key);
    }
  }
  sc.expect('}');
  SRM_CHECK_MSG(t.version == 1,
                "DecisionTable version " << t.version << " not supported");
  return t;
}

void DecisionTable::save(const std::string& path) const {
  std::ofstream f(path);
  SRM_CHECK_MSG(f.good(), "cannot write decision table to " << path);
  f << to_json();
}

DecisionTable DecisionTable::load(const std::string& path) {
  std::ifstream f(path);
  SRM_CHECK_MSG(f.good(), "cannot read decision table from " << path);
  std::ostringstream os;
  os << f.rdbuf();
  return from_json(os.str());
}

// ---- builtins --------------------------------------------------------------

DecisionTable DecisionTable::ibm_sp() {
  // The paper's constants, verbatim (§2.4 + the single-copy crossover),
  // over its binomial trees between and within nodes (Fig. 1, Fig. 2):
  //   bcast: staged shared-buffer protocol up to 64 KB, direct beyond;
  //     the staged protocol splits (8 KB, 32 KB] into 4 KB chunks and
  //     sends every other size in one step;
  //   allreduce: recursive doubling up to 16 KB, pipelined reduce+bcast
  //     beyond; scatter and gather staged;
  //   mapped column: single-copy from 16 KB up (only effective when
  //     SrmConfig::single_copy opts in — the staged path is the default).
  // With a default SrmConfig this table reproduces pre-table dispatch
  // byte-for-byte.
  DecisionTable t;
  t.profile = "ibm_sp";
  auto bin = TreeKind::binomial;
  const std::size_t pipe_chunk = 4 * 1024;
  t.set(CollKind::bcast, 0, {Algo::staged, false, bin});
  t.set(CollKind::bcast, 8 * 1024 + 1,
        {Algo::staged, false, bin, bin, pipe_chunk});
  t.set(CollKind::bcast, 16 * 1024, {Algo::staged, true, bin, bin, pipe_chunk});
  t.set(CollKind::bcast, 32 * 1024 + 1, {Algo::staged, true, bin});
  t.set(CollKind::bcast, 64 * 1024 + 1, {Algo::direct, true, bin});
  t.set(CollKind::reduce, 0, {Algo::staged, false, bin});
  t.set(CollKind::reduce, 16 * 1024, {Algo::staged, true, bin});
  // rd never maps; the pipeline maps both of its halves, like the reduce
  // and bcast rows above.
  t.set(CollKind::allreduce, 0, {Algo::rd, false, bin});
  t.set(CollKind::allreduce, 16 * 1024 + 1, {Algo::pipeline, true, bin});
  t.set(CollKind::scatter, 0, {Algo::staged, false, bin});
  t.set(CollKind::scatter, 16 * 1024, {Algo::staged, true, bin});
  t.set(CollKind::gather, 0, {Algo::staged, false, bin});
  t.set(CollKind::gather, 16 * 1024, {Algo::staged, true, bin});
  return t;
}

DecisionTable DecisionTable::modern_smp() {
  // Tuner output for the hierarchical 2-socket profile, 8 nodes x 16 tasks
  // (bench/tune.cpp; regenerate with `tune --profile modern_smp`).
  // Differences from the paper's constants that the sweep measured:
  //   * mapped bcast loses at every size and chunk (the fan-out cascade
  //     serializes on cross-socket windows; flat staged pulls overlap on
  //     the bus — DESIGN.md §14), so the mapped column stays false for
  //     bcast;
  //   * bcast runs the staged (landing-buffer) protocol at every size: in
  //     one step up to 32 KB and in 32 KB chunks from 64 KB, with no
  //     direct or scatter+allgather row. Off the root node the direct
  //     protocol lands each chunk in the leader's user buffer, the leader
  //     copies it into a Fig. 3 buffer, and 15 readers pull that copy dirty
  //     from the leader's cache (x1.4 within an L3 slice, x1.82 across
  //     slices, x3.08 across the socket). The staged readers pull the
  //     landing buffer the NIC wrote, clean (x1.0, x1.3, x2.2), beside the
  //     leader's own copy. The root node publishes alike under both, so
  //     the gain shrinks toward 1 MB. Back-to-back / isolated us, the row
  //     the sweep picked without chunk candidates -> this row:
  //       16 KB direct 17.49 / 26.75 -> staged 12.18 / 19.98
  //       32 KB direct 24.48 / 42.46 -> staged 20.03 / 30.63
  //       64 KB staged 39.27 / 51.93 -> staged+c32K 37.92 / 46.91
  //       128 KB scatter_ag 81.60 / 91.29 -> staged+c32K 75.83 / 80.23
  //       256 KB scatter_ag 158.87 / 174.88 -> staged+c32K 147.26 / 151.66
  //       512 KB direct 304.59 / 324.11 -> staged+c32K 290.12 / 294.52
  //       1 MB direct 589.66 / 609.18 -> staged+c32K 575.83 / 580.23
  //     and 12 KB, where the paper's 4 KB chunks ran, 21.93 -> 17.32
  //     isolated in one step;
  //   * from 64 KB the reduce runs mapped over binary trees between and
  //     within nodes, at 128 KB mapped over a binary inter-node tree and a
  //     chain within nodes, and from 256 KB staged over chain trees between
  //     and within nodes. The chunk pipeline runs at the rate of its
  //     busiest combiner: a 16-way binomial node root combines 4 children
  //     per chunk, and at 8 nodes the binomial root leader 3 inter-node
  //     children; binary trees give each 2, and a chain gives every vertex
  //     1 (1 MB: 2475.2 us binomial, 1509.3 us staged binary, 1289.3 us
  //     mapped over both binary trees, 738.9 us staged over both chains).
  //     Laid over the cache domains, a chain gives one L3 leader two
  //     children, one of them across the socket, where the staged chain
  //     crosses the socket on a single edge. At 64-128 KB the chain rows
  //     that win back-to-back averages lose the isolated call (64 KB:
  //     mapped binary 138.5 us, mapped binary+chain 152.8 us, staged
  //     chains 183.6 us; 128 KB: mapped binary+chain 212.2 us, staged
  //     chains 236.5 us). Below 64 KB a candidate that wins back-to-back
  //     averages does so only by overlapping consecutive calls, and loses
  //     the isolated call to binomial (16 KB: binary 73.5 us, mapped
  //     66.6 us, binomial 53.3 us);
  //   * the pipelined allreduce takes over from rd at 32 KB and keeps every
  //     larger size; from 64 KB its staged node reduce runs a binary tree
  //     and beats recursive halving and ring even with their binary node
  //     trees (512 KB: 881.6 us pipeline+binary, 1127.9 us
  //     rhalving+binary). At 128 KB it maps both halves over a binary
  //     inter-node tree and a chain within nodes (247.2 us, 254.0 us over
  //     both binary trees), and from 256 KB it runs staged over chain trees
  //     between and within nodes (1 MB: 1694.4 us staged binary, 1355.4 us
  //     mapped over both binary trees, 998.6 us over both chains). Ring
  //     and bine only win off power-of-two node counts (see abl_tuner);
  //   * mapped scatter wins only node blocks of 512 B-16 KB (per-rank
  //     32-512 B at 16 tasks: one window export vs per-chunk staging); at
  //     a 1 KB per-rank block it loses the isolated call. Scatter rows are
  //     keyed on the node block, as dispatch looks them up (row_key).
  // gather keeps one staged row; barrier, allgather and reduce_scatter need
  // none (the last two are two calls each, each call on its own row).
  DecisionTable t;
  t.profile = "modern_smp";
  auto bin = TreeKind::binomial;
  t.set(CollKind::bcast, 0, {Algo::staged, false, bin});
  t.set(CollKind::bcast, 64 * 1024,
        {Algo::staged, false, bin, bin, 32 * 1024});
  auto binary = TreeKind::binary;
  auto chain = TreeKind::chain;
  t.set(CollKind::reduce, 0, {Algo::staged, false, bin});
  t.set(CollKind::reduce, 64 * 1024, {Algo::staged, true, binary, binary});
  t.set(CollKind::reduce, 128 * 1024, {Algo::staged, true, binary, chain});
  t.set(CollKind::reduce, 256 * 1024, {Algo::staged, false, chain, chain});
  t.set(CollKind::allreduce, 0, {Algo::rd, false, bin});
  t.set(CollKind::allreduce, 32 * 1024, {Algo::pipeline, false, bin});
  t.set(CollKind::allreduce, 64 * 1024,
        {Algo::pipeline, false, bin, binary});
  t.set(CollKind::allreduce, 128 * 1024,
        {Algo::pipeline, true, binary, chain});
  t.set(CollKind::allreduce, 256 * 1024,
        {Algo::pipeline, false, chain, chain});
  t.set(CollKind::scatter, 0, {Algo::staged, false, bin});
  t.set(CollKind::scatter, 512, {Algo::staged, true, bin});
  t.set(CollKind::scatter, 16 * 1024, {Algo::staged, false, bin});
  t.set(CollKind::gather, 0, {Algo::staged, false, bin});
  return t;
}

const DecisionTable* DecisionTable::builtin(std::string_view profile) {
  static const DecisionTable sp = ibm_sp();
  static const DecisionTable smp = modern_smp();
  if (profile == "ibm_sp") return &sp;
  if (profile == "modern_smp") return &smp;
  return nullptr;
}

}  // namespace srm::coll
