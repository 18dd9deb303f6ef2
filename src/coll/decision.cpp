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
  bool per_rank = op == CollKind::scatter || op == CollKind::gather ||
                  op == CollKind::allgather ||
                  op == CollKind::reduce_scatter;
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
  //   * bcast publishes through the socket-aware Fig. 3 chunk: the 8
  //     readers on the far socket each pull one slice of a chunk across
  //     the socket (x2.2 from a landing buffer, x3.08 from the leader's
  //     dirty bc_buf) and read the rest from their own socket, once the
  //     chunk is long enough for the split to pay its second copy
  //     start-up and slice-counter round. Mapped bcast never wins: from
  //     1 KB the fan-out cascade serializes on cross-socket windows
  //     (DESIGN.md §14), and below it the unsplit staged row is faster in
  //     both the isolated call (8 B: 9.34 against 9.51 us) and the
  //     back-to-back average (5.02 against 5.04 us);
  //   * bcast runs the staged (landing-buffer) protocol in one step up to
  //     16 KB and in 16 KB chunks at 32 KB, scatter+allgather from
  //     64 KB, 64 KB chunks from 256 KB, and direct from 1 MB. Off the
  //     root node the direct protocol lands each chunk in the leader's
  //     user buffer and restages it through a Fig. 3 buffer, which the
  //     readers pull dirty from the leader's cache; the staged readers
  //     pull the landing buffer the NIC wrote, clean. The far socket's
  //     split pays the cross-socket factor once per chunk either way,
  //     which shrinks direct's restage penalty until its full-size
  //     network chunks win at 1 MB. Back-to-back / isolated us, the row
  //     before (staged in 32 KB chunks) -> this row:
  //       128 KB 64.81 / 72.06 -> scatter_ag 62.15 / 68.14
  //       256 KB 122.5 / 129.78 -> staged+c64K 113.4 / 124.71
  //       512 KB 238.0 / 245.21 -> staged+c64K 215.5 / 226.88
  //       1 MB 468.8 / 476.07 -> direct 399.2 / 418.51
  //     (without the split: 80.23, 151.66, 294.52 and 580.23 us
  //     isolated in 32 KB chunks). The 32 KB and 64 KB rows are the
  //     isolated-call challenge's (bench/tune.cpp): back to back the
  //     one-step row wins 32 KB (17.90 against 20.20 us) and 32 KiB
  //     chunks win 64 KB (32.33 against 34.51 us), but isolated 16 KiB
  //     chunks take 27.99 us against 28.77 (48 KB: 36.87 against 38.42)
  //     and scatter+allgather 38.63 against 43.20 (96 KB: 53.28 against
  //     57.63);
  //   * the reduce pipelines run at the rate of their busiest combiner: a
  //     16-way binomial node root combines 4 children per chunk, and at 8
  //     nodes the binomial root leader 3 inter-node children; binary trees
  //     give each 2, and a chain gives every vertex 1 (1 MB: 2475.2 us
  //     binomial, 1509.3 us staged binary, 1289.3 us mapped over both
  //     binary trees, 738.9 us staged over both chains, back to back).
  //     Laid over the cache domains, a chain gives one L3 leader two
  //     children, one of them across the socket, where the staged chain
  //     crosses the socket on a single edge;
  //   * from 16 KB to 128 KB the reduce rows step in 4 or 8 KiB instead of
  //     the 16 KiB reduce_chunk. A chain within nodes needs 15 hops to
  //     fill and one between nodes 7 more; a 64 KB message in 16 KiB steps
  //     has 4 chunks and never fills it. The fill saving is fixed while the
  //     per-chunk flags, puts and credits grow with the chunk count, so
  //     from 256 KB the 16 KiB step wins again. Isolated calls, the row
  //     before -> this row: 16 KB staged 53.32 us -> mapped over binary
  //     trees in 4 KiB steps 51.28 us (a 16 KB reduce runs with
  //     interrupts off, §2.3; with them on this row takes 54.92 us, and
  //     at 17 KB it loses by 1.3 us); 32 KB staged 92.53 -> mapped binary
  //     in 8 KiB steps 82.33; 64 KB mapped binary 138.5 -> mapped over a
  //     binary node tree and a chain within nodes in 8 KiB steps 123.1;
  //     128 KB mapped binary+chain 212.2 -> staged chains in 8 KiB steps
  //     203.1; from 256 KB staged chains in 16 KiB steps (1 MB: 815.2 us,
  //     994.6 in 8 KiB steps);
  //   * allreduce runs root-free (core/allreduce.cpp allreduce_direct)
  //     from 16 KB to 1 MB: the root-free reduce_scatter of the ranks'
  //     blocks in the 16 KiB step, then the root-free allgather, where the
  //     pipelined row funnels the whole vector through rank 0 twice.
  //     Isolated calls, the pipelined rows -> the root-free rows with the
  //     node ring: 16 KB 62.02 -> 54.83; 32 KB 93.08 -> 64.29; 64 KB
  //     139.83 -> 90.08. The rows are mapped: their allgather half runs a
  //     ring per socket, every local of a socket assembles its share of
  //     the node segment in the socket head's window, and every segment
  //     is published from that window (allgather_sockets). Isolated calls,
  //     node ring -> socket rings: 16 KB (binary) 54.83 -> 54.36; 32 KB
  //     64.29 -> 62.98; 64 KB 90.08 -> 85.46; 128 KB 157.21 -> 132.52;
  //     512 KB 485.49 -> 382.64. Each landing source has a slot per remote
  //     round, so a one-step segment never waits for a credit. The
  //     reduce_scatter half chains each socket's locals at 16 KB and from
  //     256 KB, and from 32 KB to 256 KB runs the share form (a mapped flat
  //     row): every local reduces its share of each step out of its mates'
  //     windows, with no chain to fill. Back to back, chain -> shares:
  //     32 KB 57.83 -> 57.66; 64 KB 81.20 -> 73.58; 128 KB 129.4 -> 106.4;
  //     256 KB 212.2 -> 195.2 (isolated 212.7 -> 195.9, but 292.4 -> 301.7
  //     at the 384 KB midpoint); 512 KB 380.5 -> 384.5: every share step
  //     waits for all 8 locals, which costs more than the chain's fill once
  //     a segment runs many steps. At 16 KB the chain wins (47.16 against
  //     50.09 us). From 1 MB the pipeline over
  //     chains between and within nodes in 16 KiB steps keeps the band:
  //     the mapped row wins the 1 MB call (718.8 against 970.3 us) and
  //     its midpoint (1.5 MB: 1166.6 against 1383.5), but single-copy off
  //     runs it on the node ring, which loses that midpoint (1452.9), and
  //     the tuner's single-copy-off rule keeps a band from an algorithm
  //     whose unmapped form loses it. The 4 and 8 KiB steps take no cell:
  //     at 128 KB 8 KiB steps lose the midpoint (192 KB: 219.4 against
  //     208.5 us unmapped). rd keeps everything below 16 KB. The pipeline
  //     beats recursive halving and ring even with their binary node
  //     trees (512 KB: 881.6 us pipeline+binary, 1127.9 us
  //     rhalving+binary); ring and bine only win off power-of-two node
  //     counts (see abl_tuner);
  //   * allgather runs root-free and mapped (core/gather_scatter.cpp
  //     allgather_sockets) from 64 B blocks (1 KB node blocks, row_key):
  //     every socket's locals assemble the node block in their head's
  //     window in parallel, the heads of each socket run their own ring,
  //     and the socket's locals copy every landed segment clean out of
  //     their head's window, where the gather + bcast composition funnels
  //     the whole vector through rank 0 and the node ring restages every
  //     segment through a Fig. 3 buffer its readers pull dirty, the far
  //     socket pulling it across. Back to back, composition -> node ring
  //     -> this row: 64 B 18.65 -> 21.55 -> 21.51 (isolated 23.07 ->
  //     21.91 -> 21.76: the isolated-call challenge's pick); 1 KB 75.26
  //     -> 60.10 -> 35.86; 4 KB 257.1 -> 229.3 -> 127.3; 8 KB 485.6 ->
  //     444.4 -> 251.9. Below 64 B the composition wins (32 B: 16.19
  //     against 21.08 us back to back);
  //   * scatter and gather keep one staged row each. Mapped scatter lost
  //     the isolated call at every per-rank block once LAPI dispatch kept
  //     arrival order (32 B: 9.04 us mapped, 8.79 us staged); scatter and
  //     gather rows are keyed on the node block (row_key);
  //   * reduce_scatter runs the root-free protocol (core/reduce_scatter.cpp)
  //     at every block size: each socket reduces every node's segment over
  //     its own 8 locals and delivers it straight to the owners, where the
  //     reduce + scatter composition funnels the whole vector through one
  //     leader. Its rows are keyed on the node segment (row_key), which a
  //     domain reduces and delivers per round, in the 16 KiB step: chains
  //     below 256 B blocks (4 KB segments) and from 4 KB blocks, and the
  //     share form (a mapped flat row) from 256 B to 4 KB blocks. With a
  //     landing slot per remote round the chain no longer stalls on
  //     credits and wins the 8 and 16 B blocks the composition kept (8 B:
  //     21.84 against 19.13 us back to back). Back to back, composition ->
  //     chain -> shares: 64 B 40.44 -> 21.17 -> 25.16; 256 B 90.69 ->
  //     33.50 -> 33.56 (isolated 33.80 -> 33.69: the isolated-call
  //     challenge's pick); 1 KB 218.0 -> 93.58 -> 70.97; 2 KB 344.0 ->
  //     146.8 -> 129.5; 4 KB 529.3 -> 253.6 -> 257.6; 8 KB 901.3 -> 462.1
  //     -> 534.8 us: the shares skip the chain's 7-step fill, and from
  //     4 KB blocks their every step waiting for all 8 locals costs more.
  //     Without single-copy a flat row runs the chain. A step carries
  //     whole blocks spread evenly where that fits one reduce slot in the
  //     fixed step count, which evens out the steps of a block that does
  //     not divide 16 KiB: 1.5 KB blocks run two steps of 12 KiB where the
  //     fixed step ran 16 and 8 KiB (isolated, chain with a landing pair:
  //     133.42 -> 120.39 us). The 4 and 8 KiB steps keep no row: from 1 KB
  //     blocks they lose the band's midpoint or the isolated call.
  // Barrier needs no row.
  DecisionTable t;
  t.profile = "modern_smp";
  auto bin = TreeKind::binomial;
  t.set(CollKind::bcast, 0, {Algo::staged, false, bin});
  t.set(CollKind::bcast, 32 * 1024,
        {Algo::staged, false, bin, bin, 16 * 1024});
  t.set(CollKind::bcast, 64 * 1024, {Algo::scatter_ag, false, bin});
  t.set(CollKind::bcast, 256 * 1024,
        {Algo::staged, false, bin, bin, 64 * 1024});
  t.set(CollKind::bcast, 1024 * 1024, {Algo::direct, false, bin});
  auto binary = TreeKind::binary;
  auto chain = TreeKind::chain;
  const std::size_t c4k = 4 * 1024, c8k = 8 * 1024;
  t.set(CollKind::reduce, 0, {Algo::staged, false, bin});
  t.set(CollKind::reduce, 16 * 1024,
        {Algo::staged, true, binary, binary, c4k});
  t.set(CollKind::reduce, 32 * 1024,
        {Algo::staged, true, binary, binary, c8k});
  t.set(CollKind::reduce, 64 * 1024, {Algo::staged, true, binary, chain, c8k});
  t.set(CollKind::reduce, 128 * 1024,
        {Algo::staged, false, chain, chain, c8k});
  t.set(CollKind::reduce, 256 * 1024, {Algo::staged, false, chain, chain});
  auto flat = TreeKind::flat;
  t.set(CollKind::allreduce, 0, {Algo::rd, false, bin});
  t.set(CollKind::allreduce, 16 * 1024, {Algo::direct, true, bin, chain});
  t.set(CollKind::allreduce, 32 * 1024, {Algo::direct, true, bin, flat});
  t.set(CollKind::allreduce, 256 * 1024, {Algo::direct, true, bin, chain});
  t.set(CollKind::allreduce, 1024 * 1024,
        {Algo::pipeline, false, chain, chain});
  t.set(CollKind::scatter, 0, {Algo::staged, false, bin});
  t.set(CollKind::gather, 0, {Algo::staged, false, bin});
  t.set(CollKind::allgather, 0, {Algo::staged, false, bin});
  t.set(CollKind::allgather, 1024, {Algo::direct, true, bin});
  t.set(CollKind::reduce_scatter, 0, {Algo::direct, false, bin, chain});
  t.set(CollKind::reduce_scatter, 4 * 1024, {Algo::direct, true, bin, flat});
  t.set(CollKind::reduce_scatter, 64 * 1024,
        {Algo::direct, false, bin, chain});
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
