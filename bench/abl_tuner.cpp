// Ablation: the paper's hardcoded constants vs the tuned decision table.
//
// For each machine profile, cluster shape, and operation, every zoo
// candidate is timed next to two dispatch modes: "paper" forces the ibm_sp
// constant table (what the pre-table code hardcoded) and "tuned" is the
// profile's builtin — the tuner's output for that machine. On ibm_sp the
// two columns are identical by construction; on modern_smp the tuned
// column must win wherever the zoo's bandwidth algorithms overtake the
// paper's picks. Two shapes because the zoo splits along the power-of-two
// axis: recursive halving owns large allreduce at 8 nodes, while at 9 the
// fold steps cost it the lead and ring takes over — and the bine tree's
// lower depth only materializes off powers of two. The trailing winners
// summary names the fastest candidate per cell, which is how "every zoo
// algorithm wins at least one cell" is checked.
//
// The instrumented stats block (BENCH_abl_tuner.json) is deterministic and
// gated by ci/perf_gate.py against the checked-in baseline. Run with
// --smoke for the two-size CI pass (the stats block is identical either
// way).
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "coll/decision.hpp"
#include "util/format.hpp"

using namespace srm;
using namespace srm::bench;

namespace {

struct Candidate {
  std::string label;
  coll::Decision d;
};

/// The candidate pool of @p op, minus those SrmConfig::sanitize would
/// reroute at @p bytes.
std::vector<Candidate> candidates(coll::CollKind op, std::size_t bytes) {
  using coll::Algo;
  using coll::TreeKind;
  const auto bin = TreeKind::binomial;
  std::vector<Candidate> out;
  if (op == coll::CollKind::bcast) {
    out.push_back({"staged", {Algo::staged, false, bin}});
    out.push_back({"staged+bine", {Algo::staged, false, TreeKind::bine}});
    out.push_back({"direct", {Algo::direct, false, bin}});
    out.push_back({"scatter_ag", {Algo::scatter_ag, false, bin}});
  } else {
    // No rd+bine variant: recursive doubling is a butterfly, the internode
    // tree never enters its dispatch.
    out.push_back({"rd", {Algo::rd, false, bin}});
    out.push_back({"pipeline", {Algo::pipeline, false, bin}});
    out.push_back({"ring", {Algo::ring, false, bin}});
    out.push_back({"rhalving", {Algo::rhalving, false, bin}});
  }
  const SrmConfig cfg;
  std::erase_if(out, [&](const Candidate& c) {
    return cfg.sanitize(op, c.d, bytes).algo != c.d.algo;
  });
  return out;
}

double run_op(Bench& b, coll::CollKind op, std::size_t bytes) {
  return op == coll::CollKind::bcast
             ? b.time_bcast(bytes, iters_for(bytes))
             : b.time_allreduce(bytes / 8, iters_for(bytes));
}

struct Shape {
  int nodes;
  int tpn;
  const char* tag;
};

double timed(const machine::MachineParams& mp, const Shape& sh, SrmConfig cfg,
             coll::CollKind op, std::size_t bytes) {
  Bench b(Impl::srm, sh.nodes, sh.tpn, cfg, mp);
  return run_op(b, op, bytes);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("Ablation: hardcoded constants vs tuned decision table%s\n",
              smoke ? " [smoke]" : "");
  std::vector<std::size_t> sizes = {512,        2 * 1024,  64 * 1024,
                                    256 * 1024, 1u << 20,  4u << 20};
  std::vector<Shape> shapes = {{8, 16, "8x16"}, {9, 16, "9x16"}};
  if (smoke) {
    sizes = {512, 1u << 20};
    shapes = {{8, 16, "8x16"}};
  }

  const machine::MachineParams profiles[] = {
      machine::MachineParams::ibm_sp(), machine::MachineParams::modern_smp()};
  const coll::CollKind ops[] = {coll::CollKind::bcast,
                                coll::CollKind::allreduce};

  std::map<std::string, int> wins;  // candidate label -> cells won
  for (const auto& mp : profiles) {
    for (const Shape& sh : shapes) {
    for (coll::CollKind op : ops) {
      // Columns from the smallest size's full candidate pool; sizes where a
      // candidate is sanitized away print 0 in its column.
      std::vector<std::string> cols;
      for (const Candidate& c : candidates(op, 0)) cols.push_back(c.label);
      cols.emplace_back("paper");
      cols.emplace_back("tuned");
      std::vector<std::string> rows;
      std::vector<std::vector<double>> cells;
      for (std::size_t size : sizes) {
        std::vector<double> line(cols.size(), 0.0);
        auto put = [&](const std::string& label, double us) {
          for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] == label) line[k] = us;
          }
        };
        // Zoo candidates, each forced through a single-row table.
        const Candidate* best = nullptr;
        double best_us = 0.0;
        std::vector<Candidate> cands = candidates(op, size);
        for (const Candidate& c : cands) {
          SrmConfig cfg;
          cfg.decisions.profile = "forced";
          cfg.decisions.set(op, 0, c.d);
          double us = timed(mp, sh, cfg, op, size);
          put(c.label, us);
          if (best == nullptr || us < best_us) {
            best = &c;
            best_us = us;
          }
        }
        wins[std::string(mp.profile) + "/" + sh.tag + "/" +
             coll::coll_name(op) + ":" + best->label]++;
        // Dispatch modes: the paper's constants vs the profile's builtin.
        SrmConfig paper;
        paper.decisions = coll::DecisionTable::ibm_sp();
        put("paper", timed(mp, sh, paper, op, size));
        put("tuned", timed(mp, sh, SrmConfig{}, op, size));
        rows.push_back(util::human_bytes(size) + " -> " + best->label);
        cells.push_back(std::move(line));
      }
      print_table(std::string(mp.profile) + " " + sh.tag + " " +
                      coll::coll_name(op),
                  "bytes", rows, cols, cells, "us");
    }
    }
  }

  std::printf("cell winners (profile/op:candidate = cells won):\n");
  for (const auto& [label, n] : wins) {
    std::printf("  %-40s %d\n", label.c_str(), n);
  }

  // Observability export for the perf gate: one instrumented modern_smp
  // run through tuned dispatch — a 1 MB allreduce (ring band) plus a
  // 512 KB broadcast (scatter_ag band). Deterministic virtual metrics;
  // identical with and without --smoke.
  {
    Bench b(Impl::srm, 8, 16, SrmConfig{},
            machine::MachineParams::modern_smp());
    double ar = b.time_allreduce((1u << 20) / 8, 2);
    double bc = b.time_bcast(512 * 1024, 2);
    std::printf("\ninstrumented tuned dispatch (modern_smp, 8x16): "
                "allreduce(1MB) %s, bcast(512KB) %s\n",
                util::fmt_us(ar).c_str(), util::fmt_us(bc).c_str());
    b.emit_stats("abl_tuner");
  }
  return 0;
}
