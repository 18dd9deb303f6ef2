// sa_verify — command-line front end of the srm::sa static analyzer.
//
//   sa_verify lint                    lint all nineteen protocol models
//   sa_verify cost [--profile P]      print critical-path formulas + costs
//   sa_verify dominance [--profile P] prove the builtin table non-dominated
//                                     and print the analytic crossovers
//   sa_verify crosscheck FILE         dominance-check a tuner artifact
//                                     (bench/tune --out) against its profile
//   sa_verify gauntlet                classify the 29 mutation-gauntlet bugs
//                                     by the lint rules that catch them
//   sa_verify all                     lint + dominance (both profiles) +
//                                     gauntlet
//
// Exit codes: 0 all checks passed, 1 a check failed, 2 usage/setup error.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "coll/decision.hpp"
#include "core/config.hpp"
#include "machine/params.hpp"
#include "mc/protocols.hpp"
#include "sa/cost.hpp"
#include "sa/dominance.hpp"
#include "sa/lint.hpp"
#include "util/check.hpp"

namespace {

using namespace srm;

const std::vector<mc::Shape>& lint_shapes() {
  static const std::vector<mc::Shape> shapes = {
      {1, 2, 1}, {2, 2, 1}, {2, 2, 3}, {1, 3, 1}, {2, 1, 1}, {2, 4, 2}};
  return shapes;
}

bool profile_params(const std::string& name, machine::MachineParams& out) {
  if (name == "ibm_sp") {
    out = machine::MachineParams::ibm_sp();
    return true;
  }
  if (name == "modern_smp") {
    out = machine::MachineParams::modern_smp();
    return true;
  }
  return false;
}

int run_lint() {
  int bad = 0;
  for (mc::Proto proto : mc::all_protos()) {
    for (const mc::Shape& sh : lint_shapes()) {
      mc::Program p = mc::build(proto, sh);
      std::vector<sa::Diag> diags = sa::lint(p);
      if (diags.empty()) continue;
      ++bad;
      std::printf("FAIL lint %-16s %s: %zu diagnostic(s)\n",
                  mc::proto_name(proto), sh.to_string().c_str(),
                  diags.size());
      for (const sa::Diag& d : diags) {
        std::printf("     [%s] %s#%d '%s': %s\n", d.rule.c_str(),
                    d.thread.c_str(), d.op_index, d.label.c_str(),
                    d.message.c_str());
      }
    }
  }
  if (bad == 0) {
    std::printf("PASS lint: %d protocols x %zu shapes clean\n",
                mc::kProtoCount, lint_shapes().size());
  }
  return bad == 0 ? 0 : 1;
}

int run_cost(const std::string& profile) {
  machine::MachineParams mp;
  if (!profile_params(profile, mp)) {
    std::fprintf(stderr, "unknown profile '%s'\n", profile.c_str());
    return 2;
  }
  SrmConfig cfg;
  std::printf("critical-path formulas on %s (2 nodes x 4 tasks)\n",
              mp.profile);
  struct Case {
    coll::CollKind op;
    coll::Algo algo;
    bool mapped;
    std::size_t bytes;
  };
  const Case cases[] = {
      {coll::CollKind::bcast, coll::Algo::staged, false, 4096},
      {coll::CollKind::bcast, coll::Algo::staged, true, 16384},
      {coll::CollKind::bcast, coll::Algo::direct, false, 262144},
      {coll::CollKind::bcast, coll::Algo::scatter_ag, false, 262144},
      {coll::CollKind::allreduce, coll::Algo::rd, false, 4096},
      {coll::CollKind::allreduce, coll::Algo::pipeline, false, 262144},
      {coll::CollKind::allreduce, coll::Algo::ring, false, 262144},
      {coll::CollKind::reduce, coll::Algo::staged, false, 16384},
      {coll::CollKind::barrier, coll::Algo::staged, false, 0},
  };
  for (const Case& c : cases) {
    coll::Decision d;
    d.algo = c.algo;
    d.mapped = c.mapped;
    sa::AlgoCost ac = sa::algo_cost(c.op, d, c.bytes, cfg, mp);
    if (!ac.feasible) continue;
    std::printf("  %-14s %-10s%s @%7zu B: %12.0f ns %9.0f busB = %s\n",
                coll::coll_name(c.op), coll::algo_name(c.algo),
                c.mapped ? "+m" : "  ", c.bytes, ac.ns, ac.bus_bytes,
                ac.formula.to_string().c_str());
  }
  return 0;
}

int check_one_table(const coll::DecisionTable& t, const std::string& profile,
                    const char* what) {
  machine::MachineParams mp;
  if (!profile_params(profile, mp)) {
    std::fprintf(stderr, "unknown profile '%s' in %s\n", profile.c_str(),
                 what);
    return 2;
  }
  SrmConfig cfg;
  sa::DominanceReport rep = sa::check_table(t, cfg, mp);
  for (const sa::Crossover& x : rep.crossovers) {
    std::printf("  crossover %s\n", sa::to_string(x).c_str());
  }
  if (rep.issues.empty()) {
    std::printf("PASS dominance %s (%s): every row non-dominated\n", what,
                profile.c_str());
    return 0;
  }
  for (const sa::DominanceIssue& i : rep.issues) {
    std::printf("FAIL dominance %s: %s\n", what, sa::to_string(i).c_str());
  }
  return 1;
}

int run_dominance(const std::string& profile) {
  const coll::DecisionTable* t = coll::DecisionTable::builtin(profile);
  if (t == nullptr) {
    std::fprintf(stderr, "no builtin table for profile '%s'\n",
                 profile.c_str());
    return 2;
  }
  return check_one_table(*t, profile, "builtin");
}

int run_crosscheck(const std::string& path) {
  coll::DecisionTable t;
  try {
    t = coll::DecisionTable::load(path);
  } catch (const util::CheckError& e) {
    std::fprintf(stderr, "cannot load '%s': %s\n", path.c_str(), e.what());
    return 2;
  }
  std::string profile = t.profile.empty() ? "ibm_sp" : t.profile;
  return check_one_table(t, profile, path.c_str());
}

int run_gauntlet() {
  int uncaught = 0;
  for (const mc::Mutant& m : mc::mutation_gauntlet()) {
    std::vector<sa::Diag> diags = sa::lint(m.program);
    std::vector<std::string> rules = sa::fired_rules(diags);
    std::string joined;
    for (const std::string& r : rules) {
      if (!joined.empty()) joined += ",";
      joined += r;
    }
    if (rules.empty()) {
      ++uncaught;
      std::printf("FAIL gauntlet %-32s caught by: (nothing — dynamic-only)\n",
                  m.name.c_str());
    } else {
      std::printf("PASS gauntlet %-32s caught by: %s\n", m.name.c_str(),
                  joined.c_str());
    }
  }
  if (uncaught == 0) {
    std::printf("PASS gauntlet: every mutant statically caught\n");
  }
  return uncaught == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: sa_verify lint | cost [--profile P] | dominance [--profile P]"
      " | crosscheck FILE | gauntlet | all\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string mode = argv[1];
  std::string profile = "ibm_sp";
  std::string file;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      profile = argv[++i];
    } else if (file.empty() && argv[i][0] != '-') {
      file = argv[i];
    } else {
      return usage();
    }
  }
  try {
    if (mode == "lint") return run_lint();
    if (mode == "cost") return run_cost(profile);
    if (mode == "dominance") return run_dominance(profile);
    if (mode == "crosscheck") {
      if (file.empty()) return usage();
      return run_crosscheck(file);
    }
    if (mode == "gauntlet") return run_gauntlet();
    if (mode == "all") {
      int rc = run_lint();
      int rd = run_dominance("ibm_sp");
      int rm = run_dominance("modern_smp");
      int rg = run_gauntlet();
      if (rc == 2 || rd == 2 || rm == 2 || rg == 2) return 2;
      return (rc | rd | rm | rg) != 0 ? 1 : 0;
    }
  } catch (const util::CheckError& e) {
    std::fprintf(stderr, "sa_verify: %s\n", e.what());
    return 2;
  }
  return usage();
}
