// srm::sa pass (3): decision-table dominance proofs and the analytic
// crossovers, cross-validated against the paper's constants (64 KB bcast
// protocol switch, 16 KB allreduce recursive-doubling cap).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coll/decision.hpp"
#include "machine/params.hpp"
#include "sa/dominance.hpp"

namespace srm {
namespace {

using coll::Algo;
using coll::CollKind;
using coll::Decision;
using coll::DecisionTable;
using coll::TreeKind;

bool has_crossover(const std::vector<sa::Crossover>& xs, CollKind op,
                   Algo to, std::size_t bytes, bool feasibility) {
  for (const sa::Crossover& x : xs) {
    if (x.op == op && x.to.algo == to && x.bytes == bytes &&
        x.feasibility == feasibility) {
      return true;
    }
  }
  return false;
}

std::string dump(const std::vector<sa::Crossover>& xs) {
  std::string out;
  for (const sa::Crossover& x : xs) out += "  " + sa::to_string(x) + "\n";
  return out;
}

TEST(SaDominance, BuiltinTablesAreDominanceFree) {
  SrmConfig cfg;
  for (const char* profile : {"ibm_sp", "modern_smp"}) {
    const DecisionTable* t = DecisionTable::builtin(profile);
    ASSERT_NE(t, nullptr) << profile;
    machine::MachineParams mp = std::string(profile) == "ibm_sp"
                                    ? machine::MachineParams::ibm_sp()
                                    : machine::MachineParams::modern_smp();
    sa::DominanceReport rep = sa::check_table(*t, cfg, mp);
    for (const sa::DominanceIssue& i : rep.issues) {
      ADD_FAILURE() << profile << ": " << sa::to_string(i);
    }
  }
}

/// Every allreduce protocol but the root-free one: the paper's two, and
/// ring and recursive halving, which must not win just above rd's cap.
const std::vector<Decision> kAllreduceButDirect = {
    {Algo::rd, false},
    {Algo::pipeline, false},
    {Algo::ring, false},
    {Algo::rhalving, false}};

/// Over the whole allreduce menu, the root-free allreduce takes over from
/// recursive doubling below its 16 KB slot cap: a cost intersection.
bool direct_overtakes_rd(const std::vector<sa::Crossover>& xs) {
  for (const sa::Crossover& x : xs) {
    if (x.op == CollKind::allreduce && x.from.algo == Algo::rd &&
        x.to.algo == Algo::direct && !x.feasibility && x.bytes < 16384) {
      return true;
    }
  }
  return false;
}

TEST(SaDominance, IbmSpCrossoversReproduceThePapersConstants) {
  // The paper switches bcast staged -> direct at 64 KB and allreduce
  // recursive-doubling -> pipelined at 16 KB. Both emerge from the model as
  // feasibility caps at exactly those byte counts (the last size where the
  // small-protocol path still wins) among every protocol but the
  // root-free allreduce. That one, which the paper does not have, overtakes
  // recursive doubling before its cap.
  SrmConfig cfg;
  machine::MachineParams mp = machine::MachineParams::ibm_sp();
  std::vector<sa::Crossover> bc = sa::crossovers(CollKind::bcast, cfg, mp);
  EXPECT_TRUE(has_crossover(bc, CollKind::bcast, Algo::direct, 65536, true))
      << dump(bc);
  std::vector<sa::Crossover> ar =
      sa::crossovers(CollKind::allreduce, cfg, mp, kAllreduceButDirect);
  EXPECT_TRUE(
      has_crossover(ar, CollKind::allreduce, Algo::pipeline, 16384, true))
      << dump(ar);
  std::vector<sa::Crossover> all =
      sa::crossovers(CollKind::allreduce, cfg, mp);
  EXPECT_TRUE(direct_overtakes_rd(all)) << dump(all);
}

TEST(SaDominance, ModernSmpKeepsThePapersStructuralSwitches) {
  // The modern profile re-derives the same structural caps (they come from
  // SrmConfig limits, not hardware rates), so the same two flips appear.
  SrmConfig cfg;
  machine::MachineParams mp = machine::MachineParams::modern_smp();
  std::vector<sa::Crossover> bc = sa::crossovers(CollKind::bcast, cfg, mp);
  EXPECT_TRUE(has_crossover(bc, CollKind::bcast, Algo::direct, 65536, true))
      << dump(bc);
  std::vector<sa::Crossover> ar =
      sa::crossovers(CollKind::allreduce, cfg, mp, kAllreduceButDirect);
  EXPECT_TRUE(
      has_crossover(ar, CollKind::allreduce, Algo::pipeline, 16384, true))
      << dump(ar);
  std::vector<sa::Crossover> all =
      sa::crossovers(CollKind::allreduce, cfg, mp);
  EXPECT_TRUE(direct_overtakes_rd(all)) << dump(all);
}

TEST(SaDominance, CheckTableIsNotVacuous) {
  // A deliberately bad table must be flagged: ring allreduce at 0 bytes is
  // decisively worse than recursive doubling on every axis (slower at both
  // node scales, no bus-traffic saving).
  DecisionTable bad;
  bad.profile = "ibm_sp";
  bad.set(CollKind::bcast, 0, {Algo::direct, false, TreeKind::binomial});
  bad.set(CollKind::allreduce, 0, {Algo::ring, false, TreeKind::binomial});
  SrmConfig cfg;
  sa::DominanceReport rep =
      sa::check_table(bad, cfg, machine::MachineParams::ibm_sp());
  ASSERT_EQ(rep.issues.size(), 1u);
  const sa::DominanceIssue& i = rep.issues[0];
  EXPECT_EQ(i.op, CollKind::allreduce);
  EXPECT_EQ(i.min_bytes, 0u);
  EXPECT_EQ(i.chosen.algo, Algo::ring);
  EXPECT_EQ(i.better.algo, Algo::rd);
  EXPECT_GT(i.chosen_ns, i.better_ns);
  EXPECT_GE(i.chosen_bus, i.better_bus * sa::kBusSave);
}

TEST(SaDominance, TasksPerNodeTermJudgesTheIntranodeTree) {
  // The 4-task model gives every reduce tree a root fan-in of 2, so on its
  // own it prices a binary row like a binomial one and both lose to the
  // mapped path at 512 KB. At the table's 16 tasks the binomial root
  // combines 4 children per chunk, the binary root 2 and the chain root 1:
  // the binary and chain rows stand, the binomial row is still dominated by
  // the mapped one. A mapped row lays its own tree over the cache domains,
  // so a mapped binary row has root fan-in 2 as well, a mapped chain row 1,
  // and both stand too.
  machine::MachineParams mp = machine::MachineParams::modern_smp();
  SrmConfig cfg;
  auto row_at_512k = [&](bool mapped, TreeKind intranode) {
    DecisionTable t;
    t.profile = "modern_smp";
    t.set(CollKind::reduce, 0, {Algo::staged, false, TreeKind::binomial});
    t.set(CollKind::reduce, 512 * 1024,
          {Algo::staged, mapped, TreeKind::binomial, intranode});
    return sa::check_table(t, cfg, mp).issues;
  };
  for (bool mapped : {false, true}) {
    for (TreeKind tree : {TreeKind::binary, TreeKind::chain}) {
      for (const sa::DominanceIssue& i : row_at_512k(mapped, tree)) {
        ADD_FAILURE() << "mapped=" << mapped << " "
                      << coll::tree_kind_name(tree) << ": "
                      << sa::to_string(i);
      }
    }
  }
  std::vector<sa::DominanceIssue> binomial =
      row_at_512k(false, TreeKind::binomial);
  ASSERT_EQ(binomial.size(), 1u);
  EXPECT_EQ(binomial[0].op, CollKind::reduce);
  EXPECT_EQ(binomial[0].min_bytes, 512u * 1024);
  EXPECT_FALSE(binomial[0].chosen.mapped);
  EXPECT_TRUE(binomial[0].better.mapped);
}

TEST(SaDominance, MenuCoversEveryBuiltinRow) {
  // Every decision a builtin table dispatches must be on the op's menu —
  // otherwise check_table would "prove" rows it never evaluated.
  for (const char* profile : {"ibm_sp", "modern_smp"}) {
    const DecisionTable* t = DecisionTable::builtin(profile);
    ASSERT_NE(t, nullptr);
    for (CollKind op :
         {CollKind::bcast, CollKind::reduce, CollKind::allreduce,
          CollKind::barrier, CollKind::scatter, CollKind::gather,
          CollKind::allgather, CollKind::reduce_scatter}) {
      std::vector<Decision> menu = sa::algo_menu(op);
      for (const auto& row : t->rows(op)) {
        // The mapped flag is advisory for algorithms without a single-copy
        // variant (e.g. direct puts land in user buffers already), so the
        // menu need only carry the algorithm itself.
        bool found = false;
        for (const Decision& d : menu) found = found || d.algo == row.d.algo;
        EXPECT_TRUE(found) << profile << " " << coll::coll_name(op) << " @"
                           << row.min_bytes;
      }
    }
  }
}

}  // namespace
}  // namespace srm
