// The gauntlet classification: which lint rule families catch each of the
// 30 mutation-gauntlet bugs. Pinned exactly — a lint change that silently
// loses (or gains) coverage on a known bug must show up here, and the
// headline property is that NO mutant is dynamic-only: the static analyzer
// catches every bug the model checker's gauntlet was built around.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "mc/protocols.hpp"
#include "sa/lint.hpp"

namespace srm {
namespace {

std::string joined_rules(const mc::Program& p) {
  std::string out;
  for (const std::string& r : sa::fired_rules(sa::lint(p))) {
    if (!out.empty()) out += ",";
    out += r;
  }
  return out;
}

TEST(SaGauntlet, EveryMutantStaticallyCaught) {
  for (const mc::Mutant& m : mc::mutation_gauntlet()) {
    EXPECT_FALSE(sa::lint(m.program).empty())
        << m.name << " is dynamic-only: no lint rule fires";
  }
}

TEST(SaGauntlet, ClassificationIsPinned) {
  // R8 alone means only the canonical-execution pass sees the bug (a race
  // or deadlock on the canonical schedule); additional families mean a
  // purely structural rule catches it before anything "runs".
  const std::map<std::string, std::string> expected = {
      {"bcast.drop_ready_clear", "R1,R8"},
      {"bcast.refill_before_clear", "R6,R8"},
      {"barrier.drop_worker_signal", "R1,R8"},
      {"barrier.drop_release", "R1,R8"},
      {"barrier.drop_round_signal", "R3,R8"},
      {"reduce.publish_before_write", "R5,R8"},
      {"reduce.drop_consumed_gate", "R8"},
      {"reduce.drop_credit_wait", "R8"},
      {"allreduce.drop_origin_wait", "R7,R8"},
      {"allreduce.signal_before_deposit", "R8"},
      {"gather.drop_filled_wait", "R8"},
      {"gather.drop_freed_gate", "R8"},
      {"allgather.drop_done_wait", "R8"},
      {"scatter.credit_before_clear", "R8"},
      {"sc_bcast.reuse_before_retract", "R4,R8"},
      {"sc_bcast.attach_before_publish", "R4,R8"},
      {"sc_bcast.drop_detach", "R1,R4,R8"},
      {"sc_reduce.publish_before_write", "R4,R5,R8"},
      {"sc_reduce.drop_detach", "R1,R4,R8"},
      {"sc_reduce.drop_acons_gate", "R8"},
      {"sc_scatter.reuse_before_retract", "R4,R8"},
      {"sc_gather.publish_before_write", "R4,R5,R8"},
      {"ring_allreduce.drop_origin_wait", "R7,R8"},
      {"rh_allreduce.signal_before_deposit", "R8"},
      {"bcast.drop_far_slice_wait", "R8"},
      {"sa_bcast.forward_before_arrival", "R8"},
      {"sa_bcast.drop_scatter_signal", "R2,R8"},
      {"rs_direct.drop_landed_wait", "R8"},
      {"ag_direct.publish_before_arrival", "R8"},
      {"sc_allgather.copy_before_ready", "R8"},
      {"sc_allgather.forward_before_assembled", "R8"},
  };
  const std::vector<mc::Mutant>& gauntlet = mc::mutation_gauntlet();
  ASSERT_EQ(gauntlet.size(), expected.size());
  for (const mc::Mutant& m : gauntlet) {
    auto it = expected.find(m.name);
    ASSERT_NE(it, expected.end()) << "unclassified mutant " << m.name;
    EXPECT_EQ(joined_rules(m.program), it->second) << m.name;
  }
}

TEST(SaGauntlet, ClassificationAgreesWithDynamicExpectation) {
  // A mutant the checker expects to deadlock must at least produce an R8
  // finding (the canonical schedule wedges or races); same for races. The
  // static pass may know MORE (structural rules), never less.
  for (const mc::Mutant& m : mc::mutation_gauntlet()) {
    if (!m.expect_race && !m.expect_deadlock) continue;
    std::vector<std::string> rules = sa::fired_rules(sa::lint(m.program));
    EXPECT_FALSE(rules.empty()) << m.name;
  }
}

}  // namespace
}  // namespace srm
