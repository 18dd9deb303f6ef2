// srm::sa pass (2): the lint rule catalog over the shipped protocol models.
// The load-bearing property is the clean bill of health: every one of the
// sixteen protocol IRs lints clean on every supported shape, so any
// diagnostic on a user model is a real finding, not catalog noise.
#include <gtest/gtest.h>

#include <vector>

#include "mc/protocols.hpp"
#include "sa/lint.hpp"

namespace srm {
namespace {

const std::vector<mc::Shape>& shapes() {
  static const std::vector<mc::Shape> s = {
      {1, 2, 1}, {2, 2, 1}, {2, 2, 3}, {1, 3, 1}, {2, 1, 1}, {2, 4, 2}};
  return s;
}

TEST(SaLint, AllProtocolsAllShapesClean) {
  for (mc::Proto proto : mc::all_protos()) {
    for (const mc::Shape& sh : shapes()) {
      mc::Program p = mc::build(proto, sh);
      std::vector<sa::Diag> diags = sa::lint(p);
      EXPECT_TRUE(diags.empty())
          << mc::proto_name(proto) << " " << sh.to_string() << ": "
          << diags.size() << " diagnostic(s), first [" << diags[0].rule
          << "] " << diags[0].thread << "#" << diags[0].op_index << " "
          << diags[0].message;
    }
  }
}

TEST(SaLint, DiagnosticsCarryPreciseLocations) {
  // Every gauntlet diagnostic must anchor to a thread; structural rules
  // (R1-R7) must also anchor to a concrete op unless they indict the whole
  // thread by design.
  for (const mc::Mutant& m : mc::mutation_gauntlet()) {
    for (const sa::Diag& d : sa::lint(m.program)) {
      EXPECT_FALSE(d.rule.empty()) << m.name;
      EXPECT_FALSE(d.thread.empty()) << m.name << " [" << d.rule << "]";
      EXPECT_FALSE(d.message.empty()) << m.name << " [" << d.rule << "]";
    }
  }
}

TEST(SaLint, FiredRulesDeduplicatesToFamilies) {
  std::vector<sa::Diag> diags;
  diags.push_back({"R8-race", "r0.0", 3, "w", "a"});
  diags.push_back({"R8-deadlock", "r0.1", 5, "x", "b"});
  diags.push_back({"R1", "r0.0", 1, "y", "c"});
  diags.push_back({"R1", "r1.0", 2, "z", "d"});
  std::vector<std::string> rules = sa::fired_rules(diags);
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0], "R1");
  EXPECT_EQ(rules[1], "R8");
}

TEST(SaLint, CleanProgramFiresNothing) {
  mc::Program p = mc::build(mc::Proto::bcast, {2, 4, 2});
  EXPECT_TRUE(sa::fired_rules(sa::lint(p)).empty());
}

}  // namespace
}  // namespace srm
