// srm::sa pass (2): the lint rule catalog over the shipped protocol models.
// The load-bearing property is the clean bill of health: every one of the
// sixteen protocol IRs lints clean on every supported shape, so any
// diagnostic on a user model is a real finding, not catalog noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
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

int count_rule(const std::vector<sa::Diag>& diags, const std::string& rule) {
  return static_cast<int>(
      std::count_if(diags.begin(), diags.end(),
                    [&](const sa::Diag& d) { return d.rule == rule; }));
}

/// r0.0 exports its buffer as a window and hands a put of it to an
/// adapter, which reads it without attaching: r0.0's own adapter when
/// @p own, else r1.0's adapter on a put r1.0 asked for.
mc::Program window_put(bool own) {
  mc::Program p;
  p.name = own ? "own_adapter_put" : "foreign_adapter_put";
  int owner = p.thread("r0.0");
  int other = p.thread("r1.0");
  int adp0 = p.thread("adp0");
  int adp1 = p.thread("adp1");
  p.serves(adp0, owner);
  p.serves(adp1, other);
  int win = p.buf("win");
  int pub = p.var("wpub");
  int done = p.var("wdone");
  int org = p.var("org");
  int put = p.chan("put");
  p.window(win, pub, done, owner);
  p.write(owner, win, 0, 1);
  p.set(owner, pub, 1);
  int src = own ? owner : other;
  int a = own ? adp0 : adp1;
  p.send(src, put);
  p.recv(a, put);
  p.read(a, win, 0, 1);
  p.add(a, org, 1);
  p.wait_dec(src, org, 1);
  p.validate();
  return p;
}

TEST(SaLint, OwnAdapterReadsItsOwnersWindowUnattached) {
  EXPECT_EQ(count_rule(sa::lint(window_put(true)), "R4"), 0);
}

TEST(SaLint, ForeignAdapterReadOfUnattachedWindowTripsR4) {
  std::vector<sa::Diag> diags = sa::lint(window_put(false));
  ASSERT_EQ(count_rule(diags, "R4"), 2);  // attach-before-read, no detach
  for (const sa::Diag& d : diags) {
    if (d.rule == "R4") {
      EXPECT_EQ(d.thread, "adp1");
    }
  }
}

/// r0.0 flags buffer seg to its reader twice: once after writing it, once
/// after a Waitcntr on the counter that @p depositor adds to once it wrote
/// seg in turn.
mc::Program relayed_flag(const std::string& depositor) {
  mc::Program p;
  p.name = "relayed_flag";
  int head = p.thread("r0.0");
  int reader = p.thread("r0.1");
  int dep = p.thread(depositor);
  int seg = p.buf("seg");
  int ready = p.var("ready");
  int got = p.var("got");
  p.write(head, seg, 0, 1);
  p.add(head, ready, 1);
  p.write(dep, seg, 1, 2);
  p.add(dep, got, 1);
  p.wait_dec(head, got, 1);
  p.add(head, ready, 1);
  p.await_ge(reader, ready, 1);
  p.read(reader, seg, 0, 1);
  p.await_ge(reader, ready, 2);
  p.read(reader, seg, 1, 2);
  p.validate();
  return p;
}

TEST(SaLint, OnlyANicDepositRelaysASignal) {
  // The network's deposit, awaited on its arrival counter, stands for the
  // second write; another rank's write does not.
  EXPECT_EQ(count_rule(sa::lint(relayed_flag("nic0")), "R5"), 0);
  EXPECT_EQ(count_rule(sa::lint(relayed_flag("r0.2")), "R5"), 1);
}

}  // namespace
}  // namespace srm
