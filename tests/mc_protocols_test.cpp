// Exhaustive verification of the eight SRM collective skeletons on the small
// configurations ISSUE.md names, the DPOR-vs-naive reduction evidence, and
// the mutation gauntlet: every seeded protocol bug must surface as a race or
// deadlock with a concrete counterexample schedule.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "mc/ir.hpp"
#include "mc/mc.hpp"
#include "mc/protocols.hpp"

namespace srm::mc {
namespace {

const std::vector<Shape>& small_shapes() {
  static const std::vector<Shape> kShapes = {
      Shape{1, 4, 2}, Shape{2, 2, 2}, Shape{2, 4, 1}};
  return kShapes;
}

TEST(McProtocols, AllCollectivesVerifyCleanOnSmallConfigs) {
  for (Proto op : all_protos()) {
    // rs_direct's search, and its share form's, outgrows the budget on
    // these shapes; both verify on their own below
    // (RootFreeReduceScatterVerifiesClean).
    if (op == Proto::rs_direct || op == Proto::sc_reduce_scatter) continue;
    for (const Shape& sh : small_shapes()) {
      // sc_allgather on 2x4c1 outgrows the budget (a head pulls three
      // windows while three readers each await two segments per node); it
      // verifies on its own below (MappedRootFreeAllgatherVerifiesClean).
      if (op == Proto::sc_allgather && sh.nodes == 2 && sh.tasks == 4) {
        continue;
      }
      Program p = build(op, sh);
      Result r = check(p);
      EXPECT_TRUE(r.ok()) << p.name << ": " << r.summary() << "\n"
                          << (r.races.empty() ? "" : r.races[0].to_string())
                          << (r.deadlocks.empty()
                                  ? ""
                                  : r.deadlocks[0].to_string());
      EXPECT_FALSE(r.budget_exhausted) << p.name << ": " << r.summary();
      EXPECT_GE(r.traces, 1u) << p.name;
    }
  }
}

TEST(McProtocols, FarGroupSplitVerifiesCleanOnTwoSocketShapes) {
  // Two sockets of two tasks: readers 2 and 3 form the far group of every
  // Fig. 3 publish and split each chunk into slices. Three chunks reuse
  // slot 0, so the slice counter's cumulative target is exercised too.
  std::vector<std::pair<Proto, Shape>> cases;
  for (Proto op : all_protos()) {
    if (op == Proto::rs_direct || op == Proto::sc_reduce_scatter) {
      continue;  // see below
    }
    cases.push_back({op, Shape{1, 4, 2, 2}});
    // ag_direct publishes two blocks per node, each split across the
    // sockets; at two nodes that outgrows the budget, so its two-socket
    // shape is the one-node one. sc_allgather splits nothing; its two-node
    // two-socket shapes are in MappedRootFreeAllgatherVerifiesClean.
    if (op != Proto::ag_direct && op != Proto::sc_allgather) {
      cases.push_back({op, Shape{2, 4, 1, 2}});
    }
  }
  cases.push_back({Proto::bcast, Shape{1, 4, 3, 2}});
  for (const auto& [op, sh] : cases) {
    Program p = build(op, sh);
    Result r = check(p);
    EXPECT_TRUE(r.ok()) << p.name << ": " << r.summary() << "\n"
                        << (r.races.empty() ? "" : r.races[0].to_string());
    EXPECT_FALSE(r.budget_exhausted) << p.name << ": " << r.summary();
  }
  Program bc = build(Proto::bcast, Shape{2, 4, 1, 2});
  auto has_buf = [&bc](const std::string& n) {
    for (const std::string& b : bc.buf_names) {
      if (b == n) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_buf("far0.g1.s0"));  // root node, filled from bb0.s0
  EXPECT_TRUE(has_buf("far1.g1.s0"));  // child node, from the landing buffer
  EXPECT_EQ(build(Proto::bcast, Shape{2, 4, 1}).buf_names.size() + 2,
            bc.buf_names.size());
}

TEST(McProtocols, RootFreeReduceScatterVerifiesClean) {
  // Two nodes with one socket (one domain of two) and with two sockets
  // (two single-task domains, each head also its pair's only writer), two
  // steps per segment on thin nodes, and one node of two domains of two;
  // each in the chain form and the share form (sc_reduce_scatter), where
  // a domain of one exports no window.
  for (const auto& [proto, sh] :
       {std::pair{Proto::rs_direct, Shape{2, 2, 1}},
        std::pair{Proto::rs_direct, Shape{2, 2, 1, 2}},
        std::pair{Proto::rs_direct, Shape{2, 1, 2}},
        std::pair{Proto::rs_direct, Shape{1, 4, 1, 2}},
        std::pair{Proto::sc_reduce_scatter, Shape{2, 2, 1}},
        std::pair{Proto::sc_reduce_scatter, Shape{2, 2, 1, 2}},
        std::pair{Proto::sc_reduce_scatter, Shape{2, 1, 2}},
        std::pair{Proto::sc_reduce_scatter, Shape{1, 4, 1, 2}}}) {
    Program p = build(proto, sh);
    Result r = check(p);
    EXPECT_TRUE(r.ok()) << p.name << ": " << r.summary() << "\n"
                        << (r.races.empty() ? "" : r.races[0].to_string())
                        << (r.deadlocks.empty()
                                ? ""
                                : r.deadlocks[0].to_string());
    EXPECT_FALSE(r.budget_exhausted) << p.name << ": " << r.summary();
  }
}

TEST(McProtocols, MappedRootFreeAllgatherVerifiesClean) {
  // One node of two sockets of two (two heads, one reader each), two
  // nodes of one socket of two (one ring), two nodes of two single-task
  // sockets (two rings, no readers) and two nodes of sockets of two and
  // one (a head with a reader next to a head without).
  for (const Shape& sh : {Shape{1, 4, 1, 2}, Shape{2, 2, 1}, Shape{2, 2, 1, 2},
                          Shape{2, 3, 1, 2}}) {
    Program p = build(Proto::sc_allgather, sh);
    Result r = check(p);
    EXPECT_TRUE(r.ok()) << p.name << ": " << r.summary() << "\n"
                        << (r.races.empty() ? "" : r.races[0].to_string())
                        << (r.deadlocks.empty()
                                ? ""
                                : r.deadlocks[0].to_string());
    EXPECT_FALSE(r.budget_exhausted) << p.name << ": " << r.summary();
  }
}

TEST(McProtocols, BuilderShapesAreWellFormed) {
  for (Proto op : all_protos()) {
    for (const Shape& sh : small_shapes()) {
      Program p = build(op, sh);
      EXPECT_EQ(p.name, std::string(proto_name(op)) + "@" + sh.to_string());
      EXPECT_GE(p.threads.size(), static_cast<std::size_t>(sh.tasks));
      EXPECT_GT(p.total_ops(), 0u) << p.name;
      EXPECT_NO_THROW(p.validate()) << p.name;
    }
  }
}

TEST(McProtocols, DporReducesRealProtocolSearch) {
  // The reduction evidence on a shape both modes can finish: DPOR must agree
  // with full enumeration on the verdict while exploring far less. (One
  // chunk: naive already needs >5M transitions for the two-chunk shape.)
  Program p = build(Proto::bcast, Shape{2, 2, 1});
  Options naive;
  naive.dpor = false;
  naive.sleep_sets = false;
  Result fast = check(p);
  Result full = check(p, naive);
  EXPECT_TRUE(fast.ok()) << fast.summary();
  EXPECT_TRUE(full.ok()) << full.summary();
  EXPECT_FALSE(full.budget_exhausted);
  EXPECT_LT(fast.traces, full.traces);
  EXPECT_LT(fast.transitions * 10, full.transitions)
      << "dpor=" << fast.summary() << " naive=" << full.summary();
}

TEST(McProtocols, SleepSetsPruneProtocolBranches) {
  Program p = build(Proto::gather, Shape{1, 4, 2});
  Result r = check(p);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_GT(r.sleep_cut, 0u) << r.summary();
}

TEST(McProtocols, MutationGauntletEveryBugIsCaught) {
  std::vector<Mutant> gauntlet = mutation_gauntlet();
  ASSERT_GE(gauntlet.size(), 12u);
  for (const Mutant& m : gauntlet) {
    Result r = check(m.program);
    EXPECT_FALSE(r.budget_exhausted) << m.name;
    EXPECT_EQ(r.races_found > 0, m.expect_race)
        << m.name << ": " << r.summary();
    EXPECT_EQ(r.deadlocks_found > 0, m.expect_deadlock)
        << m.name << ": " << r.summary();
    // Every counterexample carries a replayable schedule.
    for (const Race& race : r.races) EXPECT_FALSE(race.schedule.empty());
    for (const Deadlock& d : r.deadlocks) EXPECT_FALSE(d.schedule.empty());
  }
}

TEST(McProtocols, GauntletCoversDropAndReorderOnCoreFigures) {
  // ISSUE.md's named mutations: a dropped flag clear and a reordered counter
  // bump, on the Fig. 3 bcast, Fig. 2 reduce, and the flat barrier.
  std::vector<std::string> names;
  for (const Mutant& m : mutation_gauntlet()) names.push_back(m.name);
  auto has = [&names](const std::string& n) {
    for (const std::string& x : names)
      if (x == n) return true;
    return false;
  };
  EXPECT_TRUE(has("bcast.drop_ready_clear"));
  EXPECT_TRUE(has("bcast.refill_before_clear"));
  EXPECT_TRUE(has("reduce.publish_before_write"));
  EXPECT_TRUE(has("reduce.drop_consumed_gate"));
  EXPECT_TRUE(has("barrier.drop_worker_signal"));
  EXPECT_TRUE(has("barrier.drop_release"));
}

TEST(McProtocols, CounterexampleSchedulesAreCoherent) {
  // A race schedule's steps must name threads of the program and replaying
  // its length never exceeds the program's op count.
  for (const Mutant& m : mutation_gauntlet()) {
    Result r = check(m.program);
    if (r.races.empty()) continue;
    const Race& race = r.races.front();
    EXPECT_LE(race.schedule.size(), m.program.total_ops()) << m.name;
    for (int tid : race.schedule) {
      ASSERT_GE(tid, 0) << m.name;
      ASSERT_LT(static_cast<std::size_t>(tid), m.program.threads.size())
          << m.name;
    }
  }
}

}  // namespace
}  // namespace srm::mc
