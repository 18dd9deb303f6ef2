// Schedule-perturbation stress: the explorer re-runs every collective under
// >= 16 seeded random tie-break schedules with jittered machine constants,
// on both the SRM and mini-MPI backends and several node/task shapes. Every
// payload must stay element-exact and the happens-before checker must stay
// silent — and non-vacuously so (accesses_checked > 0 on the SRM runs).
#include <gtest/gtest.h>

#include <cstdlib>

#include "chk/chk.hpp"
#include "chk/explore.hpp"
#include "coll/decision.hpp"

namespace srm {
namespace {

using chk::ExploreBackend;
using chk::ExploreOptions;
using chk::ExploreResult;

void expect_clean(const ExploreOptions& opt, bool expect_accesses) {
  ExploreResult r = chk::explore(opt);
  EXPECT_EQ(r.runs, opt.schedules);
  EXPECT_TRUE(r.clean()) << summarize(opt, r);
  if (expect_accesses && chk::kEnabled) {
    EXPECT_GT(r.accesses, 0u) << "checker saw no accesses — vacuous pass";
    EXPECT_GT(r.sync_ops, 0u);
  }
}

TEST(ScheduleExplorer, Srm2x2Sixteen) {
  ExploreOptions opt;
  opt.backend = ExploreBackend::srm;
  opt.nodes = 2;
  opt.tasks_per_node = 2;
  opt.schedules = 16;
  opt.seed_base = 1;
  expect_clean(opt, true);
}

TEST(ScheduleExplorer, Srm3x4Sixteen) {
  ExploreOptions opt;
  opt.backend = ExploreBackend::srm;
  opt.nodes = 3;
  opt.tasks_per_node = 4;
  opt.schedules = 16;
  opt.seed_base = 101;
  expect_clean(opt, true);
}

TEST(ScheduleExplorer, SrmTwoSocketModernSmpSixteen) {
  // modern_smp sockets hold 8 tasks, so at 12 per node the 4 tasks of
  // socket 1 form a far group that splits every Fig. 3 publish led from
  // socket 0 (smp_bcast_chunk), under the profile's own decision table.
  // The sequence's reduce_scatter (200 doubles per rank, a 19200 B node
  // segment) runs that table's root-free row over domains of 8 and 4, its
  // 48 KB allreduce the root-free allreduce, and its allgather (1 KB per
  // rank, a 12 KB node block) the root-free allgather. Both of the latter
  // rows are mapped: the plan runs once as single-copy off runs it (the
  // node ring), and once with single-copy on, where the allgather and
  // the allreduce's allgather half run the socket leaders' windows and
  // rings (allgather_sockets).
  const coll::DecisionTable& smp = coll::DecisionTable::modern_smp();
  coll::Decision rs = smp.decide(
      coll::CollKind::reduce_scatter,
      coll::row_key(coll::CollKind::reduce_scatter, 200 * sizeof(double),
                    12));
  EXPECT_EQ(rs.algo, coll::Algo::direct);
  coll::Decision ar =
      smp.decide(coll::CollKind::allreduce, 6000 * sizeof(double));
  EXPECT_EQ(ar.algo, coll::Algo::direct);
  EXPECT_TRUE(ar.mapped);
  coll::Decision ag = smp.decide(
      coll::CollKind::allgather,
      coll::row_key(coll::CollKind::allgather, 128 * sizeof(double), 12));
  EXPECT_EQ(ag.algo, coll::Algo::direct);
  EXPECT_TRUE(ag.mapped);
  ExploreOptions opt;
  opt.backend = ExploreBackend::srm;
  opt.nodes = 2;
  opt.tasks_per_node = 12;
  opt.params = machine::MachineParams::modern_smp();
  opt.schedules = 16;
  opt.seed_base = 401;
  expect_clean(opt, true);
  opt.single_copy = true;
  expect_clean(opt, true);
}

TEST(ScheduleExplorer, SrmSingleNodeAndThinNodes) {
  // Pure-SMP path (1 node) and leaders-only path (1 task per node).
  ExploreOptions opt;
  opt.backend = ExploreBackend::srm;
  opt.nodes = 1;
  opt.tasks_per_node = 4;
  opt.schedules = 8;
  opt.seed_base = 201;
  expect_clean(opt, true);

  opt.nodes = 4;
  opt.tasks_per_node = 1;
  opt.seed_base = 301;
  expect_clean(opt, true);
}

TEST(ScheduleExplorer, MpiIbm2x2Sixteen) {
  ExploreOptions opt;
  opt.backend = ExploreBackend::mpi_ibm;
  opt.nodes = 2;
  opt.tasks_per_node = 2;
  opt.schedules = 16;
  opt.seed_base = 401;
  expect_clean(opt, false);
}

TEST(ScheduleExplorer, MpiMpich3x2Sixteen) {
  ExploreOptions opt;
  opt.backend = ExploreBackend::mpi_mpich;
  opt.nodes = 3;
  opt.tasks_per_node = 2;
  opt.schedules = 16;
  opt.seed_base = 501;
  expect_clean(opt, false);
}

TEST(ScheduleExplorer, FifoNoJitterMatchesSeedBehaviour) {
  // Sanity: with jitter off and the checker off, the explorer still verifies
  // payloads under the randomized tie-break alone.
  ExploreOptions opt;
  opt.backend = ExploreBackend::srm;
  opt.nodes = 2;
  opt.tasks_per_node = 3;
  opt.schedules = 8;
  opt.seed_base = 601;
  opt.jitter = false;
  opt.enable_checker = false;
  ExploreResult r = chk::explore(opt);
  EXPECT_TRUE(r.clean()) << summarize(opt, r);
  EXPECT_EQ(r.accesses, 0u);  // checker off: no access records
}

TEST(ScheduleExplorer, CleanSweepReportsNoFailingSeed) {
  ExploreOptions opt;
  opt.backend = ExploreBackend::srm;
  opt.nodes = 2;
  opt.tasks_per_node = 2;
  opt.schedules = 4;
  opt.seed_base = 701;
  ExploreResult r = chk::explore(opt);
  ASSERT_TRUE(r.clean()) << summarize(opt, r);
  EXPECT_EQ(r.first_failing_seed, ExploreResult::kNoSeed);
  EXPECT_TRUE(r.failing_trace.empty());
  EXPECT_EQ(summarize(opt, r).find("SRM_EXPLORE_SEED"), std::string::npos);
}

TEST(ScheduleExplorer, EnvSeedPinsTheSweepToOneRun) {
  // SRM_EXPLORE_SEED collapses a multi-seed sweep to exactly the named seed —
  // the deterministic replay knob for a failure a previous sweep printed.
  ASSERT_EQ(setenv("SRM_EXPLORE_SEED", "12345", 1), 0);
  ExploreOptions opt;
  opt.backend = ExploreBackend::srm;
  opt.nodes = 2;
  opt.tasks_per_node = 2;
  opt.schedules = 8;
  opt.seed_base = 801;
  ExploreResult r = chk::explore(opt);
  unsetenv("SRM_EXPLORE_SEED");
  EXPECT_EQ(r.runs, 1);
  EXPECT_TRUE(r.clean()) << summarize(opt, r);
}

TEST(ScheduleExplorer, MalformedEnvSeedIsIgnored) {
  ASSERT_EQ(setenv("SRM_EXPLORE_SEED", "not-a-seed", 1), 0);
  ExploreOptions opt;
  opt.backend = ExploreBackend::srm;
  opt.nodes = 1;
  opt.tasks_per_node = 2;
  opt.schedules = 3;
  opt.seed_base = 901;
  ExploreResult r = chk::explore(opt);
  unsetenv("SRM_EXPLORE_SEED");
  EXPECT_EQ(r.runs, 3);  // sweep unaffected
  EXPECT_TRUE(r.clean()) << summarize(opt, r);
}

TEST(ScheduleExplorer, SummaryPrintsReproducerLineOnFailure) {
  // summarize() must tell the user exactly how to replay a failure: the seed
  // and the env var that pins it, plus the captured tie-break trace.
  ExploreOptions opt;
  opt.schedules = 16;
  ExploreResult r;
  r.runs = 16;
  r.payload_errors.push_back("seed 1007 op bcast rank 3: element 5 mismatch");
  r.first_failing_seed = 1007;
  r.failing_trace = {"a0 release 'ready0.s0[0]'", "a3 acquire 'ready0.s0[0]'"};
  std::string s = summarize(opt, r);
  EXPECT_NE(s.find("1007"), std::string::npos) << s;
  EXPECT_NE(s.find("SRM_EXPLORE_SEED=1007"), std::string::npos) << s;
  EXPECT_NE(s.find("tie-break trace"), std::string::npos) << s;
  EXPECT_NE(s.find("a3 acquire 'ready0.s0[0]'"), std::string::npos) << s;
}

}  // namespace
}  // namespace srm
