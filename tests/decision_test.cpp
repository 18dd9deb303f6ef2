// coll::DecisionTable: banded lookup semantics, JSON/file round-trips,
// malformed-input rejection, builtin tables, the feasibility rule
// (SrmConfig::sanitize), and the Communicator's table-resolution precedence
// (explicit config > SRM_DECISIONS artifact > builtin profile).
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "core/communicator.hpp"
#include "util/check.hpp"

namespace srm {
namespace {

using coll::Algo;
using coll::CollKind;
using coll::Decision;
using coll::DecisionTable;
using coll::TreeKind;

// ---------------------------------------------------------------------------
// Lookup semantics
// ---------------------------------------------------------------------------

TEST(DecisionTable, EmptyTableYieldsDefaultDecision) {
  DecisionTable t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.decide(CollKind::bcast, 123456), Decision{});
}

TEST(DecisionTable, DecideReturnsLastRowAtOrBelow) {
  DecisionTable t;
  // Inserted out of order: rows() must come back sorted by min_bytes.
  t.set(CollKind::allreduce, 65536, {Algo::rhalving, false, TreeKind::bine});
  t.set(CollKind::allreduce, 0, {Algo::rd, false, TreeKind::binomial});
  t.set(CollKind::allreduce, 4096, {Algo::ring, true, TreeKind::binary});
  ASSERT_EQ(t.rows(CollKind::allreduce).size(), 3u);
  EXPECT_EQ(t.rows(CollKind::allreduce)[0].min_bytes, 0u);
  EXPECT_EQ(t.rows(CollKind::allreduce)[2].min_bytes, 65536u);

  EXPECT_EQ(t.decide(CollKind::allreduce, 0).algo, Algo::rd);
  EXPECT_EQ(t.decide(CollKind::allreduce, 4095).algo, Algo::rd);
  EXPECT_EQ(t.decide(CollKind::allreduce, 4096).algo, Algo::ring);
  EXPECT_TRUE(t.decide(CollKind::allreduce, 4096).mapped);
  EXPECT_EQ(t.decide(CollKind::allreduce, 65535).algo, Algo::ring);
  EXPECT_EQ(t.decide(CollKind::allreduce, 65536).algo, Algo::rhalving);
  EXPECT_EQ(t.decide(CollKind::allreduce, 1 << 30).internode, TreeKind::bine);
  // Other ops are untouched.
  EXPECT_EQ(t.decide(CollKind::bcast, 4096), Decision{});
}

TEST(DecisionTable, SetReplacesOnCollidingMinBytes) {
  DecisionTable t;
  t.set(CollKind::bcast, 1024, {Algo::staged, false, TreeKind::binomial});
  t.set(CollKind::bcast, 1024, {Algo::scatter_ag, true, TreeKind::flat});
  ASSERT_EQ(t.rows(CollKind::bcast).size(), 1u);
  EXPECT_EQ(t.decide(CollKind::bcast, 2048).algo, Algo::scatter_ag);
}

TEST(DecisionTable, ForEachDecisionRewritesEveryRowInPlace) {
  DecisionTable t = DecisionTable::ibm_sp();
  t.for_each_decision([](Decision& d) { d.internode = TreeKind::fibonacci; });
  for (int k = 0; k < 8; ++k) {
    for (const auto& r : t.rows(static_cast<CollKind>(k))) {
      EXPECT_EQ(r.d.internode, TreeKind::fibonacci);
    }
  }
  // Only the tree column moved: the paper's bcast switch is where it was.
  EXPECT_EQ(t.decide(CollKind::bcast, 64 * 1024 + 1).algo, Algo::direct);
}

// ---------------------------------------------------------------------------
// JSON round-trips
// ---------------------------------------------------------------------------

DecisionTable sample_table() {
  DecisionTable t;
  t.version = 1;
  t.profile = "unit_test";
  t.set(CollKind::bcast, 0, {Algo::staged, false, TreeKind::binomial});
  t.set(CollKind::bcast, 65537, {Algo::scatter_ag, true, TreeKind::bine});
  t.set(CollKind::allreduce, 0, {Algo::rd, false, TreeKind::flat});
  t.set(CollKind::allreduce, 16385, {Algo::ring, false, TreeKind::binary});
  t.set(CollKind::allreduce, 1 << 20,
        {Algo::rhalving, true, TreeKind::fibonacci});
  t.set(CollKind::reduce, 4096, {Algo::pipeline, false, TreeKind::binomial});
  t.set(CollKind::gather, 0, {Algo::direct, true, TreeKind::binomial});
  return t;
}

TEST(DecisionTable, JsonRoundTripIsExact) {
  DecisionTable t = sample_table();
  DecisionTable back = DecisionTable::from_json(t.to_json());
  EXPECT_EQ(back, t);
  // Idempotent: a second trip emits identical text.
  EXPECT_EQ(back.to_json(), t.to_json());
}

TEST(DecisionTable, FileRoundTripIsExact) {
  DecisionTable t = sample_table();
  std::string path = ::testing::TempDir() + "/decision_test_table.json";
  t.save(path);
  EXPECT_EQ(DecisionTable::load(path), t);
  std::remove(path.c_str());
}

TEST(DecisionTable, BuiltinTablesRoundTrip) {
  EXPECT_EQ(DecisionTable::from_json(DecisionTable::ibm_sp().to_json()),
            DecisionTable::ibm_sp());
  EXPECT_EQ(DecisionTable::from_json(DecisionTable::modern_smp().to_json()),
            DecisionTable::modern_smp());
}

TEST(DecisionTable, MalformedJsonThrows) {
  EXPECT_THROW(DecisionTable::from_json(""), util::CheckError);
  EXPECT_THROW(DecisionTable::from_json("{"), util::CheckError);
  EXPECT_THROW(DecisionTable::from_json(
                   R"({"ops": {"nope": [{"min_bytes": 0}]}})"),
               util::CheckError);
  EXPECT_THROW(DecisionTable::from_json(
                   R"({"ops": {"bcast": [{"min_bytes": 0, "algo": "warp"}]}})"),
               util::CheckError);
  EXPECT_THROW(DecisionTable::load("/nonexistent/decision/table.json"),
               util::CheckError);
}

TEST(DecisionTable, FromJsonRejectsUnknownVersion) {
  EXPECT_THROW(
      DecisionTable::from_json(R"({"version": 7, "ops": {}})"),
      util::CheckError);
}

TEST(DecisionTable, FromJsonRejectsNonBooleanMappedFlag) {
  EXPECT_THROW(DecisionTable::from_json(
                   R"({"ops": {"bcast": [{"min_bytes": 0, "mapped": 2}]}})"),
               util::CheckError);
}

TEST(DecisionTable, FromJsonRejectsUnknownTreeKind) {
  EXPECT_THROW(
      DecisionTable::from_json(
          R"({"ops": {"bcast": [{"min_bytes": 0, "internode": "star"}]}})"),
      util::CheckError);
}

TEST(DecisionTable, FromJsonRejectsDuplicateMinBytes) {
  // In-memory set() replaces on collision (SetReplacesOnCollidingMinBytes
  // above); a loaded file must instead fail loudly with the row pinpointed.
  const char* dup =
      R"({"ops": {"allreduce": [{"min_bytes": 4096, "algo": "rd"},
                                {"min_bytes": 4096, "algo": "ring"}]}})";
  try {
    DecisionTable::from_json(dup);
    FAIL() << "duplicate min_bytes accepted";
  } catch (const coll::ValidationError& e) {
    EXPECT_EQ(e.op(), CollKind::allreduce);
    EXPECT_EQ(e.field(), "min_bytes");
    EXPECT_NE(std::string(e.what()).find("4096"), std::string::npos);
  }
}

TEST(DecisionTable, FromJsonRejectsDescendingMinBytes) {
  const char* desc =
      R"({"ops": {"bcast": [{"min_bytes": 1024, "algo": "staged"},
                            {"min_bytes": 0, "algo": "direct"}]}})";
  try {
    DecisionTable::from_json(desc);
    FAIL() << "descending min_bytes accepted";
  } catch (const coll::ValidationError& e) {
    EXPECT_EQ(e.op(), CollKind::bcast);
    EXPECT_EQ(e.field(), "min_bytes");
  }
}

TEST(DecisionTable, AlgoNamesRoundTrip) {
  for (int i = 0; i < coll::kAlgoCount; ++i) {
    Algo a = static_cast<Algo>(i);
    Algo back{};
    ASSERT_TRUE(coll::algo_from_name(coll::algo_name(a), back))
        << coll::algo_name(a);
    EXPECT_EQ(back, a);
  }
  Algo out{};
  EXPECT_FALSE(coll::algo_from_name("warp", out));
}

// ---------------------------------------------------------------------------
// Builtins express the paper's constants
// ---------------------------------------------------------------------------

TEST(DecisionTable, IbmSpIsThePapersConstants) {
  DecisionTable t = DecisionTable::ibm_sp();
  EXPECT_EQ(t.profile, "ibm_sp");
  // Bcast: staged up to the 64 KB protocol switch, direct beyond.
  EXPECT_EQ(t.decide(CollKind::bcast, 64 * 1024).algo, Algo::staged);
  EXPECT_EQ(t.decide(CollKind::bcast, 64 * 1024 + 1).algo, Algo::direct);
  // Allreduce: recursive doubling up to 16 KB, pipelined beyond.
  EXPECT_EQ(t.decide(CollKind::allreduce, 16 * 1024).algo, Algo::rd);
  EXPECT_EQ(t.decide(CollKind::allreduce, 16 * 1024 + 1).algo, Algo::pipeline);
  // Single-copy crossover at 16 KB (advisory until single_copy opts in).
  EXPECT_FALSE(t.decide(CollKind::bcast, 16 * 1024 - 1).mapped);
  EXPECT_TRUE(t.decide(CollKind::bcast, 16 * 1024).mapped);
}

TEST(DecisionTable, BuiltinLookupByProfileName) {
  ASSERT_NE(DecisionTable::builtin("ibm_sp"), nullptr);
  EXPECT_EQ(*DecisionTable::builtin("ibm_sp"), DecisionTable::ibm_sp());
  ASSERT_NE(DecisionTable::builtin("modern_smp"), nullptr);
  EXPECT_EQ(DecisionTable::builtin("custom"), nullptr);
  EXPECT_EQ(DecisionTable::builtin("nope"), nullptr);
}

// ---------------------------------------------------------------------------
// Feasibility rule
// ---------------------------------------------------------------------------

TEST(Feasibility, BufferCapsRerouteOnlyTheAlgorithm) {
  SrmConfig cfg;
  EXPECT_EQ(cfg.max_bytes(CollKind::bcast, Algo::staged), cfg.smp_buf_bytes);
  EXPECT_EQ(cfg.max_bytes(CollKind::allreduce, Algo::rd), cfg.reduce_chunk);
  EXPECT_EQ(cfg.max_bytes(CollKind::bcast, Algo::direct),
            std::numeric_limits<std::size_t>::max());
  // The rd result is published through one shared buffer as well.
  cfg.smp_buf_bytes = 4096;
  EXPECT_EQ(cfg.max_bytes(CollKind::allreduce, Algo::rd), 4096u);

  // Rerouting moves only the algorithm: mapped and tree columns stay.
  const Decision staged{Algo::staged, true, TreeKind::bine};
  EXPECT_EQ(cfg.sanitize(CollKind::bcast, staged, 4096), staged);
  EXPECT_EQ(cfg.sanitize(CollKind::bcast, staged, 4097),
            (Decision{Algo::direct, true, TreeKind::bine}));
  const Decision rd{Algo::rd, false, TreeKind::binary};
  EXPECT_EQ(cfg.sanitize(CollKind::allreduce, rd, 4097),
            (Decision{Algo::pipeline, false, TreeKind::binary}));
  // Single-implementation ops always run their staged path.
  EXPECT_EQ(cfg.sanitize(CollKind::gather, rd, 8).algo, Algo::staged);
}

// ---------------------------------------------------------------------------
// Communicator resolution precedence
// ---------------------------------------------------------------------------

struct Fixture {
  Fixture(int nodes, int per_node, SrmConfig cfg = {},
          machine::MachineParams params = machine::MachineParams::ibm_sp())
      : cluster(make_cfg(nodes, per_node, params)),
        fabric(cluster),
        comm(cluster, fabric, cfg) {}
  static machine::ClusterConfig make_cfg(int nodes, int per_node,
                                         machine::MachineParams params) {
    machine::ClusterConfig c;
    c.nodes = nodes;
    c.tasks_per_node = per_node;
    c.params = params;
    return c;
  }
  machine::Cluster cluster;
  lapi::Fabric fabric;
  Communicator comm;
};

TEST(Resolution, DefaultConfigResolvesProfileBuiltin) {
  Fixture sp(2, 2);
  EXPECT_EQ(sp.comm.decisions(), DecisionTable::ibm_sp());
  Fixture smp(2, 2, {}, machine::MachineParams::modern_smp());
  EXPECT_EQ(smp.comm.decisions(), DecisionTable::modern_smp());
  // Unknown profiles fall back to the paper's table.
  machine::MachineParams hand = machine::MachineParams::ibm_sp();
  hand.profile = "custom";
  Fixture custom(2, 2, {}, hand);
  EXPECT_EQ(custom.comm.decisions(), DecisionTable::ibm_sp());
}

TEST(Resolution, ExplicitConfigTableWinsVerbatim) {
  SrmConfig cfg;
  cfg.decisions = sample_table();
  Fixture f(2, 2, cfg);
  EXPECT_EQ(f.comm.decisions(), sample_table());
}

TEST(Resolution, EnvArtifactBeatsBuiltinButNotExplicit) {
  std::string path = ::testing::TempDir() + "/decision_test_env.json";
  DecisionTable art = sample_table();
  art.profile = "env_artifact";
  art.save(path);
  ASSERT_EQ(setenv("SRM_DECISIONS", path.c_str(), 1), 0);
  {
    Fixture f(2, 2);
    EXPECT_EQ(f.comm.decisions(), art);
    SrmConfig cfg;
    cfg.decisions = sample_table();
    Fixture g(2, 2, cfg);
    EXPECT_EQ(g.comm.decisions(), sample_table());
  }
  ASSERT_EQ(unsetenv("SRM_DECISIONS"), 0);
  std::remove(path.c_str());
}

/// The args JSON of the "srm.decisions" span, or "" if never recorded.
std::string decisions_span_args(machine::Cluster& cluster) {
  for (const obs::SpanRec& s : cluster.obs().spans()) {
    if (s.name == "srm.decisions") return s.args;
  }
  return "";
}

TEST(Resolution, ConstructionSpanRecordsTableSource) {
  if (!obs::kEnabled) GTEST_SKIP() << "SRM_OBS=OFF";
  // Builtin branch: source + the profile that selected the table.
  {
    machine::Cluster cluster(
        Fixture::make_cfg(2, 2, machine::MachineParams::ibm_sp()));
    cluster.obs().set_trace_enabled(true);
    lapi::Fabric fabric(cluster);
    Communicator comm(cluster, fabric, {});
    EXPECT_EQ(decisions_span_args(cluster),
              R"({"source":"builtin","detail":"ibm_sp","profile":"ibm_sp"})");
  }
  // Explicit-config branch.
  {
    machine::Cluster cluster(
        Fixture::make_cfg(2, 2, machine::MachineParams::ibm_sp()));
    cluster.obs().set_trace_enabled(true);
    lapi::Fabric fabric(cluster);
    SrmConfig cfg;
    cfg.decisions = sample_table();
    Communicator comm(cluster, fabric, cfg);
    EXPECT_EQ(
        decisions_span_args(cluster),
        R"({"source":"config","detail":"unit_test","profile":"unit_test"})");
  }
  // Env-artifact branch: the detail is the artifact path.
  {
    std::string path = ::testing::TempDir() + "/decision_test_span.json";
    DecisionTable art = sample_table();
    art.profile = "env_artifact";
    art.save(path);
    ASSERT_EQ(setenv("SRM_DECISIONS", path.c_str(), 1), 0);
    {
      machine::Cluster cluster(
          Fixture::make_cfg(2, 2, machine::MachineParams::ibm_sp()));
      cluster.obs().set_trace_enabled(true);
      lapi::Fabric fabric(cluster);
      Communicator comm(cluster, fabric, {});
      EXPECT_EQ(decisions_span_args(cluster),
                "{\"source\":\"env\",\"detail\":\"" + path +
                    "\",\"profile\":\"env_artifact\"}");
    }
    ASSERT_EQ(unsetenv("SRM_DECISIONS"), 0);
    std::remove(path.c_str());
  }
  // Tracing off: nothing recorded — provenance must not cost anything in
  // untraced runs.
  {
    machine::Cluster cluster(
        Fixture::make_cfg(2, 2, machine::MachineParams::ibm_sp()));
    lapi::Fabric fabric(cluster);
    Communicator comm(cluster, fabric, {});
    EXPECT_EQ(decisions_span_args(cluster), "");
  }
}

TEST(Resolution, SanitizerKeepsImpossibleRowsOffTheDispatch) {
  // A zoo algorithm on an op that has no such implementation must degrade
  // to a working path, never crash dispatch.
  SrmConfig cfg;
  cfg.decisions.profile = "forced";
  cfg.decisions.set(CollKind::allreduce, 0,
                    {Algo::scatter_ag, false, TreeKind::binomial});
  cfg.decisions.set(CollKind::bcast, 0,
                    {Algo::ring, false, TreeKind::binomial});
  cfg.decisions.set(CollKind::reduce, 0,
                    {Algo::ring, false, TreeKind::binomial});
  Fixture f(2, 2, cfg);
  EXPECT_EQ(f.comm.decide(CollKind::allreduce, 1024).algo, Algo::pipeline);
  EXPECT_EQ(f.comm.decide(CollKind::bcast, 1024).algo, Algo::direct);
  EXPECT_EQ(f.comm.decide(CollKind::reduce, 1024).algo, Algo::staged);
  // Staged bcast beyond the shared buffer degrades to the direct protocol.
  SrmConfig cfg2;
  cfg2.decisions.profile = "forced";
  cfg2.decisions.set(CollKind::bcast, 0,
                     {Algo::staged, false, TreeKind::binomial});
  Fixture g(2, 2, cfg2);
  EXPECT_EQ(g.comm.decide(CollKind::bcast, 1 << 20).algo, Algo::direct);
}

}  // namespace
}  // namespace srm
