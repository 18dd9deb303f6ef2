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
  t.set(CollKind::bcast, 8193,
        {Algo::staged, true, TreeKind::binary, TreeKind::binomial, 4096});
  t.set(CollKind::bcast, 65537, {Algo::scatter_ag, true, TreeKind::bine});
  t.set(CollKind::allreduce, 0, {Algo::rd, false, TreeKind::flat});
  t.set(CollKind::allreduce, 16385, {Algo::ring, false, TreeKind::binary});
  t.set(CollKind::allreduce, 1 << 20,
        {Algo::rhalving, true, TreeKind::fibonacci});
  t.set(CollKind::reduce, 4096, {Algo::pipeline, false, TreeKind::binomial});
  t.set(CollKind::reduce, 1 << 18,
        {Algo::staged, false, TreeKind::chain, TreeKind::chain});
  t.set(CollKind::gather, 0, {Algo::direct, true, TreeKind::binomial});
  // No call reads allgather rows, but older artifacts carry them.
  t.set(CollKind::allgather, 16384, {Algo::staged, true, TreeKind::binomial});
  return t;
}

TEST(DecisionTable, JsonRoundTripIsExact) {
  DecisionTable t = sample_table();
  EXPECT_NE(t.to_json().find(R"("chunk": 4096)"), std::string::npos);
  DecisionTable back = DecisionTable::from_json(t.to_json());
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.decide(CollKind::bcast, 16384).chunk, 4096u);
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

TEST(DecisionTable, IntranodeColumnSurvivesJsonRoundTrip) {
  DecisionTable t;
  t.set(CollKind::reduce, 0, {Algo::staged, false, TreeKind::binomial});
  t.set(CollKind::reduce, 65536,
        {Algo::staged, false, TreeKind::bine, TreeKind::binary});
  t.set(CollKind::allreduce, 0,
        {Algo::rd, false, TreeKind::binomial, TreeKind::flat});
  std::string json = t.to_json();
  EXPECT_NE(json.find(R"("intranode": "binary")"), std::string::npos) << json;
  DecisionTable back = DecisionTable::from_json(json);
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.decide(CollKind::reduce, 1 << 20).intranode,
            TreeKind::binary);
  EXPECT_EQ(back.decide(CollKind::reduce, 1 << 20).internode, TreeKind::bine);
  EXPECT_EQ(back.decide(CollKind::allreduce, 8).intranode, TreeKind::flat);
}

TEST(DecisionTable, ReducePipelineChunksSurviveJsonRoundTrip) {
  DecisionTable t;
  t.set(CollKind::reduce, 0, {Algo::staged, false, TreeKind::binomial});
  t.set(CollKind::reduce, 32 * 1024,
        {Algo::staged, true, TreeKind::binary, TreeKind::binary, 8192});
  t.set(CollKind::allreduce, 0, {Algo::rd, false, TreeKind::binomial});
  t.set(CollKind::allreduce, 16 * 1024,
        {Algo::pipeline, false, TreeKind::binomial, TreeKind::binary, 4096});
  std::string json = t.to_json();
  DecisionTable back = DecisionTable::from_json(json);
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.decide(CollKind::reduce, 1 << 20).chunk, 8192u);
  EXPECT_EQ(back.decide(CollKind::reduce, 1024).chunk, 0u);
  EXPECT_EQ(back.decide(CollKind::allreduce, 1 << 20).chunk, 4096u);
  EXPECT_EQ(back.to_json(), json);
}

TEST(DecisionTable, RowWithoutIntranodeLoadsBinomial) {
  // An artifact written before the intranode and chunk columns existed
  // still loads, as the paper's binomial intra-node tree and a staged
  // bcast step of the whole message.
  DecisionTable t = DecisionTable::from_json(
      R"({"version": 1, "profile": "old", "ops": {"reduce": [)"
      R"({"min_bytes": 0, "algo": "staged", "mapped": false,)"
      R"( "internode": "binary"}]}})");
  Decision d = t.decide(CollKind::reduce, 4096);
  EXPECT_EQ(d.intranode, TreeKind::binomial);
  EXPECT_EQ(d.internode, TreeKind::binary);
  EXPECT_EQ(d.chunk, 0u);
}

TEST(DecisionTable, FromJsonRejectsUnknownIntranodeTree) {
  EXPECT_THROW(
      DecisionTable::from_json(
          R"({"ops": {"reduce": [{"min_bytes": 0, "intranode": "star"}]}})"),
      util::CheckError);
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
  // The paper's trees: binomial between nodes and within them, every row.
  for (int k = 0; k < 8; ++k) {
    for (const auto& r : t.rows(static_cast<CollKind>(k))) {
      EXPECT_EQ(r.d.internode, TreeKind::binomial);
      EXPECT_EQ(r.d.intranode, TreeKind::binomial);
    }
  }
}

TEST(DecisionTable, IbmSpBcastRowsAreThePapersBand) {
  // The paper's §2.4 rule, as a reference: staged up to 64 KB, in 4 KB
  // chunks inside (8, 32] KB and in one step outside it, direct beyond,
  // mapped from 16 KB. The rows must dispatch every size the same.
  const SrmConfig cfg;
  const DecisionTable t = DecisionTable::ibm_sp();
  for (std::size_t b = 1; b <= 128 * 1024; ++b) {
    Decision d = cfg.sanitize(CollKind::bcast, t.decide(CollKind::bcast, b), b);
    bool staged = b <= 64 * 1024;
    std::size_t steps = 1;
    if (b > 8 * 1024 && b <= 32 * 1024) steps = (b + 4095) / 4096;
    ASSERT_EQ(d.algo, staged ? Algo::staged : Algo::direct) << b;
    ASSERT_EQ(d.mapped, b >= 16 * 1024) << b;
    if (staged) {
      std::size_t step = coll::bcast_step(d.chunk, b);
      ASSERT_EQ((b + step - 1) / step, steps) << b;
    }
  }
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

TEST(Feasibility, OneStagedBcastStepMustFitTheSharedBuffer) {
  const SrmConfig cfg;  // 64 KB Fig. 3 buffers
  const std::size_t mib = 1 << 20;
  auto staged = [](std::size_t chunk) {
    return Decision{Algo::staged, false, TreeKind::binomial,
                    TreeKind::binomial, chunk};
  };
  // Unchunked: the step is the message.
  EXPECT_EQ(cfg.sanitize(CollKind::bcast, staged(0), cfg.smp_buf_bytes).algo,
            Algo::staged);
  EXPECT_EQ(
      cfg.sanitize(CollKind::bcast, staged(0), cfg.smp_buf_bytes + 1).algo,
      Algo::direct);
  // A chunk that fits carries any size, and keeps its column.
  EXPECT_EQ(cfg.sanitize(CollKind::bcast, staged(32 * 1024), mib),
            staged(32 * 1024));
  EXPECT_EQ(cfg.sanitize(CollKind::bcast, staged(cfg.smp_buf_bytes), mib).algo,
            Algo::staged);
  // A chunk beyond the buffer reroutes once a step would fill it.
  EXPECT_EQ(cfg.sanitize(CollKind::bcast, staged(128 * 1024), mib),
            (Decision{Algo::direct, false, TreeKind::binomial,
                      TreeKind::binomial, 128 * 1024}));
  EXPECT_EQ(cfg.sanitize(CollKind::bcast, staged(128 * 1024), 32 * 1024).algo,
            Algo::staged);
  // rd does not read the column: it stays capped by its slot.
  Decision rd{Algo::rd, false, TreeKind::binomial, TreeKind::binomial, 4096};
  EXPECT_EQ(cfg.sanitize(CollKind::allreduce, rd, mib).algo, Algo::pipeline);
}

TEST(Feasibility, OneReduceStepMustFitOneSlot) {
  const SrmConfig cfg;  // 16 KB reduce slots
  const std::size_t mib = 1 << 20;
  auto row = [](Algo a, std::size_t chunk) {
    return Decision{a, true, TreeKind::binary, TreeKind::chain, chunk};
  };
  // The step rule: the row's chunk, or one slot when it sets none.
  EXPECT_EQ(coll::reduce_step(0, cfg.reduce_chunk), cfg.reduce_chunk);
  EXPECT_EQ(coll::reduce_step(4096, cfg.reduce_chunk), 4096u);
  // A chunk up to one slot is the step at any size, and keeps its columns.
  for (std::size_t chunk : {std::size_t{3}, std::size_t{4096},
                            cfg.reduce_chunk}) {
    EXPECT_EQ(cfg.sanitize(CollKind::reduce, row(Algo::staged, chunk), mib),
              row(Algo::staged, chunk));
    EXPECT_EQ(
        cfg.sanitize(CollKind::allreduce, row(Algo::pipeline, chunk), mib),
        row(Algo::pipeline, chunk));
  }
  // Above one slot: chunk 0, the paper's step; the algorithm stays.
  EXPECT_EQ(cfg.sanitize(CollKind::reduce,
                         row(Algo::staged, cfg.reduce_chunk + 8), mib),
            row(Algo::staged, 0));
  EXPECT_EQ(cfg.sanitize(CollKind::allreduce,
                         row(Algo::pipeline, 32 * 1024), 8),
            row(Algo::pipeline, 0));
  // rd, ring and rhalving ignore the column: no chunk reroutes or resets
  // them.
  for (Algo a : {Algo::ring, Algo::rhalving}) {
    EXPECT_EQ(cfg.sanitize(CollKind::allreduce, row(a, 32 * 1024), mib),
              row(a, 32 * 1024));
  }
  EXPECT_EQ(cfg.sanitize(CollKind::allreduce, row(Algo::rd, 32 * 1024), 8),
            row(Algo::rd, 32 * 1024));
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
