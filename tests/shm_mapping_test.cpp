// shm::Mapping — the cross-address-space window primitive behind the
// single-copy collectives. Covers the handshake itself (publish / attach /
// detach / retract and generation accounting), the SRM_CHECK lifetime
// guards (double export, attach after retract, retract without export,
// detach without attach, retract while a peer is attached), the
// chk::Checker integration (owner reuse before retract is a detectable
// race; the retract handshake restores order; retract checks every peer
// access against the owner's reclaim and then stops tracking the window),
// and the end-to-end mapped
// protocols delivering correct data on a multi-node cluster — real and
// symbolic planes both.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "chk/chk.hpp"
#include "coll/payload.hpp"
#include "core/communicator.hpp"
#include "shm/mapping.hpp"

namespace srm {
namespace {

using machine::Cluster;
using machine::ClusterConfig;
using machine::TaskCtx;
using sim::CoTask;

ClusterConfig one_node(int p) {
  ClusterConfig c;
  c.nodes = 1;
  c.tasks_per_node = p;
  return c;
}

// --- the raw handshake -----------------------------------------------------

TEST(ShmMapping, RoundtripPublishAttachDetachRetract) {
  constexpr int kTasks = 4;
  constexpr std::size_t kBytes = 256;
  Cluster cluster(one_node(kTasks));
  shm::Mapping map(cluster.engine(), cluster.params().mem, kTasks, "win");

  std::vector<std::byte> src(kBytes);
  for (std::size_t i = 0; i < kBytes; ++i) src[i] = std::byte(i & 0xff);
  std::vector<std::vector<std::byte>> got(kTasks,
                                          std::vector<std::byte>(kBytes));

  cluster.run([&](TaskCtx& t) -> CoTask {
    if (t.local() == 0) {
      co_await map.publish(t, src.data(), kBytes);
      co_await map.retract(t, kTasks - 1);
      // retract returned: every reader of generation 1 has detached, the
      // buffer is private again.
      EXPECT_FALSE(map.exported(0));
    } else {
      shm::Mapping::Window w;
      co_await map.attach(t, /*owner=*/0, /*gen=*/1, &w);
      EXPECT_EQ(w.bytes, kBytes);
      std::memcpy(got[static_cast<std::size_t>(t.local())].data(), w.data,
                  w.bytes);
      map.detach(t, 0);
    }
  });

  EXPECT_EQ(map.generation(0), 1u);
  for (int l = 1; l < kTasks; ++l) {
    EXPECT_EQ(got[static_cast<std::size_t>(l)], src) << "reader " << l;
  }
}

TEST(ShmMapping, GenerationsAreMonotonicAcrossRounds) {
  constexpr int kRounds = 3;
  Cluster cluster(one_node(2));
  shm::Mapping map(cluster.engine(), cluster.params().mem, 2, "gen");

  double cell = 0.0;
  std::vector<double> seen;

  cluster.run([&](TaskCtx& t) -> CoTask {
    for (int r = 0; r < kRounds; ++r) {
      if (t.local() == 0) {
        // The retract of round r-1 already returned, so writing the buffer
        // here is the legal owner-side reuse the protocol promises.
        cell = 10.0 + r;
        co_await map.publish(t, &cell, sizeof cell);
        co_await map.retract(t, 1);
      } else {
        // Collective calls are deterministic: the peer mirrors the expected
        // generation privately instead of asking the owner.
        shm::Mapping::Window w;
        co_await map.attach(t, 0, static_cast<std::uint64_t>(r + 1), &w);
        seen.push_back(*reinterpret_cast<const double*>(w.data));
        map.detach(t, 0);
      }
    }
  });

  EXPECT_EQ(map.generation(0), static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kRounds));
  for (int r = 0; r < kRounds; ++r) {
    EXPECT_EQ(seen[static_cast<std::size_t>(r)], 10.0 + r);
  }
}

// --- lifetime guards -------------------------------------------------------

TEST(ShmMapping, DoubleExportThrows) {
  Cluster cluster(one_node(1));
  shm::Mapping map(cluster.engine(), cluster.params().mem, 1, "dbl");
  char a[16] = {};
  char b[16] = {};
  EXPECT_THROW(cluster.run([&](TaskCtx& t) -> CoTask {
    co_await map.publish(t, a, sizeof a);
    co_await map.publish(t, b, sizeof b);  // previous window still live
  }),
               util::CheckError);
}

TEST(ShmMapping, RetractWithoutExportThrows) {
  Cluster cluster(one_node(1));
  shm::Mapping map(cluster.engine(), cluster.params().mem, 1, "ret");
  EXPECT_THROW(cluster.run([&](TaskCtx& t) -> CoTask {
    co_await map.retract(t, 0);
  }),
               util::CheckError);
}

TEST(ShmMapping, AttachAfterRetractThrows) {
  Cluster cluster(one_node(2));
  shm::Mapping map(cluster.engine(), cluster.params().mem, 2, "uaf");
  // Orders the late attach strictly after the owner's retract.
  shm::SharedFlag gate(cluster.engine(), cluster.params().mem, 0, "gate");
  char buf[8] = {};
  EXPECT_THROW(cluster.run([&](TaskCtx& t) -> CoTask {
    if (t.local() == 0) {
      co_await map.publish(t, buf, sizeof buf);
      co_await map.retract(t, 0);  // no readers this generation
      gate.set(1, &t.chk);
    } else {
      co_await gate.await_at_least(1, &t.chk);
      shm::Mapping::Window w;
      co_await map.attach(t, 0, 1, &w);  // generation 1 is gone
    }
  }),
               util::CheckError);
}

TEST(ShmMapping, DetachWithoutAttachThrows) {
  Cluster cluster(one_node(2));
  shm::Mapping map(cluster.engine(), cluster.params().mem, 2, "det");
  EXPECT_THROW(cluster.run([&](TaskCtx& t) -> CoTask {
    if (t.local() == 1) map.detach(t, 0);
    co_return;
  }),
               util::CheckError);
}

// A peer count one short lets retract return while a reader still holds
// the window; whatever it reads next would race with the owner's reuse.
TEST(ShmMapping, RetractWhilePeerAttachedThrows) {
  Cluster cluster(one_node(2));
  shm::Mapping map(cluster.engine(), cluster.params().mem, 2, "early");
  // Orders the retract strictly after the peer's attach.
  shm::SharedFlag gate(cluster.engine(), cluster.params().mem, 0, "gate");
  char buf[8] = {};
  EXPECT_THROW(cluster.run([&](TaskCtx& t) -> CoTask {
    if (t.local() == 0) {
      co_await map.publish(t, buf, sizeof buf);
      co_await gate.await_at_least(1, &t.chk);
      co_await map.retract(t, 0);  // the attached peer is not counted
    } else {
      shm::Mapping::Window w;
      co_await map.attach(t, 0, 1, &w);
      gate.set(1, &t.chk);
      co_await t.delay(sim::us(10));  // still reading at the retract
      map.detach(t, 0);
    }
  }),
               util::CheckError);
}

// --- checker integration ---------------------------------------------------

// Reusing the exported buffer before retract() is exactly the bug the
// handshake exists to prevent: the owner's rewrite is unordered with a
// peer's in-window read, and the checker must say so.
TEST(ShmMapping, OwnerReuseBeforeRetractIsARace) {
  if (!chk::kEnabled) GTEST_SKIP() << "chk disabled in this build";
  Cluster cluster(one_node(2));
  cluster.checker().set_enabled(true);
  shm::Mapping map(cluster.engine(), cluster.params().mem, 2, "race");
  char buf[32] = {};

  cluster.run([&](TaskCtx& t) -> CoTask {
    if (t.local() == 0) {
      co_await map.publish(t, buf, sizeof buf);
      // Premature reuse: no retract() between the export and this write.
      co_await t.delay(sim::us(1));
      chk::note_write(t.chk, buf, sizeof buf);
      co_await map.retract(t, 1);
    } else {
      shm::Mapping::Window w;
      co_await map.attach(t, 0, 1, &w);
      chk::note_read(t.chk, w.data, w.bytes);
      map.detach(t, 0);
    }
  });

  EXPECT_FALSE(cluster.checker().reports().empty())
      << "owner rewrote a live window and no race was reported";
}

TEST(ShmMapping, RetractHandshakeOrdersOwnerReuse) {
  if (!chk::kEnabled) GTEST_SKIP() << "chk disabled in this build";
  Cluster cluster(one_node(2));
  cluster.checker().set_enabled(true);
  shm::Mapping map(cluster.engine(), cluster.params().mem, 2, "clean");
  char buf[32] = {};

  cluster.run([&](TaskCtx& t) -> CoTask {
    if (t.local() == 0) {
      co_await map.publish(t, buf, sizeof buf);
      co_await map.retract(t, 1);
      // Legal reuse: retract acquired the peer's detach, and its reclaim
      // write, which this one follows in program order, was checked
      // against the peer's read.
      chk::note_write(t.chk, buf, sizeof buf);
    } else {
      shm::Mapping::Window w;
      co_await map.attach(t, 0, 1, &w);
      chk::note_read(t.chk, w.data, w.bytes);
      map.detach(t, 0);
    }
  });

  // The export's write, the peer's read and retract's reclaim: the clean
  // report below covers the handshake, not an untracked buffer.
  EXPECT_EQ(cluster.checker().accesses_checked(), 3u);

  EXPECT_TRUE(cluster.checker().reports().empty());
}

// A read after the peer's own detach is not ordered by the handshake: the
// owner's retract reports it even though the owner never writes again.
TEST(ShmMapping, ReadAfterDetachIsReportedAtRetract) {
  if (!chk::kEnabled) GTEST_SKIP() << "chk disabled in this build";
  Cluster cluster(one_node(2));
  cluster.checker().set_enabled(true);
  shm::Mapping map(cluster.engine(), cluster.params().mem, 2, "late");
  char buf[32] = {};

  cluster.run([&](TaskCtx& t) -> CoTask {
    if (t.local() == 0) {
      co_await map.publish(t, buf, sizeof buf);
      co_await map.retract(t, 1);
    } else {
      shm::Mapping::Window w;
      co_await map.attach(t, 0, 1, &w);
      map.detach(t, 0);
      chk::note_read(t.chk, w.data, w.bytes);  // after the detach
    }
  });

  ASSERT_FALSE(cluster.checker().reports().empty())
      << "a read after detach went unreported";
  EXPECT_NE(cluster.checker().reports()[0].cur_stage.find("map.retract"),
            std::string::npos)
      << cluster.checker().reports()[0].to_string();
}

// A retracted window is its owner's memory again: the owner may free it
// and another task reuse the storage with no handshake at all, as the
// harness does with receive buffers between calls. The checker must not
// hold the window's readers against that later writer.
TEST(ShmMapping, RetractedWindowIsNoLongerAChkRegion) {
  if (!chk::kEnabled) GTEST_SKIP() << "chk disabled in this build";
  Cluster cluster(one_node(3));
  cluster.checker().set_enabled(true);
  shm::Mapping map(cluster.engine(), cluster.params().mem, 3, "reuse");
  char buf[32] = {};

  cluster.run([&](TaskCtx& t) -> CoTask {
    if (t.local() == 0) {
      co_await map.publish(t, buf, sizeof buf);
      co_await map.retract(t, 1);
    } else if (t.local() == 1) {
      shm::Mapping::Window w;
      co_await map.attach(t, 0, 1, &w);
      chk::note_read(t.chk, w.data, w.bytes);
      map.detach(t, 0);
    } else {
      // A later owner of the same storage, unordered with the reader.
      co_await t.delay(sim::us(5));
      chk::note_write(t.chk, buf, sizeof buf);
    }
  });

  EXPECT_TRUE(cluster.checker().reports().empty())
      << cluster.checker().reports()[0].to_string();
}

// --- end-to-end through the mapped collectives -----------------------------

SrmConfig mapped_cfg() {
  SrmConfig cfg;
  cfg.single_copy = true;
  // The paper's table with every row mapped: every size takes the window
  // path.
  cfg.decisions = coll::DecisionTable::ibm_sp();
  cfg.decisions.for_each_decision([](coll::Decision& d) { d.mapped = true; });
  return cfg;
}

TEST(ShmMappingE2E, MappedCollectivesDeliverCorrectData) {
  ClusterConfig cc;
  cc.nodes = 2;
  cc.tasks_per_node = 4;
  Cluster cluster(cc);
  lapi::Fabric fabric(cluster);
  Communicator comm(cluster, fabric, mapped_cfg());
  constexpr int kRanks = 8;
  constexpr std::size_t kElems = 512;

  cluster.run([&](TaskCtx& t) -> CoTask {
    // bcast from a non-leader root on the second node.
    std::vector<double> b(kElems, t.rank == 5 ? 3.25 : 0.0);
    co_await comm.bcast(t, coll::of(b.data(), kElems), 5);
    for (double v : b) EXPECT_EQ(v, 3.25);

    // reduce: sum of rank+1 over all ranks, to root 0.
    std::vector<double> mine(kElems, static_cast<double>(t.rank + 1));
    std::vector<double> out(kElems, 0.0);
    co_await comm.reduce(t, coll::of(mine.data(), kElems),
                         coll::of(out.data(), kElems), coll::RedOp::sum, 0);
    if (t.rank == 0) {
      for (double v : out) EXPECT_EQ(v, kRanks * (kRanks + 1) / 2.0);
    }

    // allreduce above the recursive-doubling cutoff rides reduce+bcast and
    // inherits both mapped paths.
    std::vector<double> all(kElems, 0.0);
    co_await comm.allreduce(t, coll::of(mine.data(), kElems),
                            coll::of(all.data(), kElems), coll::RedOp::sum);
    for (double v : all) EXPECT_EQ(v, kRanks * (kRanks + 1) / 2.0);

    // scatter + gather roundtrip through the root-node window paths.
    std::vector<double> blocks(kElems * kRanks, 0.0);
    if (t.rank == 0) {
      for (int r = 0; r < kRanks; ++r) {
        for (std::size_t i = 0; i < kElems; ++i) {
          blocks[static_cast<std::size_t>(r) * kElems + i] = r + 0.5;
        }
      }
    }
    std::vector<double> piece(kElems, 0.0);
    co_await comm.scatter(t, coll::of(blocks.data(), kElems),
                          coll::of(piece.data(), kElems), 0);
    for (double v : piece) EXPECT_EQ(v, t.rank + 0.5);

    std::vector<double> regather(t.rank == 0 ? kElems * kRanks : 0, 0.0);
    co_await comm.gather(
        t, coll::of(piece.data(), kElems),
        t.rank == 0 ? coll::of(regather.data(), kElems) : coll::Buf{}, 0);
    if (t.rank == 0) {
      for (int r = 0; r < kRanks; ++r) {
        for (std::size_t i = 0; i < kElems; ++i) {
          EXPECT_EQ(regather[static_cast<std::size_t>(r) * kElems + i],
                    r + 0.5);
        }
      }
    }
  });
}

TEST(ShmMappingE2E, MappedPathsAreRaceFreeUnderChecker) {
  if (!chk::kEnabled) GTEST_SKIP() << "chk disabled in this build";
  Cluster cluster(one_node(8));
  cluster.checker().set_enabled(true);
  lapi::Fabric fabric(cluster);
  Communicator comm(cluster, fabric, mapped_cfg());
  constexpr std::size_t kElems = 2048;

  cluster.run([&](TaskCtx& t) -> CoTask {
    std::vector<double> b(kElems, t.rank == 0 ? 1.5 : 0.0);
    co_await comm.bcast(t, coll::of(b.data(), kElems), 0);
    std::vector<double> mine(kElems, 1.0);
    std::vector<double> out(kElems, 0.0);
    co_await comm.reduce(t, coll::of(mine.data(), kElems),
                         coll::of(out.data(), kElems), coll::RedOp::sum, 0);
  });

  EXPECT_TRUE(cluster.checker().reports().empty());
}

TEST(ShmMappingE2E, SymbolicPlaneDispatchesWithSingleCopyOn) {
  // single_copy is a real-plane protocol switch; symbolic descriptors must
  // keep flowing through sym::Transport untouched, in the same session as
  // real mapped operations.
  ClusterConfig cc;
  cc.nodes = 2;
  cc.tasks_per_node = 2;
  Cluster cluster(cc);
  lapi::Fabric fabric(cluster);
  Communicator comm(cluster, fabric, mapped_cfg());
  constexpr std::size_t kBytes = 64 * 1024;
  coll::Payload pay(1, kBytes);
  pay.fill_pattern(coll::Dtype::kByte, 7);
  coll::Payload before = pay;

  cluster.run([&](TaskCtx& t) -> CoTask {
    co_await comm.bcast(t, coll::Buf::symbolic(pay, coll::Dtype::kByte, kBytes),
                        0);
    // Real mapped op after the symbolic one: the plane hand-off barrier and
    // the window bookkeeping must coexist.
    std::vector<double> b(kBytes / 8, t.rank == 0 ? 2.0 : 0.0);
    co_await comm.bcast(t, coll::of(b.data(), b.size()), 0);
    for (double v : b) EXPECT_EQ(v, 2.0);
  });

  // A broadcast moves bytes, it doesn't transform them: the symbolic image
  // must come out of the mapped-config session untouched.
  EXPECT_TRUE(pay.identical_to(before));
}

}  // namespace
}  // namespace srm
