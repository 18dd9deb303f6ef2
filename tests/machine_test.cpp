// Topology maps, network arithmetic, memory charges, shared segments, flags.
#include <gtest/gtest.h>

#include <cstring>

#include "machine/cluster.hpp"
#include "machine/network.hpp"
#include "machine/topology.hpp"
#include "shm/flag.hpp"
#include "shm/segment.hpp"

namespace srm {
namespace {

using machine::Cluster;
using machine::ClusterConfig;
using machine::MachineParams;
using machine::Network;
using machine::TaskCtx;
using machine::Topology;
using sim::CoTask;
using sim::Time;
using sim::us;

TEST(Topology, BlockPlacement) {
  Topology t(8, 16);
  EXPECT_EQ(t.nranks(), 128);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(15), 0);
  EXPECT_EQ(t.node_of(16), 1);
  EXPECT_EQ(t.node_of(127), 7);
  EXPECT_EQ(t.local_of(17), 1);
  EXPECT_EQ(t.rank_of(3, 5), 53);
  EXPECT_EQ(t.master_of(3), 48);
  EXPECT_TRUE(t.is_master(48));
  EXPECT_FALSE(t.is_master(49));
  EXPECT_TRUE(t.same_node(48, 63));
  EXPECT_FALSE(t.same_node(47, 48));
}

TEST(Topology, OutOfRangeChecks) {
  Topology t(2, 4);
  EXPECT_THROW(t.node_of(8), util::CheckError);
  EXPECT_THROW(t.node_of(-1), util::CheckError);
  EXPECT_THROW(t.rank_of(2, 0), util::CheckError);
  EXPECT_THROW(t.rank_of(0, 4), util::CheckError);
}

TEST(Network, UncontendedDeliveryTime) {
  sim::Engine eng;
  machine::NetworkParams p;
  p.gap = us(1);
  p.latency = us(10);
  p.bytes_per_sec = 1e9;  // 1 ns/B
  Network net(eng, p, 2);
  Time delivered = 0;
  net.inject(0, 1, 1000.0, [&] { delivered = eng.now(); });
  eng.run();
  // gap + latency + 1000 B * 1 ns/B = 1us + 10us + 1us
  EXPECT_EQ(delivered, us(12));
  EXPECT_EQ(net.messages(), 1u);
}

TEST(Network, EgressSerializesBackToBackMessages) {
  sim::Engine eng;
  machine::NetworkParams p;
  p.gap = us(1);
  p.latency = us(10);
  p.bytes_per_sec = 1e9;
  Network net(eng, p, 3);
  Time d1 = 0, d2 = 0;
  net.inject(0, 1, 1000.0, [&] { d1 = eng.now(); });
  net.inject(0, 2, 1000.0, [&] { d2 = eng.now(); });
  eng.run();
  EXPECT_EQ(d1, us(12));
  // Second message leaves the NIC only after the first fully departs (2us),
  // then gap + latency + serialization.
  EXPECT_EQ(d2, us(2) + us(12));
}

TEST(Network, IngressSerializesConcurrentSenders) {
  sim::Engine eng;
  machine::NetworkParams p;
  p.gap = us(1);
  p.latency = us(10);
  p.bytes_per_sec = 1e9;
  Network net(eng, p, 3);
  Time d1 = 0, d2 = 0;
  net.inject(0, 2, 1000.0, [&] { d1 = eng.now(); });
  net.inject(1, 2, 1000.0, [&] { d2 = eng.now(); });
  eng.run();
  EXPECT_EQ(d1, us(12));
  // Both heads arrive at 11us; the second payload waits for the first.
  EXPECT_EQ(d2, us(13));
}

TEST(Network, IntraNodeInjectForbidden) {
  sim::Engine eng;
  machine::NetworkParams p;
  Network net(eng, p, 2);
  EXPECT_THROW(net.inject(1, 1, 8.0, [] {}), util::CheckError);
}

TEST(Segment, CreateThenAttachSameStorage) {
  shm::Segment seg;
  auto a = seg.buffer("buf", 256);
  auto b = seg.buffer("buf", 256);
  EXPECT_EQ(a.data(), b.data());
  a[3] = std::byte{42};
  EXPECT_EQ(b[3], std::byte{42});
  EXPECT_EQ(seg.buffer_count(), 1u);
}

TEST(Segment, SizeMismatchThrows) {
  shm::Segment seg;
  seg.buffer("buf", 256);
  EXPECT_THROW(seg.buffer("buf", 128), util::CheckError);
}

TEST(Segment, BuffersAreZeroed) {
  shm::Segment seg;
  auto a = seg.buffer("z", 64);
  for (auto b : a) EXPECT_EQ(b, std::byte{0});
}

TEST(Segment, ScratchGrowsToLargestRequest) {
  shm::Segment seg;
  auto a = seg.scratch("s", 128);
  EXPECT_EQ(a.size(), 128u);
  auto b = seg.scratch("s", 64);  // smaller: the same storage, full size
  EXPECT_EQ(b.data(), a.data());
  EXPECT_EQ(b.size(), 128u);
  b[0] = std::byte{7};
  auto c = seg.scratch("s", 4096);  // larger: fresh zeroed storage
  EXPECT_EQ(c.size(), 4096u);
  for (auto x : c) EXPECT_EQ(x, std::byte{0});
  EXPECT_EQ(seg.buffer_count(), 0u);  // private memory, not a shared buffer
}

TEST(Segment, ObjectTypeMismatchThrows) {
  shm::Segment seg;
  sim::Engine eng;
  machine::MemoryParams mp;
  seg.object<shm::SharedFlag>("flag", eng, mp);
  EXPECT_THROW((seg.object<shm::FlagArray>("flag", eng, mp, 4)),
               util::CheckError);
}

CoTask flag_setter(sim::Engine& eng, shm::SharedFlag& f) {
  co_await eng.sleep(us(5));
  f.set(1);
}

CoTask flag_waiter(sim::Engine& eng, shm::SharedFlag& f, Time& when) {
  co_await f.await_value(1);
  when = eng.now();
}

TEST(SharedFlag, WaiterSeesStoreAfterPropagation) {
  sim::Engine eng;
  machine::MemoryParams mp;
  mp.flag_propagation = sim::ns(250);
  shm::SharedFlag f(eng, mp);
  Time when = 0;
  eng.spawn(flag_waiter(eng, f, when));
  eng.spawn(flag_setter(eng, f));
  eng.run();
  EXPECT_EQ(when, us(5) + sim::ns(250));
}

TEST(SharedFlag, CounterSemantics) {
  sim::Engine eng;
  machine::MemoryParams mp;
  shm::SharedFlag f(eng, mp);
  f.add(3);
  f.add(2);
  // The committed value is immediate; polled readers see it only after the
  // propagation events run.
  EXPECT_EQ(f.raw_get(), 5u);
  EXPECT_EQ(f.get(), 0u);
  eng.run();
  EXPECT_EQ(f.get(), 5u);
}

CoTask copy_prog(TaskCtx& t, std::vector<char>& dst, std::vector<char>& src,
                 Time& done) {
  co_await t.copy(dst.data(), src.data(), src.size());
  done = t.eng->now();
}

TEST(Cluster, ChargedCopyMovesRealBytesAtModelledCost) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.tasks_per_node = 1;
  cfg.params.mem.copy_bw_per_cpu = 500e6;
  cfg.params.mem.bus_bw_total = 4e9;
  cfg.params.mem.copy_startup = sim::ns(200);
  Cluster cl(cfg);
  std::vector<char> src(1 << 20, 'x'), dst(1 << 20, 0);
  Time done = 0;
  cl.run([&](TaskCtx& t) { return copy_prog(t, dst, src, done); });
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
  // 1 MiB at 500 MB/s = 2097152 ns, + 200 ns startup.
  EXPECT_EQ(done, sim::ns(200) + sim::ns(2097152));
}

CoTask contended_copy(TaskCtx& t, Time& done) {
  std::vector<char> src(1 << 20, 1), dst(1 << 20, 0);
  co_await t.copy(dst.data(), src.data(), src.size());
  done = t.eng->now();
}

TEST(Cluster, SixteenTasksContendOnNodeBus) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.tasks_per_node = 16;
  cfg.params.mem.copy_bw_per_cpu = 550e6;
  cfg.params.mem.bus_bw_total = 4e9;
  Cluster cl(cfg);
  std::vector<Time> done(16, 0);
  cl.run([&](TaskCtx& t) {
    return contended_copy(t, done[static_cast<size_t>(t.rank)]);
  });
  // All 16 share 4 GB/s -> 250 MB/s each; 1 MiB takes ~4.19 ms.
  for (auto d : done) {
    EXPECT_GT(d, sim::ms(4));
    EXPECT_LT(d, sim::ms(5));
  }
}

TEST(Cluster, TaskCtxGeometry) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.tasks_per_node = 8;
  Cluster cl(cfg);
  std::vector<int> nodes(32, -1), locals(32, -1);
  cl.run([&](TaskCtx& t) -> CoTask {
    nodes[static_cast<size_t>(t.rank)] = t.node();
    locals[static_cast<size_t>(t.rank)] = t.local();
    co_return;
  });
  EXPECT_EQ(nodes[0], 0);
  EXPECT_EQ(nodes[31], 3);
  EXPECT_EQ(locals[9], 1);
}

TEST(Cluster, SequentialRunsShareState) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.tasks_per_node = 2;
  Cluster cl(cfg);
  cl.run([&](TaskCtx& t) -> CoTask {
    if (t.rank == 0) t.nd->seg.buffer("persist", 8)[0] = std::byte{7};
    co_return;
  });
  std::byte seen{0};
  cl.run([&](TaskCtx& t) -> CoTask {
    if (t.rank == 1) seen = t.nd->seg.buffer("persist", 8)[0];
    co_return;
  });
  EXPECT_EQ(seen, std::byte{7});
}

TEST(MachineParams, EagerLimitScalesWithTasks) {
  auto p = MachineParams::ibm_sp();
  EXPECT_EQ(MachineParams::eager_limit(p.mpi_ibm, 16), 4096u);
  EXPECT_EQ(MachineParams::eager_limit(p.mpi_ibm, 64), 1024u);
  EXPECT_EQ(MachineParams::eager_limit(p.mpi_ibm, 256), 256u);
  EXPECT_EQ(MachineParams::eager_limit(p.mpi_mpich, 256), 4096u);
}

}  // namespace
}  // namespace srm
