// Mutation self-test: hand-build the paper's intra-node flag protocols —
// the Fig. 3 broadcast (leader fills a shared buffer, raises per-consumer
// READY flags; consumers copy out and lower their flag; the leader waits
// for all flags to drop before refilling), the Fig. 2 reduce tree
// (children deposit partial results into staging slots guarded by
// published/consumed counters), the flat barrier (workers signal
// per-worker flags, the master gathers them and raises a release flag),
// and the root-free reduce_scatter owner (combines each source's landed
// partial once its landed count rises) and share-form head (reads a step
// once its slot's share count is full), and the root-free allgather's
// ring leader (publishes each node block once its arrival count rises),
// and the socket head that forwards its window once every local's share
// of the node segment is counted — and verify that srm::chk
//   (a) stays silent on each correct protocol, and
//   (b) flags each deliberately broken handshake: reordered publishes and
//       skipped gates as data races, dropped signals as engine deadlocks.
// This proves the checker actually detects the class of bug it exists for —
// a clean report elsewhere is not a vacuous pass.
//
// Every seeded bug here has an abstract twin in srm::mc's mutation gauntlet
// (src/mc/protocols.cpp): reduce.publish_before_write,
// reduce.drop_consumed_gate, barrier.drop_worker_signal, barrier.drop_release,
// rs_direct.drop_landed_wait, sc_reduce_scatter.one_share_count,
// ag_direct.publish_before_arrival,
// sc_allgather.copy_before_ready, sc_allgather.forward_before_assembled and
// the Fig. 3 bcast mutants, bcast.drop_far_slice_wait included.
// tests/mc_protocols_test.cpp asserts the model checker catches those; this
// file asserts the concrete checker catches the same handshake breaks, so
// each bug is flagged by both layers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "chk/chk.hpp"
#include "machine/params.hpp"
#include "shm/flag.hpp"
#include "shm/segment.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace srm {
namespace {

constexpr int kConsumers = 3;
constexpr std::size_t kBuf = 512;
constexpr int kRounds = 3;

struct Fig3 {
  sim::Engine eng;
  machine::MemoryParams mp;
  chk::Checker chk{eng, kConsumers + 1};
  shm::Segment seg;
  std::span<std::byte> buf;
  shm::FlagArray* ready;
  std::vector<chk::TaskChk> tasks;

  Fig3() {
    chk.set_enabled(true);
    seg.set_checker(&chk);
    buf = seg.buffer("bc_buf", kBuf);
    ready = &seg.object<shm::FlagArray>("ready", eng, mp, kConsumers, 0,
                                        "ready");
    for (int a = 0; a <= kConsumers; ++a) tasks.push_back({&chk, a});
  }
};

// Per-round flag values are monotonic so a stale (not yet propagated) read
// can never satisfy the wrong round's wait: the leader publishes round r by
// setting the flag to 2r+1, the consumer acknowledges by setting 2r+2.
//
// Leader = actor 0. `broken` skips the wait-for-acks before refilling.
sim::CoTask leader(Fig3& f, bool broken) {
  chk::TaskChk& me = f.tasks[0];
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0 && !broken) {
      for (int c = 0; c < kConsumers; ++c) {
        co_await (*f.ready)[c].await_value(
            static_cast<std::uint64_t>(2 * round), &me);
      }
    }
    // Model the fill taking a moment — long enough that, when broken, the
    // round r+1 refill lands while consumers are still copying round r out.
    co_await f.eng.sleep(sim::ns(400));
    chk::note_write(me, f.buf.data(), kBuf);
    std::memset(f.buf.data(), round + 1, kBuf);
    for (int c = 0; c < kConsumers; ++c) {
      (*f.ready)[c].set(static_cast<std::uint64_t>(2 * round + 1), &me);
    }
  }
}

sim::CoTask consumer(Fig3& f, int c, std::vector<int>& sum) {
  chk::TaskChk& me = f.tasks[static_cast<std::size_t>(c + 1)];
  for (int round = 0; round < kRounds; ++round) {
    co_await (*f.ready)[c].await_value(
        static_cast<std::uint64_t>(2 * round + 1), &me);
    // Model the copy-out taking real time: read, dwell, read again.
    chk::note_read(me, f.buf.data(), kBuf);
    sum[static_cast<std::size_t>(c)] += static_cast<int>(f.buf[0]);
    co_await f.eng.sleep(sim::ns(400));
    chk::note_read(me, f.buf.data(), kBuf);
    (*f.ready)[c].set(static_cast<std::uint64_t>(2 * round + 2), &me);
  }
}

int run_fig3(bool broken, std::string* first_report) {
  Fig3 f;
  std::vector<int> sum(kConsumers, 0);
  f.eng.spawn(leader(f, broken));
  for (int c = 0; c < kConsumers; ++c) f.eng.spawn(consumer(f, c, sum));
  try {
    f.eng.run();
  } catch (const util::CheckError&) {
    // The broken handshake may also strand consumers (a missed flag value);
    // the interesting artifact is the race report recorded before that.
    EXPECT_TRUE(broken) << "correct protocol must not deadlock";
  }
  if (chk::kEnabled) {
    EXPECT_GT(f.chk.accesses_checked(), 0u);
  }
  if (first_report != nullptr && !f.chk.reports().empty()) {
    *first_report = f.chk.reports()[0].to_string();
  }
  return static_cast<int>(f.chk.reports().size());
}

TEST(Fig3Mutation, CorrectProtocolIsClean) {
  std::string report;
  int races = run_fig3(/*broken=*/false, &report);
  EXPECT_EQ(races, 0) << report;
}

TEST(Fig3Mutation, BrokenHandshakeIsReported) {
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  std::string report;
  int races = run_fig3(/*broken=*/true, &report);
  EXPECT_GT(races, 0)
      << "leader refilled before consumers cleared READY — the checker "
         "must flag the unordered write/read pair";
  // The report names the shared buffer and both parties.
  EXPECT_NE(report.find("bc_buf"), std::string::npos) << report;
}

// ---------------------------------------------------------------------------
// Socket-aware Fig. 3 publish: the consumers are the far group of one
// socket. Each copies its slice of the leader's buffer into the group's far
// buffer, bumps the shared slice counter, awaits every slice (the
// cumulative target), and only then reads the whole far buffer. Dropping
// that await lets a consumer read slices its peers are still writing.
// ---------------------------------------------------------------------------

struct FarFig3 : Fig3 {
  std::span<std::byte> far;
  shm::SharedFlag* filled;

  FarFig3() {
    far = seg.buffer("bc_far", kBuf);
    filled = &seg.object<shm::SharedFlag>("filled", eng, mp, 0, "filled");
  }
};

sim::CoTask far_consumer(FarFig3& f, int c, bool drop_slice_wait,
                         std::vector<int>& sum) {
  chk::TaskChk& me = f.tasks[static_cast<std::size_t>(c + 1)];
  constexpr std::size_t kPiece = (kBuf + kConsumers - 1) / kConsumers;
  std::size_t lo = std::min(kPiece * static_cast<std::size_t>(c), kBuf);
  std::size_t hi = std::min(lo + kPiece, kBuf);
  for (int round = 0; round < kRounds; ++round) {
    co_await (*f.ready)[c].await_value(
        static_cast<std::uint64_t>(2 * round + 1), &me);
    chk::note_read(me, f.buf.data() + lo, hi - lo);
    std::memcpy(f.far.data() + lo, f.buf.data() + lo, hi - lo);
    chk::note_write(me, f.far.data() + lo, hi - lo);
    co_await f.eng.sleep(sim::ns(400));
    f.filled->add(1, &me);
    if (!drop_slice_wait) {
      co_await f.filled->await_at_least(
          static_cast<std::uint64_t>(kConsumers * (round + 1)), &me);
    }
    chk::note_read(me, f.far.data(), kBuf);
    sum[static_cast<std::size_t>(c)] += static_cast<int>(f.far[kBuf - 1]);
    (*f.ready)[c].set(static_cast<std::uint64_t>(2 * round + 2), &me);
  }
}

int run_far_fig3(bool drop_slice_wait, std::string* first_report) {
  FarFig3 f;
  std::vector<int> sum(kConsumers, 0);
  f.eng.spawn(leader(f, /*broken=*/false));
  for (int c = 0; c < kConsumers; ++c) {
    f.eng.spawn(far_consumer(f, c, drop_slice_wait, sum));
  }
  f.eng.run();
  if (!drop_slice_wait) {
    // Every consumer saw every round's last slice: 1 + 2 + 3.
    for (int v : sum) EXPECT_EQ(v, kRounds * (kRounds + 1) / 2);
  }
  if (first_report != nullptr && !f.chk.reports().empty()) {
    *first_report = f.chk.reports()[0].to_string();
  }
  return static_cast<int>(f.chk.reports().size());
}

TEST(Fig3Mutation, FarGroupSplitIsClean) {
  std::string report;
  int races = run_far_fig3(/*drop_slice_wait=*/false, &report);
  EXPECT_EQ(races, 0) << report;
}

TEST(Fig3Mutation, DroppedFarSliceWaitIsReported) {
  // mc twin: bcast.drop_far_slice_wait.
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  std::string report;
  int races = run_far_fig3(/*drop_slice_wait=*/true, &report);
  EXPECT_GT(races, 0)
      << "a far reader read the far buffer before every slice landed — the "
         "checker must flag the unordered slice write/read pair";
  EXPECT_NE(report.find("bc_far"), std::string::npos) << report;
}

// ---------------------------------------------------------------------------
// Fig. 2 intra-node reduce: children deposit partial results into per-child
// staging slots; a `published` counter tells the leader a slot is full, a
// `consumed` counter tells the child the leader is done combining from it
// (slot reuse gate). Counter values are round numbers, so they are monotonic.
// ---------------------------------------------------------------------------

enum class ReduceMutant {
  none,
  publish_before_write,  // mc twin: reduce.publish_before_write
  drop_consumed_gate,    // mc twin: reduce.drop_consumed_gate
};

constexpr std::size_t kSlot = 128;

struct Fig2 {
  sim::Engine eng;
  machine::MemoryParams mp;
  chk::Checker chk{eng, kConsumers + 1};
  shm::Segment seg;
  std::span<std::byte> stage;  // kConsumers slots of kSlot bytes
  shm::FlagArray* pub;
  shm::FlagArray* cons;
  std::vector<chk::TaskChk> tasks;

  Fig2() {
    chk.set_enabled(true);
    seg.set_checker(&chk);
    stage = seg.buffer("rd_stage", kConsumers * kSlot);
    pub = &seg.object<shm::FlagArray>("pub", eng, mp, kConsumers, 0, "pub");
    cons = &seg.object<shm::FlagArray>("cons", eng, mp, kConsumers, 0, "cons");
    for (int a = 0; a <= kConsumers; ++a) tasks.push_back({&chk, a});
  }

  std::byte* slot(int c) {
    return stage.data() + static_cast<std::size_t>(c) * kSlot;
  }
};

sim::CoTask reduce_child(Fig2& f, int c, ReduceMutant mut) {
  chk::TaskChk& me = f.tasks[static_cast<std::size_t>(c + 1)];
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0 && mut != ReduceMutant::drop_consumed_gate) {
      // Slot-reuse gate: the leader finished combining the previous round.
      co_await (*f.cons)[c].await_value(static_cast<std::uint64_t>(round),
                                        &me);
    }
    if (mut == ReduceMutant::publish_before_write) {
      // The reordered counter bump: the leader may start combining a slot
      // this child is still writing.
      (*f.pub)[c].set(static_cast<std::uint64_t>(round + 1), &me);
      co_await f.eng.sleep(sim::ns(400));
      chk::note_write(me, f.slot(c), kSlot);
      std::memset(f.slot(c), round + 1, kSlot);
    } else {
      chk::note_write(me, f.slot(c), kSlot);
      std::memset(f.slot(c), round + 1, kSlot);
      co_await f.eng.sleep(sim::ns(400));
      chk::note_write(me, f.slot(c), kSlot);
      (*f.pub)[c].set(static_cast<std::uint64_t>(round + 1), &me);
    }
  }
}

sim::CoTask reduce_leader(Fig2& f, std::vector<int>& total) {
  chk::TaskChk& me = f.tasks[0];
  for (int round = 0; round < kRounds; ++round) {
    for (int c = 0; c < kConsumers; ++c) {
      co_await (*f.pub)[c].await_value(static_cast<std::uint64_t>(round + 1),
                                       &me);
    }
    // Model the combine taking real time: read, dwell, read again.
    for (int c = 0; c < kConsumers; ++c) chk::note_read(me, f.slot(c), kSlot);
    total[static_cast<std::size_t>(round)] +=
        static_cast<int>(f.stage[0]);
    co_await f.eng.sleep(sim::ns(400));
    for (int c = 0; c < kConsumers; ++c) {
      chk::note_read(me, f.slot(c), kSlot);
      (*f.cons)[c].set(static_cast<std::uint64_t>(round + 1), &me);
    }
  }
}

int run_fig2(ReduceMutant mut, std::string* first_report) {
  Fig2 f;
  std::vector<int> total(kRounds, 0);
  f.eng.spawn(reduce_leader(f, total));
  for (int c = 0; c < kConsumers; ++c) f.eng.spawn(reduce_child(f, c, mut));
  try {
    f.eng.run();
  } catch (const util::CheckError&) {
    EXPECT_TRUE(mut != ReduceMutant::none)
        << "correct reduce must not deadlock";
  }
  if (chk::kEnabled) {
    EXPECT_GT(f.chk.accesses_checked(), 0u);
  }
  if (first_report != nullptr && !f.chk.reports().empty()) {
    *first_report = f.chk.reports()[0].to_string();
  }
  return static_cast<int>(f.chk.reports().size());
}

TEST(Fig2Mutation, CorrectProtocolIsClean) {
  std::string report;
  int races = run_fig2(ReduceMutant::none, &report);
  EXPECT_EQ(races, 0) << report;
}

TEST(Fig2Mutation, PublishBeforeWriteIsReported) {
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  std::string report;
  int races = run_fig2(ReduceMutant::publish_before_write, &report);
  EXPECT_GT(races, 0)
      << "child published its slot before writing it — the leader's combine "
         "read is unordered against the child's write";
  EXPECT_NE(report.find("rd_stage"), std::string::npos) << report;
}

TEST(Fig2Mutation, DroppedConsumedGateIsReported) {
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  std::string report;
  int races = run_fig2(ReduceMutant::drop_consumed_gate, &report);
  EXPECT_GT(races, 0)
      << "child reused its slot without waiting for the consumed counter — "
         "the next-round write is unordered against the leader's combine";
  EXPECT_NE(report.find("rd_stage"), std::string::npos) << report;
}

// ---------------------------------------------------------------------------
// Flat barrier guarding a shared buffer: each worker writes its slice, then
// signals its per-worker flag; the master gathers every signal, combines the
// whole buffer into its result slice, and raises the release flag; workers
// read the result slice only after seeing the release. The gather orders the
// master's reads after the workers' writes, and the release orders the
// workers' reads (and next-round writes) after the master's combine. Flag
// values are round numbers (monotonic).
// ---------------------------------------------------------------------------

enum class BarrierMutant {
  none,
  release_early,        // master skips the gather — race on the buffer
  drop_worker_signal,   // mc twin: barrier.drop_worker_signal (deadlock)
  drop_release,         // mc twin: barrier.drop_release (deadlock)
};

constexpr int kWorkers = 3;

struct FlatBarrier {
  sim::Engine eng;
  machine::MemoryParams mp;
  chk::Checker chk{eng, kWorkers + 1};
  shm::Segment seg;
  std::span<std::byte> buf;  // kWorkers + 1 slices of kSlot bytes
  shm::FlagArray* bar;
  shm::FlagArray* release;
  std::vector<chk::TaskChk> tasks;

  FlatBarrier() {
    chk.set_enabled(true);
    seg.set_checker(&chk);
    buf = seg.buffer("bar_buf", (kWorkers + 1) * kSlot);
    bar = &seg.object<shm::FlagArray>("bar", eng, mp, kWorkers, 0, "bar");
    release = &seg.object<shm::FlagArray>("rel", eng, mp, 1, 0, "rel");
    for (int a = 0; a <= kWorkers; ++a) tasks.push_back({&chk, a});
  }

  std::byte* slice(int a) {
    return buf.data() + static_cast<std::size_t>(a) * kSlot;
  }
};

sim::CoTask barrier_worker(FlatBarrier& f, int w, BarrierMutant mut) {
  chk::TaskChk& me = f.tasks[static_cast<std::size_t>(w)];
  for (int round = 0; round < kRounds; ++round) {
    // Model the slice fill taking real time: write, dwell, write again.
    chk::note_write(me, f.slice(w), kSlot);
    std::memset(f.slice(w), round + 1, kSlot);
    co_await f.eng.sleep(sim::ns(400));
    chk::note_write(me, f.slice(w), kSlot);
    bool drop = mut == BarrierMutant::drop_worker_signal && w == kWorkers;
    if (!drop) {
      (*f.bar)[w - 1].set(static_cast<std::uint64_t>(round + 1), &me);
    }
    co_await (*f.release)[0].await_value(static_cast<std::uint64_t>(round + 1),
                                         &me);
    chk::note_read(me, f.slice(0), kSlot);  // the master's combined result
  }
}

sim::CoTask barrier_master(FlatBarrier& f, BarrierMutant mut) {
  chk::TaskChk& me = f.tasks[0];
  for (int round = 0; round < kRounds; ++round) {
    if (mut != BarrierMutant::release_early) {
      for (int w = 0; w < kWorkers; ++w) {
        co_await (*f.bar)[w].await_value(static_cast<std::uint64_t>(round + 1),
                                         &me);
      }
    }
    // Model the combine taking real time: read all slices, dwell, read again,
    // then deposit the result in the master's slice.
    chk::note_read(me, f.buf.data(), f.buf.size());
    co_await f.eng.sleep(sim::ns(400));
    chk::note_read(me, f.buf.data(), f.buf.size());
    chk::note_write(me, f.slice(0), kSlot);
    std::memset(f.slice(0), round + 1, kSlot);
    if (mut != BarrierMutant::drop_release) {
      (*f.release)[0].set(static_cast<std::uint64_t>(round + 1), &me);
    }
  }
}

struct BarrierOutcome {
  int races = 0;
  bool deadlocked = false;
  std::string detail;  // first race report or the engine's deadlock dump
};

BarrierOutcome run_barrier(BarrierMutant mut) {
  FlatBarrier f;
  f.eng.spawn(barrier_master(f, mut));
  for (int w = 1; w <= kWorkers; ++w) f.eng.spawn(barrier_worker(f, w, mut));
  BarrierOutcome out;
  try {
    f.eng.run();
  } catch (const util::CheckError& e) {
    out.deadlocked = true;
    out.detail = e.what();
  }
  if (chk::kEnabled) {
    EXPECT_GT(f.chk.accesses_checked(), 0u);
  }
  out.races = static_cast<int>(f.chk.reports().size());
  if (out.races > 0 && out.detail.empty()) {
    out.detail = f.chk.reports()[0].to_string();
  }
  return out;
}

TEST(FlatBarrierMutation, CorrectProtocolIsClean) {
  BarrierOutcome out = run_barrier(BarrierMutant::none);
  EXPECT_FALSE(out.deadlocked) << out.detail;
  EXPECT_EQ(out.races, 0) << out.detail;
}

TEST(FlatBarrierMutation, EarlyReleaseIsReported) {
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  BarrierOutcome out = run_barrier(BarrierMutant::release_early);
  EXPECT_GT(out.races, 0)
      << "master released without gathering — its whole-buffer read is "
         "unordered against the workers' slice writes";
  EXPECT_NE(out.detail.find("bar_buf"), std::string::npos) << out.detail;
}

TEST(FlatBarrierMutation, DroppedWorkerSignalDeadlocks) {
  BarrierOutcome out = run_barrier(BarrierMutant::drop_worker_signal);
  EXPECT_TRUE(out.deadlocked)
      << "a worker that never signals must wedge the master's gather";
  EXPECT_NE(out.detail.find("bar"), std::string::npos) << out.detail;
}

TEST(FlatBarrierMutation, DroppedReleaseDeadlocks) {
  BarrierOutcome out = run_barrier(BarrierMutant::drop_release);
  EXPECT_TRUE(out.deadlocked)
      << "a master that never releases must wedge every worker";
  EXPECT_NE(out.detail.find("rel"), std::string::npos) << out.detail;
}

// ---------------------------------------------------------------------------
// Root-free reduce_scatter owner (core/reduce_scatter.cpp): each source
// domain's partial of the owner's block lands in that domain's slot, and
// the slot's landed count rises once it is there; the owner awaits each
// count before combining that partial. The last source lands late.
// ---------------------------------------------------------------------------

constexpr int kSources = 3;

struct RsOwner {
  sim::Engine eng;
  machine::MemoryParams mp;
  chk::Checker chk{eng, kSources + 1};
  shm::Segment seg;
  std::span<std::byte> land;  // kSources slots of kSlot bytes
  shm::FlagArray* landed;
  std::vector<chk::TaskChk> tasks;

  RsOwner() {
    chk.set_enabled(true);
    seg.set_checker(&chk);
    land = seg.buffer("rs_land", kSources * kSlot);
    landed = &seg.object<shm::FlagArray>("landed", eng, mp, kSources, 0,
                                         "landed");
    for (int a = 0; a <= kSources; ++a) tasks.push_back({&chk, a});
  }

  std::byte* slot(int s) {
    return land.data() + static_cast<std::size_t>(s) * kSlot;
  }
};

sim::CoTask rs_source(RsOwner& f, int s) {
  chk::TaskChk& me = f.tasks[static_cast<std::size_t>(s + 1)];
  co_await f.eng.sleep(sim::ns(300) * static_cast<sim::Duration>(s + 1));
  chk::note_write(me, f.slot(s), kSlot);
  std::memset(f.slot(s), s + 1, kSlot);
  (*f.landed)[s].set(1, &me);
}

/// @p drop_last_wait: the owner combines the last source's partial
/// without awaiting its landed count (mc twin: rs_direct.drop_landed_wait).
sim::CoTask rs_owner(RsOwner& f, bool drop_last_wait, int& sum) {
  chk::TaskChk& me = f.tasks[0];
  for (int s = 0; s < kSources; ++s) {
    if (!(drop_last_wait && s == kSources - 1)) {
      co_await (*f.landed)[s].await_value(1, &me);
    }
    chk::note_read(me, f.slot(s), kSlot);
    sum += static_cast<int>(f.slot(s)[0]);
    co_await f.eng.sleep(sim::ns(100));
  }
}

int run_rs_owner(bool drop_last_wait, std::string* first_report) {
  RsOwner f;
  int sum = 0;
  f.eng.spawn(rs_owner(f, drop_last_wait, sum));
  for (int s = 0; s < kSources; ++s) f.eng.spawn(rs_source(f, s));
  f.eng.run();
  if (chk::kEnabled) {
    EXPECT_GT(f.chk.accesses_checked(), 0u);
  }
  if (!drop_last_wait) {
    EXPECT_EQ(sum, kSources * (kSources + 1) / 2);
  }
  if (first_report != nullptr && !f.chk.reports().empty()) {
    *first_report = f.chk.reports()[0].to_string();
  }
  return static_cast<int>(f.chk.reports().size());
}

TEST(RsOwnerMutation, CorrectProtocolIsClean) {
  std::string report;
  int races = run_rs_owner(/*drop_last_wait=*/false, &report);
  EXPECT_EQ(races, 0) << report;
}

TEST(RsOwnerMutation, DroppedLastPartialWaitIsReported) {
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  std::string report;
  int races = run_rs_owner(/*drop_last_wait=*/true, &report);
  EXPECT_GT(races, 0)
      << "the owner combined the last source's partial before it landed — "
         "its read is unordered against the deposit";
  EXPECT_NE(report.find("rs_land"), std::string::npos) << report;
}

// ---------------------------------------------------------------------------
// Root-free reduce_scatter share form (core/reduce_scatter.cpp): every local
// of a domain writes its share of each step into its head's slot (A/B by
// step) and adds one to that slot's share count; the head awaits its
// slot's count before it reads (puts) the step. The last mate is slow.
// ---------------------------------------------------------------------------

constexpr int kSharers = 3;  // the head and two mates
constexpr int kShareSteps = 2;

struct Shares {
  sim::Engine eng;
  machine::MemoryParams mp;
  chk::Checker chk{eng, kSharers};
  shm::Segment seg;
  std::span<std::byte> slots;  // the A/B slots, kSlot bytes each
  shm::FlagArray* count;       // per slot
  std::vector<chk::TaskChk> tasks;

  Shares() {
    chk.set_enabled(true);
    seg.set_checker(&chk);
    slots = seg.buffer("rs_head_slot", 2 * kSlot);
    count = &seg.object<shm::FlagArray>("shares", eng, mp, 2, 0, "shares");
    for (int a = 0; a < kSharers; ++a) tasks.push_back({&chk, a});
  }

  std::byte* slot(int step) {
    return slots.data() + static_cast<std::size_t>(step % 2) * kSlot;
  }
};

/// Local @p r's shares of every step; local 0 is the head, which then
/// reads the step and counts the bytes that hold it in @p complete.
/// @p one_count counts both slots on one count, awaited at each slot's own
/// target (mc twin: sc_reduce_scatter.one_share_count): the fast mate's
/// share of step 1 meets step 0's target, and step 0's shares meet step
/// 1's.
sim::CoTask sharer(Shares& f, int r, bool one_count, int& complete) {
  chk::TaskChk& me = f.tasks[static_cast<std::size_t>(r)];
  const std::size_t lo = kSlot * static_cast<std::size_t>(r) / kSharers;
  const std::size_t hi = kSlot * static_cast<std::size_t>(r + 1) / kSharers;
  for (int s = 0; s < kShareSteps; ++s) {
    if (r == kSharers - 1 && s == 0) co_await f.eng.sleep(sim::ns(500));
    chk::note_write(me, f.slot(s) + lo, hi - lo);
    std::memset(f.slot(s) + lo, s + 1, hi - lo);
    shm::SharedFlag& count = (*f.count)[one_count ? 0 : s % 2];
    count.add(1, &me);
    if (r != 0) continue;
    auto due = static_cast<std::uint64_t>(kSharers * (s / 2 + 1));
    co_await count.await_at_least(due, &me);
    chk::note_read(me, f.slot(s), kSlot);
    complete += static_cast<int>(std::count(
        f.slot(s), f.slot(s) + kSlot, static_cast<std::byte>(s + 1)));
  }
}

int run_shares(bool one_count, std::string* first_report) {
  Shares f;
  int complete = 0;
  for (int r = 0; r < kSharers; ++r) {
    f.eng.spawn(sharer(f, r, one_count, complete));
  }
  f.eng.run();
  if (!one_count) {
    EXPECT_EQ(complete, kShareSteps * static_cast<int>(kSlot));
  }
  if (first_report != nullptr && !f.chk.reports().empty()) {
    *first_report = f.chk.reports()[0].to_string();
  }
  return static_cast<int>(f.chk.reports().size());
}

TEST(RsSharesMutation, PerSlotCountsAreClean) {
  std::string report;
  int races = run_shares(/*one_count=*/false, &report);
  EXPECT_EQ(races, 0) << report;
}

TEST(RsSharesMutation, OneCountForBothSlotsIsReported) {
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  std::string report;
  int races = run_shares(/*one_count=*/true, &report);
  EXPECT_GT(races, 0)
      << "the one count let the head read a slot before every mate's "
         "share of that step was written into it";
  EXPECT_NE(report.find("rs_head_slot"), std::string::npos) << report;
}

// ---------------------------------------------------------------------------
// Root-free allgather ring leader (core/zoo.cpp Ring): each put of the
// predecessor deposits one node block in the leader's buffer and raises
// the leader's arrival count; the leader awaits each arrival before it
// publishes (reads) that block. The last block lands late.
// ---------------------------------------------------------------------------

constexpr int kRingBlocks = 3;

struct RingLeader {
  sim::Engine eng;
  machine::MemoryParams mp;
  chk::Checker chk{eng, 2};
  shm::Segment seg;
  std::span<std::byte> buf;  // kRingBlocks blocks of kSlot bytes
  shm::SharedFlag* got;
  std::vector<chk::TaskChk> tasks;

  RingLeader() {
    chk.set_enabled(true);
    seg.set_checker(&chk);
    buf = seg.buffer("ring_buf", kRingBlocks * kSlot);
    got = &seg.object<shm::SharedFlag>("got", eng, mp, 0, "got");
    for (int a = 0; a < 2; ++a) tasks.push_back({&chk, a});
  }

  std::byte* block(int b) {
    return buf.data() + static_cast<std::size_t>(b) * kSlot;
  }
};

sim::CoTask ring_pred(RingLeader& f) {
  chk::TaskChk& me = f.tasks[1];
  for (int b = 0; b < kRingBlocks; ++b) {
    co_await f.eng.sleep(sim::ns(300));
    chk::note_write(me, f.block(b), kSlot);
    std::memset(f.block(b), b + 1, kSlot);
    f.got->add(1, &me);
  }
}

/// @p drop_last_wait: the leader publishes the last ring block before its
/// arrival counter fires (mc twin: ag_direct.publish_before_arrival).
sim::CoTask ring_leader(RingLeader& f, bool drop_last_wait, int& sum) {
  chk::TaskChk& me = f.tasks[0];
  for (int b = 0; b < kRingBlocks; ++b) {
    if (!(drop_last_wait && b == kRingBlocks - 1)) {
      co_await f.got->await_at_least(static_cast<std::uint64_t>(b) + 1, &me);
    }
    chk::note_read(me, f.block(b), kSlot);
    sum += static_cast<int>(f.block(b)[0]);
    co_await f.eng.sleep(sim::ns(100));
  }
}

int run_ring_leader(bool drop_last_wait, std::string* first_report) {
  RingLeader f;
  int sum = 0;
  f.eng.spawn(ring_leader(f, drop_last_wait, sum));
  f.eng.spawn(ring_pred(f));
  f.eng.run();
  if (chk::kEnabled) {
    EXPECT_GT(f.chk.accesses_checked(), 0u);
  }
  if (!drop_last_wait) {
    EXPECT_EQ(sum, kRingBlocks * (kRingBlocks + 1) / 2);
  }
  if (first_report != nullptr && !f.chk.reports().empty()) {
    *first_report = f.chk.reports()[0].to_string();
  }
  return static_cast<int>(f.chk.reports().size());
}

TEST(RingLeaderMutation, CorrectProtocolIsClean) {
  std::string report;
  int races = run_ring_leader(/*drop_last_wait=*/false, &report);
  EXPECT_EQ(races, 0) << report;
}

TEST(RingLeaderMutation, PublishBeforeArrivalIsReported) {
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  std::string report;
  int races = run_ring_leader(/*drop_last_wait=*/true, &report);
  EXPECT_GT(races, 0)
      << "the leader published the last ring block before it arrived — its "
         "read is unordered against the deposit";
  EXPECT_NE(report.find("ring_buf"), std::string::npos) << report;
}

// ---------------------------------------------------------------------------
// Socket-leader window publish (core/gather_scatter.cpp allgather_sockets):
// the predecessor's puts deposit node segments in the socket head's window,
// the head awaits each arrival and raises its domain's ready count, and a
// reader of its socket copies each segment once the count covers it. The
// last segment lands late.
// ---------------------------------------------------------------------------

struct SocketWindow {
  sim::Engine eng;
  machine::MemoryParams mp;
  chk::Checker chk{eng, 3};
  shm::Segment seg;
  std::span<std::byte> win;  // kRingBlocks segments of kSlot bytes
  shm::SharedFlag* got;
  shm::SharedFlag* ready;
  std::vector<chk::TaskChk> tasks;  // 0 head, 1 reader, 2 predecessor

  SocketWindow() {
    chk.set_enabled(true);
    seg.set_checker(&chk);
    win = seg.buffer("head_win", kRingBlocks * kSlot);
    got = &seg.object<shm::SharedFlag>("got", eng, mp, 0, "got");
    ready = &seg.object<shm::SharedFlag>("ready", eng, mp, 0, "ready");
    for (int a = 0; a < 3; ++a) tasks.push_back({&chk, a});
  }

  std::byte* segment(int b) {
    return win.data() + static_cast<std::size_t>(b) * kSlot;
  }
};

sim::CoTask window_pred(SocketWindow& f) {
  chk::TaskChk& me = f.tasks[2];
  for (int b = 0; b < kRingBlocks; ++b) {
    co_await f.eng.sleep(sim::ns(300));
    chk::note_write(me, f.segment(b), kSlot);
    std::memset(f.segment(b), b + 1, kSlot);
    f.got->add(1, &me);
  }
}

sim::CoTask window_head(SocketWindow& f) {
  chk::TaskChk& me = f.tasks[0];
  for (int b = 0; b < kRingBlocks; ++b) {
    co_await f.got->await_at_least(static_cast<std::uint64_t>(b) + 1, &me);
    f.ready->add(1, &me);
  }
}

/// @p drop_last_wait: the reader copies the last segment before its head
/// flagged it (mc twin: sc_allgather.copy_before_ready).
sim::CoTask window_reader(SocketWindow& f, bool drop_last_wait, int& sum) {
  chk::TaskChk& me = f.tasks[1];
  for (int b = 0; b < kRingBlocks; ++b) {
    if (!(drop_last_wait && b == kRingBlocks - 1)) {
      co_await f.ready->await_at_least(static_cast<std::uint64_t>(b) + 1,
                                       &me);
    }
    chk::note_read(me, f.segment(b), kSlot);
    sum += static_cast<int>(f.segment(b)[0]);
    co_await f.eng.sleep(sim::ns(100));
  }
}

int run_socket_window(bool drop_last_wait, std::string* first_report) {
  SocketWindow f;
  int sum = 0;
  f.eng.spawn(window_reader(f, drop_last_wait, sum));
  f.eng.spawn(window_head(f));
  f.eng.spawn(window_pred(f));
  f.eng.run();
  if (chk::kEnabled) {
    EXPECT_GT(f.chk.accesses_checked(), 0u);
  }
  if (!drop_last_wait) {
    EXPECT_EQ(sum, kRingBlocks * (kRingBlocks + 1) / 2);
  }
  if (first_report != nullptr && !f.chk.reports().empty()) {
    *first_report = f.chk.reports()[0].to_string();
  }
  return static_cast<int>(f.chk.reports().size());
}

TEST(SocketWindowMutation, CorrectProtocolIsClean) {
  std::string report;
  int races = run_socket_window(/*drop_last_wait=*/false, &report);
  EXPECT_EQ(races, 0) << report;
}

TEST(SocketWindowMutation, CopyBeforeReadyIsReported) {
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  std::string report;
  int races = run_socket_window(/*drop_last_wait=*/true, &report);
  EXPECT_GT(races, 0)
      << "the reader copied the last segment before its head flagged it — "
         "its read is unordered against the deposit";
  EXPECT_NE(report.find("head_win"), std::string::npos) << report;
}

// ---------------------------------------------------------------------------
// Socket-leader parallel assembly (core/gather_scatter.cpp
// allgather_sockets): every local of a socket writes its block of the
// node's segment into the head's window and raises the socket's assembled
// count; the head awaits every local's share, then its put reads the whole
// segment out of the window. The last local writes late.
// ---------------------------------------------------------------------------

constexpr int kAsmLocals = 3;

struct SocketAssembly {
  sim::Engine eng;
  machine::MemoryParams mp;
  chk::Checker chk{eng, kAsmLocals + 1};
  shm::Segment seg;
  std::span<std::byte> win;  // one kSlot block per local, the head's first
  shm::SharedFlag* assembled;
  std::vector<chk::TaskChk> tasks;  // 0 head, 1.. the other locals

  SocketAssembly() {
    chk.set_enabled(true);
    seg.set_checker(&chk);
    win = seg.buffer("head_win", (kAsmLocals + 1) * kSlot);
    assembled =
        &seg.object<shm::SharedFlag>("assembled", eng, mp, 0, "assembled");
    for (int a = 0; a <= kAsmLocals; ++a) tasks.push_back({&chk, a});
  }

  std::byte* block(int l) {
    return win.data() + static_cast<std::size_t>(l) * kSlot;
  }
};

sim::CoTask assembly_local(SocketAssembly& f, int l) {
  chk::TaskChk& me = f.tasks[static_cast<std::size_t>(l)];
  co_await f.eng.sleep(sim::ns(100 * l));
  chk::note_write(me, f.block(l), kSlot);
  std::memset(f.block(l), l + 1, kSlot);
  f.assembled->add(1, &me);
}

/// @p drop_wait: the head forwards before its locals' shares are counted
/// (mc twin: sc_allgather.forward_before_assembled).
sim::CoTask assembly_head(SocketAssembly& f, bool drop_wait, int& sum) {
  chk::TaskChk& me = f.tasks[0];
  chk::note_write(me, f.block(0), kSlot);
  std::memset(f.block(0), 1, kSlot);
  if (!drop_wait) co_await f.assembled->await_at_least(kAsmLocals, &me);
  chk::note_read(me, f.win.data(), f.win.size());
  for (int l = 0; l <= kAsmLocals; ++l) {
    sum += static_cast<int>(f.block(l)[0]);
  }
}

int run_socket_assembly(bool drop_wait, std::string* first_report) {
  SocketAssembly f;
  int sum = 0;
  f.eng.spawn(assembly_head(f, drop_wait, sum));
  for (int l = 1; l <= kAsmLocals; ++l) f.eng.spawn(assembly_local(f, l));
  f.eng.run();
  if (chk::kEnabled) {
    EXPECT_GT(f.chk.accesses_checked(), 0u);
  }
  if (!drop_wait) {
    EXPECT_EQ(sum, (kAsmLocals + 1) * (kAsmLocals + 2) / 2);
  }
  if (first_report != nullptr && !f.chk.reports().empty()) {
    *first_report = f.chk.reports()[0].to_string();
  }
  return static_cast<int>(f.chk.reports().size());
}

TEST(SocketAssemblyMutation, CorrectProtocolIsClean) {
  std::string report;
  int races = run_socket_assembly(/*drop_wait=*/false, &report);
  EXPECT_EQ(races, 0) << report;
}

TEST(SocketAssemblyMutation, ForwardBeforeAssembledIsReported) {
  if (!chk::kEnabled) GTEST_SKIP() << "built with SRM_CHK=OFF";
  std::string report;
  int races = run_socket_assembly(/*drop_wait=*/true, &report);
  EXPECT_GT(races, 0)
      << "the head read its window before every local's share was counted "
         "— its read is unordered against the locals' writes";
  EXPECT_NE(report.find("head_win"), std::string::npos) << report;
}

}  // namespace
}  // namespace srm
