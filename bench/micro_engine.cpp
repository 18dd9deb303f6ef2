// Micro-benchmarks of the simulator itself (real wall-clock time, via
// google-benchmark): event throughput, coroutine chains, same-time bursts,
// wait-point churn, fair-share bandwidth accounting, and end-to-end cost of
// simulating one collective.
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "bench/harness.hpp"
#include "machine/params.hpp"
#include "shm/flag.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/wait.hpp"

using namespace srm;

static void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < 10000; ++i) {
      eng.call_at(static_cast<sim::Time>(i), [] {});
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EngineEventThroughput);

namespace {
sim::CoTask chain(sim::Engine& eng, int hops) {
  for (int i = 0; i < hops; ++i) co_await eng.sleep(sim::ns(1));
}
}  // namespace

static void BM_CoroutineHops(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    eng.spawn(chain(eng, 10000));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_CoroutineHops);

namespace {
sim::CoTask await_flag(shm::SharedFlag& flag) { co_await flag.await_value(1); }
}  // namespace

// 16,384 coroutines spawned at t = 0 park on one shared flag; one store
// releases them all at the same instant.
static void BM_SameTimeBurst(benchmark::State& state) {
  const machine::MemoryParams mem;
  constexpr int kWaiters = 16384;
  for (auto _ : state) {
    sim::Engine eng;
    shm::SharedFlag flag(eng, mem, 0, "burst");
    for (int i = 0; i < kWaiters; ++i) eng.spawn(await_flag(flag));
    eng.call_at(sim::us(1), [&flag] { flag.set(1); });
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * kWaiters);
}
BENCHMARK(BM_SameTimeBurst);

// Wait-points registered and dropped out of order among 64 live ones, as
// the per-call counters of a collective come and go.
static void BM_WaitPointChurn(benchmark::State& state) {
  constexpr int kLive = 64;
  constexpr int kChurn = 16384;
  for (auto _ : state) {
    sim::Engine eng;
    std::vector<std::optional<sim::WaitQueue>> live(kLive);
    for (int i = 0; i < kChurn; ++i) {
      auto& slot = live[static_cast<std::size_t>((i * 37) % kLive)];
      slot.reset();
      slot.emplace(eng, sim::Label{"churn.org", i});
    }
    benchmark::DoNotOptimize(live.data());
  }
  state.SetItemsProcessed(state.iterations() * kChurn);
}
BENCHMARK(BM_WaitPointChurn);

static void BM_FairShareChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    sim::FairShareResource r(eng, 1e9, 100e6);
    for (int i = 0; i < 1000; ++i) r.start(1000.0 + i);
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_FairShareChurn);

static void BM_SimulateSmallBcast256(benchmark::State& state) {
  for (auto _ : state) {
    bench::Bench b(bench::Impl::srm, 16, 16);
    benchmark::DoNotOptimize(b.time_bcast(1024, 2));
  }
}
BENCHMARK(BM_SimulateSmallBcast256)->Unit(benchmark::kMillisecond);

static void BM_SimulateBarrier256(benchmark::State& state) {
  for (auto _ : state) {
    bench::Bench b(bench::Impl::srm, 16, 16);
    benchmark::DoNotOptimize(b.time_barrier(5));
  }
}
BENCHMARK(BM_SimulateBarrier256)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
