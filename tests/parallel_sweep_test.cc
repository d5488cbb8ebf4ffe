// Parallel sweep engine: the thread pool itself (ordering, exception
// propagation, edge cases) and the determinism contract — a sweep run on 4
// threads must be bit-identical to the serial path, including the
// stop-at-saturation cut, for every algorithm and seed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "harness/parallel.h"
#include "harness/sweep_runner.h"

namespace hxwar::harness {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  auto f = pool.submit([] { return 42; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, DestructionWithNoTasksIsClean) {
  ThreadPool pool(3);  // construct + join without ever submitting
}

TEST(ThreadPool, PendingTasksCompleteBeforeJoin) {
  std::vector<std::future<int>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      futures.push_back(pool.submit([i] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return i;
      }));
    }
  }  // destructor must drain the queue, not drop tasks
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder) {
  ThreadPool pool(4);
  // Reverse-staggered sleeps: late indices finish first, results must not.
  const auto out = parallelMapOrdered(&pool, 16, [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds((16 - i) * 100));
    return i * i;
  });
  ASSERT_EQ(out.size(), 16u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ParallelMapZeroTasks) {
  ThreadPool pool(2);
  const auto out = parallelMapOrdered(&pool, 0, [](std::size_t i) { return i; });
  EXPECT_TRUE(out.empty());
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool must survive a throwing task.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ExceptionPropagatesThroughParallelMap) {
  ThreadPool pool(4);
  EXPECT_THROW(parallelMapOrdered(&pool, 8,
                                  [](std::size_t i) -> int {
                                    if (i == 3) throw std::runtime_error("point failed");
                                    return static_cast<int>(i);
                                  }),
               std::runtime_error);
}

// --- determinism of the sweep engine ---

ExperimentSpec sweepBase(const std::string& algorithm, std::uint64_t seed) {
  ExperimentSpec spec = scaleSpec("tiny");
  spec.routing = algorithm;
  spec.pattern = "ur";
  spec.injection.seed = seed;
  spec.net.rngSeed = seed + 1;
  spec.steady.maxWarmupWindows = 8;
  return spec;
}

void expectBitIdentical(const std::vector<SweepPoint>& a, const std::vector<SweepPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(a[i].load, b[i].load);
    EXPECT_EQ(a[i].index, b[i].index);
    const auto& ra = a[i].result;
    const auto& rb = b[i].result;
    EXPECT_EQ(ra.saturated, rb.saturated);
    // Exact equality on purpose: same binary, same seeds, same event order.
    EXPECT_EQ(ra.offered, rb.offered);
    EXPECT_EQ(ra.accepted, rb.accepted);
    EXPECT_EQ(ra.latencyMean, rb.latencyMean);
    EXPECT_EQ(ra.latencyP50, rb.latencyP50);
    EXPECT_EQ(ra.latencyP99, rb.latencyP99);
    EXPECT_EQ(ra.latencyMin, rb.latencyMin);
    EXPECT_EQ(ra.latencyMax, rb.latencyMax);
    EXPECT_EQ(ra.avgHops, rb.avgHops);
    EXPECT_EQ(ra.avgDeroutes, rb.avgDeroutes);
    EXPECT_EQ(ra.packetsMeasured, rb.packetsMeasured);
    EXPECT_EQ(ra.warmupCycles, rb.warmupCycles);
  }
}

TEST(ParallelSweep, BitIdenticalToSerialAcrossAlgorithmsAndSeeds) {
  const auto loads = loadGrid(0.2, 0.8);
  for (const std::string algorithm : {"dimwar", "omniwar", "ugal"}) {
    for (const std::uint64_t seed : {7ull, 21ull}) {
      SCOPED_TRACE(algorithm + " seed=" + std::to_string(seed));
      const ExperimentSpec spec = sweepBase(algorithm, seed);
      SweepOptions serial;
      serial.jobs = 1;
      SweepOptions parallel;
      parallel.jobs = 4;
      expectBitIdentical(runLoadSweep(spec, loads, serial),
                         runLoadSweep(spec, loads, parallel));
    }
  }
}

TEST(ParallelSweep, EarlyStopCutMatchesSerial) {
  // dor on bit-complement saturates early at tiny scale; the parallel runner
  // speculates past the frontier and must discard the same ordered suffix.
  ExperimentSpec spec = sweepBase("dor", 7);
  spec.pattern = "bc";
  const auto loads = loadGrid(0.2, 1.0);
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 4;
  parallel.waveFactor = 1;  // exercise the cross-wave streak carry too
  const auto a = runLoadSweep(spec, loads, serial);
  const auto b = runLoadSweep(spec, loads, parallel);
  expectBitIdentical(a, b);
  EXPECT_LT(a.size(), loads.size());  // the cut actually fired
  EXPECT_TRUE(a.back().result.saturated);
}

TEST(ParallelSweep, MatchesLegacySerialEntryPoint) {
  const ExperimentSpec spec = sweepBase("dimwar", 7);
  const auto loads = loadGrid(0.25, 0.75);
  SweepOptions parallel;
  parallel.jobs = 3;
  expectBitIdentical(loadLatencySweep(spec, loads), runLoadSweep(spec, loads, parallel));
}

TEST(ParallelSweep, TelemetryIsPopulated) {
  const ExperimentSpec spec = sweepBase("dimwar", 7);
  SweepOptions opts;
  opts.jobs = 2;
  const auto points = runLoadSweep(spec, {0.3}, opts);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_GT(points[0].eventsProcessed, 0u);
  EXPECT_GT(points[0].wallSeconds, 0.0);
  EXPECT_GT(points[0].eventsPerSec, 0.0);
}

TEST(ParallelSweep, SeedsDeriveFromPointIndexNotOrder) {
  const ExperimentSpec base = sweepBase("dimwar", 7);
  // Same index, same load => same derived seeds regardless of anything else.
  const auto a = sweepPointConfig(base, 0.4, 3);
  const auto b = sweepPointConfig(base, 0.4, 3);
  EXPECT_EQ(a.injection.seed, b.injection.seed);
  EXPECT_EQ(a.net.rngSeed, b.net.rngSeed);
  // Different indices get independent streams.
  const auto c = sweepPointConfig(base, 0.4, 4);
  EXPECT_NE(a.injection.seed, c.injection.seed);
}

}  // namespace
}  // namespace hxwar::harness
