// Tests for src/exec/ — the deterministic parallel execution engine.
//
// The load-bearing property is the determinism contract: shard structure
// is a pure function of the item count and reduction is ordered, so any
// thread count (1, 2, 8, oversubscribed) produces bit-identical results.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/export.h"
#include "exec/parallel.h"
#include "exec/pool.h"
#include "obs/obs.h"
#include "scenario/driver.h"

using namespace ddos;

#if defined(__SANITIZE_THREAD__)
// GlobalPoolRunsRegionsInAForkedChild's child starts threads after a
// multi-threaded fork, which ThreadSanitizer refuses unless told not to.
extern "C" const char* __tsan_default_options() { return "die_after_fork=0"; }
#endif

namespace {

TEST(PlanShards, PureFunctionOfN) {
  EXPECT_EQ(exec::plan_shards(0), 0u);
  EXPECT_EQ(exec::plan_shards(1), 1u);
  EXPECT_EQ(exec::plan_shards(63), 63u);
  EXPECT_EQ(exec::plan_shards(64), 64u);
  EXPECT_EQ(exec::plan_shards(1'000'000), exec::kDefaultMaxShards);
  EXPECT_EQ(exec::plan_shards(10, 4), 4u);
}

TEST(ShardBounds, CoversRangeExactlyAndBalanced) {
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 1000u, 12345u}) {
    const std::size_t shards = exec::plan_shards(n);
    std::size_t covered = 0;
    std::size_t expected_begin = 0;
    std::size_t min_size = n, max_size = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const exec::ShardRange r = exec::shard_bounds(n, shards, s);
      EXPECT_EQ(r.begin, expected_begin);
      EXPECT_EQ(r.index, s);
      EXPECT_GT(r.end, r.begin);
      covered += r.size();
      expected_begin = r.end;
      min_size = std::min(min_size, r.size());
      max_size = std::max(max_size, r.size());
    }
    EXPECT_EQ(covered, n);
    EXPECT_EQ(expected_begin, n);
    EXPECT_LE(max_size - min_size, 1u);  // balanced to within one item
  }
}

TEST(ParallelFor, EmptyRangeIsANoop) {
  exec::WorkerPool pool(4);
  exec::RegionOptions opts;
  opts.pool = &pool;
  bool ran = false;
  exec::parallel_for(0, opts, [&](const exec::ShardRange&) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, SingleItemRunsInline) {
  exec::WorkerPool pool(4);
  exec::RegionOptions opts;
  opts.pool = &pool;
  std::atomic<int> count{0};
  exec::parallel_for(1, opts, [&](const exec::ShardRange& r) {
    EXPECT_EQ(r.begin, 0u);
    EXPECT_EQ(r.end, 1u);
    ++count;
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, VisitsEveryItemOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::WorkerPool pool(threads);
    exec::RegionOptions opts;
    opts.pool = &pool;
    const std::size_t n = 10'000;
    std::vector<std::atomic<int>> visits(n);
    exec::parallel_for(n, opts, [&](const exec::ShardRange& r) {
      for (std::size_t i = r.begin; i < r.end; ++i) ++visits[i];
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "item " << i << " at " << threads
                                     << " threads";
    }
  }
}

TEST(ParallelMapReduce, ReductionIsOrderedForAnyThreadCount) {
  const std::size_t n = 5000;
  std::vector<std::size_t> expected(n);
  std::iota(expected.begin(), expected.end(), 0u);
  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::WorkerPool pool(threads);
    exec::RegionOptions opts;
    opts.pool = &pool;
    const std::vector<std::size_t> got = exec::parallel_map_reduce(
        n, opts, std::vector<std::size_t>{},
        [](const exec::ShardRange& r) {
          std::vector<std::size_t> out;
          for (std::size_t i = r.begin; i < r.end; ++i) out.push_back(i);
          return out;
        },
        [](std::vector<std::size_t>& acc, std::vector<std::size_t>&& shard) {
          acc.insert(acc.end(), shard.begin(), shard.end());
        });
    EXPECT_EQ(got, expected) << threads << " threads";
  }
}

TEST(ParallelMapReduce, FloatFoldOrderIsThreadCountInvariant) {
  // A sum whose value depends on fold order: catches any scheme that
  // reduces in completion order instead of shard order.
  const std::size_t n = 100'000;
  const auto run = [&](unsigned threads) {
    exec::WorkerPool pool(threads);
    exec::RegionOptions opts;
    opts.pool = &pool;
    return exec::parallel_map_reduce(
        n, opts, 0.0,
        [](const exec::ShardRange& r) {
          double s = 0.0;
          for (std::size_t i = r.begin; i < r.end; ++i) {
            s += 1.0 / static_cast<double>(i + 1);
          }
          return s;
        },
        [](double& acc, double&& shard) { acc += shard; });
  };
  const double at1 = run(1);
  EXPECT_EQ(at1, run(2));  // exact bitwise equality, not near
  EXPECT_EQ(at1, run(8));
}

TEST(ParallelFor, PropagatesFirstException) {
  exec::WorkerPool pool(4);
  exec::RegionOptions opts;
  opts.pool = &pool;
  EXPECT_THROW(
      exec::parallel_for(1000, opts,
                         [](const exec::ShardRange& r) {
                           if (r.begin >= 500) {
                             throw std::runtime_error("shard failed");
                           }
                         }),
      std::runtime_error);
  // The pool must stay usable after a failed region.
  std::atomic<std::size_t> count{0};
  exec::parallel_for(100, opts, [&](const exec::ShardRange& r) {
    count += r.size();
  });
  EXPECT_EQ(count.load(), 100u);
}

TEST(ParallelFor, OversubscriptionHammer) {
  // Far more shards than workers, tiny bodies: stresses the claim counter
  // and region wake/quiesce logic under oversubscription.
  exec::WorkerPool pool(8);
  exec::RegionOptions opts;
  opts.pool = &pool;
  opts.max_shards = 512;
  std::atomic<std::uint64_t> sum{0};
  const std::size_t n = 4096;
  for (int round = 0; round < 50; ++round) {
    exec::parallel_for(n, opts, [&](const exec::ShardRange& r) {
      std::uint64_t local = 0;
      for (std::size_t i = r.begin; i < r.end; ++i) local += i;
      sum += local;
    });
  }
  EXPECT_EQ(sum.load(), 50ull * (n * (n - 1) / 2));
}

TEST(ParallelFor, NestedRegionsRunInline) {
  exec::WorkerPool pool(4);
  exec::RegionOptions opts;
  opts.pool = &pool;
  std::atomic<std::size_t> inner_items{0};
  exec::parallel_for(64, opts, [&](const exec::ShardRange& outer) {
    EXPECT_TRUE(exec::WorkerPool::inside_region());
    exec::parallel_for(outer.size(), opts, [&](const exec::ShardRange& r) {
      inner_items += r.size();
    });
  });
  EXPECT_EQ(inner_items.load(), 64u);
}

TEST(WorkerPool, StatsAccumulateAcrossRegions) {
  exec::WorkerPool pool(2);
  exec::RegionOptions opts;
  opts.pool = &pool;
  exec::parallel_for(1000, opts, [](const exec::ShardRange&) {});
  const auto stats = pool.stats();
  ASSERT_EQ(stats.size(), 2u);
  std::uint64_t tasks = 0;
  for (const auto& s : stats) tasks += s.tasks;
  EXPECT_EQ(tasks, exec::plan_shards(1000));
}

// A child forked after the global pool started its workers has none of
// them: its regions start the child's own (no more threads than the pool
// width) instead of waiting forever for the parent's. alarm() turns a
// hang into a killed child, which the parent sees.
TEST(WorkerPool, GlobalPoolRunsRegionsInAForkedChild) {
  exec::set_global_threads(2);
  const auto region_sum = [] {
    std::atomic<std::uint64_t> sum{0};
    exec::parallel_for(1000, exec::RegionOptions{},
                       [&](const exec::ShardRange& range) {
                         for (std::size_t i = range.begin; i < range.end; ++i) {
                           sum += i;
                         }
                       });
    return sum.load();
  };
  ASSERT_EQ(region_sum(), 499500u);  // the parent's worker is running
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::alarm(10);
    ::_exit(region_sum() == 499500u ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status))
      << "child killed by signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(region_sum(), 499500u);  // the parent's pool still runs
  exec::set_global_threads(0);
}

TEST(Observer, ProgressThrottleIsRaceFreeUnderConcurrentEmitters) {
  obs::Observer observer;
  std::atomic<std::uint64_t> emitted{0};
  // Effectively-infinite interval: exactly one unforced emission may win.
  observer.set_progress(
      [&](const obs::ProgressEvent&) { ++emitted; },
      /*min_interval_ms=*/10'000'000);
  exec::WorkerPool pool(8);
  exec::RegionOptions opts;
  opts.pool = &pool;
  exec::parallel_for(2048, opts, [&](const exec::ShardRange&) {
    obs::ProgressEvent ev;
    ev.stage = "sweep";
    observer.emit_progress(ev);
  });
  EXPECT_EQ(emitted.load(), 1u);
  // Forced events always pass the throttle.
  obs::ProgressEvent final_ev;
  observer.emit_progress(final_ev, /*force=*/true);
  EXPECT_EQ(emitted.load(), 2u);
}

// The acceptance criterion: the longitudinal pipeline's exported events
// CSV is bit-for-bit identical across --threads 1/2/8 on a seeded world.
TEST(PipelineDeterminism, EventsCsvBitIdenticalAcrossThreadCounts) {
  scenario::LongitudinalConfig cfg = scenario::small_longitudinal_config(7);
  const auto run_at = [&](unsigned threads) {
    exec::set_global_threads(threads);
    const scenario::LongitudinalResult r = scenario::run_longitudinal(cfg);
    std::ostringstream csv;
    core::write_events_csv(csv, r.joined);
    return std::pair<std::string, std::uint64_t>(csv.str(),
                                                 r.swept_measurements);
  };
  const auto at1 = run_at(1);
  const auto at2 = run_at(2);
  const auto at8 = run_at(8);
  exec::set_global_threads(0);
  EXPECT_GT(at1.second, 0u);
  EXPECT_FALSE(at1.first.empty());
  EXPECT_EQ(at1.first, at2.first);
  EXPECT_EQ(at1.first, at8.first);
  EXPECT_EQ(at1.second, at2.second);
  EXPECT_EQ(at1.second, at8.second);
}

}  // namespace
