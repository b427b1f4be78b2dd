// Micro-benchmarks of util::FlatMap / FlatSet against std::unordered_map /
// std::unordered_set on the pipeline's actual key distributions:
//
//   * store keys — (nsset << 32 | window) packed uint64s, thousands of
//     nssets, windows advancing through a day (the MeasurementStore fold);
//   * sparse probe keys — hash-scrambled lookups with a ~50% hit rate
//     (the join's window probes and retention key-set membership);
//   * churn — insert/erase waves (the store erasing retired days in
//     retire_days_below), which for FlatMap exercises the tombstone-free
//     backward-shift erase.
//
// Each case writes an entry consumed by tools/check_perf_regression.py via
// the google-benchmark console output; run with --benchmark_min_time=0.25
// for stable-enough numbers on CI runners.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netsim/rng.h"
#include "util/flat_map.h"

using namespace ddos;

namespace {

// Packed (nsset, window) keys shaped like one sweep day: `n` measurements
// over `nssets` delegations, windows walking forward through the day.
std::vector<std::uint64_t> store_keys(std::size_t n, std::uint32_t nssets,
                                      std::uint64_t seed) {
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  netsim::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t nsset = rng.uniform_u64(nssets);
    const std::uint64_t window = (i * 288) / n;
    keys.push_back(nsset << 32 | window);
  }
  return keys;
}

template <typename Map>
void fill(Map& map, const std::vector<std::uint64_t>& keys) {
  for (const auto k : keys) ++map[k];
}

void BM_FlatMapFold(benchmark::State& state) {
  const auto keys =
      store_keys(static_cast<std::size_t>(state.range(0)), 4096, 1);
  for (auto _ : state) {
    util::FlatMap<std::uint64_t, std::uint64_t> map;
    fill(map, keys);
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_FlatMapFold)->Arg(1 << 14)->Arg(1 << 18);

void BM_UnorderedMapFold(benchmark::State& state) {
  const auto keys =
      store_keys(static_cast<std::size_t>(state.range(0)), 4096, 1);
  for (auto _ : state) {
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    fill(map, keys);
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_UnorderedMapFold)->Arg(1 << 14)->Arg(1 << 18);

void BM_FlatMapProbe(benchmark::State& state) {
  const auto keys = store_keys(1 << 18, 4096, 1);
  util::FlatMap<std::uint64_t, std::uint64_t> map;
  fill(map, keys);
  // ~50% hits: even draws re-use a present key, odd draws miss.
  netsim::Rng rng(2);
  std::vector<std::uint64_t> probes;
  for (int i = 0; i < 4096; ++i) {
    probes.push_back(i % 2 == 0 ? keys[rng.uniform_u64(keys.size())]
                                : rng.next_u64());
  }
  std::size_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(probes[p]));
    p = (p + 1) % probes.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatMapProbe);

void BM_UnorderedMapProbe(benchmark::State& state) {
  const auto keys = store_keys(1 << 18, 4096, 1);
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  fill(map, keys);
  netsim::Rng rng(2);
  std::vector<std::uint64_t> probes;
  for (int i = 0; i < 4096; ++i) {
    probes.push_back(i % 2 == 0 ? keys[rng.uniform_u64(keys.size())]
                                : rng.next_u64());
  }
  std::size_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(probes[p]));
    p = (p + 1) % probes.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnorderedMapProbe);

void BM_FlatSetChurn(benchmark::State& state) {
  // Day-by-day churn: insert a day of window keys, erase ~90% of them,
  // repeat on the next day's key range.
  const std::size_t per_day = 1 << 14;
  std::uint64_t day = 0;
  util::FlatSet<std::uint64_t> set;
  for (auto _ : state) {
    const std::uint64_t base = (day++) * 288;
    for (std::size_t i = 0; i < per_day; ++i)
      set.insert((i % 4096) << 32 | (base + i * 288 / per_day));
    std::uint64_t erased = 0;
    for (std::size_t i = 0; i < per_day; ++i) {
      const std::uint64_t key = (i % 4096) << 32 | (base + i * 288 / per_day);
      if (key % 10 != 0) erased += set.erase(key) ? 1 : 0;
    }
    benchmark::DoNotOptimize(erased);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * per_day));
}
BENCHMARK(BM_FlatSetChurn);

void BM_UnorderedSetChurn(benchmark::State& state) {
  const std::size_t per_day = 1 << 14;
  std::uint64_t day = 0;
  std::unordered_set<std::uint64_t> set;
  for (auto _ : state) {
    const std::uint64_t base = (day++) * 288;
    for (std::size_t i = 0; i < per_day; ++i)
      set.insert((i % 4096) << 32 | (base + i * 288 / per_day));
    std::uint64_t erased = 0;
    for (std::size_t i = 0; i < per_day; ++i) {
      const std::uint64_t key = (i % 4096) << 32 | (base + i * 288 / per_day);
      if (key % 10 != 0) erased += set.erase(key);
    }
    benchmark::DoNotOptimize(erased);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * per_day));
}
BENCHMARK(BM_UnorderedSetChurn);

}  // namespace

BENCHMARK_MAIN();
