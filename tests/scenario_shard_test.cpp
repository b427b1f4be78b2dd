// The sharded-generation acceptance test: the plan/execute/compact
// pipeline must reproduce a single-process run exactly. parse_shard's
// diagnostics are asserted verbatim (the CLI prints them after "flag --",
// like parse_mix); shard_day_cuts must partition every plan day and every
// telescope event deterministically; and merge(shard_0..N-1) must be
// byte-identical to save_run of reference_run (the plain composition of
// the public stages) for N in {1, 2, 3, 8}.
// ctest variants re-run this binary under DDOSREPRO_THREADS=2/8 so the
// identity also holds across sweep-pool widths.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "reference_run.h"
#include "scenario/driver.h"
#include "scenario/plan.h"
#include "store/format.h"
#include "store/merge.h"

namespace ddos::scenario {
namespace {

// Each discovered test case runs as its own process, concurrently with
// the whole-binary DDOSREPRO_THREADS=2/8 ctest variants — TempDir()
// names must be per-process or parallel ctest workers race on the same
// store file.
std::string temp_path(const std::string& name) {
  return (std::filesystem::path(testing::TempDir()) /
          (std::to_string(::getpid()) + "-" + name))
      .string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

LongitudinalConfig test_config() {
  LongitudinalConfig cfg = small_longitudinal_config(21);
  cfg.world.provider_count = 80;
  cfg.world.domain_count = 4000;
  cfg.workload.scale = 200.0;
  return cfg;
}

// One whole-world run shared across test cases (the expensive part).
const LongitudinalResult& whole() {
  static const LongitudinalResult result = reference_run(test_config());
  return result;
}

// The sweep plan every shard derives — identical in each process by the
// determinism argument in plan.h, so deriving it once here is the same
// plan run_shard sees.
const SweepPlan& whole_plan() {
  static const SweepPlan plan =
      derive_sweep_plan(*whole().world, whole().events, nullptr, nullptr);
  return plan;
}

TEST(ParseShard, Valid) {
  std::string error;
  const auto one = parse_shard("0/1", &error);
  ASSERT_TRUE(one.has_value()) << error;
  EXPECT_EQ(*one, (ShardSpec{0, 1}));
  const auto mid = parse_shard("2/3");
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(*mid, (ShardSpec{2, 3}));
  const auto last = parse_shard("7/8", &error);
  ASSERT_TRUE(last.has_value()) << error;
  EXPECT_EQ(last->index, 7u);
  EXPECT_EQ(last->count, 8u);
  EXPECT_TRUE(error.empty());
}

// The exact diagnostic the CLI prints (prefixed "flag --"), tested
// verbatim like parse_mix's: a regression here silently degrades the
// operator-facing error message.
TEST(ParseShard, DiagnosticsVerbatim) {
  const auto expect_error = [](std::string_view spec,
                               const std::string& detail) {
    std::string error;
    EXPECT_FALSE(parse_shard(spec, &error).has_value()) << spec;
    EXPECT_EQ(error,
              "shard expects i/N — a zero-based shard index and the total "
              "shard count (two unsigned integers with i < N, e.g. 0/3), "
              "got '" +
                  std::string(spec) + "': " + detail);
  };
  expect_error("abc", "expected one '/' separator");
  expect_error("/3", "shard index is empty");
  expect_error("0/", "shard count is empty");
  expect_error("-1/3", "shard index '-1' is negative");
  expect_error("0/-2", "shard count '-2' is negative");
  expect_error("0/99999999999", "shard count '99999999999' overflows 32 bits");
  expect_error("x/3", "shard index 'x' is not an unsigned integer");
  expect_error("1.0/3", "shard index '1.0' is not an unsigned integer");
  expect_error("1/0", "shard count is zero; at least one shard is required");
  expect_error("3/3", "shard index 3 is out of range for 3 shards "
                      "(valid: 0..2)");
  expect_error("1/1", "shard index 1 is out of range for 1 shard "
                      "(valid: 0..0)");
}

TEST(ShardPlan, DayCutsDeterministicAndCovering) {
  const SweepPlan& plan = whole_plan();
  ASSERT_FALSE(plan.days.empty());
  constexpr auto kLo = std::numeric_limits<netsim::DayIndex>::min();
  constexpr auto kHi = std::numeric_limits<netsim::DayIndex>::max();

  for (const std::uint32_t count : {1u, 2u, 3u, 8u}) {
    const std::vector<netsim::DayIndex> cuts = shard_day_cuts(plan, count);
    ASSERT_EQ(cuts.size(), count + 1u);
    EXPECT_EQ(cuts.front(), kLo);
    EXPECT_EQ(cuts.back(), kHi);
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      EXPECT_LE(cuts[i], cuts[i + 1]);
    }
    // Pure function of (plan, count): re-deriving gives identical cuts.
    EXPECT_EQ(shard_day_cuts(plan, count), cuts);

    // Contiguous half-open ranges: every plan day and every telescope
    // event is owned by exactly one shard.
    for (const auto& [day, domains] : plan.days) {
      std::uint32_t owners = 0;
      for (std::uint32_t i = 0; i < count; ++i) {
        if (shard_bounds(plan, ShardSpec{i, count}).owns_day(day)) ++owners;
      }
      EXPECT_EQ(owners, 1u) << "day " << day << " at N=" << count;
    }
    // An event is owned by the shard owning its last attacked day.
    for (const auto& event : whole().events) {
      const netsim::DayIndex last_day = (event.end_time() - 1).day();
      std::uint32_t owners = 0;
      for (std::uint32_t i = 0; i < count; ++i) {
        if (shard_bounds(plan, ShardSpec{i, count}).owns_day(last_day)) {
          ++owners;
        }
      }
      EXPECT_EQ(owners, 1u) << "event ending day " << last_day
                            << " at N=" << count;
    }
  }
}

TEST(ShardPlan, FeedSlicesPartitionTheRows) {
  for (const std::uint32_t count : {1u, 2u, 3u, 8u}) {
    for (const std::uint64_t total : {0ull, 1ull, 7ull, 1000ull, 1001ull}) {
      std::uint64_t expect_begin = 0;
      for (std::uint32_t i = 0; i < count; ++i) {
        const auto [begin, end] = shard_feed_slice(total, ShardSpec{i, count});
        EXPECT_EQ(begin, expect_begin) << i << "/" << count << " of " << total;
        EXPECT_LE(begin, end);
        expect_begin = end;
      }
      EXPECT_EQ(expect_begin, total);
    }
  }
}

// The headline invariant: merging the N shard stores reproduces the
// single-process store at the byte level, and the per-shard accounting
// sums to the whole run's counts.
TEST(ShardMerge, ByteIdenticalToWholeRunStore) {
  const LongitudinalConfig cfg = test_config();
  const std::string whole_path = temp_path("shard-whole.drs");
  save_run(whole_path, cfg, 1, whole());
  const std::string whole_bytes = read_file(whole_path);
  ASSERT_FALSE(whole_bytes.empty());

  for (const std::uint32_t count : {1u, 2u, 3u, 8u}) {
    std::vector<std::string> shard_paths;
    std::uint64_t owned = 0, feed_rows = 0, swept = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::string path = temp_path(
          "shard-" + std::to_string(i) + "of" + std::to_string(count) +
          ".drs");
      const ShardRunResult shard =
          run_shard(cfg, ShardSpec{i, count}, 1, path);
      EXPECT_EQ(shard.spec, (ShardSpec{i, count}));
      EXPECT_EQ(shard.events_total, whole().events.size());
      EXPECT_EQ(shard.store_bytes,
                std::filesystem::file_size(std::filesystem::path(path)));
      owned += shard.owned_events;
      feed_rows += shard.feed_rows;
      swept += shard.swept_measurements;
      shard_paths.push_back(path);
    }
    EXPECT_EQ(owned, whole().events.size()) << "N=" << count;
    EXPECT_EQ(feed_rows, whole().feed_records) << "N=" << count;
    EXPECT_EQ(swept, whole().swept_measurements) << "N=" << count;

    // Shard paths may arrive in any order — each store carries its own
    // manifest index. Reverse one set to exercise that.
    if (count == 3) {
      std::reverse(shard_paths.begin(), shard_paths.end());
    }

    const std::string merged_path =
        temp_path("shard-merged-" + std::to_string(count) + ".drs");
    const store::MergeStats stats =
        store::merge_stores(merged_path, shard_paths);
    EXPECT_EQ(stats.shards, count);
    EXPECT_EQ(stats.events_out, whole().joined.size());
    EXPECT_EQ(stats.bytes_written, whole_bytes.size());
    EXPECT_EQ(read_file(merged_path), whole_bytes)
        << "merge of " << count << " shards is not byte-identical";

    // The merged store is a full save_run store: the columnar analyze
    // pass over it reproduces the whole run's headline numbers.
    if (count == 3) {
      const StoreAnalysis merged = analyze_store(merged_path);
      const StoreAnalysis single = analyze_store(whole_path);
      EXPECT_EQ(merged.events, single.events);
      EXPECT_EQ(merged.joined, single.joined);
      EXPECT_EQ(merged.feed_records, single.feed_records);
      EXPECT_EQ(merged.swept_measurements, single.swept_measurements);
      EXPECT_EQ(merged.impact.impaired_10x, single.impact.impaired_10x);
      EXPECT_EQ(merged.impact.severe_100x, single.impact.severe_100x);
      EXPECT_EQ(merged.monthly.size(), single.monthly.size());
    }

    for (const std::string& path : shard_paths) {
      std::filesystem::remove(path);
    }
    std::filesystem::remove(merged_path);
  }
  std::filesystem::remove(whole_path);
}

TEST(ShardRun, UnwritableStorePathThrows) {
  EXPECT_THROW(run_shard(test_config(), ShardSpec{0, 2}, 1,
                         temp_path("missing-dir") + "/x.drs"),
               store::StoreError);
}

}  // namespace
}  // namespace ddos::scenario
