#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <utility>

#include "exec/pool.h"
#include "scenario/driver.h"
#include "store/dataset.h"
#include "store/merge.h"
#include "store/reader.h"
#include "telescope/darknet.h"
#include "telescope/feed.h"
#include "telescope/rsdos.h"

namespace ddos::telescope {
namespace {

using netsim::IPv4Addr;
using netsim::Prefix;
using netsim::SimTime;

TEST(Darknet, UcsdLikeGeometry) {
  const Darknet net = Darknet::ucsd_like();
  EXPECT_EQ(net.prefixes().size(), 2u);
  // /9 + /10 = 2^23 + 2^22 addresses = 3/1024 of IPv4 = 1/341.33.
  EXPECT_EQ(net.address_count(), (1u << 23) + (1u << 22));
  EXPECT_NEAR(net.ipv4_fraction(), 3.0 / 1024.0, 1e-12);
  EXPECT_NEAR(net.extrapolation_factor(), 341.33, 0.01);
  EXPECT_EQ(net.slash16_count(), 128u + 64u);
}

TEST(Darknet, RejectsBadConfigurations) {
  EXPECT_THROW(Darknet({}), std::invalid_argument);
  EXPECT_THROW(Darknet({Prefix(IPv4Addr(10, 0, 0, 0), 8),
                        Prefix(IPv4Addr(10, 1, 0, 0), 16)}),
               std::invalid_argument);
}

TEST(Darknet, LongPrefixCountsOneSlash16) {
  const Darknet net({Prefix(IPv4Addr(10, 0, 0, 0), 24)});
  EXPECT_EQ(net.slash16_count(), 1u);
}

TEST(PaperExtrapolation, Footnote2) {
  // 21.8 Kppm x 341 / 60 s = ~124 Kpps (§5.1 footnote 2).
  const Darknet net = Darknet::ucsd_like();
  RSDoSFeed feed{InferenceParams{}, attack::BackscatterModelParams{}};
  EXPECT_NEAR(feed.extrapolate_pps(21.8e3, net), 124e3, 1e3);
}

attack::BackscatterWindow make_window(std::uint64_t packets,
                                      std::uint32_t slash16, double ppm) {
  attack::BackscatterWindow bw;
  bw.window = 10;
  bw.victim = IPv4Addr(9, 9, 9, 9);
  bw.packets = packets;
  bw.distinct_slash16 = slash16;
  bw.peak_ppm = ppm;
  return bw;
}

TEST(Inference, Thresholds) {
  const InferenceParams params;  // 25 pkts, 25 /16s, 5 ppm
  EXPECT_TRUE(passes_thresholds(make_window(25, 25, 5.0), params));
  EXPECT_FALSE(passes_thresholds(make_window(24, 25, 5.0), params));
  EXPECT_FALSE(passes_thresholds(make_window(25, 24, 5.0), params));
  EXPECT_FALSE(passes_thresholds(make_window(25, 25, 4.9), params));
}

TEST(Inference, RecordCarriesFields) {
  auto bw = make_window(100, 50, 20.0);
  bw.protocol = attack::Protocol::UDP;
  bw.first_port = 53;
  bw.unique_ports = 3;
  const RSDoSRecord rec = to_record(bw);
  EXPECT_EQ(rec.window, 10);
  EXPECT_EQ(rec.victim, IPv4Addr(9, 9, 9, 9));
  EXPECT_EQ(rec.packets, 100u);
  EXPECT_EQ(rec.distinct_slash16, 50u);
  EXPECT_EQ(rec.protocol, attack::Protocol::UDP);
  EXPECT_EQ(rec.first_port, 53);
  EXPECT_EQ(rec.unique_ports, 3);
  EXPECT_DOUBLE_EQ(rec.max_ppm, 20.0);
}

RSDoSRecord rec_at(IPv4Addr victim, netsim::WindowIndex w, double ppm = 100.0) {
  RSDoSRecord rec;
  rec.victim = victim;
  rec.window = w;
  rec.max_ppm = ppm;
  rec.packets = 500;
  rec.distinct_slash16 = 40;
  return rec;
}

// Brute-force oracle for the event stitcher: sort the records under the
// total order, then open a new event wherever the victim changes or the
// next window lies more than max_gap_windows + 1 past the event's end.
// The head (first sorted) record supplies protocol and first_port.
std::vector<RSDoSEvent> segment_events(std::vector<RSDoSRecord> records,
                                       const InferenceParams& params) {
  std::sort(records.begin(), records.end(), record_less);
  std::vector<RSDoSEvent> events;
  for (std::size_t i = 0; i < records.size();) {
    const RSDoSRecord& first = records[i];
    RSDoSEvent ev;
    ev.victim = first.victim;
    ev.start_window = ev.end_window = first.window;
    ev.max_ppm = first.max_ppm;
    ev.total_packets = first.packets;
    ev.max_slash16 = first.distinct_slash16;
    ev.protocol = first.protocol;
    ev.first_port = first.first_port;
    ev.max_unique_ports = first.unique_ports;
    std::size_t j = i + 1;
    while (j < records.size() && records[j].victim == ev.victim &&
           records[j].window - ev.end_window <=
               static_cast<netsim::WindowIndex>(params.max_gap_windows) + 1) {
      ev.end_window = records[j].window;
      ev.max_ppm = std::max(ev.max_ppm, records[j].max_ppm);
      ev.total_packets += records[j].packets;
      ev.max_slash16 = std::max(ev.max_slash16, records[j].distinct_slash16);
      ev.max_unique_ports =
          std::max(ev.max_unique_ports, records[j].unique_ports);
      ++j;
    }
    events.push_back(ev);
    i = j;
  }
  return events;
}

/// The production path under test: RSDoSFeed::events() over `records`.
std::vector<RSDoSEvent> feed_events(const std::vector<RSDoSRecord>& records,
                                    const InferenceParams& params) {
  RSDoSFeed feed{params, attack::BackscatterModelParams{}};
  feed.set_records(records);
  return feed.events();
}

TEST(Segmentation, ConsecutiveWindowsFormOneEvent) {
  const InferenceParams params;
  const auto events = feed_events(
      {rec_at(IPv4Addr(1, 1, 1, 1), 10), rec_at(IPv4Addr(1, 1, 1, 1), 11),
       rec_at(IPv4Addr(1, 1, 1, 1), 12)},
      params);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].start_window, 10);
  EXPECT_EQ(events[0].end_window, 12);
  EXPECT_EQ(events[0].duration_s(), 900);
  EXPECT_EQ(events[0].total_packets, 1500u);
}

TEST(Segmentation, GapToleranceStitches) {
  InferenceParams params;
  params.max_gap_windows = 2;
  // Windows 10 and 13: gap of two empty windows (11, 12) — stitched.
  const auto events = feed_events(
      {rec_at(IPv4Addr(1, 1, 1, 1), 10), rec_at(IPv4Addr(1, 1, 1, 1), 13)},
      params);
  ASSERT_EQ(events.size(), 1u);
  // Windows 10 and 14: gap of three — split.
  const auto split = feed_events(
      {rec_at(IPv4Addr(1, 1, 1, 1), 10), rec_at(IPv4Addr(1, 1, 1, 1), 14)},
      params);
  EXPECT_EQ(split.size(), 2u);
}

TEST(Segmentation, SeparatesVictims) {
  const InferenceParams params;
  const auto events = feed_events(
      {rec_at(IPv4Addr(1, 1, 1, 1), 10), rec_at(IPv4Addr(2, 2, 2, 2), 10)},
      params);
  EXPECT_EQ(events.size(), 2u);
}

TEST(Segmentation, AggregatesMaxima) {
  const InferenceParams params;
  auto r1 = rec_at(IPv4Addr(1, 1, 1, 1), 10, 100.0);
  auto r2 = rec_at(IPv4Addr(1, 1, 1, 1), 11, 500.0);
  r2.distinct_slash16 = 90;
  r2.unique_ports = 7;
  const auto events = feed_events({r2, r1}, params);  // order-insensitive
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].max_ppm, 500.0);
  EXPECT_EQ(events[0].max_slash16, 90u);
  EXPECT_EQ(events[0].max_unique_ports, 7u);
}

// The incremental stitcher must reproduce batch segmentation exactly —
// including the head-record choice when two attacks hit one victim in the
// same window (record_less breaks the tie, not insertion order).
TEST(Segmentation, IncrementalStitcherMatchesBatch) {
  InferenceParams params;
  params.max_gap_windows = 2;

  std::vector<RSDoSRecord> records;
  // Victim A: two runs (gap of 4 splits), inserted out of order so the
  // stitcher bridges and splits in both directions.
  for (const netsim::WindowIndex w : {14, 10, 11, 20, 13, 21}) {
    records.push_back(rec_at(IPv4Addr(1, 1, 1, 1), w, 50.0 + w));
  }
  // Victim B: duplicate-window records with different ports/protocols —
  // the event head must be the record_less-minimal one either way.
  auto tie1 = rec_at(IPv4Addr(2, 2, 2, 2), 30);
  tie1.protocol = attack::Protocol::UDP;
  tie1.first_port = 53;
  auto tie2 = rec_at(IPv4Addr(2, 2, 2, 2), 30);
  tie2.protocol = attack::Protocol::TCP;
  tie2.first_port = 443;
  tie2.unique_ports = 9;
  records.push_back(tie2);
  records.push_back(tie1);
  records.push_back(rec_at(IPv4Addr(2, 2, 2, 2), 31));

  const auto batch = segment_events(records, params);

  EventStitcher forward(params);
  for (const auto& rec : records) forward.add({&rec, 1});
  EXPECT_EQ(forward.records_added(), records.size());
  EXPECT_EQ(forward.finish(), batch);

  EventStitcher reverse(params);
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    reverse.add({&*it, 1});
  }
  EXPECT_EQ(reverse.finish(), batch);
}

TEST(Segmentation, EventTimes) {
  const InferenceParams params;
  const auto events =
      feed_events({rec_at(IPv4Addr(1, 1, 1, 1), 10)}, params);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].start_time().seconds(), 3000);
  EXPECT_EQ(events[0].end_time().seconds(), 3300);
}

// RSDoSFeed::events() == the oracle on a realistic feed, in ingest order
// and shuffled: the stitcher's output is a function of the record
// multiset alone.
TEST(Segmentation, FeedEventsMatchOracleOnShuffledSmallConfigFeed) {
  const scenario::LongitudinalConfig cfg =
      scenario::small_longitudinal_config(7);
  const auto world = scenario::build_world(cfg.world);
  const scenario::Workload workload =
      scenario::generate_workload(*world, cfg.workload);
  RSDoSFeed feed(cfg.inference, cfg.backscatter);
  feed.ingest(workload.schedule, Darknet::ucsd_like(), cfg.feed_seed);
  ASSERT_GT(feed.records().size(), 1000u);

  const std::vector<RSDoSEvent> oracle =
      segment_events(feed.records(), cfg.inference);
  ASSERT_LT(oracle.size(), feed.records().size());
  EXPECT_EQ(feed.events(), oracle);

  std::vector<RSDoSRecord> shuffled = feed.records();
  std::mt19937_64 rng(2022);
  for (int round = 0; round < 3; ++round) {
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    EXPECT_EQ(feed_events(shuffled, cfg.inference), oracle) << "round "
                                                            << round;
  }
}

// Same-(victim, window) records that differ only in tail fields: the
// event head is the record_less-minimal record in every arrival order,
// which pins the event's protocol and first port.
TEST(Segmentation, TailFieldTiesPinTheHeadRecord) {
  const InferenceParams params;
  std::vector<RSDoSRecord> records;
  const auto tie = [&](attack::Protocol protocol, std::uint16_t port,
                       std::uint32_t slash16, std::uint16_t ports,
                       std::uint64_t packets, double ppm) {
    RSDoSRecord rec = rec_at(IPv4Addr(3, 3, 3, 3), 50, ppm);
    rec.protocol = protocol;
    rec.first_port = port;
    rec.distinct_slash16 = slash16;
    rec.unique_ports = ports;
    rec.packets = packets;
    records.push_back(rec);
  };
  // record_less compares (slash16, protocol, first_port, unique_ports,
  // packets, max_ppm) after (victim, window); TCP sorts before UDP.
  tie(attack::Protocol::ICMP, 0, 41, 1, 500, 100.0);  // larger slash16
  tie(attack::Protocol::UDP, 53, 40, 1, 500, 100.0);
  tie(attack::Protocol::TCP, 443, 40, 1, 500, 100.0);
  tie(attack::Protocol::TCP, 80, 40, 1, 500, 100.0);  // the minimum
  tie(attack::Protocol::TCP, 80, 40, 3, 10, 5.0);
  tie(attack::Protocol::TCP, 80, 40, 1, 900, 100.0);
  tie(attack::Protocol::TCP, 80, 40, 1, 500, 250.0);

  const std::vector<RSDoSEvent> oracle = segment_events(records, params);
  ASSERT_EQ(oracle.size(), 1u);
  EXPECT_EQ(oracle[0].protocol, attack::Protocol::TCP);
  EXPECT_EQ(oracle[0].first_port, 80u);
  EXPECT_EQ(oracle[0].max_unique_ports, 3u);
  EXPECT_EQ(oracle[0].max_slash16, 41u);

  std::sort(records.begin(), records.end(), record_less);
  do {
    ASSERT_EQ(feed_events(records, params), oracle);
  } while (std::next_permutation(records.begin(), records.end(),
                                 record_less));
}

// Gaps of exactly max_gap_windows + 1 windows stitch; + 2 split — for
// several gap settings, bridging records arriving last or first.
TEST(Segmentation, GapBoundaryMatchesOracle) {
  for (const int gap : {0, 1, 2, 5}) {
    InferenceParams params;
    params.max_gap_windows = gap;
    const netsim::WindowIndex reach = gap + 1;
    const IPv4Addr victim(4, 4, 4, 4);
    // 10 -> 10+reach (stitches) -> +reach+1 more (splits) -> bridged
    // back by a record exactly reach past the split point.
    const netsim::WindowIndex a = 10;
    const netsim::WindowIndex b = a + reach;
    const netsim::WindowIndex c = b + reach + 1;
    std::vector<RSDoSRecord> split = {rec_at(victim, a), rec_at(victim, b),
                                      rec_at(victim, c)};
    const auto oracle_split = segment_events(split, params);
    ASSERT_EQ(oracle_split.size(), 2u) << "gap " << gap;
    EXPECT_EQ(oracle_split[0].end_window, b);
    EXPECT_EQ(oracle_split[1].start_window, c);
    EXPECT_EQ(feed_events(split, params), oracle_split) << "gap " << gap;
    std::reverse(split.begin(), split.end());
    EXPECT_EQ(feed_events(split, params), oracle_split) << "gap " << gap;

    // A record reach windows past b is within reach of c too when
    // c - (b + reach) == 1 <= reach: the two events merge into one.
    std::vector<RSDoSRecord> bridged = split;
    bridged.push_back(rec_at(victim, b + reach));
    const auto oracle_bridged = segment_events(bridged, params);
    ASSERT_EQ(oracle_bridged.size(), 1u) << "gap " << gap;
    EXPECT_EQ(feed_events(bridged, params), oracle_bridged) << "gap " << gap;
    std::rotate(bridged.begin(), bridged.end() - 1, bridged.end());
    EXPECT_EQ(feed_events(bridged, params), oracle_bridged) << "gap " << gap;
  }
}

// ---- the victim-range partition -------------------------------------------

/// One stitch of `records` at the current pool width: ranges cut at
/// `sample`, the records added as `batches` near-equal batches, each a
/// RecordBatch of up to three parts.
std::vector<RSDoSEvent> stitch_in_batches(
    const std::vector<RSDoSRecord>& records, const InferenceParams& params,
    std::vector<std::uint32_t> sample, std::size_t batches) {
  EventStitcher stitcher(params, std::move(sample));
  const std::span<const RSDoSRecord> all(records);
  std::size_t begin = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t end = records.size() * (b + 1) / batches;
    const std::size_t third = (end - begin) / 3;
    const std::span<const RSDoSRecord> parts[] = {
        all.subspan(begin, third), all.subspan(begin + third, third),
        all.subspan(begin + 2 * third, end - begin - 2 * third)};
    stitcher.add(RecordBatch(parts));
    begin = end;
  }
  EXPECT_EQ(stitcher.records_added(), records.size());
  return stitcher.finish();
}

std::vector<std::uint32_t> victims_of(const std::vector<RSDoSRecord>& records) {
  return sample_victims(records.size(), [&](std::size_t i) {
    return records[i].victim.value();
  });
}

/// Runs each case at pool widths 1, 2, 4 and 8; the stitcher takes one
/// victim range per pool participant.
class PartitionedStitch : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override {
    saved_ = exec::global_pool().thread_count();
    exec::set_global_threads(GetParam());
  }
  void TearDown() override { exec::set_global_threads(saved_); }

  /// The partitioned stitch, in record batches, equals the oracle and the
  /// one-range stitcher, for the sample `sample`.
  void expect_matches(const std::vector<RSDoSRecord>& records,
                      const InferenceParams& params,
                      const std::vector<std::uint32_t>& sample) {
    const std::vector<RSDoSEvent> oracle = segment_events(records, params);
    const std::vector<RSDoSEvent> one_range =
        stitch_in_batches(records, params, {}, 1);
    EXPECT_EQ(one_range, oracle);
    for (const std::size_t batches : {1, 3, 7}) {
      EXPECT_EQ(stitch_in_batches(records, params, sample, batches), oracle)
          << batches << " batches";
    }
  }

 private:
  unsigned saved_ = 0;
};

TEST_P(PartitionedStitch, MatchesOracleOnShuffledSmallConfigFeed) {
  const scenario::LongitudinalConfig cfg =
      scenario::small_longitudinal_config(7);
  const auto world = scenario::build_world(cfg.world);
  const scenario::Workload workload =
      scenario::generate_workload(*world, cfg.workload);
  RSDoSFeed feed(cfg.inference, cfg.backscatter);
  feed.ingest(workload.schedule, Darknet::ucsd_like(), cfg.feed_seed);
  ASSERT_GT(feed.records().size(), 1000u);

  std::vector<RSDoSRecord> records = feed.records();
  expect_matches(records, cfg.inference, victims_of(records));
  std::mt19937_64 rng(2022);
  std::shuffle(records.begin(), records.end(), rng);
  expect_matches(records, cfg.inference, victims_of(records));
  EXPECT_EQ(feed_events(records, cfg.inference), feed.events());
}

// Every sample value is a cut point at some pool width; the victims on,
// just below and just above them must land in exactly one range.
TEST_P(PartitionedStitch, VictimsOnCutPoints) {
  const InferenceParams params;
  std::vector<std::uint32_t> sample;
  std::vector<RSDoSRecord> records;
  for (std::uint32_t v = 100; v <= 800; v += 100) {
    sample.push_back(v);
    for (const std::uint32_t victim : {v - 1, v, v + 1}) {
      for (const netsim::WindowIndex w : {10, 11, 20}) {
        records.push_back(rec_at(IPv4Addr(victim), w + victim % 3));
      }
    }
  }
  // The extremes of the address space sit in the first and last ranges.
  records.push_back(rec_at(IPv4Addr(0u), 5));
  records.push_back(rec_at(IPv4Addr(0xFFFFFFFFu), 5));
  expect_matches(records, params, sample);
  std::reverse(records.begin(), records.end());
  expect_matches(records, params, sample);
}

// Same-(victim, window) records with different tails, split across
// batches: the head is the record_less-minimal one whichever range and
// batch see it.
TEST_P(PartitionedStitch, DuplicateKeysAcrossBatchesKeepTheHead) {
  const InferenceParams params;
  std::vector<RSDoSRecord> records;
  for (const std::uint32_t victim : {100u, 200u, 300u, 400u}) {
    for (std::uint16_t port = 9; port > 0; --port) {
      RSDoSRecord rec = rec_at(IPv4Addr(victim), 50, 100.0 + port);
      rec.protocol = port % 2 ? attack::Protocol::UDP : attack::Protocol::TCP;
      rec.first_port = port;
      rec.unique_ports = static_cast<std::uint16_t>(10 - port);
      records.push_back(rec);
    }
  }
  expect_matches(records, params, {100, 200, 300, 400});
  const std::vector<RSDoSEvent> events =
      stitch_in_batches(records, params, {100, 200, 300, 400}, 7);
  ASSERT_EQ(events.size(), 4u);
  for (const RSDoSEvent& ev : events) {
    EXPECT_EQ(ev.protocol, attack::Protocol::TCP);
    EXPECT_EQ(ev.first_port, 2u);
    EXPECT_EQ(ev.max_unique_ports, 9u);
  }
}

// Gaps of exactly max_gap_windows + 1 stitch and + 2 split, for victims in
// every range.
TEST_P(PartitionedStitch, GapBoundaries) {
  for (const int gap : {0, 2, 5}) {
    InferenceParams params;
    params.max_gap_windows = gap;
    const netsim::WindowIndex reach = gap + 1;
    std::vector<RSDoSRecord> records;
    std::vector<std::uint32_t> sample;
    for (std::uint32_t victim = 1000; victim < 9000; victim += 1000) {
      sample.push_back(victim);
      const netsim::WindowIndex a = 10;
      const netsim::WindowIndex b = a + reach;      // stitches to a
      const netsim::WindowIndex c = b + reach + 1;  // splits from b
      for (const netsim::WindowIndex w : {c, a, b}) {
        records.push_back(rec_at(IPv4Addr(victim), w));
      }
    }
    const std::vector<RSDoSEvent> oracle = segment_events(records, params);
    ASSERT_EQ(oracle.size(), 2 * sample.size()) << "gap " << gap;
    expect_matches(records, params, sample);
  }
}

// One victim owns every record: every cut is the same address, so one
// range gets the whole feed and the others stay empty.
TEST_P(PartitionedStitch, OneVictimFillsOneRange) {
  const InferenceParams params;
  std::vector<RSDoSRecord> records;
  for (netsim::WindowIndex w = 0; w < 400; w += (w % 7 == 0) ? 5 : 1) {
    records.push_back(rec_at(IPv4Addr(10, 0, 0, 1), w, 1.0 + w));
  }
  expect_matches(records, params, victims_of(records));
}

TEST_P(PartitionedStitch, EmptyInput) {
  const InferenceParams params;
  EventStitcher no_batch(params, {1, 2, 3});
  EXPECT_TRUE(no_batch.finish().empty());
  EXPECT_TRUE(stitch_in_batches({}, params, {1, 2, 3}, 3).empty());
  EXPECT_TRUE(feed_events({}, params).empty());
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, PartitionedStitch,
                         ::testing::Values(1u, 2u, 4u, 8u));

// ---- the stored victims dataset ---------------------------------------

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) /
          (std::to_string(::getpid()) + "-" + name))
      .string();
}

/// Events per victim by brute force: a count of the oracle's events under
/// each victim address, ascending.
std::vector<VictimAttacks> oracle_victims(
    const std::vector<RSDoSRecord>& records, const InferenceParams& params) {
  std::map<std::uint32_t, std::uint64_t> counts;
  for (const RSDoSEvent& ev : segment_events(records, params)) {
    ++counts[ev.victim.value()];
  }
  std::vector<VictimAttacks> out;
  for (const auto& [victim, attacks] : counts) out.push_back({victim, attacks});
  return out;
}

/// The rows of a store's "victims" dataset, as stored.
std::vector<VictimAttacks> stored_victims(const std::string& path) {
  const store::Reader reader(path);
  store::ColumnArena arena;
  std::vector<VictimAttacks> rows;
  store::read_dataset<store::VictimColumns>(
      reader, "victims", arena,
      [&](const VictimAttacks& row) { rows.push_back(row); });
  return rows;
}

/// `cfg` generated as `count` shards and merged; returns the merged path
/// and the fewest victims rows any shard stored.
std::pair<std::string, std::uint64_t> merged_shards(
    const scenario::LongitudinalConfig& cfg, std::uint32_t count,
    const std::string& tag) {
  std::vector<std::string> paths;
  std::uint64_t fewest = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t i = 0; i < count; ++i) {
    paths.push_back(temp_path(tag + "-" + std::to_string(i) + ".drs"));
    scenario::run_shard(cfg, scenario::ShardSpec{i, count}, 1, paths.back());
    fewest = std::min(fewest,
                      store::Reader(paths.back()).dataset_rows("victims"));
  }
  const std::string merged = temp_path(tag + "-merged.drs");
  store::merge_stores(merged, paths);
  for (const std::string& path : paths) std::filesystem::remove(path);
  return {merged, fewest};
}

/// The whole-run store of `cfg` at `threads` pool threads (the generate
/// path) and the per-victim oracle over its feed records.
std::vector<VictimAttacks> expect_whole_store_matches_oracle(
    const scenario::LongitudinalConfig& cfg, unsigned threads) {
  const unsigned saved = exec::global_pool().thread_count();
  exec::set_global_threads(threads);
  scenario::StreamingOptions options;
  options.store_path = temp_path("victims-whole.drs");
  options.threads = threads;
  options.retain_feed = true;
  const scenario::LongitudinalResult result =
      scenario::run_longitudinal_streaming(cfg, options);
  exec::set_global_threads(saved);
  const std::vector<VictimAttacks> oracle =
      oracle_victims(result.feed.records(), cfg.inference);
  EXPECT_EQ(stored_victims(options.store_path), oracle)
      << threads << " threads";
  std::filesystem::remove(options.store_path);
  return oracle;
}

// The stored victims rows are an independent function of the feed: they
// equal a brute-force count over the segment_events oracle for a whole
// run at 1 and 4 threads, for a 3-shard merge, and for a merge of more
// shards than there are victims, where some shards store an empty slice.
TEST(StoredVictims, MatchBruteForceCountsOverTheOracle) {
  const scenario::LongitudinalConfig cfg =
      scenario::small_longitudinal_config(7);
  const std::vector<VictimAttacks> oracle =
      expect_whole_store_matches_oracle(cfg, 1);
  ASSERT_GT(oracle.size(), 3u);
  EXPECT_EQ(expect_whole_store_matches_oracle(cfg, 4), oracle);
  const auto [merged, fewest] = merged_shards(cfg, 3, "victims-3");
  EXPECT_EQ(stored_victims(merged), oracle);
  EXPECT_GT(fewest, 0u);
  std::filesystem::remove(merged);

  // Few attacks (a large scale divides the paper's counts), so a handful
  // of victims.
  scenario::LongitudinalConfig sparse = cfg;
  sparse.workload.scale = 200000.0;
  sparse.workload.scripted_cases = false;
  const std::vector<VictimAttacks> sparse_oracle =
      expect_whole_store_matches_oracle(sparse, 1);
  ASSERT_FALSE(sparse_oracle.empty());
  ASSERT_LT(sparse_oracle.size(), 16u);
  const auto [sparse_merged, sparse_fewest] = merged_shards(
      sparse, static_cast<std::uint32_t>(sparse_oracle.size() + 1),
      "victims-sparse");
  EXPECT_EQ(stored_victims(sparse_merged), sparse_oracle);
  EXPECT_EQ(sparse_fewest, 0u);
  std::filesystem::remove(sparse_merged);
}

TEST(Feed, IngestVisibleAttack) {
  attack::AttackSchedule sched;
  attack::AttackSpec spec;
  spec.target = IPv4Addr(7, 7, 7, 7);
  spec.start = SimTime(0);
  spec.duration_s = 1800;  // 6 windows
  spec.peak_pps = 50e3;
  spec.steady = true;
  sched.add(spec);

  RSDoSFeed feed{InferenceParams{}, attack::BackscatterModelParams{}};
  feed.ingest(sched, Darknet::ucsd_like(), 1);
  EXPECT_EQ(feed.records().size(), 6u);
  const auto events = feed.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].victim, IPv4Addr(7, 7, 7, 7));
  EXPECT_EQ(events[0].duration_s(), 1800);
  // Observed ppm extrapolates back to ~50K pps.
  EXPECT_NEAR(feed.extrapolate_pps(events[0].max_ppm, Darknet::ucsd_like()),
              50e3, 10e3);
}

TEST(Feed, WeakAttackBelowThresholdInvisible) {
  attack::AttackSchedule sched;
  attack::AttackSpec spec;
  spec.target = IPv4Addr(7, 7, 7, 7);
  spec.start = SimTime(0);
  spec.duration_s = 900;
  spec.peak_pps = 10.0;  // ~9 backscatter packets/window at the telescope
  sched.add(spec);
  RSDoSFeed feed{InferenceParams{}, attack::BackscatterModelParams{}};
  feed.ingest(sched, Darknet::ucsd_like(), 1);
  EXPECT_TRUE(feed.records().empty());
}

TEST(Feed, IngestIsDeterministicAndOrderIndependent) {
  attack::AttackSpec a;
  a.id = 5;
  a.target = IPv4Addr(7, 7, 7, 7);
  a.start = SimTime(0);
  a.duration_s = 900;
  a.peak_pps = 50e3;
  attack::AttackSpec b = a;
  b.id = 6;
  b.target = IPv4Addr(8, 8, 8, 8);

  attack::AttackSchedule s1, s2;
  s1.add(a);
  s1.add(b);
  s2.add(b);
  s2.add(a);

  RSDoSFeed f1{InferenceParams{}, attack::BackscatterModelParams{}};
  RSDoSFeed f2{InferenceParams{}, attack::BackscatterModelParams{}};
  f1.ingest(s1, Darknet::ucsd_like(), 99);
  f2.ingest(s2, Darknet::ucsd_like(), 99);
  ASSERT_EQ(f1.records().size(), f2.records().size());
  // Compare as multisets via per-victim totals.
  std::uint64_t pkts1 = 0, pkts2 = 0;
  for (const auto& r : f1.records()) pkts1 += r.packets;
  for (const auto& r : f2.records()) pkts2 += r.packets;
  EXPECT_EQ(pkts1, pkts2);
}

TEST(Feed, SummarizeCountsUniques) {
  RSDoSFeed feed{InferenceParams{}, attack::BackscatterModelParams{}};
  feed.set_records({
      rec_at(IPv4Addr(1, 1, 1, 1), 10),
      rec_at(IPv4Addr(1, 1, 1, 2), 10),   // same /24
      rec_at(IPv4Addr(1, 1, 1, 1), 100),  // second event, same IP
      rec_at(IPv4Addr(2, 2, 2, 2), 10),
  });
  const auto summary = feed.summarize([](IPv4Addr ip) {
    return ip.value() >> 24;  // octet as fake ASN
  });
  EXPECT_EQ(summary.attacks, 4u);
  EXPECT_EQ(summary.unique_ips, 3u);
  EXPECT_EQ(summary.unique_slash24, 2u);
  EXPECT_EQ(summary.unique_asn, 2u);
}

TEST(Feed, CsvSerialisation) {
  RSDoSFeed feed{InferenceParams{}, attack::BackscatterModelParams{}};
  feed.set_records({rec_at(IPv4Addr(1, 1, 1, 1), 10)});
  std::ostringstream out;
  feed.write_csv(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("window,victim"), std::string::npos);
  EXPECT_NE(s.find("1.1.1.1"), std::string::npos);
}

}  // namespace
}  // namespace ddos::telescope
