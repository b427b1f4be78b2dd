#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "scenario/driver.h"
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
  for (const auto& rec : records) forward.add(rec);
  EXPECT_EQ(forward.records_added(), records.size());
  EXPECT_EQ(forward.finish(), batch);

  EventStitcher reverse(params);
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    reverse.add(*it);
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
  feed.add_record(rec_at(IPv4Addr(1, 1, 1, 1), 10));
  feed.add_record(rec_at(IPv4Addr(1, 1, 1, 2), 10));   // same /24
  feed.add_record(rec_at(IPv4Addr(1, 1, 1, 1), 100));  // second event, same IP
  feed.add_record(rec_at(IPv4Addr(2, 2, 2, 2), 10));
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
  feed.add_record(rec_at(IPv4Addr(1, 1, 1, 1), 10));
  std::ostringstream out;
  feed.write_csv(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("window,victim"), std::string::npos);
  EXPECT_NE(s.find("1.1.1.1"), std::string::npos);
}

}  // namespace
}  // namespace ddos::telescope
