// The generate/analyze acceptance test: run the pipeline once, persist it
// with scenario::save_run, load it back with scenario::load_run, and
// assert the store reproduces the generating run bit-for-bit — feed
// records, sweep aggregates, joined events, headline statistics, and a
// full re-join from the stored aggregates. Also exercises the loud-error
// path on a corrupted store file.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/columnar.h"
#include "scan_columns.h"
#include "scenario/driver.h"
#include "serve/query_engine.h"
#include "store/dataset.h"
#include "store/epoch.h"
#include "store/format.h"
#include "store/reader.h"
#include "store/writer.h"

namespace ddos::scenario {
namespace {

// gtest_discover_tests runs every test case of this binary as its own
// ctest entry (its own process), and SetUpTestSuite re-runs in each of
// them — so TempDir() names must be per-process or concurrent ctest -j
// workers race on the same store file.
std::string temp_path(const char* name) {
  return (std::filesystem::path(testing::TempDir()) /
          (std::to_string(::getpid()) + "-" + name))
      .string();
}

// One edit of a hand-written store copy: row 0 of the u64 column
// `column` ("dataset.column") becomes `row0`, and the footer key `key`
// gets `value`. Empty names edit nothing.
struct StoreEdit {
  std::string column = {};
  std::uint64_t row0 = 0;
  std::string key = {};
  std::string value = {};
};

// Writes a copy of the store at `from` through store::Writer, every block
// and footer key as stored except for `edit`, and returns its path.
std::string rewrite_store(const std::string& from, const char* name,
                          const StoreEdit& edit) {
  const std::string to = temp_path(name);
  const store::Reader reader(from);
  store::Writer writer(to);
  for (const store::ColumnDesc& desc : reader.columns()) {
    if (desc.dataset + "." + desc.column == edit.column) {
      std::vector<std::uint64_t> values =
          store::testing_columns::u64s(reader, desc.dataset, desc.column);
      values.at(0) = edit.row0;
      store::write_column(writer, desc.dataset, desc.column,
                          store::U64Appender(desc.encoding), values);
    } else {
      writer.add_encoded(desc.dataset, desc.column, desc.type, desc.encoding,
                         desc.rows,
                         std::array{store::PayloadPiece(
                             reader.verified_payload(desc))});
    }
  }
  for (const auto& [key, value] : reader.meta()) {
    writer.add_meta(key, key == edit.key ? edit.value : value);
  }
  writer.finish();
  return to;
}

// `load` throws store::StoreError whose message contains `needle`.
void expect_refused(const std::function<void()>& load,
                    const std::string& needle) {
  try {
    load();
    ADD_FAILURE() << "loaded; expected a StoreError naming " << needle;
  } catch (const store::StoreError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

void expect_stats_equal(const util::RunningStats& a,
                        const util::RunningStats& b) {
  const auto ra = a.raw();
  const auto rb = b.raw();
  EXPECT_EQ(ra.n, rb.n);
  EXPECT_EQ(ra.sum, rb.sum);
  EXPECT_EQ(ra.m, rb.m);
  EXPECT_EQ(ra.m2, rb.m2);
  EXPECT_EQ(ra.min, rb.min);
  EXPECT_EQ(ra.max, rb.max);
}

void expect_aggregates_equal(const openintel::MeasurementStore& a,
                             const openintel::MeasurementStore& b) {
  const auto check =
      [](const std::vector<std::pair<std::uint64_t, openintel::Aggregate>>& x,
         const std::vector<std::pair<std::uint64_t, openintel::Aggregate>>&
             y) {
        ASSERT_EQ(x.size(), y.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
          EXPECT_EQ(x[i].first, y[i].first);
          EXPECT_EQ(x[i].second.measured, y[i].second.measured);
          EXPECT_EQ(x[i].second.ok, y[i].second.ok);
          EXPECT_EQ(x[i].second.timeout, y[i].second.timeout);
          EXPECT_EQ(x[i].second.servfail, y[i].second.servfail);
          expect_stats_equal(x[i].second.rtt, y[i].second.rtt);
        }
      };
  check(a.sorted_daily(), b.sorted_daily());
  check(a.sorted_window(), b.sorted_window());
  EXPECT_EQ(a.sorted_ns_seen(), b.sorted_ns_seen());
  EXPECT_EQ(a.total_measurements(), b.total_measurements());
}

class StorePipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new LongitudinalConfig(small_longitudinal_config(21));
    config_->world.provider_count = 80;
    config_->world.domain_count = 4000;
    config_->workload.scale = 200.0;
    result_ = new LongitudinalResult(run_longitudinal(*config_));
    path_ = new std::string(temp_path("pipeline.drs"));
    save_run(*path_, *config_, /*threads=*/2, *result_);
    loaded_ = new StoredRun(load_run(*path_));
  }
  static void TearDownTestSuite() {
    delete loaded_;
    delete result_;
    delete config_;
    delete path_;
    loaded_ = nullptr;
    result_ = nullptr;
    config_ = nullptr;
    path_ = nullptr;
  }
  static LongitudinalConfig* config_;
  static LongitudinalResult* result_;
  static StoredRun* loaded_;
  static std::string* path_;
};

LongitudinalConfig* StorePipelineTest::config_ = nullptr;
LongitudinalResult* StorePipelineTest::result_ = nullptr;
StoredRun* StorePipelineTest::loaded_ = nullptr;
std::string* StorePipelineTest::path_ = nullptr;

// Every config field the footer records round-trips. Each is set to a
// value distinct from its default and from every other field's, so a key
// read into the wrong field fails here; the stored run itself is empty.
TEST_F(StorePipelineTest, ProvenanceRoundTrips) {
  LongitudinalConfig cfg = default_longitudinal_config();
  WorldParams& w = cfg.world;
  w.seed = 1001;
  w.provider_count = 1002;
  w.domain_count = 1003;
  w.size_exponent = 1.0 / 3.0;
  w.anycast_recall = 0.1 + 0.2;
  w.open_resolver_misconfigs = 1004;
  w.single_ns_share = 0.0171;
  w.lame_ns_share = 0.00437;
  w.capacity_base_pps = 17000.5;
  w.capacity_exponent = 0.41;
  w.legit_pps_per_domain = 0.021;
  w.legit_pps_floor = 101.25;
  LongitudinalParams& wl = cfg.workload;
  wl.seed = 1005;
  wl.scale = 123.456;
  wl.multivector_prob = 0.11;
  wl.victim_reuse_prob = 0.76;
  wl.dns_port_intensity_boost = 1.9;
  wl.scripted_cases = false;
  telescope::InferenceParams& inf = cfg.inference;
  inf.min_packets_per_window = 1006;
  inf.min_distinct_slash16 = 1007;
  inf.min_ppm = 5.5;
  inf.max_gap_windows = 8;
  core::JoinParams& jp = cfg.join;
  jp.min_measured_domains = 1009;
  jp.match_slash24 = true;
  jp.merge_concurrent = false;
  cfg.sweep_seed = 1010;
  cfg.feed_seed = 1011;

  const std::string path = temp_path("provenance.drs");
  save_run(path, cfg, /*threads=*/5, LongitudinalResult{});
  const StoredRun run = load_run(path);
  std::filesystem::remove(path);
  const LongitudinalConfig& got = run.config;
  EXPECT_EQ(run.threads, 5u);
  EXPECT_EQ(got.world.seed, w.seed);
  EXPECT_EQ(got.world.provider_count, w.provider_count);
  EXPECT_EQ(got.world.domain_count, w.domain_count);
  EXPECT_EQ(got.world.size_exponent, w.size_exponent);
  EXPECT_EQ(got.world.anycast_recall, w.anycast_recall);
  EXPECT_EQ(got.world.open_resolver_misconfigs, w.open_resolver_misconfigs);
  EXPECT_EQ(got.world.single_ns_share, w.single_ns_share);
  EXPECT_EQ(got.world.lame_ns_share, w.lame_ns_share);
  EXPECT_EQ(got.world.capacity_base_pps, w.capacity_base_pps);
  EXPECT_EQ(got.world.capacity_exponent, w.capacity_exponent);
  EXPECT_EQ(got.world.legit_pps_per_domain, w.legit_pps_per_domain);
  EXPECT_EQ(got.world.legit_pps_floor, w.legit_pps_floor);
  EXPECT_EQ(got.workload.seed, wl.seed);
  EXPECT_EQ(got.workload.scale, wl.scale);
  EXPECT_EQ(got.workload.multivector_prob, wl.multivector_prob);
  EXPECT_EQ(got.workload.victim_reuse_prob, wl.victim_reuse_prob);
  EXPECT_EQ(got.workload.dns_port_intensity_boost,
            wl.dns_port_intensity_boost);
  EXPECT_EQ(got.workload.scripted_cases, wl.scripted_cases);
  EXPECT_EQ(got.inference.min_packets_per_window, inf.min_packets_per_window);
  EXPECT_EQ(got.inference.min_distinct_slash16, inf.min_distinct_slash16);
  EXPECT_EQ(got.inference.min_ppm, inf.min_ppm);
  EXPECT_EQ(got.inference.max_gap_windows, inf.max_gap_windows);
  EXPECT_EQ(got.join.min_measured_domains, jp.min_measured_domains);
  EXPECT_EQ(got.join.match_slash24, jp.match_slash24);
  EXPECT_EQ(got.join.merge_concurrent, jp.merge_concurrent);
  EXPECT_EQ(got.sweep_seed, cfg.sweep_seed);
  EXPECT_EQ(got.feed_seed, cfg.feed_seed);

  // The generating run's own counts round-trip too.
  EXPECT_EQ(loaded_->threads, 2u);
  EXPECT_EQ(loaded_->attacks, result_->workload.schedule.size());
  EXPECT_EQ(loaded_->swept_measurements, result_->swept_measurements);
  EXPECT_EQ(loaded_->join_stats, result_->join_stats);
}

// Stores already on disk, shard merges and CI's byte comparisons all rely
// on this footer: every key, in this order.
TEST_F(StorePipelineTest, FooterKeysInSaveRunOrder) {
  const std::vector<std::string> expected = {
      "format.tool",
      "world.seed",
      "world.provider_count",
      "world.domain_count",
      "world.size_exponent",
      "world.anycast_recall",
      "world.open_resolver_misconfigs",
      "world.single_ns_share",
      "world.lame_ns_share",
      "world.capacity_base_pps",
      "world.capacity_exponent",
      "world.legit_pps_per_domain",
      "world.legit_pps_floor",
      "workload.seed",
      "workload.scale",
      "workload.multivector_prob",
      "workload.victim_reuse_prob",
      "workload.dns_port_intensity_boost",
      "workload.scripted_cases",
      "inference.min_packets_per_window",
      "inference.min_distinct_slash16",
      "inference.min_ppm",
      "inference.max_gap_windows",
      "join.min_measured_domains",
      "join.match_slash24",
      "join.merge_concurrent",
      "run.sweep_seed",
      "run.feed_seed",
      "run.threads",
      "result.attacks",
      "result.feed_records",
      "result.events",
      "result.joined",
      "result.swept_measurements",
      "stats.total_events",
      "stats.open_resolver_filtered",
      "stats.non_dns",
      "stats.not_seen_day_before",
      "stats.below_measurement_floor",
      "stats.no_baseline",
      "stats.joined",
      "stats.dns_events",
  };
  const store::Reader reader(*path_);
  std::vector<std::string> keys;
  for (const auto& [key, value] : reader.meta()) keys.push_back(key);
  EXPECT_EQ(keys, expected);
  EXPECT_EQ(reader.meta_value("format.tool"), "ddosrepro");
}

// The same pin for the blocks: stores already on disk are read by these
// names, types and encodings, and both store writers walk one column list
// per dataset, so comparing their outputs cannot catch an edit to a list.
TEST_F(StorePipelineTest, BlocksInSaveRunOrder) {
  const std::vector<std::string> expected = {
      "feed.window u64 delta",
      "feed.victim u64 varint",
      "feed.slash16 u64 varint",
      "feed.protocol u8 fixed",
      "feed.first_port u64 varint",
      "feed.unique_ports u64 varint",
      "feed.max_ppm f64 fixed",
      "feed.packets u64 varint",
      "daily.key u64 delta",
      "daily.measured u64 varint",
      "daily.ok u64 varint",
      "daily.timeout u64 varint",
      "daily.servfail u64 varint",
      "daily.rtt_n u64 varint",
      "daily.rtt_sum f64 fixed",
      "daily.rtt_m f64 fixed",
      "daily.rtt_m2 f64 fixed",
      "daily.rtt_min f64 fixed",
      "daily.rtt_max f64 fixed",
      "window.key u64 delta",
      "window.measured u64 varint",
      "window.ok u64 varint",
      "window.timeout u64 varint",
      "window.servfail u64 varint",
      "window.rtt_n u64 varint",
      "window.rtt_sum f64 fixed",
      "window.rtt_m f64 fixed",
      "window.rtt_m2 f64 fixed",
      "window.rtt_min f64 fixed",
      "window.rtt_max f64 fixed",
      "ns_seen.day u64 delta",
      "ns_seen.ip u64 delta",
      "victims.victim u64 delta",
      "victims.attacks u64 varint",
      "events.victim u64 varint",
      "events.start_window u64 delta",
      "events.end_window u64 delta",
      "events.max_ppm f64 fixed",
      "events.total_packets u64 varint",
      "events.max_slash16 u64 varint",
      "events.protocol u8 fixed",
      "events.first_port u64 varint",
      "events.max_unique_ports u64 varint",
      "events.nsset u64 varint",
      "events.domains_hosted u64 varint",
      "events.domains_measured u64 varint",
      "events.baseline_rtt_ms f64 fixed",
      "events.peak_impact f64 fixed",
      "events.mean_impact f64 fixed",
      "events.ok u64 varint",
      "events.timeouts u64 varint",
      "events.servfails u64 varint",
      "events.failure_rate f64 fixed",
      "events.anycast_class u8 fixed",
      "events.distinct_asns u64 varint",
      "events.distinct_slash24 u64 varint",
      "events.nameserver_count u64 varint",
      "events.asn u64 varint",
      "events.org str string",
  };
  const auto encoding_name = [](store::Encoding e) {
    switch (e) {
      case store::Encoding::DeltaVarint: return "delta";
      case store::Encoding::Varint: return "varint";
      case store::Encoding::Fixed: return "fixed";
      case store::Encoding::StringBlock: return "string";
    }
    return "?";
  };
  const store::Reader reader(*path_);
  std::vector<std::string> blocks;
  for (const store::ColumnDesc& desc : reader.columns()) {
    blocks.push_back(desc.dataset + "." + desc.column + " " +
                     store::to_string(desc.type) + " " +
                     encoding_name(desc.encoding));
  }
  EXPECT_EQ(blocks, expected);
}

// The columns whose row field is narrower than the stored u64, derived
// from the five row lists by the field rule every reader applies
// (store::from_column): a stored 2^32 does not fit them. Each is a value
// a reader that decodes the column must refuse, so a list edit that adds
// a narrow column shows up here.
TEST(StoreColumnLists, NarrowFieldColumnsArePinned) {
  std::vector<std::string> narrow;
  const auto collect = [&]<typename Columns>(std::string_view dataset) {
    using Row = typename Columns::Row;
    Columns::for_each_column([&]<typename Field>(std::string_view column,
                                                 store::Encoding, Field,
                                                 auto...) {
      using T = store::FieldOf<Row, Field>;
      if constexpr (std::is_same_v<store::ColumnValue<T>, std::uint64_t>) {
        T field{};
        if (!store::from_column(std::uint64_t{1} << 32, field)) {
          narrow.push_back(std::string(dataset) + "." + std::string(column));
        }
      }
    });
  };
  collect.operator()<store::FeedColumns>("feed");
  collect.operator()<store::AggregateColumns>("daily");
  collect.operator()<store::AggregateColumns>("window");
  collect.operator()<store::NsSeenColumns>("ns_seen");
  collect.operator()<store::VictimColumns>("victims");
  collect.operator()<store::EventColumns>("events");
  const std::vector<std::string> expected = {
      "feed.victim",
      "feed.slash16",
      "feed.first_port",
      "feed.unique_ports",
      "daily.measured",
      "daily.ok",
      "daily.timeout",
      "daily.servfail",
      "window.measured",
      "window.ok",
      "window.timeout",
      "window.servfail",
      "ns_seen.ip",
      "victims.victim",
      "events.victim",
      "events.max_slash16",
      "events.first_port",
      "events.max_unique_ports",
      "events.nsset",
      "events.domains_measured",
      "events.ok",
      "events.timeouts",
      "events.servfails",
      "events.distinct_asns",
      "events.distinct_slash24",
      "events.nameserver_count",
      "events.asn",
  };
  EXPECT_EQ(narrow, expected);
}

// A column value wider than its row field is refused with the column's
// name, never loaded truncated: the u16 ports, the u32 counts and the
// u32 victim address. The daily and events datasets are decoded whole by
// every reader that decodes them, so the serving load refuses a daily
// column no series point reads, and all three readers, mapped and
// buffered, refuse a wide joined event.
TEST_F(StorePipelineTest, NarrowingColumnValuesAreRefused) {
  const std::string wide_port = rewrite_store(
      *path_, "wide-port.drs", {.column = "feed.first_port", .row0 = 65536});
  expect_refused([&] { load_run(wide_port); }, "feed.first_port");

  const std::string wide_count =
      rewrite_store(*path_, "wide-count.drs",
                    {.column = "daily.measured", .row0 = 1ULL << 32});
  expect_refused([&] { load_run(wide_count); }, "daily.measured");
  expect_refused([&] { serve::load_engine(wide_count); }, "daily.measured");

  const std::string wide_ok = rewrite_store(
      *path_, "wide-ok.drs", {.column = "daily.ok", .row0 = 1ULL << 32});
  expect_refused([&] { load_run(wide_ok); }, "daily.ok");
  expect_refused([&] { serve::load_engine(wide_ok); }, "daily.ok");

  for (const StoreEdit& edit :
       {StoreEdit{.column = "events.ok", .row0 = 1ULL << 32},
        StoreEdit{.column = "events.victim", .row0 = 1ULL << 32},
        StoreEdit{.column = "events.first_port", .row0 = 65536}}) {
    const std::string wide_event =
        rewrite_store(*path_, "wide-event.drs", edit);
    const std::string needle = edit.column + "': row 0";
    for (const bool use_mmap : {true, false}) {
      expect_refused([&] { load_run(wide_event, use_mmap); }, needle);
      expect_refused([&] { analyze_store(wide_event, use_mmap); }, needle);
    }
    expect_refused([&] { serve::load_engine(wide_event); }, needle);
    std::filesystem::remove(wide_event);
  }

  const std::string wide_victim = rewrite_store(
      *path_, "wide-victim.drs", {.column = "feed.victim", .row0 = 1ULL << 32});
  expect_refused([&] { load_run(wide_victim); }, "feed.victim");

  // The serving load never decodes the feed; it reads each victim from
  // the victims dataset, as load_run does too, and analyze checks it.
  const std::string wide_stored_victim =
      rewrite_store(*path_, "wide-stored-victim.drs",
                    {.column = "victims.victim", .row0 = 1ULL << 32});
  expect_refused([&] { load_run(wide_stored_victim); }, "victims.victim");
  expect_refused([&] { serve::load_engine(wide_stored_victim); },
                 "victims.victim");
  expect_refused([&] { analyze_store(wide_stored_victim); }, "victims.victim");

  // The untouched copy loads: only the edited value is refused.
  const std::string copy = rewrite_store(*path_, "copy.drs", {});
  EXPECT_EQ(load_run(copy).feed.records(), loaded_->feed.records());
  for (const std::string& p :
       {wide_port, wide_count, wide_ok, wide_victim, wide_stored_victim,
        copy}) {
    std::filesystem::remove(p);
  }
}

// Signed provenance is read signed: a negative gap tolerance round-trips.
TEST_F(StorePipelineTest, NegativeGapRoundTrips) {
  LongitudinalConfig cfg = default_longitudinal_config();
  cfg.inference.max_gap_windows = -1;
  const std::string path = temp_path("negative-gap.drs");
  save_run(path, cfg, /*threads=*/1, LongitudinalResult{});
  const StoredRun run = load_run(path);
  std::filesystem::remove(path);
  EXPECT_EQ(run.config.inference.max_gap_windows, -1);
}

// A footer value outside its field's type is refused with the key's name,
// never narrowed: a u32 field past 2^32 - 1, an int field past INT_MAX, a
// bool other than 0 or 1, and a negative value in an unsigned field.
TEST_F(StorePipelineTest, OutOfRangeProvenanceIsRefused) {
  const std::vector<StoreEdit> edits = {
      {.key = "inference.min_distinct_slash16", .value = "4294967296"},
      {.key = "inference.max_gap_windows", .value = "2147483648"},
      {.key = "join.match_slash24", .value = "2"},
      {.key = "world.domain_count", .value = "-1"},
  };
  for (const StoreEdit& edit : edits) {
    const std::string path =
        rewrite_store(*path_, "wide-provenance.drs", edit);
    expect_refused([&] { load_run(path); }, edit.key);
    expect_refused([&] { analyze_store(path); }, edit.key);
    std::filesystem::remove(path);
  }
}

TEST_F(StorePipelineTest, FeedRecordsRoundTripBitForBit) {
  ASSERT_FALSE(result_->feed.records().empty());
  EXPECT_EQ(loaded_->feed.records(), result_->feed.records());
}

TEST_F(StorePipelineTest, StitchedEventsMatchGeneratingRun) {
  ASSERT_FALSE(result_->events.empty());
  EXPECT_EQ(loaded_->events, result_->events);
}

TEST_F(StorePipelineTest, SweepAggregatesRoundTripBitForBit) {
  expect_aggregates_equal(loaded_->store, result_->store);
}

TEST_F(StorePipelineTest, JoinedEventsRoundTripBitForBit) {
  ASSERT_FALSE(result_->joined.empty());
  EXPECT_EQ(loaded_->joined, result_->joined);
}

TEST_F(StorePipelineTest, HeadlineStatisticsMatch) {
  const store::OwnedEventFrame run(result_->joined);
  const store::OwnedEventFrame loaded(loaded_->joined);
  const auto a = core::impact_summary_columnar(run.frame());
  const auto b = core::impact_summary_columnar(loaded.frame());
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.impaired_share(), b.impaired_share());
  EXPECT_EQ(a.severe_share_of_impaired(), b.severe_share_of_impaired());
  const auto fa = core::failure_summary_columnar(run.frame());
  const auto fb = core::failure_summary_columnar(loaded.frame());
  EXPECT_EQ(fa.failing_event_share(), fb.failing_event_share());
  EXPECT_EQ(fa.timeout_share_of_failures(), fb.timeout_share_of_failures());
  EXPECT_EQ(core::duration_impact_series_columnar(run.frame()).pearson,
            core::duration_impact_series_columnar(loaded.frame()).pearson);
}

TEST_F(StorePipelineTest, RejoinReproducesStoredJoin) {
  const RejoinResult rejoin = rejoin_from_store(*loaded_);
  EXPECT_EQ(rejoin.joined, loaded_->joined);
  EXPECT_EQ(rejoin.stats, loaded_->join_stats);
}

TEST_F(StorePipelineTest, CorruptedStoreFailsLoudly) {
  const std::string copy = temp_path("pipeline-corrupt.drs");
  std::filesystem::copy_file(*path_, copy,
                             std::filesystem::copy_options::overwrite_existing);
  {
    // Flip a byte in the middle of the block region (between the header
    // and the footer) so a column checksum — not the footer CRC — trips.
    std::fstream f(copy, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f);
    const auto offset =
        static_cast<std::streamoff>(std::filesystem::file_size(copy) / 2);
    f.seekg(offset);
    char c = 0;
    f.get(c);
    f.seekp(offset);
    f.put(static_cast<char>(c ^ 0x55));
  }
  EXPECT_THROW(load_run(copy), store::StoreError);
}

}  // namespace
}  // namespace ddos::scenario
