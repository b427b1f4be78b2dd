#include "serve/query_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>

#include "core/impact.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "openintel/storage.h"
#include "store/dataset.h"
#include "store/reader.h"
#include "store/scan.h"

namespace ddos::serve {

namespace {

/// The series point of one daily (key, aggregate): avg_rtt and
/// failure_rate exactly as openintel::Aggregate derives them.
NssetDayPoint series_point(std::uint64_t key, const openintel::Aggregate& agg) {
  NssetDayPoint p;
  p.nsset = openintel::MeasurementStore::key_nsset(key);
  p.point.day = openintel::MeasurementStore::day_key_day(key);
  p.point.measured = agg.measured;
  p.point.avg_rtt_ms = agg.avg_rtt();
  p.point.failure_rate = agg.failure_rate();
  return p;
}

netsim::DayIndex start_day(const core::EventFrame& f, std::size_t i) {
  return netsim::window_start(static_cast<netsim::WindowIndex>(
                                  f.start_window[i]))
      .day();
}

}  // namespace

QueryEngine::QueryEngine(EngineColumns columns) { build(columns); }

QueryEngine::QueryEngine(const scenario::RunArtifacts& run) {
  const core::OwnedEventFrame joined(run.joined);
  std::vector<NssetDayPoint> series;
  for (const auto& [key, agg] : run.store.sorted_daily()) {
    series.push_back(series_point(key, agg));
  }
  const std::vector<telescope::VictimAttacks> attacks =
      telescope::count_attacks(run.events);
  EngineColumns columns{joined.frame(), std::move(series), attacks};
  build(columns);
}

void QueryEngine::build(EngineColumns& columns) {
  obs::ScopedSpan span(obs::installed_tracer(), "serve.build_indexes");
  build_nsset_index(columns.joined);
  build_series_index(columns.series);
  build_leaderboards(columns.attacks);
  build_window_index(columns.joined);
  span.set_items(summaries_.size());
  if (obs::Observer* o = obs::Observer::installed()) {
    o->metrics().gauge("serve.index_nssets")
        .set(static_cast<double>(summaries_.size()));
    o->metrics().gauge("serve.index_series_points")
        .set(static_cast<double>(day_points_.size()));
    o->metrics().gauge("serve.index_leaderboard_entries")
        .set(static_cast<double>(leaderboard_entries()));
  }
}

void QueryEngine::build_nsset_index(const core::EventFrame& joined) {
  // Group joined-event indices by NSSet with a counting pass, preserving
  // canonical event order within each group (the grouping walk is stable).
  // Slot order is first-appearance order in the joined rows — a pure
  // function of the run, never of hashing.
  const auto nsset_of = [&joined](std::size_t i) {
    return static_cast<dns::NssetId>(joined.nsset[i]);
  };
  slot_of_.reserve(joined.rows);
  for (std::size_t i = 0; i < joined.rows; ++i) {
    const auto [slot, inserted] =
        slot_of_.try_emplace(nsset_of(i), static_cast<std::uint32_t>(0));
    if (inserted) {
      *slot = static_cast<std::uint32_t>(summaries_.size());
      summaries_.emplace_back();
      summaries_.back().nsset = nsset_of(i);
      event_ranges_.emplace_back();
    }
    ++event_ranges_[*slot].count;
  }
  std::uint32_t offset = 0;
  for (auto& range : event_ranges_) {
    range.offset = offset;
    offset += range.count;
    range.count = 0;  // reused as the fill cursor below
  }
  event_index_.resize(joined.rows);
  for (std::uint32_t i = 0; i < joined.rows; ++i) {
    const std::uint32_t slot = *slot_of_.find(nsset_of(i));
    auto& range = event_ranges_[slot];
    event_index_[range.offset + range.count++] = i;

    NssetSummary& s = summaries_[slot];
    const netsim::DayIndex day = start_day(joined, i);
    if (s.events == 0 || day < s.first_day) s.first_day = day;
    if (s.events == 0 || day > s.last_day) s.last_day = day;
    ++s.events;
    s.domains_hosted = joined.domains_hosted[i];
    s.peak_impact = std::max(s.peak_impact, joined.peak_impact[i]);
    s.max_failure_rate = std::max(s.max_failure_rate, joined.failure_rate[i]);
    s.ok += static_cast<std::uint32_t>(joined.ok[i]);
    s.timeouts += static_cast<std::uint32_t>(joined.timeouts[i]);
    s.servfails += static_cast<std::uint32_t>(joined.servfails[i]);
  }
}

void QueryEngine::build_series_index(std::vector<NssetDayPoint>& rows) {
  // The store's daily keys are time-major ((day, nsset) ascending); the
  // serving index wants nsset-major so one NSSet's series is a contiguous
  // span. Sort by (nsset, day) — unique keys, so the order is total.
  std::sort(rows.begin(), rows.end(),
            [](const NssetDayPoint& a, const NssetDayPoint& b) {
              return a.nsset != b.nsset ? a.nsset < b.nsset
                                        : a.point.day < b.point.day;
            });

  day_points_.reserve(rows.size());
  series_ranges_.resize(summaries_.size());
  for (const auto& row : rows) {
    const auto [slot, inserted] =
        slot_of_.try_emplace(row.nsset, static_cast<std::uint32_t>(0));
    if (inserted) {
      // Swept but never attacked: summary stays zeroed, series only.
      *slot = static_cast<std::uint32_t>(summaries_.size());
      summaries_.emplace_back();
      summaries_.back().nsset = row.nsset;
      event_ranges_.emplace_back();
      series_ranges_.emplace_back();
    }
    IndexRange& range = series_ranges_[*slot];
    if (range.count == 0) {
      range.offset = static_cast<std::uint32_t>(day_points_.size());
    }
    ++range.count;
    day_points_.push_back(row.point);
  }

  // The serving key universe: every indexed NSSet, ascending, so key
  // choosers map dense ranks onto a stable ordered population.
  keys_.reserve(slot_of_.size());
  slot_of_.for_each(
      [this](const dns::NssetId& nsset, const std::uint32_t&) {
        keys_.push_back(nsset);
      });
  std::sort(keys_.begin(), keys_.end());
}

void QueryEngine::build_leaderboards(
    std::span<const telescope::VictimAttacks> attacks) {
  // Attacks per victim IP, over ALL telescope events (the raw "top
  // attacked targets" view; the joined leaderboards below are DNS-only by
  // construction).
  top_attacks_.reserve(attacks.size());
  for (const telescope::VictimAttacks& row : attacks) {
    top_attacks_.push_back({row.victim, static_cast<double>(row.attacks)});
  }
  // Descending value; the input's ascending victim order makes the stable
  // sort's tie order total.
  const auto by_value_desc = [](const TopEntry& a, const TopEntry& b) {
    return a.value > b.value;
  };
  std::stable_sort(top_attacks_.begin(), top_attacks_.end(), by_value_desc);

  top_impact_.reserve(summaries_.size());
  top_failure_.reserve(summaries_.size());
  for (const dns::NssetId nsset : keys_) {
    const NssetSummary& s = summaries_[*slot_of_.find(nsset)];
    if (s.events == 0) continue;  // series-only NSSets hold no attack rank
    top_impact_.push_back({nsset, s.peak_impact});
    top_failure_.push_back({nsset, s.max_failure_rate});
  }
  std::stable_sort(top_impact_.begin(), top_impact_.end(), by_value_desc);
  std::stable_sort(top_failure_.begin(), top_failure_.end(), by_value_desc);
}

void QueryEngine::build_window_index(const core::EventFrame& joined) {
  if (joined.rows == 0) return;
  day_min_ = day_max_ = start_day(joined, 0);
  for (std::size_t i = 0; i < joined.rows; ++i) {
    const netsim::DayIndex day = start_day(joined, i);
    day_min_ = std::min(day_min_, day);
    day_max_ = std::max(day_max_, day);
  }
  by_day_.assign(static_cast<std::size_t>(day_max_ - day_min_ + 1), {});
  for (std::size_t i = 0; i < joined.rows; ++i) {
    DayAgg& agg =
        by_day_[static_cast<std::size_t>(start_day(joined, i) - day_min_)];
    const double peak = joined.peak_impact[i];
    ++agg.events;
    if (joined.any_failure(i)) ++agg.events_with_failures;
    agg.timeouts += static_cast<std::uint32_t>(joined.timeouts[i]);
    agg.servfails += static_cast<std::uint32_t>(joined.servfails[i]);
    if (peak >= core::kImpairedThreshold) ++agg.impaired_10x;
    if (peak >= core::kSevereThreshold) ++agg.severe_100x;
    agg.max_peak_impact = std::max(agg.max_peak_impact, peak);
  }
}

PointResult QueryEngine::point_lookup(dns::NssetId nsset) const {
  PointResult result;
  const std::uint32_t* slot = slot_of_.find(nsset);
  if (slot == nullptr) return result;
  result.found = true;
  result.summary = summaries_[*slot];
  const IndexRange events = event_ranges_[*slot];
  result.event_indices = std::span<const std::uint32_t>(
      event_index_.data() + events.offset, events.count);
  const IndexRange series = series_ranges_[*slot];
  result.series =
      std::span<const DayPoint>(day_points_.data() + series.offset,
                                series.count);
  return result;
}

std::size_t QueryEngine::top_k(TopKMetric metric, std::size_t k,
                               std::vector<TopEntry>& out) const {
  const std::vector<TopEntry>* board = nullptr;
  switch (metric) {
    case TopKMetric::Attacks: board = &top_attacks_; break;
    case TopKMetric::PeakImpact: board = &top_impact_; break;
    case TopKMetric::FailureRate: board = &top_failure_; break;
  }
  out.clear();
  const std::size_t n = std::min(k, board->size());
  out.insert(out.end(), board->begin(),
             board->begin() + static_cast<std::ptrdiff_t>(n));
  return n;
}

WindowScanResult QueryEngine::window_scan(netsim::DayIndex day_lo,
                                          netsim::DayIndex day_hi) const {
  WindowScanResult result;
  result.day_lo = std::max(day_lo, day_min_);
  result.day_hi = std::min(day_hi, day_max_);
  for (netsim::DayIndex d = result.day_lo; d <= result.day_hi; ++d) {
    const DayAgg& agg = by_day_[static_cast<std::size_t>(d - day_min_)];
    result.events += agg.events;
    result.events_with_failures += agg.events_with_failures;
    result.timeouts += agg.timeouts;
    result.servfails += agg.servfails;
    result.impaired_10x += agg.impaired_10x;
    result.severe_100x += agg.severe_100x;
    result.max_peak_impact =
        std::max(result.max_peak_impact, agg.max_peak_impact);
  }
  return result;
}

std::unique_ptr<QueryEngine> load_engine(const std::string& store_path) {
  obs::Tracer* tracer = obs::installed_tracer();
  obs::ScopedSpan span(tracer, "serve.load_engine");
  const auto load_start = std::chrono::steady_clock::now();

  // Every block is checked up front, the ones the engine never reads
  // included: a bad store is refused whole, never served in part.
  const scenario::CheckedStore checked = [&] {
    obs::ScopedSpan check(tracer, "serve.load.check");
    return scenario::CheckedStore(store_path, store::ReadMode::Mapped);
  }();
  const store::Reader& reader = checked.reader;
  store::ColumnArena arena;

  // Only the columns the engine derives from are decoded: the stored
  // per-victim attack counts (checked against the stitched-event count),
  // the joined events and the daily columns a series point reads; the
  // feed and the rest stay encoded.
  using Daily = store::AggregateRow;
  std::vector<telescope::VictimAttacks> attacks;
  core::EventFrame joined;
  std::vector<NssetDayPoint> series;
  {
    obs::ScopedSpan decode(tracer, "serve.load.decode");
    attacks = store::read_victims(reader, checked.counts.events);
    joined = store::read_event_frame(reader, arena);
    series.reserve(reader.dataset_rows("daily"));
    store::read_dataset<store::AggregateColumns>(
        reader, "daily", arena,
        [&](const Daily& row) {
          series.push_back(series_point(row.key, row.aggregate()));
        },
        &Daily::key, &Daily::measured, &Daily::timeout, &Daily::servfail,
        &Daily::rtt_n, &Daily::rtt_sum);
  }

  auto engine = std::make_unique<QueryEngine>(
      EngineColumns{joined, std::move(series), attacks});
  store::record_store_read(reader.file_size(),
                           std::chrono::steady_clock::now() - load_start);
  return engine;
}

}  // namespace ddos::serve
