#include "telescope/rsdos.h"

#include <algorithm>
#include <cstddef>
#include <tuple>

#include "exec/parallel.h"
#include "util/strings.h"

namespace ddos::telescope {

std::string RSDoSRecord::csv_header() {
  return "window,victim,slash16,protocol,first_port,unique_ports,max_ppm,"
         "packets";
}

std::string RSDoSRecord::to_csv_row() const {
  return std::to_string(window) + "," + victim.to_string() + "," +
         std::to_string(distinct_slash16) + "," +
         attack::to_string(protocol) + "," + std::to_string(first_port) +
         "," + std::to_string(unique_ports) + "," +
         util::format_fixed(max_ppm, 1) + "," + std::to_string(packets);
}

bool passes_thresholds(const attack::BackscatterWindow& bw,
                       const InferenceParams& params) {
  if (bw.packets < params.min_packets_per_window) return false;
  if (bw.distinct_slash16 < params.min_distinct_slash16) return false;
  if (bw.peak_ppm < params.min_ppm) return false;
  return true;
}

RSDoSRecord to_record(const attack::BackscatterWindow& bw) {
  RSDoSRecord rec;
  rec.window = bw.window;
  rec.victim = bw.victim;
  rec.distinct_slash16 = bw.distinct_slash16;
  rec.protocol = bw.protocol;
  rec.first_port = bw.first_port;
  rec.unique_ports = bw.unique_ports;
  rec.max_ppm = bw.peak_ppm;
  rec.packets = bw.packets;
  return rec;
}

std::vector<VictimAttacks> count_attacks(std::span<const RSDoSEvent> events) {
  std::vector<VictimAttacks> out;
  for (const RSDoSEvent& ev : events) {
    const std::uint32_t victim = ev.victim.value();
    if (out.empty() || out.back().victim != victim) out.push_back({victim, 0});
    ++out.back().attacks;
  }
  return out;
}

bool record_less(const RSDoSRecord& a, const RSDoSRecord& b) {
  if (a.victim != b.victim) return a.victim < b.victim;
  if (a.window != b.window) return a.window < b.window;
  const auto tail = [](const RSDoSRecord& r) {
    return std::make_tuple(r.distinct_slash16,
                           static_cast<std::uint8_t>(r.protocol), r.first_port,
                           r.unique_ports, r.packets, r.max_ppm);
  };
  return tail(a) < tail(b);
}

namespace {

template <typename Run>
void absorb(Run& a, const Run& b) {
  if (record_less(b.head, a.head)) a.head = b.head;
  a.start = std::min(a.start, b.start);
  a.end = std::max(a.end, b.end);
  a.max_ppm = std::max(a.max_ppm, b.max_ppm);
  a.total_packets += b.total_packets;
  a.max_slash16 = std::max(a.max_slash16, b.max_slash16);
  a.max_unique_ports = std::max(a.max_unique_ports, b.max_unique_ports);
}

/// One parallel region with a task per stitch range.
template <typename Body>
void per_range(std::size_t ranges, Body&& body) {
  exec::RegionOptions opts;
  opts.label = "telescope.stitch";
  opts.max_shards = ranges;
  exec::parallel_for(ranges, opts, [&](const exec::ShardRange& shard) {
    for (std::size_t r = shard.begin; r < shard.end; ++r) body(r);
  });
}

}  // namespace

EventStitcher::EventStitcher(const InferenceParams& params,
                             std::vector<std::uint32_t> victim_sample)
    : params_(params) {
  // One range per pool participant, cut at the sample's quantiles; a
  // repeated quantile adds no cut, so no range has zero width.
  std::sort(victim_sample.begin(), victim_sample.end());
  const std::size_t wanted =
      victim_sample.empty() ? 1 : exec::global_pool().thread_count();
  std::uint64_t lo = 0;
  for (std::size_t r = 1; r <= wanted; ++r) {
    const std::uint64_t hi =
        r == wanted ? std::uint64_t{1} << 32
                    : victim_sample[r * victim_sample.size() / wanted];
    if (hi <= lo) continue;
    Range& range = ranges_.emplace_back();
    range.lo = lo;
    range.width = hi - lo;
    lo = hi;
  }
}

void EventStitcher::add(RecordBatch batch) {
  for (const std::span<const RSDoSRecord> part : batch) {
    records_added_ += part.size();
  }
  const netsim::WindowIndex reach = params_.max_gap_windows + 1;
  per_range(ranges_.size(), [&](std::size_t r) {
    Range& range = ranges_[r];
    for (const std::span<const RSDoSRecord> part : batch) {
      for (const RSDoSRecord& record : part) {
        if (range.holds(record.victim.value())) range.add(record, reach);
      }
    }
  });
}

void EventStitcher::Range::add(const RSDoSRecord& record,
                               netsim::WindowIndex reach) {
  // Feed records arrive grouped by attack, so consecutive adds mostly hit
  // one victim: reuse its slot without a hash probe.
  if (runs.empty() || record.victim.value() != last_victim) {
    last_victim = record.victim.value();
    const auto [slot, inserted] = slot_of.try_emplace(
        last_victim, static_cast<std::uint32_t>(runs.size()));
    if (inserted) runs.emplace_back();
    last_slot = *slot;
  }
  std::vector<Run>& victim_runs = runs[last_slot];

  Run single;
  single.head = record;
  single.start = single.end = record.window;
  single.max_ppm = record.max_ppm;
  single.total_packets = record.packets;
  single.max_slash16 = record.distinct_slash16;
  single.max_unique_ports = record.unique_ports;

  // Fold into the last run whose start <= record.window when the window
  // is within its reach, else insert after it; then merge with the right
  // neighbour if the run now bridges to it. Runs are separated by gaps >
  // reach, so at most one merge per side can fire: merging left extends
  // end to at most max(left.end, window), and the run past the right
  // neighbour stays > reach away from the right neighbour's end.
  const auto pos = std::upper_bound(
      victim_runs.begin(), victim_runs.end(), record.window,
      [](netsim::WindowIndex w, const Run& r) { return w < r.start; });
  std::size_t i = static_cast<std::size_t>(pos - victim_runs.begin());
  if (i > 0 && single.start - victim_runs[i - 1].end <= reach) {
    absorb(victim_runs[--i], single);
  } else {
    victim_runs.insert(pos, single);
  }
  if (i + 1 < victim_runs.size() &&
      victim_runs[i + 1].start - victim_runs[i].end <= reach) {
    absorb(victim_runs[i], victim_runs[i + 1]);
    victim_runs.erase(victim_runs.begin() + static_cast<std::ptrdiff_t>(i) + 1);
  }
}

std::size_t EventStitcher::Range::events() const {
  std::size_t total = 0;
  for (const auto& victim_runs : runs) total += victim_runs.size();
  return total;
}

void EventStitcher::Range::write_events(RSDoSEvent* out) const {
  for (const auto& [victim, slot] : slot_of.sorted_items()) {
    for (const Run& run : runs[slot]) {
      RSDoSEvent& ev = *out++;
      ev.victim = netsim::IPv4Addr(victim);
      ev.start_window = run.start;
      ev.end_window = run.end;
      ev.max_ppm = run.max_ppm;
      ev.total_packets = run.total_packets;
      ev.max_slash16 = run.max_slash16;
      ev.protocol = run.head.protocol;
      ev.first_port = run.head.first_port;
      ev.max_unique_ports = run.max_unique_ports;
    }
  }
}

std::vector<RSDoSEvent> EventStitcher::finish() const {
  std::vector<std::size_t> offset(ranges_.size() + 1, 0);
  for (std::size_t r = 0; r < ranges_.size(); ++r) {
    offset[r + 1] = offset[r] + ranges_[r].events();
  }
  std::vector<RSDoSEvent> events(offset.back());
  per_range(ranges_.size(), [&](std::size_t r) {
    ranges_[r].write_events(events.data() + offset[r]);
  });
  return events;
}

}  // namespace ddos::telescope
