#include "telescope/rsdos.h"

#include <algorithm>
#include <cstddef>
#include <tuple>

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

}  // namespace

void EventStitcher::add(const RSDoSRecord& record) {
  ++records_added_;
  const netsim::WindowIndex reach =
      static_cast<netsim::WindowIndex>(params_.max_gap_windows) + 1;
  // Feed records arrive grouped by attack, so consecutive adds mostly hit
  // one victim: reuse its slot without a hash probe.
  if (runs_.empty() || record.victim.value() != last_victim_) {
    last_victim_ = record.victim.value();
    const auto [slot, inserted] = slot_of_.try_emplace(
        last_victim_, static_cast<std::uint32_t>(runs_.size()));
    if (inserted) runs_.emplace_back();
    last_slot_ = *slot;
  }
  std::vector<Run>& runs = runs_[last_slot_];

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
      runs.begin(), runs.end(), record.window,
      [](netsim::WindowIndex w, const Run& r) { return w < r.start; });
  std::size_t i = static_cast<std::size_t>(pos - runs.begin());
  if (i > 0 && single.start - runs[i - 1].end <= reach) {
    absorb(runs[--i], single);
  } else {
    runs.insert(pos, single);
  }
  if (i + 1 < runs.size() && runs[i + 1].start - runs[i].end <= reach) {
    absorb(runs[i], runs[i + 1]);
    runs.erase(runs.begin() + static_cast<std::ptrdiff_t>(i) + 1);
  }
}

std::vector<RSDoSEvent> EventStitcher::finish() const {
  std::size_t total = 0;
  for (const auto& runs : runs_) total += runs.size();
  std::vector<RSDoSEvent> events;
  events.reserve(total);
  for (const auto& [victim, slot] : slot_of_.sorted_items()) {
    for (const Run& run : runs_[slot]) {
      RSDoSEvent ev;
      ev.victim = netsim::IPv4Addr(victim);
      ev.start_window = run.start;
      ev.end_window = run.end;
      ev.max_ppm = run.max_ppm;
      ev.total_packets = run.total_packets;
      ev.max_slash16 = run.max_slash16;
      ev.protocol = run.head.protocol;
      ev.first_port = run.head.first_port;
      ev.max_unique_ports = run.max_unique_ports;
      events.push_back(ev);
    }
  }
  return events;
}

}  // namespace ddos::telescope
