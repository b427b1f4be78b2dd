#include "openintel/storage.h"

#include <algorithm>

namespace ddos::openintel {

void Aggregate::fold(const Measurement& m) {
  ++measured;
  switch (m.status) {
    case dns::ResponseStatus::Ok:
      ++ok;
      rtt.add(m.rtt_ms);
      break;
    case dns::ResponseStatus::ServFail:
      ++servfail;
      rtt.add(m.rtt_ms);
      break;
    case dns::ResponseStatus::Timeout:
      ++timeout;
      break;
    case dns::ResponseStatus::NxDomain:
      // Not an infrastructure failure; counted as measured only.
      break;
  }
}

void Aggregate::merge(const Aggregate& other) {
  measured += other.measured;
  ok += other.ok;
  timeout += other.timeout;
  servfail += other.servfail;
  rtt.merge(other.rtt);
}

void MeasurementStore::add(const Measurement& m) {
  ++total_;
  const netsim::DayIndex day = m.time.day();
  daily_[day_key(m.nsset, day)].fold(m);
  window_[window_key(m.nsset, m.time.window())].fold(m);
  if (m.answered()) ns_seen_[day].insert(m.chosen_ns);
}

const Aggregate* MeasurementStore::daily(dns::NssetId nsset,
                                         netsim::DayIndex day) const {
  return daily_.find(day_key(nsset, day));
}

double MeasurementStore::daily_avg_rtt(dns::NssetId nsset,
                                       netsim::DayIndex day) const {
  const Aggregate* agg = daily(nsset, day);
  return agg ? agg->avg_rtt() : 0.0;
}

const Aggregate* MeasurementStore::window(dns::NssetId nsset,
                                          netsim::WindowIndex window) const {
  return window_.find(window_key(nsset, window));
}

bool MeasurementStore::ns_seen_on(netsim::IPv4Addr ns,
                                  netsim::DayIndex day) const {
  const util::FlatSet<netsim::IPv4Addr>* ips = ns_seen_.find(day);
  return ips && ips->contains(ns);
}

MeasurementStore::RetiredState MeasurementStore::retire_days_below(
    netsim::DayIndex day) {
  RetiredState out;
  // Clamp to the biased key domain first: callers may pass sentinel day
  // cuts (the shard driver's outer shards retire below an int64 min/max
  // bound), which must mean "retire nothing" / "retire everything" — not
  // whatever the u32 bias cast happens to wrap them to. The window keys
  // have the narrower domain (day * windows-per-day must fit the 32-bit
  // biased field), so both limits clamp to it.
  constexpr netsim::DayIndex kMinDay = -kDayBias;
  constexpr netsim::DayIndex kMaxDay =
      (netsim::DayIndex{1} << 32) / netsim::kWindowsPerDay - kDayBias;
  const netsim::DayIndex bound = std::clamp(day, kMinDay, kMaxDay);
  // Time-major keys make "every key of a day below `bound`" a simple key
  // comparison: the nsset occupies the low 32 bits, so the smallest key of
  // day `bound` (nsset 0) bounds all earlier days from above.
  const std::uint64_t daily_limit =
      bound == kMaxDay ? ~std::uint64_t{0} : day_key(dns::NssetId{0}, bound);
  const std::uint64_t window_limit =
      bound == kMaxDay
          ? ~std::uint64_t{0}
          : window_key(dns::NssetId{0}, bound * netsim::kWindowsPerDay);

  daily_.for_each([&](std::uint64_t key, const Aggregate& agg) {
    if (key < daily_limit) out.daily.emplace_back(key, agg);
  });
  window_.for_each([&](std::uint64_t key, const Aggregate& agg) {
    if (key < window_limit) out.window.emplace_back(key, agg);
  });
  ns_seen_.for_each([&](netsim::DayIndex d,
                        const util::FlatSet<netsim::IPv4Addr>& ips) {
    if (d < day) {
      ips.for_each(
          [&out, d](netsim::IPv4Addr ip) { out.ns_seen.emplace_back(d, ip); });
    }
  });
  // for_each walks slot order (insertion-history dependent); sorting makes
  // each retired chunk deterministic regardless of ingest interleaving.
  const auto by_key = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(out.daily.begin(), out.daily.end(), by_key);
  std::sort(out.window.begin(), out.window.end(), by_key);
  std::sort(out.ns_seen.begin(), out.ns_seen.end());

  daily_.erase_if([&](std::uint64_t key, const Aggregate&) {
    return key < daily_limit;
  });
  window_.erase_if([&](std::uint64_t key, const Aggregate&) {
    return key < window_limit;
  });
  ns_seen_.erase_if(
      [&](netsim::DayIndex d, const util::FlatSet<netsim::IPv4Addr>&) {
        return d < day;
      });
  return out;
}

std::vector<std::pair<std::uint64_t, Aggregate>>
MeasurementStore::sorted_daily() const {
  return daily_.sorted_items();
}

std::vector<std::pair<std::uint64_t, Aggregate>>
MeasurementStore::sorted_window() const {
  return window_.sorted_items();
}

std::vector<std::pair<netsim::DayIndex, netsim::IPv4Addr>>
MeasurementStore::sorted_ns_seen() const {
  std::vector<std::pair<netsim::DayIndex, netsim::IPv4Addr>> out;
  ns_seen_.for_each(
      [&out](netsim::DayIndex day, const util::FlatSet<netsim::IPv4Addr>& ips) {
        ips.for_each(
            [&out, day](netsim::IPv4Addr ip) { out.emplace_back(day, ip); });
      });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ddos::openintel
