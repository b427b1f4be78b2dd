#include "obs/timeseries.h"

#include <algorithm>
#include <limits>

namespace ddos::obs {

TimeSeries::TimeSeries(std::size_t capacity, SeriesKind kind)
    : kind_(kind), points_(std::max<std::size_t>(2, capacity)) {}

void TimeSeries::push(std::uint64_t t_ns, double value) {
  points_[head_] = SeriesPoint{t_ns, value};
  head_ = (head_ + 1) % points_.size();
  if (size_ < points_.size()) ++size_;
  ++pushed_;
}

SeriesPoint TimeSeries::at(std::size_t i) const {
  // Oldest retained point sits at head_ once the ring has wrapped, at 0
  // before that.
  const std::size_t start = size_ == points_.size() ? head_ : 0;
  return points_[(start + i) % points_.size()];
}

std::vector<SeriesPoint> TimeSeries::tail(std::size_t n) const {
  const std::size_t count = std::min(n, size_);
  std::vector<SeriesPoint> out;
  out.reserve(count);
  for (std::size_t i = size_ - count; i < size_; ++i) out.push_back(at(i));
  return out;
}

TimeSeriesSet::TimeSeriesSet(std::size_t capacity_per_series)
    : capacity_(std::max<std::size_t>(2, capacity_per_series)) {}

void TimeSeriesSet::push(const std::string& name, SeriesKind kind,
                         std::uint64_t t_ns, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = series_[name];
  if (!slot) slot = std::make_unique<TimeSeries>(capacity_, kind);
  slot->push(t_ns, value);
}

std::size_t TimeSeriesSet::series_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

std::size_t TimeSeriesSet::memory_bound_bytes() const {
  return series_count() * capacity_ * sizeof(SeriesPoint);
}

std::vector<TimeSeriesSet::NamedSeries> TimeSeriesSet::snapshot() const {
  return snapshot_tails(std::numeric_limits<std::size_t>::max());
}

std::vector<TimeSeriesSet::NamedSeries> TimeSeriesSet::snapshot_tails(
    std::size_t n) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<NamedSeries> out;
  out.reserve(series_.size());
  for (const auto& [name, series] : series_) {
    NamedSeries s;
    s.name = name;
    s.kind = series->kind();
    s.points = series->tail(n);
    s.total_pushed = series->total_pushed();
    out.push_back(std::move(s));
  }
  return out;  // std::map iteration is already name-sorted
}

}  // namespace ddos::obs
