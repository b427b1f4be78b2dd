// Fixed-capacity time series — the storage half of the time-resolved
// telemetry layer (the sampler in sampler.h is the producer).
//
// A TimeSeries is a ring buffer of (t_ns, value) points: pushes past
// capacity overwrite the oldest point, so a long run keeps a bounded,
// most-recent window of every metric instead of growing without limit.
// Memory is exactly series x capacity x 16 bytes (one std::uint64_t
// timestamp + one double per point) plus a small fixed header per series.
//
// A TimeSeriesSet owns many named series behind one mutex. The sampler
// thread pushes while exporters (JSONL tail, dashboard, watchdog dump)
// snapshot concurrently; at the 250 ms default cadence the lock is
// uncontended noise, so there is no lock-free cleverness here on purpose.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ddos::obs {

/// How a series' values should be read (and rendered): Level series are
/// instantaneous values (gauges, counter levels, RSS); Rate series are
/// per-second derivatives the sampler computes on the fly from counter
/// deltas.
enum class SeriesKind { Level, Rate };

struct SeriesPoint {
  std::uint64_t t_ns = 0;  // sampler-epoch-relative steady-clock time
  double value = 0.0;
};

/// Single-writer ring buffer of SeriesPoints. Not internally synchronised;
/// TimeSeriesSet serialises access for the sampler/exporter pair.
class TimeSeries {
 public:
  explicit TimeSeries(std::size_t capacity, SeriesKind kind = SeriesKind::Level);

  void push(std::uint64_t t_ns, double value);

  SeriesKind kind() const { return kind_; }
  std::size_t capacity() const { return points_.size(); }
  /// Points currently held (== pushes until the ring wraps).
  std::size_t size() const { return size_; }
  /// Total pushes ever, including overwritten ones.
  std::uint64_t total_pushed() const { return pushed_; }

  /// i-th retained point, 0 = oldest retained .. size()-1 = newest.
  SeriesPoint at(std::size_t i) const;
  SeriesPoint back() const { return at(size_ - 1); }

  /// The newest min(n, size()) points, oldest first (watchdog dumps).
  std::vector<SeriesPoint> tail(std::size_t n) const;

 private:
  SeriesKind kind_;
  std::vector<SeriesPoint> points_;  // ring storage, fixed at capacity
  std::size_t head_ = 0;             // next write slot
  std::size_t size_ = 0;
  std::uint64_t pushed_ = 0;
};

/// Named collection of series; thread-safe. Series are created on first
/// touch with the set's fixed per-series capacity and live until the set
/// dies, so exporters never see a series disappear mid-run.
class TimeSeriesSet {
 public:
  explicit TimeSeriesSet(std::size_t capacity_per_series = 4096);

  /// Append a point, creating the series if needed.
  void push(const std::string& name, SeriesKind kind, std::uint64_t t_ns,
            double value);

  std::size_t series_count() const;
  std::size_t capacity_per_series() const { return capacity_; }
  /// Bound documented in DESIGN.md: series x capacity x 16 bytes.
  std::size_t memory_bound_bytes() const;

  struct NamedSeries {
    std::string name;
    SeriesKind kind = SeriesKind::Level;
    std::vector<SeriesPoint> points;  // oldest first
    std::uint64_t total_pushed = 0;
  };
  /// Deep copy of every series, sorted by name — the exporter input.
  std::vector<NamedSeries> snapshot() const;
  /// Deep copy of the newest n points of every series (watchdog dumps).
  std::vector<NamedSeries> snapshot_tails(std::size_t n) const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  // unique_ptr keeps series addresses stable across map rebalancing; the
  // map itself is only touched under mu_.
  std::map<std::string, std::unique_ptr<TimeSeries>> series_;
};

}  // namespace ddos::obs
