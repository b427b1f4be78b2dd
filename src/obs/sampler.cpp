#include "obs/sampler.h"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace ddos::obs {

namespace {

// "name" or "name{k=v,...}" — the series key for a labelled metric, so
// per-worker exec gauges get one ring each.
std::string series_key(const MetricSample& s) {
  if (s.labels.empty()) return s.name;
  std::string out = s.name + "{";
  bool first = true;
  for (const auto& [k, v] : s.labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=" + v;
  }
  out += "}";
  return out;
}

std::string jsonl_number(double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

ProcStats read_proc_stats() {
  ProcStats out;
  // VmRSS/VmHWM from /proc/self/status (kB lines).
  {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
      const auto parse_kb = [&](const char* prefix, std::uint64_t& dst) {
        if (line.rfind(prefix, 0) != 0) return;
        std::istringstream fields(line.substr(std::string(prefix).size()));
        std::uint64_t kb = 0;
        fields >> kb;
        dst = kb * 1024;
      };
      parse_kb("VmRSS:", out.vm_rss_bytes);
      parse_kb("VmHWM:", out.vm_hwm_bytes);
    }
  }
  // utime/stime are fields 14/15 of /proc/self/stat, in clock ticks. The
  // comm field (2) can contain spaces but is parenthesised; skip past the
  // closing paren before field-splitting.
  {
    std::ifstream in("/proc/self/stat");
    std::string stat;
    std::getline(in, stat);
    const auto paren = stat.rfind(')');
    if (paren != std::string::npos) {
      std::istringstream fields(stat.substr(paren + 1));
      std::string tok;
      std::uint64_t utime_ticks = 0, stime_ticks = 0;
      // After ") " the next field is state (3); utime is field 14.
      for (int field = 3; field <= 15 && (fields >> tok); ++field) {
        if (field == 14) utime_ticks = std::strtoull(tok.c_str(), nullptr, 10);
        if (field == 15) stime_ticks = std::strtoull(tok.c_str(), nullptr, 10);
      }
      const double tick_s = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
      out.utime_s = static_cast<double>(utime_ticks) * tick_s;
      out.stime_s = static_cast<double>(stime_ticks) * tick_s;
    }
  }
  // Open descriptor count = directory entries of /proc/self/fd.
  {
    std::error_code ec;
    std::filesystem::directory_iterator it("/proc/self/fd", ec);
    if (!ec) {
      std::uint64_t n = 0;
      for (const auto& entry : it) {
        (void)entry;
        ++n;
      }
      out.fd_count = n;
    }
  }
  return out;
}

TelemetrySampler::TelemetrySampler(Observer& observer, SamplerOptions options)
    : observer_(observer),
      options_(options),
      series_(options.capacity_per_series) {}

TelemetrySampler::~TelemetrySampler() { stop(); }

void TelemetrySampler::start() {
  if (running_.exchange(true)) return;
  stop_requested_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { thread_main(); });
}

void TelemetrySampler::stop() {
  if (stopped_) return;
  {
    const std::lock_guard<std::mutex> lock(wait_mu_);
    stop_requested_.store(true, std::memory_order_relaxed);
  }
  wait_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_relaxed);
  // Final sample so the run's end state is captured even when the run was
  // shorter than one interval.
  sample_now();
  if (options_.jsonl) options_.jsonl->flush();
  stopped_ = true;
}

void TelemetrySampler::thread_main() {
  // First sample immediately: it is the baseline the rate columns diff
  // against, and a sub-interval run still gets (first, final) bookends.
  sample_now();
  std::unique_lock<std::mutex> lock(wait_mu_);
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    wait_cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                      [&] {
                        return stop_requested_.load(
                            std::memory_order_relaxed);
                      });
    if (stop_requested_.load(std::memory_order_relaxed)) break;
    lock.unlock();
    sample_now();
    lock.lock();
  }
}

void TelemetrySampler::sample_now() {
  const std::lock_guard<std::mutex> sample_lock(mu_);
  const std::uint64_t t0 = observer_.tracer().now_ns();
  const double dt_s =
      prev_t_ns_ > 0 ? static_cast<double>(t0 - prev_t_ns_) / 1e9 : 0.0;

  // (key, kind, value) readings of this tick, for the ring pushes and the
  // JSONL line alike.
  std::vector<std::pair<std::string, double>> level_values;
  std::vector<std::pair<std::string, double>> rate_values;

  const auto push_level = [&](const std::string& key, double value) {
    level_values.emplace_back(key, value);
  };
  // Counter-style reading: level series plus a derived `<key>.rate`
  // per-second series from the delta against the previous tick.
  const auto push_counter = [&](const std::string& key, double value) {
    push_level(key, value);
    const auto prev = prev_levels_.find(key);
    if (prev != prev_levels_.end() && dt_s > 0.0) {
      rate_values.emplace_back(key + ".rate", (value - prev->second) / dt_s);
    }
    prev_levels_[key] = value;
  };

  const MetricsSnapshot snap = observer_.metrics().snapshot();
  for (const MetricSample& s : snap.samples) {
    const std::string key = series_key(s);
    switch (s.kind) {
      case MetricKind::Counter:
        push_counter(key, s.value);
        break;
      case MetricKind::Gauge:
        push_level(key, s.value);
        break;
      case MetricKind::Histogram:
        // s.value is the observation total; bins stay point-in-time.
        push_counter(key + ".count", s.value);
        break;
    }
  }

  for (const auto& reading : observer_.progress_sources().read()) {
    push_counter("progress." + reading.name,
                 static_cast<double>(reading.count));
  }

  if (options_.sample_process) {
    const ProcStats proc = read_proc_stats();
    push_level("proc.vm_rss_bytes", static_cast<double>(proc.vm_rss_bytes));
    push_level("proc.vm_hwm_bytes", static_cast<double>(proc.vm_hwm_bytes));
    push_level("proc.utime_s", proc.utime_s);
    push_level("proc.stime_s", proc.stime_s);
    push_level("proc.fd_count", static_cast<double>(proc.fd_count));
    if (prev_t_ns_ > 0 && dt_s > 0.0) {
      const double d_cpu = (proc.utime_s + proc.stime_s) -
                           (prev_proc_.utime_s + prev_proc_.stime_s);
      rate_values.emplace_back("proc.cpu_pct", 100.0 * d_cpu / dt_s);
    }
    prev_proc_ = proc;
  }

  for (const auto& [key, value] : level_values) {
    series_.push(key, SeriesKind::Level, t0, value);
  }
  for (const auto& [key, value] : rate_values) {
    series_.push(key, SeriesKind::Rate, t0, value);
  }

  if (options_.jsonl) {
    std::ostream& jsonl = *options_.jsonl;
    jsonl << "{\"t_ms\":" << jsonl_number(static_cast<double>(t0) / 1e6)
          << ",\"values\":{";
    bool first = true;
    const auto emit = [&](const std::string& key, double value) {
      if (!first) jsonl << ",";
      first = false;
      jsonl << "\"" << json_escape(key) << "\":" << jsonl_number(value);
    };
    for (const auto& [key, value] : level_values) emit(key, value);
    for (const auto& [key, value] : rate_values) emit(key, value);
    jsonl << "}}\n";
  }

  prev_t_ns_ = t0;
  samples_.fetch_add(1, std::memory_order_relaxed);
  sample_ns_.fetch_add(observer_.tracer().now_ns() - t0,
                       std::memory_order_relaxed);
}

}  // namespace ddos::obs
