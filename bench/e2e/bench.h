// ddosbench — the repository's end-to-end benchmark. One process runs one
// workload (so its peak RSS belongs to that workload) and writes one
// result JSON; run.py builds the binary, runs workloads and prints the
// results. Every layer is reached through its public functions only: the
// per-layer numbers come from spans the benchmark records around those
// calls into its own obs::Tracer, never from spans inside src/.
#pragma once

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/trace.h"
#include "scenario/driver.h"

namespace ddosbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured phase
  bool trace = false;     // separate traced phase + layer metrics
  std::string out_dir;    // result JSON, Chrome trace, scratch stores
};

/// The q-quantile of `values`, interpolating linearly between order
/// statistics (numpy's default rule).
double quantile(std::vector<double> values, double q);

enum class Better { Lower, Higher };
enum class Kind {
  EndToEnd,  // what a user of the system sees; has a regression bound
  Layer,     // one layer's busy share, rate or count; no bound
};

struct Metric {
  double value = 0.0;
  std::string unit;
  Better better = Better::Lower;
  Kind kind = Kind::Layer;
  double bound = 0.0;  // EndToEnd only: allowed worsening, share of median
  std::size_t n = 1;   // samples behind the value
  double q1 = 0.0;
  double q3 = 0.0;
  std::vector<double> samples;  // set_samples only
};

/// Everything one run reports: metrics, output checks, operation counts.
class Report {
 public:
  /// A value with no spread of its own (a count, one measurement, or one
  /// percentile over `n` samples).
  void set(const std::string& name, double value, const std::string& unit,
           Better better, Kind kind = Kind::Layer, double bound = 0.0,
           std::size_t n = 1);
  /// The median of `samples`, with their quartiles and count.
  void set_samples(const std::string& name, const std::vector<double>& samples,
                   const std::string& unit, Better better,
                   Kind kind = Kind::Layer, double bound = 0.0);
  /// End-to-end metric shorthands with the benchmark's fixed bounds.
  void set_e2e(const std::string& name, const std::vector<double>& samples,
               const std::string& unit, Better better, double bound) {
    set_samples(name, samples, unit, better, Kind::EndToEnd, bound);
  }

  /// Record an output check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what);
  bool correct() const { return failures_.empty(); }

  void add_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void info(const std::string& key, const std::string& value) {
    info_[key] = value;
  }

  bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  const Metric& get(const std::string& name) const { return metrics_.at(name); }

  /// One "workload metric value unit (n=...)" line per metric, then the
  /// checks.
  void print(const std::string& workload) const;
  void write_json(const std::string& path, const Options& options,
                  unsigned threads) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<std::string> failures_;
  std::map<std::string, std::string> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Shared state of one run. `tracer` is non-null only inside the traced
/// phase; every span helper is a no-op while it is null.
struct Bench {
  Options options;
  unsigned threads = 1;  // T = min(nproc, 4): the exec pool size
  Report report;
  ddos::obs::Tracer* tracer = nullptr;
  ddos::obs::Tracer trace_store;  // owns the spans of the traced phase
  std::vector<std::string> roots;  // root span names of the traced phase

  std::string path(const std::string& file) const {
    return options.out_dir + "/" + file;
  }
};

// ---- inputs from the seed -------------------------------------------------

/// The CLI's generate defaults (120k domains, 1,200 providers). The
/// benchmark seed derives the sweep and feed seeds (and serve_seed the
/// query stream); the world and attack-schedule seeds stay at their
/// defaults, because the schedule's heavy tails move the work of a pass
/// by about 5% from one seed to the next.
ddos::scenario::LongitudinalConfig config_for(std::uint64_t seed,
                                              double scale = 30.0);
std::uint64_t serve_seed(std::uint64_t seed);

/// Regression bounds of the end-to-end metrics: the share of the parent's
/// median by which a change may worsen each one. Latency and set-up get
/// 25%, the widest the benchmark contract allows: on a shared 4-vCPU host,
/// ten runs of unchanged code (one seed each) spread by up to 24% in
/// latency, and the medians of two such sets moved by up to 37% when the
/// host's speed drifted between them (README.md, "Bounds and noise").
constexpr double kLatencyBound = 0.25;
constexpr double kSetupBound = 0.25;
constexpr double kRssBound = 0.05;
constexpr double kStoreBound = 0.01;

struct RunCounts {
  std::uint64_t feed_records = 0;
  std::uint64_t events = 0;
  std::uint64_t joined = 0;
  std::uint64_t swept = 0;
  std::uint64_t store_bytes = 0;
};

/// run_longitudinal + save_run: what `ddosrepro generate --store` does.
RunCounts generate_store(const ddos::scenario::LongitudinalConfig& cfg,
                         unsigned threads, const std::string& path);

/// Run `fn` in a child process and return what it returns: for work whose
/// heap must not count against this process's memory. `fn`'s result
/// crosses a pipe, so it must be trivially copyable. Call only while this
/// process has no thread but the main one: the child gets just the caller.
void run_in_child(const std::function<void(int fd)>& child, void* out,
                  std::size_t size);
template <typename T, typename Fn>
T in_child(Fn&& fn) {
  static_assert(std::is_trivially_copyable_v<T>);
  T result{};
  run_in_child(
      [&fn](int fd) {
        const T value = fn();
        if (::write(fd, &value, sizeof value) !=
            static_cast<ssize_t>(sizeof value))
          throw std::runtime_error("child: short write");
      },
      &result, sizeof result);
  return result;
}

/// generate_store in a child process, for input a workload only reads.
RunCounts prepare_store(const ddos::scenario::LongitudinalConfig& cfg,
                        unsigned threads, const std::string& path);

// ---- process measurements -------------------------------------------------

/// Return freed heap pages to the kernel, so that memory allocated next
/// shows in the RSS as fresh pages.
void release_heap();
/// Reset the kernel's peak RSS mark to the current RSS, so the next
/// peak_rss_mb() covers only what follows.
void reset_peak_rss();
double peak_rss_mb();
double current_rss_mb();
bool files_equal(const std::string& a, const std::string& b);
std::uint64_t file_bytes(const std::string& path);

// ---- traced compositions (layers.cpp) ---------------------------------------
//
// The same work as run_longitudinal + save_run and as analyze_store, built
// from the public stage functions with a span around each call. With
// bench.tracer == nullptr they run untraced.

RunCounts compose_generate(Bench& bench,
                           const ddos::scenario::LongitudinalConfig& cfg,
                           const std::string& store_path);

/// Digest of every headline statistic analyze_store computes; equal
/// analyses give equal digests.
std::uint64_t analysis_digest(const ddos::scenario::StoreAnalysis& a);
/// analyze_store rebuilt from Reader, scan_all, read_event_frame and the
/// columnar kernels; returns the same digest analyze_store's result has.
std::uint64_t compose_analyze(Bench& bench, const std::string& store_path);

/// Layer spans opened by the benchmark around public calls.
class Span {
 public:
  Span(Bench& bench, const char* name) : span_(bench.tracer, name) {}
  void items(std::uint64_t n) { span_.set_items(n); }

 private:
  ddos::obs::ScopedSpan span_;
};

/// Open the traced phase: spans from here on are recorded; `roots` names
/// the spans that each enclose one traced operation.
void begin_trace(Bench& bench, std::vector<std::string> roots);

/// Close the traced phase and report the per-layer metrics: each layer's
/// self time as a share of the root spans, its throughput, the machine
/// ceilings (memcpy and CRC32C bandwidth, loopback echo RTT, single-thread
/// resolver rate) and each throughput as a share of its ceiling.
/// `untraced_s` is the untraced median of the first root's operation, the
/// base of trace.overhead_pct.
void end_trace(Bench& bench, double untraced_s);

// ---- workloads ------------------------------------------------------------------

/// The end-to-end metrics every workload reports, with their bounds.
/// `op_ms` holds the per-operation latencies (batch workloads) or the
/// per-trial medians and 90th percentiles (serve workloads); each
/// reported value is the median of its samples.
struct EndToEnd {
  std::vector<double> op_ms;
  std::vector<double> op_p90_ms;  // serve: per-trial p90s; batch: empty
  std::vector<double> setup_s;
  std::vector<double> peak_rss_mb;  // peak of each rep, trial or window
  std::uint64_t store_bytes = 0;
};
void report_end_to_end(Report& report, const EndToEnd& e2e);

void run_generate(Bench& bench);
void run_shard_merge(Bench& bench);
void run_analyze(Bench& bench);
void run_serve_point(Bench& bench);
void run_serve_refill(Bench& bench);

}  // namespace ddosbench
