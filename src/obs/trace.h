// Phase-scoped tracing — the timing half of the observability layer.
//
// ScopedSpan is an RAII wall-clock timer: construction stamps the start,
// destruction records a completed TraceEvent into the owning Tracer. Spans
// nest naturally with scope; a thread-local depth counter records each
// span's nesting level so the run-report writer can pick out top-level
// stages, and Chrome's trace viewer reconstructs the hierarchy from the
// (ts, dur) containment of complete ("ph":"X") events.
//
// A null Tracer* makes every ScopedSpan operation a no-op (one branch), so
// uninstrumented runs pay nothing — the zero-cost-when-disabled contract
// bench_perf_pipeline holds the pipeline to.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace ddos::obs {

/// One completed span. Times are nanoseconds on the steady clock, relative
/// to the Tracer's epoch (its construction) so traces start near t=0.
struct TraceEvent {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint32_t depth = 0;       // nesting level at open time (0 = root)
  std::uint64_t thread_id = 0;   // stable hash of std::thread::id
  std::uint64_t items = 0;       // optional work count (0 = unset)
  std::vector<std::pair<std::string, std::string>> args;  // extra key/values

  double items_per_sec() const {
    return duration_ns > 0 && items > 0
               ? static_cast<double>(items) * 1e9 /
                     static_cast<double>(duration_ns)
               : 0.0;
  }
};

/// Collects completed spans; thread-safe append, snapshot, and export as
/// Chrome trace_event JSON (load via chrome://tracing or Perfetto).
class Tracer {
 public:
  Tracer();

  void record(TraceEvent event);
  std::vector<TraceEvent> events() const;
  std::size_t event_count() const;

  /// Nanoseconds on the steady clock since this tracer was constructed.
  std::uint64_t now_ns() const;

  /// {"traceEvents":[{"name":...,"ph":"X","ts":us,"dur":us,...},...]}
  void write_chrome_json(std::ostream& out) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// Set the calling thread's base span depth. Pool worker threads pin this
/// to 2 so their shard spans nest below the run- and stage-level spans of
/// the main thread (the run report only tabulates depth <= 1).
void set_thread_span_depth(std::uint32_t depth);

// ---- active-span tracking (stall diagnostics) -------------------------
//
// When enabled (the stall watchdog turns it on), every ScopedSpan also
// publishes its name into a per-thread slot that other threads can
// snapshot, answering "what is each worker doing right now?" during a
// hang. Disabled (the default) it costs one relaxed atomic load per span;
// enabled it adds a brief uncontended per-thread mutex on open/close.

/// Globally enable/disable active-span publication.
void set_active_span_tracking(bool enabled);
bool active_span_tracking_enabled();

struct ActiveSpanInfo {
  std::uint64_t thread_id = 0;  // stable hash, same domain as TraceEvent
  std::string name;             // innermost open span on that thread
  std::uint32_t open_spans = 0;  // depth of that thread's open-span stack
};

/// Innermost open span of every thread that has one. Threads whose spans
/// have all closed (or that never opened one while tracking was on) are
/// omitted.
std::vector<ActiveSpanInfo> active_spans();

/// RAII span. `tracer == nullptr` disables the span entirely.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Work items processed inside this span; exported as args.items and the
  /// basis of items/sec in the run report.
  void set_items(std::uint64_t n) { items_ = n; }
  void add_items(std::uint64_t n = 1) { items_ += n; }

  /// Attach an extra key/value to the emitted event (no-op when disabled).
  void arg(const std::string& key, std::int64_t value);

  bool enabled() const { return tracer_ != nullptr; }
  std::uint64_t elapsed_ns() const;

 private:
  Tracer* tracer_;
  std::string name_;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
  std::uint64_t items_ = 0;
  bool published_ = false;  // pushed onto this thread's active-span stack
  std::vector<std::pair<std::string, std::string>> args_;
};

}  // namespace ddos::obs
