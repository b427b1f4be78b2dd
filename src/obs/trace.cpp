#include "obs/trace.h"

#include <atomic>
#include <functional>
#include <memory>
#include <thread>

#include "obs/metrics.h"

namespace ddos::obs {

namespace {

// Per-thread nesting level for open spans. Spans on different threads are
// independent hierarchies, exactly as Chrome's viewer renders them.
thread_local std::uint32_t t_span_depth = 0;

std::uint64_t current_thread_id() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

// ---- active-span slots. One slot per thread, registered on first use and
// kept alive by shared_ptr from both the thread_local (writer) and the
// global list (readers), so a snapshot racing a thread's exit never sees a
// dangling slot — a dead thread's slot just sits with an empty stack.
std::atomic<bool> g_track_active{false};

struct ActiveSlot {
  std::mutex mu;
  std::uint64_t thread_id = 0;
  std::vector<std::string> stack;  // open span names, outermost first
};

std::mutex g_slots_mu;
std::vector<std::shared_ptr<ActiveSlot>>& slot_list() {
  static std::vector<std::shared_ptr<ActiveSlot>> list;
  return list;
}

ActiveSlot& thread_slot() {
  thread_local std::shared_ptr<ActiveSlot> slot = [] {
    auto s = std::make_shared<ActiveSlot>();
    s->thread_id = current_thread_id();
    const std::lock_guard<std::mutex> lock(g_slots_mu);
    slot_list().push_back(s);
    return s;
  }();
  return *slot;
}

}  // namespace

void set_thread_span_depth(std::uint32_t depth) { t_span_depth = depth; }

void set_active_span_tracking(bool enabled) {
  g_track_active.store(enabled, std::memory_order_relaxed);
}

bool active_span_tracking_enabled() {
  return g_track_active.load(std::memory_order_relaxed);
}

std::vector<ActiveSpanInfo> active_spans() {
  std::vector<std::shared_ptr<ActiveSlot>> slots;
  {
    const std::lock_guard<std::mutex> lock(g_slots_mu);
    slots = slot_list();
  }
  std::vector<ActiveSpanInfo> out;
  for (const auto& slot : slots) {
    const std::lock_guard<std::mutex> lock(slot->mu);
    if (slot->stack.empty()) continue;
    ActiveSpanInfo info;
    info.thread_id = slot->thread_id;
    info.name = slot->stack.back();
    info.open_spans = static_cast<std::uint32_t>(slot->stack.size());
    out.push_back(std::move(info));
  }
  return out;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Tracer::record(TraceEvent event) {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::size_t Tracer::event_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void Tracer::write_chrome_json(std::ostream& out) const {
  const std::vector<TraceEvent> events = this->events();
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& ev : events) {
    if (!first) out << ",";
    first = false;
    // Chrome wants microseconds; keep fractional ns for short spans.
    out << "{\"name\":\"" << json_escape(ev.name) << "\",\"ph\":\"X\""
        << ",\"ts\":" << static_cast<double>(ev.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(ev.duration_ns) / 1e3
        << ",\"pid\":1,\"tid\":" << ev.thread_id % 100000 << ",\"args\":{";
    bool afirst = true;
    if (ev.items > 0) {
      out << "\"items\":" << ev.items;
      afirst = false;
    }
    out << (afirst ? "" : ",") << "\"depth\":" << ev.depth;
    for (const auto& [k, v] : ev.args) {
      out << ",\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
    }
    out << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name) : tracer_(tracer) {
  if (!tracer_) return;
  name_ = std::move(name);
  start_ns_ = tracer_->now_ns();
  depth_ = t_span_depth++;
  if (g_track_active.load(std::memory_order_relaxed)) {
    ActiveSlot& slot = thread_slot();
    const std::lock_guard<std::mutex> lock(slot.mu);
    slot.stack.push_back(name_);
    published_ = true;
  }
}

ScopedSpan::~ScopedSpan() {
  if (!tracer_) return;
  --t_span_depth;
  if (published_) {
    // Pop by our own push, not by current tracking state: tracking may
    // have been toggled while this span was open.
    ActiveSlot& slot = thread_slot();
    const std::lock_guard<std::mutex> lock(slot.mu);
    if (!slot.stack.empty()) slot.stack.pop_back();
  }
  TraceEvent ev;
  ev.name = std::move(name_);
  ev.start_ns = start_ns_;
  ev.duration_ns = tracer_->now_ns() - start_ns_;
  ev.depth = depth_;
  ev.thread_id = current_thread_id();
  ev.items = items_;
  ev.args = std::move(args_);
  tracer_->record(std::move(ev));
}

void ScopedSpan::arg(const std::string& key, std::int64_t value) {
  if (!tracer_) return;
  args_.emplace_back(key, std::to_string(value));
}

std::uint64_t ScopedSpan::elapsed_ns() const {
  return tracer_ ? tracer_->now_ns() - start_ns_ : 0;
}

}  // namespace ddos::obs
