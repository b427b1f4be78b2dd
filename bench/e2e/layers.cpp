// Traced compositions of the pipeline from its public stages, the
// per-layer accounting over the benchmark's spans, and the machine
// ceilings the layer throughputs are compared against.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/columnar.h"
#include "core/join.h"
#include "core/resilience.h"
#include "exec/pool.h"
#include "openintel/sweeper.h"
#include "scenario/plan.h"
#include "serve/driver.h"
#include "store/checksum.h"
#include "store/reader.h"
#include "store/scan.h"

namespace ddosbench {

using namespace ddos;

namespace {

std::uint64_t this_thread_id() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

// The sweep's batch sink runs on the calling thread, back to back for all
// of a day's shards, after the parallel measurement of that day: so the
// day's fold is one contiguous interval, recorded as one span instead of
// one span per shard.
class FoldSpan {
 public:
  explicit FoldSpan(Bench& bench) : tracer_(bench.tracer) {}
  void begin() {
    if (tracer_ && !open_) {
      start_ = tracer_->now_ns();
      open_ = true;
    }
  }
  void end(std::uint64_t items) {
    if (!tracer_) return;
    end_ = tracer_->now_ns();
    items_ += items;
  }
  ~FoldSpan() {
    if (!tracer_ || !open_) return;
    obs::TraceEvent ev;
    ev.name = "openintel.fold";
    ev.start_ns = start_;
    ev.duration_ns = end_ - start_;
    ev.thread_id = this_thread_id();
    ev.items = items_;
    tracer_->record(std::move(ev));
  }

  FoldSpan(const FoldSpan&) = delete;
  FoldSpan& operator=(const FoldSpan&) = delete;

 private:
  obs::Tracer* tracer_;
  bool open_ = false;
  std::uint64_t start_ = 0;
  std::uint64_t end_ = 0;
  std::uint64_t items_ = 0;
};

}  // namespace

RunCounts compose_generate(Bench& bench,
                           const scenario::LongitudinalConfig& cfg,
                           const std::string& store_path) {
  scenario::LongitudinalResult r;
  {
    Span span(bench, "scenario.world");
    r.world = scenario::build_world(cfg.world);
    span.items(r.world->registry.domain_count());
  }
  {
    Span span(bench, "scenario.workload");
    r.workload = scenario::generate_workload(*r.world, cfg.workload);
    span.items(r.workload.schedule.size());
  }
  {
    Span span(bench, "telescope.infer");
    r.feed = telescope::RSDoSFeed(cfg.inference, cfg.backscatter);
    r.feed.ingest(r.workload.schedule, r.darknet, cfg.feed_seed);
    r.feed_records = r.feed.records().size();
    span.items(r.feed_records);
  }
  {
    Span span(bench, "telescope.stitch");
    r.events = r.feed.events();
    span.items(r.events.size());
  }
  const scenario::World& world = *r.world;
  const scenario::SweepPlan plan = [&] {
    Span span(bench, "scenario.plan");
    return scenario::derive_sweep_plan(world, r.events, nullptr, nullptr);
  }();
  const scenario::PlanRetention retention{plan.daily_keys, plan.window_keys,
                                          plan.ns_seen_keys};
  {
    Span span(bench, "openintel.sweep");
    openintel::SweeperParams sp;
    sp.resolver = cfg.resolver;
    sp.model = cfg.model;
    sp.seed = cfg.sweep_seed;
    const openintel::Sweeper sweeper(world.registry, r.workload.schedule, sp);
    std::vector<dns::DomainId> day_domains;
    for (const auto& [day, domains] : plan.days) {
      day_domains = domains.sorted_keys();
      FoldSpan fold(bench);
      sweeper.sweep_domains_batched(
          day, day_domains, exec::global_pool(),
          [&](std::span<const openintel::Measurement> batch) {
            fold.begin();
            r.store.add_batch(batch, retention);
            r.swept_measurements += batch.size();
            fold.end(batch.size());
          });
    }
    span.items(r.swept_measurements);
  }
  {
    Span span(bench, "core.join");
    const core::ResilienceClassifier classifier(world.registry, world.census,
                                                world.routes, world.orgs);
    core::JoinPipeline pipeline(world.registry, r.store, classifier, cfg.join);
    r.joined = pipeline.run(r.events);
    r.join_stats = pipeline.stats();
    span.items(r.joined.size());
  }
  RunCounts out;
  {
    Span span(bench, "store.write");
    out.store_bytes = scenario::save_run(store_path, cfg, bench.threads, r);
    span.items(out.store_bytes);
  }
  out.feed_records = r.feed_records;
  out.events = r.events.size();
  out.joined = r.joined.size();
  out.swept = r.swept_measurements;
  return out;
}

std::uint64_t analysis_digest(const scenario::StoreAnalysis& a) {
  using serve::fingerprint_fold;
  std::uint64_t fp = 0;
  for (const std::uint64_t v :
       {a.impact.events, a.impact.impaired_10x, a.impact.severe_100x,
        a.failures.events, a.failures.events_with_failures,
        a.failures.timeouts, a.failures.servfails}) {
    fp = fingerprint_fold(fp, v);
  }
  for (const double v : a.duration_series.x) fp = fingerprint_fold(fp, v);
  for (const double v : a.duration_series.y) fp = fingerprint_fold(fp, v);
  fp = fingerprint_fold(fp, a.duration_series.pearson);
  fp = fingerprint_fold(fp, a.duration_series.spearman);
  for (const core::GroupImpact& g : a.by_anycast) {
    for (const std::uint64_t v :
         {g.events, g.impaired_10x, g.severe_100x, g.events_with_failures,
          g.complete_failures}) {
      fp = fingerprint_fold(fp, v);
    }
    for (const double v : {g.median_impact, g.p90_impact, g.max_impact}) {
      fp = fingerprint_fold(fp, v);
    }
  }
  for (const core::MonthlyJoinedRow& m : a.monthly) {
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(m.year), static_cast<std::uint64_t>(m.month),
          m.events, m.impaired_10x, m.severe_100x, m.events_with_failures}) {
      fp = fingerprint_fold(fp, v);
    }
  }
  return fp;
}

std::uint64_t compose_analyze(Bench& bench, const std::string& store_path) {
  std::optional<store::Reader> reader;
  {
    Span span(bench, "store.open");
    reader.emplace(store_path, store::ReadMode::Mapped);
  }
  std::optional<store::ColumnArena> arena;
  arena.emplace();
  {
    Span span(bench, "store.scan");
    store::scan_all(*reader, *arena);
    span.items(reader->file_size());
  }
  std::optional<core::EventFrame> frame;
  {
    Span span(bench, "store.frame");
    frame = store::read_event_frame(*reader, *arena);
    span.items(frame->rows);
  }
  scenario::StoreAnalysis a;
  {
    Span span(bench, "core.kernels");
    a.impact = core::impact_summary_columnar(*frame);
    a.failures = core::failure_summary_columnar(*frame);
    a.duration_series = core::duration_impact_series_columnar(*frame);
    a.by_anycast = core::impact_by_anycast_columnar(*frame);
    a.monthly = core::monthly_joined_summary_columnar(*frame);
    span.items(frame->rows);
  }
  {
    // Unmapping the store and freeing the decode buffers is a visible
    // share of a call.
    Span span(bench, "store.close");
    frame.reset();
    arena.reset();
    reader.reset();
  }
  return analysis_digest(a);
}

// ---- per-layer accounting ---------------------------------------------------

namespace {

struct LayerDef {
  const char* span;
  const char* rate = nullptr;  // items per second of the layer's spans
  const char* rate_unit = nullptr;
  double rate_scale = 1.0;
};

// Every layer the benchmark times, named module.stage after src/'s
// modules. Each workload reports a share for every layer, 0 where the
// workload does not run it, so all workloads print one metric set.
const LayerDef kLayers[] = {
    {"scenario.world"},
    {"scenario.workload"},
    {"scenario.plan"},
    {"scenario.shard"},
    {"telescope.infer", "telescope.records_per_s", "1/s"},
    {"telescope.stitch"},
    {"openintel.sweep", "openintel.meas_per_s", "1/s"},
    {"openintel.fold"},
    {"core.join"},
    {"core.kernels"},
    {"store.write", "store.write_MBps", "MB/s", 1e-6},
    {"store.open"},
    {"store.scan", "store.scan_MBps", "MB/s", 1e-6},
    {"store.frame"},
    {"store.close"},
    {"store.merge", "store.merge_MBps", "MB/s", 1e-6},
    {"store.load", "store.load_MBps", "MB/s", 1e-6},
    {"serve.build", "serve.build_per_s", "1/s"},
    {"net.start"},
    {"net.install"},
};

// Layer metrics only the serve workloads measure. The other workloads
// report them as 0: no lookup served, no byte on the wire.
struct ServeLayerDef {
  const char* name;
  const char* unit;
  Better better;
};
const ServeLayerDef kServeLayers[] = {
    {"serve.point_per_s", "1/s", Better::Higher},
    {"serve.topk_per_s", "1/s", Better::Higher},
    {"serve.scan_per_s", "1/s", Better::Higher},
    {"serve.engine_mb", "MB", Better::Lower},
    {"serve.kb_per_nsset", "kB", Better::Lower},
    {"net.rx_bytes_per_op", "bytes", Better::Lower},
    {"net.tx_bytes_per_op", "bytes", Better::Lower},
    {"net.pipelined_qps", "1/s", Better::Higher},
    {"net.engine_swaps", "count", Better::Higher},
    {"net.p50_rtt_ratio", "ratio", Better::Lower},
};

struct Node {
  const obs::TraceEvent* ev = nullptr;
  std::uint64_t child_ns = 0;
  int root = -1;  // index of the root node this span runs under
};

void report_layers(Bench& bench, double untraced_s) {
  Report& rep = bench.report;
  const std::vector<obs::TraceEvent> events = bench.trace_store.events();
  std::vector<Node> nodes(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) nodes[i].ev = &events[i];
  // Parent = the innermost span on the same thread whose interval holds
  // this one; sorting by (thread, start, longest first) puts every parent
  // before its children.
  std::sort(nodes.begin(), nodes.end(), [](const Node& a, const Node& b) {
    if (a.ev->thread_id != b.ev->thread_id)
      return a.ev->thread_id < b.ev->thread_id;
    if (a.ev->start_ns != b.ev->start_ns) return a.ev->start_ns < b.ev->start_ns;
    return a.ev->duration_ns > b.ev->duration_ns;
  });
  const auto is_root = [&](const std::string& name) {
    return std::find(bench.roots.begin(), bench.roots.end(), name) !=
           bench.roots.end();
  };
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const obs::TraceEvent& ev = *nodes[i].ev;
    while (!stack.empty()) {
      const obs::TraceEvent& top = *nodes[stack.back()].ev;
      if (top.thread_id == ev.thread_id &&
          ev.start_ns + ev.duration_ns <= top.start_ns + top.duration_ns)
        break;
      stack.pop_back();
    }
    if (stack.empty()) {
      if (!is_root(ev.name))
        throw std::logic_error("span outside a root phase: " + ev.name);
      nodes[i].root = static_cast<int>(i);
    } else {
      nodes[stack.back()].child_ns += ev.duration_ns;
      nodes[i].root = nodes[stack.back()].root;
    }
    stack.push_back(i);
  }

  struct Totals {
    std::uint64_t self_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t items = 0;
    std::size_t spans = 0;
  };
  std::map<std::string, Totals> by_name;
  std::uint64_t root_ns = 0;
  std::uint64_t root_self_ns = 0;
  std::size_t root_count = 0;
  std::vector<double> primary_s;
  std::map<int, std::vector<double>> shards_by_root;
  for (const Node& n : nodes) {
    const obs::TraceEvent& ev = *n.ev;
    const std::uint64_t self = ev.duration_ns - std::min(n.child_ns, ev.duration_ns);
    if (n.root == &n - nodes.data()) {
      root_ns += ev.duration_ns;
      root_self_ns += self;
      ++root_count;
      if (ev.name == bench.roots.front())
        primary_s.push_back(static_cast<double>(ev.duration_ns) / 1e9);
      continue;
    }
    Totals& t = by_name[ev.name];
    t.self_ns += self;
    t.dur_ns += ev.duration_ns;
    t.items += ev.items;
    ++t.spans;
    if (ev.name == "scenario.shard")
      shards_by_root[n.root].push_back(static_cast<double>(ev.duration_ns));
  }
  if (root_count == 0) throw std::logic_error("traced phase recorded no spans");

  const auto share = [&](std::uint64_t ns) {
    return 100.0 * static_cast<double>(ns) / static_cast<double>(root_ns);
  };
  for (const LayerDef& layer : kLayers) {
    const auto it = by_name.find(layer.span);
    const Totals t = it == by_name.end() ? Totals{} : it->second;
    if (it != by_name.end()) by_name.erase(it);
    rep.set(std::string(layer.span) + "_pct", share(t.self_ns), "%",
            Better::Lower);
    if (layer.rate) {
      const double rate = t.dur_ns ? static_cast<double>(t.items) * 1e9 /
                                         static_cast<double>(t.dur_ns) *
                                         layer.rate_scale
                                   : 0.0;
      rep.set(layer.rate, rate, layer.rate_unit, Better::Higher);
    }
    if (t.spans) {
      // Absolute self time per root phase; printed and compared by
      // compare.py, not part of the metric set every workload shares.
      rep.set(std::string(layer.span) + "_s",
              static_cast<double>(t.self_ns) / 1e9 /
                  static_cast<double>(root_count),
              "s", Better::Lower);
    }
  }
  if (!by_name.empty())
    throw std::logic_error("span with no layer: " + by_name.begin()->first);

  rep.set("trace.unassigned_pct", share(root_self_ns), "%", Better::Lower);
  rep.set_samples("trace.phase_s", primary_s, "s", Better::Lower);
  rep.set("trace.overhead_pct",
          100.0 * (quantile(primary_s, 0.5) / untraced_s - 1.0), "%",
          Better::Lower);
  std::vector<double> imbalance;
  for (const auto& [root, shard_ns] : shards_by_root) {
    double sum = 0.0;
    for (const double v : shard_ns) sum += v;
    imbalance.push_back(*std::max_element(shard_ns.begin(), shard_ns.end()) /
                        (sum / static_cast<double>(shard_ns.size())));
  }
  rep.set("scenario.shard_imbalance",
          imbalance.empty() ? 0.0 : quantile(imbalance, 0.5), "ratio",
          Better::Lower);
  for (const ServeLayerDef& m : kServeLayers) {
    if (!rep.has(m.name)) rep.set(m.name, 0.0, m.unit, m.better);
  }
}

// ---- ceilings ---------------------------------------------------------------

// Loopback echo with one 16-byte message in flight: the floor under any
// request/response round trip on this machine.
double echo_rtt_us() {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) throw std::runtime_error("echo: socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(lfd, 1) != 0 ||
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(lfd);
    throw std::runtime_error("echo: bind/listen failed");
  }
  const auto exact = [](int fd, char* buf, std::size_t n, bool write) {
    std::size_t done = 0;
    while (done < n) {
      const ssize_t k = write ? ::write(fd, buf + done, n - done)
                              : ::read(fd, buf + done, n - done);
      if (k <= 0) return false;
      done += static_cast<std::size_t>(k);
    }
    return true;
  };
  std::thread server([&] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) return;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    char buf[16];
    while (exact(fd, buf, sizeof buf, false) && exact(fd, buf, sizeof buf, true)) {
    }
    ::close(fd);
  });
  const int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
  std::vector<double> rtt_us;
  bool ok = cfd >= 0 &&
            ::connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  if (ok) {
    const int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    char buf[16] = {};
    constexpr int kWarm = 1000;
    constexpr int kRoundTrips = 20000;
    rtt_us.reserve(kRoundTrips);
    for (int i = 0; ok && i < kWarm + kRoundTrips; ++i) {
      const auto t0 = Clock::now();
      ok = exact(cfd, buf, sizeof buf, true) && exact(cfd, buf, sizeof buf, false);
      if (i >= kWarm)
        rtt_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
  }
  if (cfd >= 0) ::close(cfd);  // ends the server's read loop
  if (!ok) ::shutdown(lfd, SHUT_RDWR);  // unblocks a pending accept
  server.join();
  ::close(lfd);
  if (!ok) throw std::runtime_error("echo: round trip failed");
  return quantile(rtt_us, 0.5);
}

void report_ceilings(Bench& bench) {
  Report& rep = bench.report;
  // memcpy between buffers well past the last-level cache, capped so the
  // two buffers stay small next to the machine's shared memory.
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const std::size_t bytes = std::clamp<std::size_t>(
      llc > 0 ? 4 * static_cast<std::size_t>(llc) : 0, 64u << 20, 256u << 20);
  std::vector<char> src(bytes, 1);
  std::vector<char> dst(bytes, 0);
  std::vector<double> copy_gbps;
  std::vector<double> crc_gbps;
  for (int rep_i = 0; rep_i < 5; ++rep_i) {
    src[static_cast<std::size_t>(rep_i)] = static_cast<char>(rep_i);
    auto t0 = Clock::now();
    std::memcpy(dst.data(), src.data(), bytes);
    copy_gbps.push_back(static_cast<double>(bytes) / seconds_since(t0) / 1e9);
    t0 = Clock::now();
    store::crc32c(dst.data(), bytes);
    crc_gbps.push_back(static_cast<double>(bytes) / seconds_since(t0) / 1e9);
  }
  bench.report.info("ceiling.memcpy_buffer_bytes", std::to_string(bytes));
  rep.set_samples("ceiling.memcpy_GBps", copy_gbps, "GB/s", Better::Higher);
  rep.set_samples("ceiling.crc32c_GBps", crc_gbps, "GB/s", Better::Higher);
  rep.set("ceiling.echo_rtt_us", echo_rtt_us(), "us", Better::Lower);

  // The resolver model's single-thread measurement rate, over the default
  // world's domains on one mid-study day.
  const scenario::LongitudinalConfig cfg = config_for(bench.options.seed);
  const std::unique_ptr<scenario::World> world =
      scenario::build_world(cfg.world);
  const scenario::Workload workload =
      scenario::generate_workload(*world, cfg.workload);
  openintel::SweeperParams sp;
  sp.resolver = cfg.resolver;
  sp.model = cfg.model;
  sp.seed = cfg.sweep_seed;
  const openintel::Sweeper sweeper(world->registry, workload.schedule, sp);
  const dns::DomainId end = std::min<dns::DomainId>(
      world->registry.end_domain(), 100000);
  constexpr netsim::DayIndex kDay = 250;
  const auto t0 = Clock::now();
  for (dns::DomainId d = world->registry.first_domain(); d < end; ++d) {
    sweeper.measure(d, sweeper.measurement_time(d, kDay));
  }
  const double measure_per_s = static_cast<double>(end) / seconds_since(t0);
  rep.set("ceiling.measure_per_s", measure_per_s, "1/s", Better::Higher);

  // Each throughput as a share of its ceiling.
  const double memcpy_MBps = quantile(copy_gbps, 0.5) * 1e3;
  for (const char* layer : {"store.write", "store.scan", "store.merge",
                            "store.load"}) {
    const std::string name = std::string(layer) + "_MBps";
    rep.set(std::string(layer) + "_ceiling_pct",
            100.0 * rep.get(name).value / memcpy_MBps, "%", Better::Higher);
  }
  rep.set("openintel.sweep_ceiling_pct",
          100.0 * rep.get("openintel.meas_per_s").value /
              (measure_per_s * bench.threads),
          "%", Better::Higher);
}

}  // namespace

void begin_trace(Bench& bench, std::vector<std::string> roots) {
  bench.roots = std::move(roots);
  bench.tracer = &bench.trace_store;
}

void end_trace(Bench& bench, double untraced_s) {
  bench.tracer = nullptr;
  report_layers(bench, untraced_s);
  report_ceilings(bench);
}

}  // namespace ddosbench
