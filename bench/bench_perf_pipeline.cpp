// Performance micro-benchmarks (google-benchmark): throughput of the
// pipeline's hot paths — prefix lookups, RSDoS backscatter inference,
// agnostic resolution, NSSet aggregation, and the full join.
//
// After the micro-benchmarks (which run with NO observer installed — they
// measure the disabled-instrumentation fast path), an instrumented
// end-to-end pipeline run is taken and its stage spans and metric snapshot
// are written to bench_perf_pipeline.json, giving future PRs a
// machine-readable per-stage ns + items/sec trajectory to diff against.
#include <benchmark/benchmark.h>

#include <malloc.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "attack/backscatter.h"
#include "exec/pool.h"
#include "netsim/rng.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "core/analysis.h"
#include "core/audit.h"
#include "core/join.h"
#include "dns/wire.h"
#include "dns/zonefile.h"
#include "dns/resolver.h"
#include "net/remote.h"
#include "net/server.h"
#include "openintel/sweeper.h"
#include "scenario/driver.h"
#include "serve/driver.h"
#include "store/merge.h"
#include "store/scan.h"
#include "serve/query_engine.h"
#include "telescope/feed.h"
#include "topology/prefix_table.h"

using namespace ddos;

namespace {

// A broken contract (the runs below disagree) fails the whole binary:
// main returns non-zero once any check has reported.
bool contract_violated = false;

void report_violation(const std::string& message) {
  std::cerr << message << "\n";
  contract_violated = true;
}

// ---- peak-RSS comparison: streaming vs materialized pipeline.
//
// VmHWM is the process-lifetime RSS high-water mark, so ordering is the
// whole measurement: the streaming run goes FIRST, in a fresh process
// before any benchmark state exists, and its VmHWM is an honest ceiling.
// Between the two runs the freed memory is returned to the kernel
// (malloc_trim) and the peak counter is reset by writing "5" to
// /proc/self/clear_refs. If the reset is unsupported the materialized
// reading degrades to max(streaming, materialized) — still a valid bound
// for the streaming <= ratio * materialized gate below.

std::uint64_t read_vm_hwm_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::uint64_t kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

struct PeakRss {
  std::uint64_t streaming_bytes = 0;
  std::uint64_t materialized_bytes = 0;
  double ratio() const {
    return materialized_bytes > 0 ? static_cast<double>(streaming_bytes) /
                                        static_cast<double>(materialized_bytes)
                                  : 0.0;
  }
};

scenario::LongitudinalConfig bench_config() {
  scenario::LongitudinalConfig cfg = scenario::small_longitudinal_config(3);
  cfg.world.domain_count = 20000;
  cfg.world.provider_count = 300;
  cfg.workload.scale = 120.0;
  return cfg;
}

PeakRss measure_peak_rss() {
  // Heavier than bench_config(): the bounded-memory claim is about the
  // regime where pipeline data — the feed record stream and the folded
  // sweep state — dominates the footprint (the production 17-month
  // telescope feed), so the probe lowers the workload scale divisor for
  // more attacks and more feed records. run_longitudinal retains the
  // record vector and every folded day; the streaming run retires each
  // ingest shard into the incremental stitcher and each day at the join
  // watermark, so only the region itself plus the fixed world stays
  // resident. At toy scale the fixed world term would drown that
  // difference.
  scenario::LongitudinalConfig cfg = bench_config();
  cfg.workload.scale = 20.0;
  PeakRss peaks;
  std::size_t streamed_joined = 0;
  {
    const auto r = scenario::run_longitudinal_streaming(cfg, {});
    streamed_joined = r.joined.size();
    benchmark::DoNotOptimize(streamed_joined);
    peaks.streaming_bytes = read_vm_hwm_bytes();
  }
  malloc_trim(0);
  reset_peak_rss();
  {
    const auto r = scenario::run_longitudinal(cfg);
    benchmark::DoNotOptimize(r.joined.size());
    peaks.materialized_bytes = read_vm_hwm_bytes();
    if (r.joined.size() != streamed_joined) {
      report_violation(
          "STREAMING DETERMINISM VIOLATION: streaming and materialized "
          "joined counts disagree");
    }
  }
  return peaks;
}

// Shared small world for the micro-benchmarks.
const scenario::LongitudinalResult& small_run() {
  static const scenario::LongitudinalResult result =
      scenario::run_longitudinal(bench_config());
  return result;
}

void BM_PrefixTableLookup(benchmark::State& state) {
  topology::PrefixTable table;
  netsim::Rng rng(1);
  for (int i = 0; i < 100000; ++i) {
    table.announce(netsim::Prefix(
                       netsim::IPv4Addr(static_cast<std::uint32_t>(rng.next_u64())),
                       static_cast<int>(8 + rng.uniform_u64(17))),
                   static_cast<topology::Asn>(1 + rng.uniform_u64(65000)));
  }
  netsim::Rng query_rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.origin_of(
        netsim::IPv4Addr(static_cast<std::uint32_t>(query_rng.next_u64()))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefixTableLookup);

void BM_BackscatterObservation(benchmark::State& state) {
  attack::AttackSpec spec;
  spec.target = netsim::IPv4Addr(7, 7, 7, 7);
  spec.start = netsim::SimTime(0);
  spec.duration_s = 36000;
  spec.peak_pps = 100e3;
  netsim::Rng rng(3);
  const attack::BackscatterModelParams params;
  netsim::WindowIndex w = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::observe_backscatter(
        spec, w++ % 120, 1.0 / 341.0, 192, params, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackscatterObservation);

void BM_AgnosticResolution(benchmark::State& state) {
  std::vector<dns::Nameserver> servers;
  for (int i = 0; i < 3; ++i) {
    servers.emplace_back(
        netsim::IPv4Addr(10, 0, 0, static_cast<std::uint8_t>(i + 1)),
        std::vector<dns::Site>{dns::Site{"x", 50e3, 20.0, 1.0}});
  }
  std::vector<const dns::Nameserver*> ptrs;
  for (const auto& s : servers) ptrs.push_back(&s);
  const std::vector<dns::OfferedLoad> loads = {
      {40e3, 0.0}, {0.0, 0.0}, {0.0, 0.0}};
  const dns::AgnosticResolver resolver;
  const dns::LoadModelParams model;
  netsim::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.resolve(rng, ptrs, loads, model));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AgnosticResolution);

void BM_SweeperMeasurement(benchmark::State& state) {
  const auto& r = small_run();
  openintel::SweeperParams sp;
  sp.seed = 9;
  const openintel::Sweeper sweeper(r.world->registry, r.workload.schedule, sp);
  dns::DomainId d = 0;
  const auto n = r.world->registry.end_domain();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sweeper.measure(d, sweeper.measurement_time(d, 100)));
    d = (d + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SweeperMeasurement);

void BM_StoreFold(benchmark::State& state) {
  openintel::MeasurementStore store;
  openintel::Measurement m;
  m.nsset = 5;
  m.status = dns::ResponseStatus::Ok;
  m.rtt_ms = 20.0;
  std::int64_t t = 0;
  for (auto _ : state) {
    m.time = netsim::SimTime(t);
    t += 17;
    store.add(m);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreFold);

void BM_FullJoin(benchmark::State& state) {
  const auto& r = small_run();
  const core::ResilienceClassifier classifier(
      r.world->registry, r.world->census, r.world->routes, r.world->orgs);
  for (auto _ : state) {
    core::JoinPipeline pipeline(r.world->registry, r.store, classifier);
    benchmark::DoNotOptimize(pipeline.run(r.events));
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(r.events.size()));
}
BENCHMARK(BM_FullJoin);

void BM_EventSegmentation(benchmark::State& state) {
  const auto& r = small_run();
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.feed.events());
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(r.feed.records().size()));
}
BENCHMARK(BM_EventSegmentation);

void BM_MonthlySummary(benchmark::State& state) {
  const auto& r = small_run();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::monthly_summary(r.events, r.world->registry));
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(r.events.size()));
}
BENCHMARK(BM_MonthlySummary);

void BM_ZoneFileRoundTrip(benchmark::State& state) {
  const auto& r = small_run();
  const std::string zone =
      dns::export_zone_file(r.world->registry, "com");
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::parse_zone_file(zone));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(zone.size()));
}
BENCHMARK(BM_ZoneFileRoundTrip);

void BM_WireNameDecode(benchmark::State& state) {
  std::vector<std::uint8_t> msg;
  dns::encode_name(dns::DomainName::must("mil.ru"), msg);
  const std::size_t second = msg.size();
  msg.push_back(3);
  msg.push_back('w');
  msg.push_back('w');
  msg.push_back('w');
  msg.push_back(0xC0);
  msg.push_back(0x00);
  for (auto _ : state) {
    std::size_t next = 0;
    benchmark::DoNotOptimize(dns::decode_name(msg, second, next));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireNameDecode);

void BM_DelegationAudit(benchmark::State& state) {
  const auto& r = small_run();
  const core::DelegationAuditor auditor(r.world->registry, r.world->census,
                                        r.world->routes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(auditor.audit_all(100));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(r.world->registry.domain_count()));
}
BENCHMARK(BM_DelegationAudit);

// Wall time of the first depth<=1 stage span named `name`, 0 if absent.
std::uint64_t stage_wall_ns(const obs::Observer& observer,
                            const std::string& name) {
  for (const auto& ev : observer.tracer().events()) {
    if (ev.depth <= 1 && ev.name == name) return ev.duration_ns;
  }
  return 0;
}

// Instrumented end-to-end run for the perf-trajectory JSON; same
// parameterisation as small_run() so numbers are comparable across PRs.
// The pipeline is run twice — single-threaded and at hardware width — so
// the JSON captures the scaling trajectory (per-stage walls at 1 and N
// threads plus the sweep-stage speedup), not just single-core ns.
void write_pipeline_json(const char* path, const PeakRss& peaks) {
  const scenario::LongitudinalConfig cfg = bench_config();

  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned threads = hw > 0 ? hw : 1;

  obs::Observer observer_t1;
  exec::set_global_threads(1);
  const scenario::LongitudinalResult result_t1 = [&] {
    const obs::ScopedInstall install(observer_t1);
    return scenario::run_longitudinal(cfg);
  }();

  // The N-thread run doubles as the sampler-overhead audit: a
  // TelemetrySampler at the default 250 ms cadence rides along and
  // self-times every sample body. The gated figure is the steady-state
  // overhead — mean sample cost divided by the sampling interval, i.e.
  // the fraction of each interval the sampler's thread spends working.
  // (Dividing by this short run's wall clock instead would overstate it:
  // the run takes two bookend samples in well under one interval.)
  obs::Observer observer;
  exec::set_global_threads(threads);
  obs::TelemetrySampler sampler(observer, obs::SamplerOptions{});
  const scenario::LongitudinalResult result = [&] {
    const obs::ScopedInstall install(observer);
    sampler.start();
    scenario::LongitudinalResult r = scenario::run_longitudinal(cfg);
    sampler.stop();
    return r;
  }();
  exec::set_global_threads(0);
  const double sampler_interval_ns =
      static_cast<double>(sampler.options().interval_ms) * 1e6;
  const double mean_sample_ns =
      sampler.samples_taken() > 0
          ? static_cast<double>(sampler.total_sample_ns()) /
                static_cast<double>(sampler.samples_taken())
          : 0.0;
  const double sampler_overhead_pct =
      100.0 * mean_sample_ns / sampler_interval_ns;

  if (result.joined.size() != result_t1.joined.size() ||
      result.swept_measurements != result_t1.swept_measurements) {
    report_violation("DETERMINISM VIOLATION: --threads 1 and --threads " +
                     std::to_string(threads) + " runs disagree");
  }

  const std::uint64_t sweep_t1 = stage_wall_ns(observer_t1, "stream.sweep");
  const std::uint64_t sweep_tn = stage_wall_ns(observer, "stream.sweep");
  const std::uint64_t total_t1 = stage_wall_ns(observer_t1, "run_longitudinal");
  const std::uint64_t total_tn = stage_wall_ns(observer, "run_longitudinal");

  // DRS store round trip at the same world size: write the N-thread
  // result, then read it back three ways —
  //   * store_read_ns / store_read_MBps: full-decode read throughput —
  //     every block of every dataset decoded once through the zero-copy
  //     columnar scan (mmap Reader + ColumnArena + scan_all +
  //     read_event_frame). Guarded.
  //   * store_analyze_ns / analyze_vs_run_speedup: the analyze_store
  //     pass (every block CRC- and structure-checked, only the events
  //     dataset decoded, every headline kernel) against the wall clock
  //     of re-simulating. Guarded floor.
  //   * store_load_ns / store_load_MBps: the row-materializing load_run
  //     (what serve/net use at startup). Informational.
  const char* store_path = "bench_perf_pipeline.drs";
  const auto wall_ns = [](auto start, auto end) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
  };
  const auto write_start = std::chrono::steady_clock::now();
  const std::uint64_t store_bytes =
      scenario::save_run(store_path, cfg, threads, result);
  const auto write_end = std::chrono::steady_clock::now();
  const scenario::StoredRun loaded = scenario::load_run(store_path);
  const auto load_end = std::chrono::steady_clock::now();
  if (loaded.joined != result.joined) {
    report_violation(
        "STORE ROUND-TRIP VIOLATION: loaded events differ from the "
        "generating run");
  }
  const auto scan_start = std::chrono::steady_clock::now();
  {
    const store::Reader reader(store_path, store::ReadMode::Mapped);
    store::ColumnArena arena;
    const std::uint64_t payload = store::scan_all(reader, arena);
    const core::EventFrame frame = store::read_event_frame(reader, arena);
    benchmark::DoNotOptimize(payload);
    if (frame.rows != result.joined.size()) {
      report_violation(
          "STORE SCAN VIOLATION: event frame rows differ from the "
          "generating run");
    }
  }
  const auto scan_end = std::chrono::steady_clock::now();
  const scenario::StoreAnalysis analysis = scenario::analyze_store(store_path);
  const auto analyze_end = std::chrono::steady_clock::now();
  if (analysis.joined != result.joined.size()) {
    report_violation(
        "STORE ANALYZE VIOLATION: analyzed event count differs from the "
        "generating run");
  }
  std::filesystem::remove(store_path);

  const std::uint64_t store_write_ns = wall_ns(write_start, write_end);
  const std::uint64_t store_load_ns = wall_ns(write_end, load_end);
  const std::uint64_t store_read_ns = wall_ns(scan_start, scan_end);
  const std::uint64_t store_analyze_ns = wall_ns(scan_end, analyze_end);

  // Plan/execute/compact at the same world size: run the 3-way shard
  // partition (sequentially — the slowest shard's wall is what a
  // 3-process run would cost) and merge the shard stores.
  //   * merge_MBps: compaction throughput (merged bytes out / merge
  //     wall). Guarded floor in baseline_perf.json — the merge is pure
  //     decode + re-encode and must not collapse.
  //   * shard_speedup: whole-run wall over the slowest shard's wall —
  //     the wall-clock win of running the 3 shards as processes.
  //     Informational: each shard still pays the full world + telescope
  //     ingest, so this approaches 3x only as the sweep dominates.
  std::uint64_t slowest_shard_ns = 0;
  std::uint64_t merge_ns = 0;
  double merge_MBps = 0.0;
  double shard_speedup = 0.0;
  {
    const std::vector<std::string> shard_paths = {
        "bench_perf_shard0.drs", "bench_perf_shard1.drs",
        "bench_perf_shard2.drs"};
    for (std::uint32_t i = 0; i < 3; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const scenario::ShardRunResult shard = scenario::run_shard(
          cfg, scenario::ShardSpec{i, 3}, threads, shard_paths[i]);
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(shard.joined_rows);
      slowest_shard_ns = std::max(slowest_shard_ns, wall_ns(t0, t1));
    }
    const char* merged_path = "bench_perf_merged.drs";
    const auto t0 = std::chrono::steady_clock::now();
    const store::MergeStats merge_stats =
        store::merge_stores(merged_path, shard_paths);
    const auto t1 = std::chrono::steady_clock::now();
    merge_ns = wall_ns(t0, t1);
    if (merge_stats.bytes_written != store_bytes) {
      report_violation(
          "SHARD MERGE VIOLATION: merged store size differs from "
          "save_run's");
    }
    if (merge_ns > 0) {
      merge_MBps = static_cast<double>(merge_stats.bytes_written) * 1e3 /
                   static_cast<double>(merge_ns);
    }
    if (slowest_shard_ns > 0) {
      shard_speedup = static_cast<double>(total_tn) /
                      static_cast<double>(slowest_shard_ns);
    }
    for (const std::string& p : shard_paths) std::filesystem::remove(p);
    std::filesystem::remove(merged_path);
  }

  // Sweep-ingest throughput at longitudinal scale. The stream is keyed
  // like sweeper output (per-day batches, a handful of domains per nsset,
  // windows advancing through the day) but sized so the window table far
  // outgrows L2 — the regime the paper's 17-month, ~10^8-fold sweep lives
  // in. The toy world above is small enough that every table stays
  // cache-resident, where any store layout times about the same; this
  // stream is where the flat tables and the batched group-by-key fold
  // actually earn their keep. Only MeasurementStore::add_batch is on the
  // clock.
  constexpr int kIngestDays = 120;
  constexpr std::size_t kIngestPerDay = 12000;
  constexpr std::uint32_t kIngestNssets = 4096;
  constexpr std::uint32_t kIngestDomainsPerNsset = 8;
  std::vector<openintel::Measurement> stream;
  stream.reserve(kIngestDays * kIngestPerDay);
  for (int day = 0; day < kIngestDays; ++day) {
    for (std::size_t i = 0; i < kIngestPerDay; ++i) {
      const std::uint64_t h = netsim::mix64(
          (static_cast<std::uint64_t>(day) << 32) | i);
      openintel::Measurement m;
      m.domain = static_cast<dns::DomainId>(
          h % (kIngestNssets * kIngestDomainsPerNsset));
      m.nsset = static_cast<dns::NssetId>(m.domain / kIngestDomainsPerNsset);
      const auto win_in_day = static_cast<std::int64_t>(
          (i * static_cast<std::size_t>(netsim::kWindowsPerDay)) /
          kIngestPerDay);
      m.time = netsim::SimTime(static_cast<std::int64_t>(day) * 24 * 3600 +
                               win_in_day * 300);
      m.chosen_ns = netsim::IPv4Addr(
          0x0A000000u + m.nsset * 2u +
          static_cast<std::uint32_t>((h >> 60) & 1));
      const std::uint64_t roll = (h >> 8) & 0xFF;
      if (roll < 250) {
        m.status = dns::ResponseStatus::Ok;
        m.rtt_ms = 5.0 + static_cast<double>(h & 0x3FF) / 16.0;
      } else if (roll < 253) {
        m.status = dns::ResponseStatus::ServFail;
        m.rtt_ms = 40.0 + static_cast<double>(h & 0xFF);
      } else {
        m.status = dns::ResponseStatus::Timeout;
      }
      stream.push_back(m);
    }
  }
  double ingest_per_sec = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    openintel::MeasurementStore ingest_store;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t off = 0; off < stream.size(); off += kIngestPerDay) {
      ingest_store.add_batch(std::span<const openintel::Measurement>(
          stream.data() + off, kIngestPerDay));
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    if (secs > 0.0)
      ingest_per_sec = std::max(
          ingest_per_sec, static_cast<double>(stream.size()) / secs);
    benchmark::DoNotOptimize(ingest_store.total_measurements());
  }

  // Join-probe latency: the join's inner loop is window/daily lookups
  // against the populated store. Probe real keys in hash-scrambled order
  // (so the prefetcher cannot ride a sorted scan) and report mean ns.
  double join_probe_ns = 0.0;
  const auto window_keys = result.store.sorted_window();
  if (!window_keys.empty()) {
    constexpr std::uint64_t kProbes = 1'000'000;
    std::uint64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kProbes; ++i) {
      const std::uint64_t key =
          window_keys[netsim::mix64(i) % window_keys.size()].first;
      const openintel::Aggregate* agg = result.store.window(
          openintel::MeasurementStore::key_nsset(key),
          openintel::MeasurementStore::window_key_window(key));
      sink += agg ? agg->measured : 0;
    }
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(sink);
    join_probe_ns = static_cast<double>(wall_ns(t0, t1)) /
                    static_cast<double>(kProbes);
  }
  // Serve-layer throughput: build the query engine over the N-thread run
  // and hammer it with a point-lookup-only fixed-ops drive at hardware
  // width. serve_lookups_per_sec is a guarded_min hard floor in
  // bench/baseline_perf.json (>= 1M lookups/sec); the latency quantile is
  // informational (too runner-sensitive to gate).
  const auto build_start = std::chrono::steady_clock::now();
  const serve::QueryEngine engine(result);
  const auto build_end = std::chrono::steady_clock::now();
  serve::DriveOptions serve_opts;
  serve_opts.workload.dist = serve::Distribution::Zipfian;
  serve_opts.workload.mix = {1, 0, 0};  // point lookups only
  serve_opts.ops_per_thread = 500000;
  const serve::DriveReport serve_report = serve::drive(engine, serve_opts);
  const double serve_lookups_per_sec = serve_report.by_type[0].ops_per_sec;
  const double serve_p99_us = serve_report.by_type[0].p99_us;

  // Networked serve throughput: the same engine behind the epoll TCP
  // front-end on loopback, driven closed-loop over 2 connections. This
  // prices the whole wire path (encode + two kernel crossings + decode
  // per op); net_qps is a guarded_min floor in baseline_perf.json —
  // deliberately conservative, it gates "the socket path collapsed", not
  // steady-state throughput. The RTT quantile is informational (loopback
  // scheduling jitter makes it too runner-sensitive to gate).
  double net_qps = 0.0;
  double net_rtt_p99_us = 0.0;
  {
    net::ServerOptions server_opts;
    server_opts.threads = 2;
    net::Server server(net::EngineHandle::view(engine, 1), server_opts);
    server.start();
    net::RemoteDriveOptions remote;
    remote.port = server.port();
    remote.connections = 2;
    remote.workload = serve_opts.workload;
    remote.ops_per_thread = 50000;
    const serve::DriveReport net_report = net::drive_remote(remote);
    server.stop();
    net_qps = net_report.ops_per_sec;
    net_rtt_p99_us = net_report.by_type[0].p99_us;
  }

  const auto mbps = [store_bytes](std::uint64_t ns) {
    return ns > 0 ? static_cast<double>(store_bytes) * 1e3 /
                        static_cast<double>(ns)
                  : 0.0;  // bytes/ns * 1e3 == MB/s
  };

  obs::RunReport report("bench_perf_pipeline");
  report.add_config("seed", static_cast<std::int64_t>(3));
  report.add_config("domains",
                    static_cast<std::int64_t>(cfg.world.domain_count));
  report.add_config("providers",
                    static_cast<std::int64_t>(cfg.world.provider_count));
  report.add_config("scale", cfg.workload.scale);
  report.add_config("threads", static_cast<std::int64_t>(threads));
  report.add_result("events", static_cast<std::int64_t>(result.events.size()));
  report.add_result("joined", static_cast<std::int64_t>(result.joined.size()));
  report.add_result("swept_measurements",
                    static_cast<std::int64_t>(result.swept_measurements));
  report.add_result("sweep_wall_ns_t1", static_cast<std::int64_t>(sweep_t1));
  report.add_result("sweep_wall_ns_tN", static_cast<std::int64_t>(sweep_tn));
  report.add_result("total_wall_ns_t1", static_cast<std::int64_t>(total_t1));
  report.add_result("total_wall_ns_tN", static_cast<std::int64_t>(total_tn));
  report.add_result("sweep_speedup",
                    sweep_tn > 0 ? static_cast<double>(sweep_t1) /
                                       static_cast<double>(sweep_tn)
                                 : 0.0);
  report.add_result("store_bytes", static_cast<std::int64_t>(store_bytes));
  report.add_result("store_write_ns",
                    static_cast<std::int64_t>(store_write_ns));
  report.add_result("store_read_ns", static_cast<std::int64_t>(store_read_ns));
  report.add_result("store_load_ns", static_cast<std::int64_t>(store_load_ns));
  report.add_result("store_analyze_ns",
                    static_cast<std::int64_t>(store_analyze_ns));
  report.add_result("store_write_MBps", mbps(store_write_ns));
  report.add_result("store_read_MBps", mbps(store_read_ns));
  report.add_result("store_load_MBps", mbps(store_load_ns));
  report.add_result("ingest_measurements",
                    static_cast<std::int64_t>(stream.size()));
  report.add_result("ingest_measurements_per_sec", ingest_per_sec);
  report.add_result("join_probe_ns", join_probe_ns);
  report.add_result("serve_build_ns",
                    static_cast<std::int64_t>(wall_ns(build_start,
                                                      build_end)));
  report.add_result("serve_ops", static_cast<std::int64_t>(
                                     serve_report.total_ops));
  report.add_result("serve_threads",
                    static_cast<std::int64_t>(serve_report.threads));
  report.add_result("serve_lookups_per_sec", serve_lookups_per_sec);
  report.add_result("serve_p99_us", serve_p99_us);
  report.add_result("net_qps", net_qps);
  report.add_result("net_rtt_p99_us", net_rtt_p99_us);
  report.add_result("peak_rss_bytes_streaming",
                    static_cast<std::int64_t>(peaks.streaming_bytes));
  report.add_result("peak_rss_bytes_materialized",
                    static_cast<std::int64_t>(peaks.materialized_bytes));
  report.add_result("peak_rss_ratio", peaks.ratio());
  report.add_result("sampler_overhead_pct", sampler_overhead_pct);
  report.add_result("sampler_samples",
                    static_cast<std::int64_t>(sampler.samples_taken()));
  report.add_result("sampler_series",
                    static_cast<std::int64_t>(sampler.series().series_count()));
  // analyze --store replaces a full re-simulation with one columnar
  // analyze pass (analyze_store: every block checked, the events
  // decoded, every headline kernel).
  report.add_result("analyze_vs_run_speedup",
                    store_analyze_ns > 0
                        ? static_cast<double>(total_tn) /
                              static_cast<double>(store_analyze_ns)
                        : 0.0);
  report.add_result("shard_slowest_ns",
                    static_cast<std::int64_t>(slowest_shard_ns));
  report.add_result("merge_ns", static_cast<std::int64_t>(merge_ns));
  report.add_result("merge_MBps", merge_MBps);
  report.add_result("shard_speedup", shard_speedup);

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  // Stage table and metric snapshot come from the N-thread run — the
  // configuration future scale-up PRs care about.
  report.write(out, observer);
  std::cout << "\nwrote instrumented pipeline stage timings to " << path
            << " (sweep speedup at " << threads << " threads: "
            << (sweep_tn > 0
                    ? static_cast<double>(sweep_t1) /
                          static_cast<double>(sweep_tn)
                    : 0.0)
            << "x; store write " << mbps(store_write_ns)
            << " MB/s, columnar scan " << mbps(store_read_ns)
            << " MB/s, row load " << mbps(store_load_ns)
            << " MB/s, shard merge " << merge_MBps << " MB/s (3-shard speedup "
            << shard_speedup << "x); ingest "
            << ingest_per_sec / 1e6 << " M meas/s; join probe "
            << join_probe_ns << " ns; serve "
            << serve_lookups_per_sec / 1e6 << " M lookups/s at "
            << serve_report.threads << " threads, p99 " << serve_p99_us
            << " us; peak RSS streaming "
            << peaks.streaming_bytes / (1024.0 * 1024.0)
            << " MiB vs materialized "
            << peaks.materialized_bytes / (1024.0 * 1024.0) << " MiB = "
            << peaks.ratio() << "x; sampler overhead "
            << sampler_overhead_pct << "% over " << sampler.samples_taken()
            << " samples, " << sampler.series().series_count()
            << " series)\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Before anything else: the streaming-vs-materialized peak-RSS probe
  // needs a pristine address space (see measure_peak_rss).
  const PeakRss peaks = measure_peak_rss();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_pipeline_json("bench_perf_pipeline.json", peaks);
  return contract_violated ? 1 : 0;
}
