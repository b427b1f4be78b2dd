// ddosrepro — command-line driver for the reproduction pipeline.
//
//   ddosrepro world    [--seed N --domains N --providers N]
//                      [--zone <tld> --out <file>] [--audit]
//   ddosrepro run      [--seed N --scale X --domains N --providers N]
//                      [--threads N] [--store <file.drs>]
//                      [--events-csv <file>] [--feed-csv <file>]
//                      [--metrics-out <file>] [--trace-out <file>] [--progress]
//   ddosrepro generate --store <file.drs> [run flags]
//   ddosrepro generate --shard i/N --store <shard.drs> [run flags]
//   ddosrepro merge    <out.drs> <shard.drs> [shard.drs ...]
//   ddosrepro analyze  --store <file.drs> [--rejoin] [--threads N]
//   ddosrepro analyze  --events-csv <file>
//   ddosrepro serve    --store <file.drs> [--threads N] [--duration-s S]
//                      [--serve-ops N] [--dist uniform|zipfian] [--theta X]
//                      [--mix P:T:S] [--topk K] [--scan-days N]
//   ddosrepro serve    --store <file.drs> --listen host:port [--refill S]
//   ddosrepro serve    --connect host:port [--target-qps Q] [drive flags]
//   ddosrepro transip  [--scale X]
//   ddosrepro russia
//
// `run` executes the seventeen-month pipeline and prints the headline
// shapes. `generate` is `run` that persists the three pipeline datasets
// (RSDoS feed windows, sweep aggregates, joined NSSet-attack events) plus
// full provenance to a DRS dataset store; `analyze --store` reads one back
// — every block checksum-validated — and recomputes the same headline
// statistics without re-simulating (--rejoin additionally re-runs the join
// stage from the stored aggregates and asserts a bit-for-bit match).
// `analyze --events-csv` replays the lossy CSV export instead.
//
// Sharded generation: `generate --shard i/N` executes one shard of a
// deterministic N-way day partition of the same world and writes an
// independent shard store; `merge` k-way merges the N shard files into
// one store byte-identical (`cmp`) to a single-process `generate
// --store` of the same config — see scenario/plan.h and store/merge.h.
//
// run/generate execute the bounded-memory day-epoch pipeline
// (channel-connected stages; folded state retires once the joins that
// read it are done, and a --store is appended per retired epoch) — the
// output is bit-identical at any --threads.
//
// Observability (run): --metrics-out writes a run-report JSON (config,
// stage timings, metric snapshot, headline results) — or, with
// --metrics-format=openmetrics, a Prometheus-style text exposition —
// --trace-out writes a Chrome trace_event file (open in chrome://tracing
// or Perfetto), and --progress emits a one-line heartbeat per simulated
// sweep day on stderr.
//
// `serve` loads a DRS store, builds the read-optimized serve indexes
// (fill phase), then drives the concurrent query API from --threads
// closed-loop client threads (mixed phase) and reports per-query-type
// throughput and latency quantiles plus a deterministic answer
// fingerprint (--serve-ops fixed-ops mode; re-runs must print the same
// fingerprint line for equal seed/threads). With --listen it instead puts
// the engine on the wire (net::Server, epoll event loops; --refill polls
// the store and hot-swaps a rebuilt engine); with --connect it drives a
// remote server over TCP — closed loop by default, open loop at a fixed
// schedule with --target-qps — and a remote drive with C connections
// prints the same fingerprint as a local drive with C threads over the
// same store, seed and mix.
//
// Time-resolved telemetry (run): --telemetry-out streams one JSONL sample
// of every metric/progress/process series per --telemetry-interval-ms;
// --dashboard-out renders a self-contained HTML dashboard (sparklines +
// stage timeline, no external assets); --watchdog-timeout-s N aborts with
// a full diagnostic dump if no pipeline stage makes progress for N
// seconds (0 disables).
#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <thread>
#include <tuple>

#include <sys/stat.h>

#include "core/audit.h"
#include "core/columnar.h"
#include "core/export.h"
#include "dns/zonefile.h"
#include "exec/pool.h"
#include "net/remote.h"
#include "net/server.h"
#include "obs/export_html.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "obs/watchdog.h"
#include "scenario/driver.h"
#include "scenario/russia.h"
#include "scenario/transip.h"
#include "serve/driver.h"
#include "serve/query_engine.h"
#include "serve/workload.h"
#include "store/format.h"
#include "store/merge.h"
#include "util/flags.h"
#include "util/strings.h"
#include "util/table.h"

#include "cli_commands.h"

using namespace ddos;

namespace {

int cmd_world(util::FlagParser& flags) {
  scenario::WorldParams params;
  params.seed = flags.get_uint("seed");
  params.domain_count = static_cast<std::uint32_t>(flags.get_uint("domains"));
  params.provider_count =
      static_cast<std::uint32_t>(flags.get_uint("providers"));
  const auto world = scenario::build_world(params);

  std::cout << "world: " << world->registry.domain_count() << " domains, "
            << world->registry.nsset_count() << " NSSets, "
            << world->registry.nameserver_count() << " nameservers, "
            << world->providers.size() << " providers\n";
  std::cout << "largest providers:\n";
  for (int i = 0; i < 5; ++i) {
    const auto& p = world->providers[static_cast<std::size_t>(i)];
    std::cout << "  " << p.name << ": " << p.domains_hosted << " domains ("
              << scenario::to_string(p.style) << ")\n";
  }

  const std::string tld = flags.get_string("zone");
  if (!tld.empty()) {
    const std::string zone = dns::export_zone_file(world->registry, tld);
    const std::string out_path = flags.get_string("out");
    if (out_path.empty()) {
      std::cout << zone;
    } else {
      std::ofstream out(out_path);
      out << zone;
      std::cout << "wrote ." << tld << " zone ("
                << util::format_count(static_cast<double>(zone.size()))
                << "B) to " << out_path << "\n";
    }
  }

  if (flags.get_bool("audit")) {
    const core::DelegationAuditor auditor(world->registry, world->census,
                                          world->routes);
    const auto s = auditor.audit_all(100);
    util::TextTable table({"audit property", "domains", "share"});
    const auto row = [&](const char* label, std::uint64_t n) {
      table.add_row({label, util::with_commas(n),
                     util::format_fixed(100.0 * s.share(n), 2) + "%"});
    };
    row("single nameserver", s.single_ns);
    row("single /24", s.single_slash24);
    row("single ASN", s.single_asn);
    row("lame NS entry", s.with_lame_ns);
    row("open resolver as NS", s.with_open_resolver_ns);
    row("full anycast", s.full_anycast);
    std::cout << table.to_string();
  }
  return 0;
}

// Shared value printer: `run` and `analyze --events-csv` feed it through
// print_analysis from a frame of their rows, `analyze --store` from the
// values analyze_store computed over the stored frame. The kernels and
// this one formatting path are shared, so the outputs are byte-identical
// whenever the events agree (CI diffs them).
void print_analysis_values(const core::ImpactSummary& impacts,
                           const core::FailureSummary& failures,
                           const core::CorrelationSeries& duration,
                           const std::vector<core::GroupImpact>& by_anycast) {
  util::TextTable table({"analysis", "value"});
  table.add_row({"events", util::with_commas(impacts.events)});
  table.add_row({">=10x impact share",
                 util::format_fixed(100 * impacts.impaired_share(), 2) + "%"});
  table.add_row(
      {">=100x among impaired",
       util::format_fixed(100 * impacts.severe_share_of_impaired(), 1) + "%"});
  table.add_row(
      {"events with failures",
       util::format_fixed(100 * failures.failing_event_share(), 2) + "%"});
  table.add_row(
      {"timeout share of failures",
       util::format_fixed(100 * failures.timeout_share_of_failures(), 1) +
           "%"});
  table.add_row({"Pearson(duration, impact)",
                 util::format_fixed(duration.pearson, 3)});
  std::cout << table.to_string();

  std::cout << "impact by resilience class (median/max/n):\n";
  for (const auto& g : by_anycast) {
    std::cout << "  " << g.group << ": "
              << util::format_fixed(g.median_impact, 2) << " / "
              << util::format_fixed(g.max_impact, 0) << " / " << g.events
              << "\n";
  }
}

void print_analysis(const std::vector<core::NssetAttackEvent>& events) {
  const core::OwnedEventFrame owned(events);
  const core::EventFrame& f = owned.frame();
  print_analysis_values(core::impact_summary_columnar(f),
                        core::failure_summary_columnar(f),
                        core::duration_impact_series_columnar(f),
                        core::impact_by_anycast_columnar(f));
}

// The one-line pipeline summary printed by both `run` and
// `analyze --store`; CI diffs everything from this line on between the
// two paths, so the text must match byte for byte.
void print_pipeline_line(std::uint64_t attacks, std::uint64_t feed_records,
                         std::uint64_t events, std::uint64_t joined,
                         std::uint64_t swept) {
  std::cout << "pipeline: " << attacks << " attacks -> " << feed_records
            << " feed records -> " << events << " events -> " << joined
            << " joined NSSet-attack events (" << util::with_commas(swept)
            << " measurements swept)\n\n";
}

void print_progress(const obs::ProgressEvent& e) {
  if (e.stage == "join") {
    std::cerr << "[progress] join: " << e.joined << " NSSet-events from "
              << e.events << " telescope events, "
              << util::with_commas(e.measurements) << " measurements\n";
    return;
  }
  std::cerr << "[progress] day " << e.day << " (" << e.days_done << "/"
            << e.days_total << "): " << util::with_commas(e.measurements)
            << " measurements, " << e.events << " events, "
            << util::format_count(e.sweep_rate_per_s) << " sweeps/s\n";
}

int cmd_run(util::FlagParser& flags) {
  scenario::LongitudinalConfig cfg = scenario::default_longitudinal_config();
  cfg.world.seed = flags.get_uint("seed");
  cfg.world.domain_count =
      static_cast<std::uint32_t>(flags.get_uint("domains"));
  cfg.world.provider_count =
      static_cast<std::uint32_t>(flags.get_uint("providers"));
  cfg.workload.scale = flags.get_double("scale");

  const unsigned threads = static_cast<unsigned>(flags.get_uint("threads"));
  exec::set_global_threads(threads);

  const std::string metrics_path = flags.get_string("metrics-out");
  const std::string metrics_format = flags.get_string("metrics-format");
  const std::string trace_path = flags.get_string("trace-out");
  const std::string telemetry_path = flags.get_string("telemetry-out");
  const std::string dashboard_path = flags.get_string("dashboard-out");
  const double watchdog_timeout_s = flags.get_double("watchdog-timeout-s");
  const bool progress = flags.get_bool("progress");

  if (metrics_format != "json" && metrics_format != "openmetrics") {
    std::cerr << "--metrics-format must be json or openmetrics, got '"
              << metrics_format << "'\n";
    return 2;
  }

  // Observability is opt-in: with none of the flags present, no observer
  // is installed and the pipeline runs uninstrumented (and bit-identically
  // to an instrumented run — telemetry never feeds back into results).
  std::optional<obs::Observer> observer;
  std::optional<obs::ScopedInstall> install;
  if (progress || !metrics_path.empty() || !trace_path.empty() ||
      !telemetry_path.empty() || !dashboard_path.empty() ||
      watchdog_timeout_s > 0.0) {
    observer.emplace();
    if (progress) observer->set_progress(print_progress);
    install.emplace(*observer);
  }

  // Background telemetry sampler: needed by --telemetry-out (JSONL stream)
  // and --dashboard-out (sparkline series).
  std::optional<obs::TelemetrySampler> sampler;
  if (!telemetry_path.empty() || !dashboard_path.empty()) {
    obs::SamplerOptions sopts;
    sopts.interval_ms = flags.get_uint("telemetry-interval-ms");
    sopts.capacity_per_series =
        static_cast<std::size_t>(flags.get_uint("telemetry-capacity"));
    sopts.jsonl_path = telemetry_path;
    sampler.emplace(*observer, sopts);
    sampler->start();
  }

  // Stall watchdog: aborts with a diagnostic dump when no registered
  // progress source advances within the timeout.
  std::optional<obs::StallWatchdog> watchdog;
  if (watchdog_timeout_s > 0.0) {
    obs::WatchdogOptions wopts;
    wopts.timeout_s = watchdog_timeout_s;
    wopts.poll_ms = std::max<std::uint64_t>(
        50, static_cast<std::uint64_t>(watchdog_timeout_s * 1000.0 / 4.0));
    wopts.crash_path = "ddosrepro_stall_report.txt";
    wopts.sampler = sampler ? &*sampler : nullptr;
    watchdog.emplace(*observer, wopts);
    watchdog->start();
  }

  const std::string store_path = flags.get_string("store");
  scenario::LongitudinalResult r;
  try {
    scenario::StreamingOptions opts;
    opts.threads = threads;
    opts.store_path = store_path;
    // Feed records retire as they are folded; only the CSV export still
    // needs the full vector resident.
    opts.retain_feed = !flags.get_string("feed-csv").empty();
    r = scenario::run_longitudinal_streaming(cfg, opts);
  } catch (const store::StoreError& e) {
    std::cerr << "store error: " << e.what() << "\n";
    return 1;
  }
  // The run is done: the watchdog must not treat report writing as a
  // stall, and the sampler's stop() takes the final end-of-run sample.
  if (watchdog) watchdog->stop();
  if (sampler) sampler->stop();
  print_pipeline_line(r.workload.schedule.size(), r.feed_records,
                      r.events.size(), r.joined.size(), r.swept_measurements);
  print_analysis(r.joined);

  if (!store_path.empty()) {
    std::cout << "\nwrote dataset store ("
              << util::format_count(static_cast<double>(r.store_bytes))
              << "B) to " << store_path << "\n";
  }

  const std::string events_path = flags.get_string("events-csv");
  if (!events_path.empty()) {
    std::ofstream out(events_path);
    core::write_events_csv(out, r.joined);
    std::cout << "\nwrote " << r.joined.size() << " events to "
              << events_path << "\n";
  }
  const std::string feed_path = flags.get_string("feed-csv");
  if (!feed_path.empty()) {
    std::ofstream out(feed_path);
    r.feed.write_csv(out);
    std::cout << "wrote " << r.feed.records().size() << " feed records to "
              << feed_path << "\n";
  }

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "cannot write " << trace_path << "\n";
      return 1;
    }
    observer->tracer().write_chrome_json(out);
    std::cout << "wrote " << observer->tracer().event_count()
              << " trace spans to " << trace_path << "\n";
  }
  if (sampler && !telemetry_path.empty()) {
    std::cout << "wrote " << sampler->samples_taken() << " telemetry samples ("
              << sampler->series().series_count() << " series) to "
              << telemetry_path << "\n";
  }
  if (!dashboard_path.empty()) {
    obs::DashboardOptions dopts;
    dopts.title = "ddosrepro run (seed " +
                  std::to_string(flags.get_uint("seed")) + ")";
    dopts.meta = {
        {"seed", std::to_string(flags.get_uint("seed"))},
        {"domains", std::to_string(flags.get_uint("domains"))},
        {"providers", std::to_string(flags.get_uint("providers"))},
        {"scale", util::format_fixed(flags.get_double("scale"), 2)},
        {"threads", std::to_string(threads)},
        {"wall time",
         util::format_fixed(
             static_cast<double>(observer->tracer().now_ns()) / 1e9, 2) +
             " s"},
        {"joined events", std::to_string(r.joined.size())},
        {"swept measurements", util::with_commas(r.swept_measurements)},
    };
    if (!obs::write_dashboard_html_file(dashboard_path, *observer,
                                        sampler ? &*sampler : nullptr,
                                        dopts)) {
      std::cerr << "cannot write " << dashboard_path << "\n";
      return 1;
    }
    std::cout << "wrote run dashboard to " << dashboard_path << "\n";
  }
  if (!metrics_path.empty() && metrics_format == "openmetrics") {
    std::ofstream out(metrics_path);
    if (!out) {
      std::cerr << "cannot write " << metrics_path << "\n";
      return 1;
    }
    out << observer->metrics().snapshot().to_openmetrics();
    std::cout << "wrote OpenMetrics exposition to " << metrics_path << "\n";
  } else if (!metrics_path.empty()) {
    obs::RunReport report("run");
    report.add_config("seed", flags.get_uint("seed"));
    report.add_config("domains", flags.get_uint("domains"));
    report.add_config("providers", flags.get_uint("providers"));
    report.add_config("scale", flags.get_double("scale"));
    report.add_config("threads", static_cast<std::int64_t>(threads));
    report.add_result("attacks",
                      static_cast<std::int64_t>(r.workload.schedule.size()));
    report.add_result("feed_records",
                      static_cast<std::int64_t>(r.feed_records));
    report.add_result("events", static_cast<std::int64_t>(r.events.size()));
    report.add_result("joined", static_cast<std::int64_t>(r.joined.size()));
    report.add_result("swept_measurements",
                      static_cast<std::int64_t>(r.swept_measurements));
    std::ofstream out(metrics_path);
    if (!out) {
      std::cerr << "cannot write " << metrics_path << "\n";
      return 1;
    }
    report.write(out, *observer);
    std::cout << "wrote run report to " << metrics_path << "\n";
  }
  return 0;
}

// `generate --shard i/N`: execute one shard of the deterministic N-way
// day partition (scenario/plan.h) and write an independent shard store.
// Kept apart from cmd_run — a shard's joined rows are pre-merge, so it
// prints a shard accounting line instead of the whole-run analyses.
int cmd_generate_shard(util::FlagParser& flags,
                       const scenario::ShardSpec& shard) {
  scenario::LongitudinalConfig cfg = scenario::default_longitudinal_config();
  cfg.world.seed = flags.get_uint("seed");
  cfg.world.domain_count =
      static_cast<std::uint32_t>(flags.get_uint("domains"));
  cfg.world.provider_count =
      static_cast<std::uint32_t>(flags.get_uint("providers"));
  cfg.workload.scale = flags.get_double("scale");

  const unsigned threads = static_cast<unsigned>(flags.get_uint("threads"));
  exec::set_global_threads(threads);

  std::optional<obs::Observer> observer;
  std::optional<obs::ScopedInstall> install;
  if (flags.get_bool("progress")) {
    observer.emplace();
    observer->set_progress(print_progress);
    install.emplace(*observer);
  }

  const std::string store_path = flags.get_string("store");
  try {
    const scenario::ShardRunResult r =
        scenario::run_shard(cfg, shard, threads, store_path);
    std::cout << "shard " << shard.index << "/" << shard.count << ": "
              << r.owned_events << "/" << r.events_total
              << " telescope events owned, " << r.joined_rows
              << " joined rows, " << util::with_commas(r.feed_rows)
              << " feed rows, " << util::with_commas(r.swept_measurements)
              << " measurements swept\n";
    std::cout << "wrote shard store ("
              << util::format_count(static_cast<double>(r.store_bytes))
              << "B) to " << store_path
              << " — combine the " << shard.count
              << " shards with 'ddosrepro merge'\n";
  } catch (const store::StoreError& e) {
    std::cerr << "store error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

int cmd_generate(util::FlagParser& flags) {
  if (flags.get_string("store").empty()) {
    std::cerr << "generate requires --store <file.drs>\n";
    return 1;
  }
  const std::string shard_spec = flags.get_string("shard");
  if (!shard_spec.empty()) {
    std::string shard_error;
    const auto shard = scenario::parse_shard(shard_spec, &shard_error);
    if (!shard) {
      std::cerr << "flag --" << shard_error << "\n";
      return 2;
    }
    return cmd_generate_shard(flags, *shard);
  }
  return cmd_run(flags);
}

int cmd_merge(util::FlagParser& flags) {
  const auto& args = flags.positional();
  if (args.size() < 3) {
    std::cerr << "merge requires an output path and at least one shard "
                 "store:\n  ddosrepro merge <out.drs> <shard.drs> "
                 "[shard.drs ...]\n";
    return 2;
  }
  const std::string& out_path = args[1];
  const std::vector<std::string> shard_paths(args.begin() + 2, args.end());
  try {
    const auto merge_start = std::chrono::steady_clock::now();
    const store::MergeStats stats = store::merge_stores(out_path, shard_paths);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      merge_start)
            .count();
    std::cout << "merged " << stats.shards << " shard stores -> " << out_path
              << " ("
              << util::format_count(static_cast<double>(stats.bytes_written))
              << "B): " << util::with_commas(stats.rows_merged)
              << " column values, " << stats.events_out << " joined events";
    if (secs > 0.0) {
      std::cout << " in " << util::format_fixed(secs, 2) << "s ("
                << util::format_count(
                       static_cast<double>(stats.bytes_written) / secs)
                << "B/s)";
    }
    std::cout << "\n";
  } catch (const store::StoreError& e) {
    std::cerr << "store error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

int cmd_analyze_store(util::FlagParser& flags, const std::string& path) {
  exec::set_global_threads(static_cast<unsigned>(flags.get_uint("threads")));
  // Column-native analysis: the store is mapped read-only (--no-mmap
  // falls back to the buffered reader) and every headline statistic is
  // recomputed from column spans — no row materialization. Output is
  // byte-identical to the row path (`run`); CI diffs the two.
  const bool use_mmap = !flags.get_bool("no-mmap");
  scenario::StoreAnalysis analysis;
  try {
    analysis = scenario::analyze_store(path, use_mmap);
  } catch (const store::StoreError& e) {
    std::cerr << "store error: " << e.what() << "\n";
    return 1;
  }

  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  std::cout << "store: " << path;
  if (!ec) {
    std::cout << " (" << util::format_count(static_cast<double>(bytes))
              << "B)";
  }
  std::cout << "\nprovenance: world seed " << analysis.world_seed << ", "
            << analysis.domain_count << " domains, "
            << analysis.provider_count << " providers; workload seed "
            << analysis.workload_seed << ", scale "
            << analysis.workload_scale << "; sweep/feed seeds "
            << analysis.sweep_seed << "/" << analysis.feed_seed
            << "; generated with " << analysis.threads << " threads\n";

  if (flags.get_bool("rejoin")) {
    try {
      const scenario::StoredRun run = scenario::load_run(path, use_mmap);
      const auto rejoin = scenario::rejoin_from_store(run);
      const bool match =
          rejoin.joined == run.joined && rejoin.stats == run.join_stats;
      std::cout << "rejoin: " << rejoin.joined.size()
                << " joined events recomputed from stored aggregates — "
                << (match ? "bit-for-bit match with stored events"
                          : "MISMATCH with stored events")
                << "\n";
      if (!match) {
        std::cerr << "rejoin mismatch: store provenance does not reproduce "
                     "the generating run\n";
        return 1;
      }
    } catch (const store::StoreError& e) {
      std::cerr << "store error: " << e.what() << "\n";
      return 1;
    }
  }

  std::cout << "\n";
  print_pipeline_line(analysis.attacks, analysis.feed_records,
                      analysis.events, analysis.joined,
                      analysis.swept_measurements);
  print_analysis_values(analysis.impact, analysis.failures,
                        analysis.duration_series, analysis.by_anycast);
  return 0;
}

int cmd_analyze(util::FlagParser& flags) {
  const std::string store_path = flags.get_string("store");
  if (!store_path.empty()) return cmd_analyze_store(flags, store_path);

  const std::string path = flags.get_string("events-csv");
  if (path.empty()) {
    std::cerr << "analyze requires --store <file.drs> or --events-csv "
                 "<file>\n";
    return 1;
  }
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  core::EventsCsvReport report;
  const auto events = core::read_events_csv(in, &report);
  if (report.rows_skipped > 0) {
    std::cerr << "warning: skipped " << report.rows_skipped
              << " malformed row" << (report.rows_skipped == 1 ? "" : "s")
              << " in " << path << " (" << report.rows_read << " parsed)\n";
  }
  std::cout << "loaded " << events.size() << " events from " << path
            << "\n\n";
  print_analysis(events);
  return 0;
}

int cmd_transip(util::FlagParser& flags) {
  scenario::TransIPParams params;
  params.scale = flags.get_double("scale");
  const auto r = scenario::run_transip(params);
  std::cout << "TransIP replay at scale " << params.scale << ": "
            << util::with_commas(r.domains_hosted) << " domains\n";
  std::cout << "December: peak impact "
            << util::format_fixed(r.december_peak_impact, 1)
            << "x, residual " << util::format_fixed(r.december_residual_hours, 1)
            << "h (paper: ~10x, ~8h)\n";
  std::cout << "March: peak impact "
            << util::format_fixed(r.march_peak_impact, 1)
            << "x, peak timeout share "
            << util::format_fixed(100 * r.march_peak_timeout_share, 1)
            << "% (paper: larger, ~20%)\n";
  return 0;
}

int cmd_russia(util::FlagParser&) {
  const auto r = scenario::run_russia(scenario::RussiaParams{});
  std::cout << "mil.ru: " << r.milru.attack_windows_probed
            << " attack windows probed, "
            << util::format_fixed(100 * r.milru.unresolvable_share(), 1)
            << "% fully unresolvable; geofence "
            << r.milru.geofence_start.to_string() << " .. "
            << r.milru.geofence_end.to_string() << "\n";
  std::cout << "rzd.ru: resolution during attack "
            << util::format_fixed(100 * r.rdz.during_attack_resolution_rate, 1)
            << "%, recovery at "
            << (r.rdz.recovered() ? r.rdz.recovery_time.to_string()
                                  : "n/a")
            << " (paper: ~06:00 next day)\n";
  return 0;
}

// SIGINT/SIGTERM flag for `serve --listen`: the handler only sets this,
// the serving loop polls it.
volatile std::sig_atomic_t g_serve_stop = 0;
void on_serve_signal(int) { g_serve_stop = 1; }

// What `serve --refill` compares between polls: the file's device, inode,
// size and mtime. A publish renames a new inode onto the path, and that
// file may carry any mtime (touch -r, rsync -t, a copied-in store), so
// the mtime alone misses it. Empty when stat() fails.
using FileIdentity = std::tuple<dev_t, ino_t, off_t, time_t, long>;
std::optional<FileIdentity> file_identity(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  return FileIdentity{st.st_dev, st.st_ino, st.st_size, st.st_mtim.tv_sec,
                      st.st_mtim.tv_nsec};
}

/// "host:port" -> (host, port). Port must be 0..65535; 0 means ephemeral.
bool parse_host_port(const std::string& spec, std::string& host,
                     std::uint16_t& port, std::string& error) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    error = "expected host:port, got '" + spec + "'";
    return false;
  }
  host = spec.substr(0, colon);
  const std::string port_str = spec.substr(colon + 1);
  char* end = nullptr;
  const unsigned long v = std::strtoul(port_str.c_str(), &end, 10);
  if (end == port_str.c_str() || *end != '\0' || v > 65535) {
    error = "bad port '" + port_str + "' in '" + spec + "'";
    return false;
  }
  port = static_cast<std::uint16_t>(v);
  return true;
}

int cmd_serve(util::FlagParser& flags) {
  const std::string store_path = flags.get_string("store");
  const std::string listen_spec = flags.get_string("listen");
  const std::string connect_spec = flags.get_string("connect");
  const double target_qps = flags.get_double("target-qps");
  const double refill_s = flags.get_double("refill");
  if (!listen_spec.empty() && !connect_spec.empty()) {
    std::cerr << "--listen and --connect are mutually exclusive\n";
    return 2;
  }
  if (target_qps > 0.0 && connect_spec.empty()) {
    std::cerr << "--target-qps (open-loop driving) requires --connect\n";
    return 2;
  }
  if (refill_s > 0.0 && listen_spec.empty()) {
    std::cerr << "--refill requires --listen\n";
    return 2;
  }
  if (store_path.empty() && connect_spec.empty()) {
    std::cerr << "serve requires --store <file.drs> (or --connect to drive "
                 "a remote server)\n";
    return 2;
  }

  serve::DriveOptions opts;
  opts.workload.seed = flags.get_uint("seed");
  const auto dist = serve::parse_distribution(flags.get_string("dist"));
  if (!dist) {
    std::cerr << "--dist must be uniform or zipfian, got '"
              << flags.get_string("dist") << "'\n";
    return 2;
  }
  opts.workload.dist = *dist;
  opts.workload.theta = flags.get_double("theta");
  std::string mix_error;
  const auto mix = serve::parse_mix(flags.get_string("mix"), &mix_error);
  if (!mix) {
    std::cerr << "flag --" << mix_error << "\n";
    return 2;
  }
  opts.workload.mix = *mix;
  opts.workload.topk_k =
      static_cast<std::uint32_t>(flags.get_uint("topk"));
  opts.workload.scan_days =
      static_cast<netsim::DayIndex>(flags.get_uint("scan-days"));
  opts.ops_per_thread = flags.get_uint("serve-ops");
  opts.duration_s = flags.get_double("duration-s");

  const unsigned threads = static_cast<unsigned>(flags.get_uint("threads"));
  if (listen_spec.empty() && connect_spec.empty()) {
    exec::set_global_threads(threads);
  }

  const std::string metrics_path = flags.get_string("metrics-out");
  const std::string metrics_format = flags.get_string("metrics-format");
  const std::string trace_path = flags.get_string("trace-out");
  const std::string telemetry_path = flags.get_string("telemetry-out");
  const std::string dashboard_path = flags.get_string("dashboard-out");
  if (metrics_format != "json" && metrics_format != "openmetrics") {
    std::cerr << "--metrics-format must be json or openmetrics, got '"
              << metrics_format << "'\n";
    return 2;
  }

  std::optional<obs::Observer> observer;
  std::optional<obs::ScopedInstall> install;
  if (!metrics_path.empty() || !trace_path.empty() ||
      !telemetry_path.empty() || !dashboard_path.empty()) {
    observer.emplace();
    install.emplace(*observer);
  }
  std::optional<obs::TelemetrySampler> sampler;
  if (!telemetry_path.empty() || !dashboard_path.empty()) {
    obs::SamplerOptions sopts;
    sopts.interval_ms = flags.get_uint("telemetry-interval-ms");
    sopts.capacity_per_series =
        static_cast<std::size_t>(flags.get_uint("telemetry-capacity"));
    sopts.jsonl_path = telemetry_path;
    sampler.emplace(*observer, sopts);
    sampler->start();
  }
  // Command-lifetime progress source: drive() registers a finer-grained
  // per-op source, but that one only exists for the drive window, which a
  // short fixed-ops run can squeeze between two sampler ticks. This one
  // spans every sample the sampler takes, including the stop() bookend.
  std::atomic<std::uint64_t> completed_ops{0};
  std::optional<obs::ScopedProgressSource> progress;
  if (observer) {
    progress.emplace(&observer->progress_sources(), "serve.completed_ops",
                     [&completed_ops] {
                       return completed_ops.load(std::memory_order_relaxed);
                     });
  }

  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  // The fill line shared by the in-process and --listen paths.
  const auto report_fill = [&store_path](const serve::QueryEngine& engine,
                                         double seconds) {
    std::cout << "fill: " << store_path << " loaded+indexed in "
              << util::format_fixed(seconds, 2) << "s; "
              << util::with_commas(engine.nsset_count()) << " NSSets, "
              << util::with_commas(engine.series_points())
              << " series points, "
              << util::with_commas(engine.leaderboard_entries())
              << " leaderboard rows\n";
  };

  // Report print + observability outputs shared by the in-process and
  // remote drive paths (`source` is the store path or the server address).
  const auto drive_epilogue = [&](const serve::DriveReport& report,
                                  const std::string& source) -> int {
    util::TextTable table(
        {"query", "ops", "ops/sec", "p50 us", "p99 us", "p99.9 us"});
    for (const serve::QueryTypeReport& tr : report.by_type) {
      table.add_row({serve::to_string(tr.type), util::with_commas(tr.ops),
                     util::format_count(tr.ops_per_sec),
                     util::format_fixed(tr.p50_us, 2),
                     util::format_fixed(tr.p99_us, 2),
                     util::format_fixed(tr.p999_us, 2)});
    }
    std::cout << table.to_string();
    std::cout << "total: " << util::with_commas(report.total_ops)
              << " ops in " << util::format_fixed(report.wall_s, 2)
              << "s = " << util::format_count(report.ops_per_sec)
              << "ops/sec";
    if (report.target_qps > 0.0) {
      std::cout << " (open loop, intended "
                << util::format_count(report.target_qps)
                << "qps; latency from intended send times)";
    }
    std::cout << "\n";
    char fp[17];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(report.fingerprint));
    std::cout << "fingerprint: " << fp << "\n";

    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out) {
        std::cerr << "cannot write " << trace_path << "\n";
        return 1;
      }
      observer->tracer().write_chrome_json(out);
      std::cout << "wrote " << observer->tracer().event_count()
                << " trace spans to " << trace_path << "\n";
    }
    if (sampler && !telemetry_path.empty()) {
      std::cout << "wrote " << sampler->samples_taken()
                << " telemetry samples (" << sampler->series().series_count()
                << " series) to " << telemetry_path << "\n";
    }
    if (!dashboard_path.empty()) {
      obs::DashboardOptions dopts;
      dopts.title = "ddosrepro serve (" + source + ")";
      dopts.meta = {
          {"source", source},
          {"threads", std::to_string(report.threads)},
          {"distribution", serve::to_string(opts.workload.dist)},
          {"mix", opts.workload.mix.to_string()},
          {"total ops", util::with_commas(report.total_ops)},
          {"ops/sec", util::format_count(report.ops_per_sec)},
      };
      if (!obs::write_dashboard_html_file(dashboard_path, *observer,
                                          sampler ? &*sampler : nullptr,
                                          dopts)) {
        std::cerr << "cannot write " << dashboard_path << "\n";
        return 1;
      }
      std::cout << "wrote serve dashboard to " << dashboard_path << "\n";
    }
    if (!metrics_path.empty() && metrics_format == "openmetrics") {
      std::ofstream out(metrics_path);
      if (!out) {
        std::cerr << "cannot write " << metrics_path << "\n";
        return 1;
      }
      out << observer->metrics().snapshot().to_openmetrics();
      std::cout << "wrote OpenMetrics exposition to " << metrics_path
                << "\n";
    } else if (!metrics_path.empty()) {
      obs::RunReport run_report("serve");
      run_report.add_config("source", source);
      run_report.add_config("seed", flags.get_uint("seed"));
      run_report.add_config("threads",
                            static_cast<std::int64_t>(report.threads));
      run_report.add_config("dist",
                            std::string(serve::to_string(opts.workload.dist)));
      run_report.add_config("theta", opts.workload.theta);
      run_report.add_config("mix", opts.workload.mix.to_string());
      if (report.target_qps > 0.0) {
        run_report.add_config("target_qps", report.target_qps);
      }
      run_report.add_result("total_ops",
                            static_cast<std::int64_t>(report.total_ops));
      run_report.add_result("ops_per_sec", report.ops_per_sec);
      run_report.add_result("fingerprint", std::string(fp));
      for (const serve::QueryTypeReport& tr : report.by_type) {
        const std::string prefix = serve::to_string(tr.type);
        run_report.add_result(prefix + "_ops",
                              static_cast<std::int64_t>(tr.ops));
        run_report.add_result(prefix + "_p50_us", tr.p50_us);
        run_report.add_result(prefix + "_p99_us", tr.p99_us);
        run_report.add_result(prefix + "_p999_us", tr.p999_us);
      }
      std::ofstream out(metrics_path);
      if (!out) {
        std::cerr << "cannot write " << metrics_path << "\n";
        return 1;
      }
      run_report.write(out, *observer);
      std::cout << "wrote serve report to " << metrics_path << "\n";
    }
    return 0;
  };

  // Remote drive: the server owns the store and the engine; this side is
  // workload generation, wire round trips and the shared epilogue.
  if (!connect_spec.empty()) {
    std::string host, hp_error;
    std::uint16_t port = 0;
    if (!parse_host_port(connect_spec, host, port, hp_error)) {
      std::cerr << "flag --connect " << hp_error << "\n";
      return 2;
    }
    net::RemoteDriveOptions ropts;
    ropts.host = host;
    ropts.port = port;
    ropts.connections = threads;
    ropts.workload = opts.workload;
    ropts.ops_per_thread = opts.ops_per_thread;
    ropts.duration_s = opts.duration_s;
    ropts.target_qps = target_qps;
    std::cout << "remote: " << host << ":" << port << ", " << threads
              << " connection" << (threads == 1 ? "" : "s") << ", ";
    if (target_qps > 0.0) {
      std::cout << "open loop @ " << util::format_count(target_qps) << "qps";
    } else {
      std::cout << "closed loop";
    }
    std::cout << ", mix " << opts.workload.mix.to_string() << "\n";
    serve::DriveReport report;
    try {
      report = net::drive_remote(ropts);
    } catch (const std::exception& e) {
      std::cerr << "remote drive failed: " << e.what() << "\n";
      return 1;
    }
    completed_ops.store(report.total_ops, std::memory_order_relaxed);
    if (sampler) sampler->stop();
    return drive_epilogue(report, connect_spec);
  }

  // Listen mode: the engine lives behind the server's atomic handle so
  // --refill can swap a rebuilt one in without dropping connections.
  if (!listen_spec.empty()) {
    std::string host, hp_error;
    std::uint16_t port = 0;
    if (!parse_host_port(listen_spec, host, port, hp_error)) {
      std::cerr << "flag --listen " << hp_error << "\n";
      return 2;
    }
    std::shared_ptr<const net::EngineHandle> handle;
    const Clock::time_point load_start = Clock::now();
    try {
      handle = net::EngineHandle::load(store_path, /*epoch=*/0);
    } catch (const store::StoreError& e) {
      std::cerr << "store error: " << e.what() << "\n";
      return 1;
    }
    report_fill(handle->engine(), seconds_since(load_start));
    if (handle->engine().keys().empty()) {
      std::cerr << "store has no indexable NSSets to serve\n";
      return 1;
    }
    net::ServerOptions sopts;
    sopts.host = host;
    sopts.port = port;
    sopts.threads = threads;
    net::Server server(std::move(handle), sopts);
    try {
      server.start();
    } catch (const std::exception& e) {
      std::cerr << "cannot listen on " << listen_spec << ": " << e.what()
                << "\n";
      return 1;
    }
    std::cout << "listening on " << host << ":" << server.port() << " ("
              << threads << " event loop" << (threads == 1 ? "" : "s");
    if (refill_s > 0.0) {
      std::cout << ", refill poll every " << util::format_fixed(refill_s, 1)
                << "s";
    }
    // Flushed immediately: harnesses parse the resolved port from this line.
    std::cout << ")" << std::endl;

    g_serve_stop = 0;
    std::signal(SIGINT, on_serve_signal);
    std::signal(SIGTERM, on_serve_signal);
    std::optional<FileIdentity> last_identity = file_identity(store_path);
    std::uint64_t epoch = 0;
    const auto poll_interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(refill_s > 0.0 ? refill_s : 1.0));
    Clock::time_point next_poll = Clock::now() + poll_interval;
    while (g_serve_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (refill_s <= 0.0 || Clock::now() < next_poll) continue;
      next_poll = Clock::now() + poll_interval;
      const std::optional<FileIdentity> identity = file_identity(store_path);
      if (!identity || identity == last_identity) continue;
      last_identity = identity;
      const Clock::time_point t0 = Clock::now();
      try {
        auto fresh = net::EngineHandle::load(store_path, ++epoch);
        const std::size_t nssets = fresh->engine().nsset_count();
        server.install_engine(std::move(fresh));
        std::cout << "refill: engine epoch " << epoch << " ("
                  << util::with_commas(nssets) << " NSSets) swapped in after "
                  << util::format_fixed(seconds_since(t0), 2) << "s"
                  << std::endl;
      } catch (const std::exception& e) {
        // Keep serving the previous epoch; a half-written store must not
        // take the server down.
        std::cerr << "refill failed (serving previous epoch): " << e.what()
                  << "\n";
      }
    }
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    server.stop();
    const net::ServerStats stats = server.stats();
    completed_ops.store(stats.requests, std::memory_order_relaxed);
    if (sampler) sampler->stop();
    std::cout << "served " << util::with_commas(stats.requests)
              << " requests over "
              << util::with_commas(stats.connections_accepted)
              << " connections (rx " << util::with_commas(stats.rx_bytes)
              << " B, tx " << util::with_commas(stats.tx_bytes) << " B), "
              << stats.malformed_frames << " malformed, "
              << stats.engine_swaps << " engine swap"
              << (stats.engine_swaps == 1 ? "" : "s") << "\n";
    if (sampler && !telemetry_path.empty()) {
      std::cout << "wrote " << sampler->samples_taken()
                << " telemetry samples (" << sampler->series().series_count()
                << " series) to " << telemetry_path << "\n";
    }
    if (!dashboard_path.empty()) {
      obs::DashboardOptions dopts;
      dopts.title = "ddosrepro serve --listen (" + store_path + ")";
      dopts.meta = {
          {"store", store_path},
          {"listen", host + ":" + std::to_string(server.port())},
          {"requests", util::with_commas(stats.requests)},
          {"connections", util::with_commas(stats.connections_accepted)},
          {"engine swaps", std::to_string(stats.engine_swaps)},
      };
      if (!obs::write_dashboard_html_file(dashboard_path, *observer,
                                          sampler ? &*sampler : nullptr,
                                          dopts)) {
        std::cerr << "cannot write " << dashboard_path << "\n";
        return 1;
      }
      std::cout << "wrote serve dashboard to " << dashboard_path << "\n";
    }
    if (!metrics_path.empty() && metrics_format == "openmetrics") {
      std::ofstream out(metrics_path);
      if (!out) {
        std::cerr << "cannot write " << metrics_path << "\n";
        return 1;
      }
      out << observer->metrics().snapshot().to_openmetrics();
      std::cout << "wrote OpenMetrics exposition to " << metrics_path
                << "\n";
    } else if (!metrics_path.empty()) {
      obs::RunReport run_report("serve-listen");
      run_report.add_config("store", store_path);
      run_report.add_config("listen",
                            host + ":" + std::to_string(server.port()));
      run_report.add_config("threads", static_cast<std::int64_t>(threads));
      run_report.add_result("requests",
                            static_cast<std::int64_t>(stats.requests));
      run_report.add_result(
          "connections",
          static_cast<std::int64_t>(stats.connections_accepted));
      run_report.add_result("rx_bytes",
                            static_cast<std::int64_t>(stats.rx_bytes));
      run_report.add_result("tx_bytes",
                            static_cast<std::int64_t>(stats.tx_bytes));
      run_report.add_result(
          "engine_swaps", static_cast<std::int64_t>(stats.engine_swaps));
      std::ofstream out(metrics_path);
      if (!out) {
        std::cerr << "cannot write " << metrics_path << "\n";
        return 1;
      }
      run_report.write(out, *observer);
      std::cout << "wrote serve report to " << metrics_path << "\n";
    }
    return 0;
  }

  // Fill phase: map the store and build the serve indexes from its columns.
  std::unique_ptr<serve::QueryEngine> loaded;
  const Clock::time_point load_start = Clock::now();
  try {
    loaded = serve::load_engine(store_path);
  } catch (const store::StoreError& e) {
    std::cerr << "store error: " << e.what() << "\n";
    return 1;
  }
  const serve::QueryEngine& engine = *loaded;
  report_fill(engine, seconds_since(load_start));
  if (engine.keys().empty()) {
    std::cerr << "store has no indexable NSSets to serve\n";
    return 1;
  }

  // Mixed phase: the closed-loop drive.
  std::cout << "mixed: " << threads << " threads, "
            << serve::to_string(opts.workload.dist) << " keys";
  if (opts.workload.dist == serve::Distribution::Zipfian) {
    std::cout << " (theta " << util::format_fixed(opts.workload.theta, 2)
              << ")";
  }
  std::cout << ", mix " << opts.workload.mix.to_string() << ", ";
  if (opts.ops_per_thread > 0) {
    std::cout << util::with_commas(opts.ops_per_thread)
              << " ops/thread (fixed)\n";
  } else {
    std::cout << util::format_fixed(opts.duration_s, 1) << "s\n";
  }
  const serve::DriveReport report = serve::drive(engine, opts);
  completed_ops.store(report.total_ops, std::memory_order_relaxed);
  if (sampler) sampler->stop();
  return drive_epilogue(report, store_path);
}

// Command dispatch, index-aligned with cli::kCommands (the usage header's
// source of truth); the static_assert below keeps the two from drifting.
struct CommandHandler {
  std::string_view name;
  int (*handler)(util::FlagParser&);
};

constexpr std::array<CommandHandler, cli::kCommands.size()> kHandlers{{
    {"world", cmd_world},
    {"run", cmd_run},
    {"generate", cmd_generate},
    {"merge", cmd_merge},
    {"analyze", cmd_analyze},
    {"serve", cmd_serve},
    {"transip", cmd_transip},
    {"russia", cmd_russia},
}};

constexpr bool handlers_match_usage() {
  for (std::size_t i = 0; i < kHandlers.size(); ++i) {
    if (kHandlers[i].name != cli::kCommands[i].name) return false;
  }
  return true;
}
static_assert(handlers_match_usage(),
              "tools/cli_commands.h and the kHandlers table must list the "
              "same commands in the same order");

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags(cli::usage_header());
  flags.add_uint("seed", 42, "world/workload seed");
  flags.add_uint("domains", 120000, "registered domains in the world", 1,
                 UINT32_MAX);
  flags.add_uint("providers", 1200, "hosting providers in the world", 1,
                 UINT32_MAX);
  flags.add_double("scale", 30.0, "divide the paper's attack counts by this");
  const unsigned hw = std::thread::hardware_concurrency();
  flags.add_uint("threads", hw > 0 ? hw : 1,
                 "worker threads for the pipeline; results are identical "
                 "for any value (run/generate/analyze)",
                 1, 4096);
  flags.add_string("zone", "", "TLD to export as a parent-zone file");
  flags.add_string("out", "", "output path for --zone");
  flags.add_string("events-csv", "", "events CSV path (run: write; analyze: read)");
  flags.add_string("feed-csv", "", "RSDoS feed CSV output path (run)");
  flags.add_string("store", "",
                   "DRS dataset store path (generate/run: write; analyze: "
                   "read)");
  flags.add_string("shard", "",
                   "i/N: write only shard i of a deterministic N-way day "
                   "partition of the world to --store; merge the N shard "
                   "files with 'ddosrepro merge' for a store byte-identical "
                   "to a whole-world generate (generate)");
  flags.add_bool("rejoin",
                 "re-run the join from the stored aggregates and assert a "
                 "bit-for-bit match (analyze --store)");
  flags.add_bool("no-mmap",
                 "read the store through the buffered reader instead of "
                 "the zero-copy mmap path; output is byte-identical "
                 "(analyze --store)");
  flags.add_bool("audit", "run the structural delegation audit (world)");
  flags.add_string("metrics-out", "",
                   "run-report JSON output path: config, stage timings, "
                   "metric snapshot (run)");
  flags.add_string("trace-out", "",
                   "Chrome trace_event JSON output path (run; open in "
                   "chrome://tracing)");
  flags.add_bool("progress",
                 "print a per-sweep-day heartbeat line on stderr (run)");
  flags.add_string("metrics-format", "json",
                   "format for --metrics-out: json (run report) or "
                   "openmetrics (Prometheus text exposition) (run)");
  flags.add_string("telemetry-out", "",
                   "JSONL time-series output path: one sample of every "
                   "metric/progress/process series per interval (run)");
  flags.add_uint("telemetry-interval-ms", 250,
                 "telemetry sampling cadence in milliseconds (run with "
                 "--telemetry-out/--dashboard-out)",
                 10, 60000);
  flags.add_uint("telemetry-capacity", 4096,
                 "in-memory ring capacity per telemetry series; memory "
                 "bound is series x capacity x 16 bytes (run)",
                 2, 1 << 22);
  flags.add_string("dashboard-out", "",
                   "self-contained HTML run dashboard output path: "
                   "sparklines + stage timeline, no external assets (run)");
  flags.add_double("watchdog-timeout-s", 0.0,
                   "abort with a full diagnostic dump when no pipeline "
                   "stage makes progress for this many seconds; 0 "
                   "disables (run)",
                   0.0, 86400.0);
  flags.add_double("duration-s", 2.0,
                   "wall-clock budget of the mixed phase (serve; ignored "
                   "when --serve-ops > 0)",
                   0.0, 3600.0);
  flags.add_uint("serve-ops", 0,
                 "fixed per-thread op budget; > 0 selects the "
                 "deterministic fixed-ops mode whose fingerprint line is "
                 "reproducible for equal seed and threads (serve)",
                 0, 1ull << 40);
  flags.add_string("dist", "zipfian",
                   "key-choice distribution: uniform or zipfian (serve)");
  flags.add_double("theta", 0.99,
                   "Zipfian skew parameter (serve with --dist zipfian)",
                   0.01, 100.0);
  flags.add_string("mix", "95:4:1",
                   "relative point:topk:scan query weights (serve)");
  flags.add_uint("topk", 10, "rows per TopK query (serve)", 1, 100000);
  flags.add_uint("scan-days", 30,
                 "WindowScan width in days; windows are placed uniformly "
                 "over the indexed range (serve)",
                 1, 1000000);
  flags.add_string("listen", "",
                   "host:port to serve the query engine on over TCP; port 0 "
                   "picks an ephemeral port, printed on the 'listening on' "
                   "line; SIGINT/SIGTERM shuts down gracefully (serve)");
  flags.add_string("connect", "",
                   "drive a remote serve server at host:port instead of an "
                   "in-process engine; --threads sets the connection count "
                   "(serve)");
  flags.add_double("target-qps", 0.0,
                   "open-loop aggregate request rate across all "
                   "connections, latency measured from each op's intended "
                   "send time so server stalls cannot hide from the "
                   "percentiles; 0 = closed loop (serve --connect)",
                   0.0, 1e9);
  flags.add_double("refill", 0.0,
                   "poll the DRS store file every this-many seconds and "
                   "atomically swap in a freshly built engine when its "
                   "device, inode, size or mtime changes; 0 disables "
                   "(serve --listen)",
                   0.0, 86400.0);

  if (!flags.parse(argc - 1, argv + 1)) {
    std::cerr << flags.error() << "\n" << flags.usage();
    return 2;
  }
  if (flags.help_requested() || flags.positional().empty()) {
    std::cout << flags.usage();
    return flags.help_requested() ? 0 : 2;
  }

  const std::string& command = flags.positional().front();
  for (const CommandHandler& entry : kHandlers) {
    if (command == entry.name) return entry.handler(flags);
  }
  std::cerr << "unknown command '" << command << "'\n" << flags.usage();
  return 2;
}
