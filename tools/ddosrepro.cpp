// ddosrepro — command-line driver for the reproduction pipeline.
//
//   ddosrepro world    [--seed N --domains N --providers N]
//                      [--zone <tld> --out <file>] [--audit]
//   ddosrepro run      [--seed N --scale X --domains N --providers N]
//                      [--threads N] [--store <file.drs>]
//                      [--events-csv <file>] [--feed-csv <file>]
//   ddosrepro generate [--shard i/N] --store <file.drs> [run flags]
//   ddosrepro merge    <out.drs> <shard.drs> [shard.drs ...]
//   ddosrepro analyze  --store <file.drs> [--rejoin] | --events-csv <file>
//   ddosrepro serve    --store <file.drs> [--threads N] [--duration-s S]
//                      [--serve-ops N] [--dist uniform|zipfian] [--theta X]
//                      [--mix P:T:S] [--topk K] [--scan-days N]
//   ddosrepro serve    --store <file.drs> --listen host:port [--refill S]
//   ddosrepro serve    --connect host:port [--target-qps Q] [drive flags]
//   ddosrepro transip  [--scale X]
//   ddosrepro russia
//
// `run` executes the seventeen-month pipeline (the bounded-memory
// day-epoch executor; output is bit-identical at any --threads) and prints
// the headline shapes. `generate` also persists the pipeline datasets and
// provenance to a DRS store; `analyze --store` recomputes the same
// statistics from one without re-simulating (--rejoin re-runs the join
// from the stored aggregates and asserts a bit-for-bit match), `analyze
// --events-csv` from the lossy CSV export. `generate --shard i/N` writes
// one shard of a deterministic N-way day partition; `merge` combines the
// N shards into a store byte-identical to a whole `generate` (see
// scenario/plan.h and store/merge.h).
//
// `serve` builds the serve indexes from a store (fill phase), drives the
// query API from --threads client threads, and prints per-type throughput,
// latency quantiles and an answer fingerprint (equal for equal seed and
// threads with --serve-ops). --listen serves the engine over TCP (--refill
// hot-swaps a rebuilt one when the store changes); --connect drives a
// remote server, closed loop or at --target-qps, with the fingerprint of
// a local drive with as many threads as connections.
//
// Observability, for every command: --metrics-out writes a run report
// (config, results, stage timings, metrics) as JSON or, with
// --metrics-format=openmetrics, Prometheus text; --trace-out a Chrome
// trace; --telemetry-out a JSONL sample of every series per
// --telemetry-interval-ms; --dashboard-out an HTML dashboard. --progress
// prints a heartbeat per sweep day (run, generate). --watchdog-timeout-s
// N aborts with a diagnostic dump when no stage progresses for N seconds;
// serve --listen rejects it, as an idle server makes no progress. One
// Session owns this wiring, and every file the CLI writes goes through
// OutputFile: an unwritable path exits 1 with "cannot write <path>".
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
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

// Every file the CLI writes goes through OutputFile. A failed open, or a
// stream left bad by the writes or the closing flush, throws CannotWrite:
// main() prints "cannot write <path>" and exits 1.
struct CannotWrite {
  std::string path;
};

class OutputFile {
 public:
  explicit OutputFile(const std::string& path)
      : path_(path), out_(path, std::ios::trunc) {
    if (!out_) throw CannotWrite{path_};
  }
  std::ostream& stream() { return out_; }
  const std::string& path() const { return path_; }
  void close() {
    out_.close();
    if (!out_) throw CannotWrite{path_};
  }

 private:
  std::string path_;
  std::ofstream out_;
};

// Writes a file in one go (`body` streams its contents), then reports
// "wrote <what> to <path>".
template <typename Body>
void write_file(const std::string& path, const std::string& what,
                const Body& body) {
  OutputFile file(path);
  body(file.stream());
  file.close();
  std::cout << "wrote " << what << " to " << path << "\n";
}

// What every command shares, built by main() from the flags before
// dispatch: the observer and its --progress heartbeat, the telemetry
// sampler, the stall watchdog and the run report. A handler adds only its
// own report rows; after it returns 0, main() calls write_outputs(). The
// dashboard's meta table shows the same rows: each fact is stated once.
class Session {
 public:
  Session(const util::FlagParser& flags, const std::string& command)
      : report_(command),
        trace_path_(flags.get_string("trace-out")),
        metrics_path_(flags.get_string("metrics-out")),
        dashboard_path_(flags.get_string("dashboard-out")),
        openmetrics_(flags.get_string("metrics-format") == "openmetrics") {
    const std::string telemetry_path = flags.get_string("telemetry-out");
    const double watchdog_s = flags.get_double("watchdog-timeout-s");
    const bool progress = flags.get_bool("progress");
    // Observability is opt-in: with none of the flags present, no observer
    // is installed and the command runs uninstrumented (and bit-identically
    // to an instrumented run — telemetry never feeds back into results).
    if (!progress && watchdog_s <= 0.0 &&
        (trace_path_ + metrics_path_ + dashboard_path_ + telemetry_path)
            .empty()) {
      return;
    }
    observer_.emplace();
    if (progress) observer_->set_progress(print_progress);
    install_.emplace(*observer_);
    // The sampler feeds --telemetry-out and the dashboard's sparklines.
    if (!telemetry_path.empty()) telemetry_.emplace(telemetry_path);
    if (telemetry_ || !dashboard_path_.empty()) {
      sampler_.emplace(
          *observer_,
          obs::SamplerOptions{
              .interval_ms = flags.get_uint("telemetry-interval-ms"),
              .capacity_per_series = flags.get_uint("telemetry-capacity"),
              .jsonl = telemetry_ ? &telemetry_->stream() : nullptr});
      sampler_->start();
    }
    // Aborts with a diagnostic dump when no progress source advances.
    if (watchdog_s > 0.0) {
      obs::WatchdogOptions wopts;
      wopts.timeout_s = watchdog_s;
      wopts.poll_ms = std::max<std::uint64_t>(
          50, static_cast<std::uint64_t>(watchdog_s * 1000.0 / 4.0));
      wopts.crash_path = "ddosrepro_stall_report.txt";
      wopts.sampler = sampler_ ? &*sampler_ : nullptr;
      watchdog_.emplace(*observer_, wopts);
      watchdog_->start();
    }
  }

  // The observer's address is installed globally and held by the threads.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// For a handler's own progress sources; nullptr when observability is off.
  obs::ProgressRegistry* progress_sources() {
    return observer_ ? &observer_->progress_sources() : nullptr;
  }

  /// Renames the report's command; call before adding rows.
  void set_command(std::string command) {
    report_ = obs::RunReport(std::move(command));
  }

  /// One fact of the command (a string, std::uint64_t or double): a config
  /// or results row of the run report, and a dashboard meta row.
  template <typename T>
  void config(const std::string& key, const T& value) {
    report_.add_config(key, value);
    meta_.emplace_back(key, display(value));
  }
  template <typename T>
  void result(const std::string& key, const T& value) {
    report_.add_result(key, value);
    meta_.emplace_back(key, display(value));
  }

  /// Ends the measured window: the watchdog stops (writing outputs is not
  /// a stall) and the sampler takes its final sample. Idempotent; serve
  /// calls it while its own progress source is still registered.
  void stop() {
    if (watchdog_) watchdog_->stop();
    if (sampler_) sampler_->stop();
  }

  /// Writes the trace, telemetry, dashboard and metrics the flags ask for.
  void write_outputs() {
    stop();
    if (!observer_) return;
    const obs::Tracer& tracer = observer_->tracer();
    if (!trace_path_.empty()) {
      write_file(trace_path_,
                 std::to_string(tracer.event_count()) + " trace spans",
                 [&](std::ostream& out) { tracer.write_chrome_json(out); });
    }
    if (telemetry_) {
      telemetry_->close();
      std::cout << "wrote " << sampler_->samples_taken()
                << " telemetry samples (" << sampler_->series().series_count()
                << " series) to " << telemetry_->path() << "\n";
    }
    if (!dashboard_path_.empty()) {
      obs::DashboardOptions dopts;
      dopts.title = "ddosrepro " + report_.command();
      dopts.meta = meta_;
      dopts.meta.emplace_back(
          "wall time", display(static_cast<double>(tracer.now_ns()) / 1e9) +
                           " s");
      write_file(dashboard_path_, report_.command() + " dashboard",
                 [&](std::ostream& out) {
                   obs::write_dashboard_html(out, *observer_, &*sampler_,
                                             dopts);
                 });
    }
    if (!metrics_path_.empty()) {
      write_file(metrics_path_,
                 openmetrics_ ? "OpenMetrics exposition"
                              : report_.command() + " report",
                 [&](std::ostream& out) {
                   if (openmetrics_) {
                     out << observer_->metrics().snapshot().to_openmetrics();
                   } else {
                     report_.write(out, *observer_);
                   }
                 });
    }
  }

 private:
  static std::string display(const std::string& v) { return v; }
  static std::string display(std::uint64_t v) { return util::with_commas(v); }
  static std::string display(double v) { return util::format_fixed(v, 2); }

  obs::RunReport report_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::string trace_path_, metrics_path_, dashboard_path_;
  bool openmetrics_;
  // Destroyed in reverse: the watchdog and sampler stop before the
  // telemetry stream they write closes and the observer they read goes.
  std::optional<obs::Observer> observer_;
  std::optional<obs::ScopedInstall> install_;
  std::optional<OutputFile> telemetry_;
  std::optional<obs::TelemetrySampler> sampler_;
  std::optional<obs::StallWatchdog> watchdog_;
};

// The world flags of world, run and generate, recorded as config rows.
scenario::WorldParams world_params(const util::FlagParser& flags,
                                   Session& session) {
  scenario::WorldParams params;
  params.seed = flags.get_uint("seed");
  params.domain_count = static_cast<std::uint32_t>(flags.get_uint("domains"));
  params.provider_count =
      static_cast<std::uint32_t>(flags.get_uint("providers"));
  session.config("seed", params.seed);
  session.config("domains", flags.get_uint("domains"));
  session.config("providers", flags.get_uint("providers"));
  return params;
}

int cmd_world(util::FlagParser& flags, Session& session) {
  const auto world = scenario::build_world(world_params(flags, session));
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
      write_file(out_path,
                 "." + tld + " zone (" +
                     util::format_count(static_cast<double>(zone.size())) +
                     "B)",
                 [&](std::ostream& out) { out << zone; });
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

// The pipeline summary line and result rows of both `run` and `analyze
// --store`; CI diffs everything from this line on between the two paths,
// so the text must match byte for byte.
void print_pipeline_line(Session& session, std::uint64_t attacks,
                         std::uint64_t feed_records, std::uint64_t events,
                         std::uint64_t joined, std::uint64_t swept) {
  std::cout << "pipeline: " << attacks << " attacks -> " << feed_records
            << " feed records -> " << events << " events -> " << joined
            << " joined NSSet-attack events (" << util::with_commas(swept)
            << " measurements swept)\n\n";
  session.result("attacks", attacks);
  session.result("feed_records", feed_records);
  session.result("events", events);
  session.result("joined", joined);
  session.result("swept_measurements", swept);
}

// The pipeline config of run and generate (whole or --shard); also sets
// the pool width and records the config rows.
scenario::LongitudinalConfig run_config(const util::FlagParser& flags,
                                        Session& session) {
  scenario::LongitudinalConfig cfg = scenario::default_longitudinal_config();
  cfg.world = world_params(flags, session);
  cfg.workload.scale = flags.get_double("scale");
  exec::set_global_threads(static_cast<unsigned>(flags.get_uint("threads")));
  session.config("scale", cfg.workload.scale);
  session.config("threads", flags.get_uint("threads"));
  return cfg;
}

int cmd_run(util::FlagParser& flags, Session& session) {
  const scenario::LongitudinalConfig cfg = run_config(flags, session);
  const std::string store_path = flags.get_string("store");
  scenario::StreamingOptions opts;
  opts.threads = static_cast<unsigned>(flags.get_uint("threads"));
  opts.store_path = store_path;
  // Feed records retire as they are folded; only the CSV export still
  // needs the full vector resident.
  opts.retain_feed = !flags.get_string("feed-csv").empty();
  const scenario::LongitudinalResult r =
      scenario::run_longitudinal_streaming(cfg, opts);
  print_pipeline_line(session, r.workload.schedule.size(), r.feed_records,
                      r.events.size(), r.joined.size(), r.swept_measurements);
  print_analysis(r.joined);

  if (!store_path.empty()) {
    std::cout << "\nwrote dataset store ("
              << util::format_count(static_cast<double>(r.store_bytes))
              << "B) to " << store_path << "\n";
  }

  const std::string events_path = flags.get_string("events-csv");
  if (!events_path.empty()) {
    std::cout << "\n";
    write_file(events_path, std::to_string(r.joined.size()) + " events",
               [&](std::ostream& out) {
                 core::write_events_csv(out, r.joined);
               });
  }
  const std::string feed_path = flags.get_string("feed-csv");
  if (!feed_path.empty()) {
    write_file(feed_path,
               std::to_string(r.feed.records().size()) + " feed records",
               [&](std::ostream& out) { r.feed.write_csv(out); });
  }
  return 0;
}

// `generate` is `run` with a --store; `generate --shard i/N` executes one
// shard of the deterministic N-way day partition (scenario/plan.h) and
// writes an independent shard store. A shard's joined rows are pre-merge,
// so it prints a shard accounting line instead of the whole-run analyses.
int cmd_generate(util::FlagParser& flags, Session& session) {
  const std::string store_path = flags.get_string("store");
  if (store_path.empty()) {
    std::cerr << "generate requires --store <file.drs>\n";
    return 1;
  }
  const std::string shard_spec = flags.get_string("shard");
  if (shard_spec.empty()) return cmd_run(flags, session);
  std::string shard_error;
  const auto shard = scenario::parse_shard(shard_spec, &shard_error);
  if (!shard) {
    std::cerr << "flag --" << shard_error << "\n";
    return 2;
  }
  const scenario::LongitudinalConfig cfg = run_config(flags, session);
  session.config("shard", shard_spec);
  const scenario::ShardRunResult r = scenario::run_shard(
      cfg, *shard, static_cast<unsigned>(flags.get_uint("threads")),
      store_path);
  std::cout << "shard " << shard->index << "/" << shard->count << ": "
            << r.owned_events << "/" << r.events_total
            << " telescope events owned, " << r.joined_rows
            << " joined rows, " << util::with_commas(r.feed_rows)
            << " feed rows, " << util::with_commas(r.swept_measurements)
            << " measurements swept\n";
  std::cout << "wrote shard store ("
            << util::format_count(static_cast<double>(r.store_bytes))
            << "B) to " << store_path
            << " — combine the " << shard->count
            << " shards with 'ddosrepro merge'\n";
  session.result("joined_rows", r.joined_rows);
  session.result("swept_measurements", r.swept_measurements);
  session.result("store_bytes", r.store_bytes);
  return 0;
}

int cmd_merge(util::FlagParser& flags, Session& session) {
  const auto& args = flags.positional();
  if (args.size() < 3) {
    std::cerr << "merge requires an output path and at least one shard "
                 "store:\n  ddosrepro merge <out.drs> <shard.drs> "
                 "[shard.drs ...]\n";
    return 2;
  }
  const std::string& out_path = args[1];
  const std::vector<std::string> shard_paths(args.begin() + 2, args.end());
  session.config("out", out_path);
  const auto merge_start = std::chrono::steady_clock::now();
  const store::MergeStats stats = store::merge_stores(out_path, shard_paths);
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - merge_start)
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
  session.result("rows_merged", stats.rows_merged);
  session.result("events_out", stats.events_out);
  session.result("bytes_written", stats.bytes_written);
  return 0;
}

int cmd_analyze_store(util::FlagParser& flags, Session& session,
                      const std::string& path) {
  exec::set_global_threads(static_cast<unsigned>(flags.get_uint("threads")));
  // Column-native analysis: the store is mapped read-only (--no-mmap
  // falls back to the buffered reader), every block is CRC- and
  // structure-checked, and every headline statistic is recomputed from
  // the events dataset's column spans, the only one decoded — no row
  // materialization. Output is byte-identical to the row path (`run`);
  // CI diffs the two.
  const bool use_mmap = !flags.get_bool("no-mmap");
  session.config("store", path);
  const scenario::StoreAnalysis analysis =
      scenario::analyze_store(path, use_mmap);
  const scenario::LongitudinalConfig& cfg = analysis.config;

  std::cout << "store: " << path << " ("
            << util::format_count(static_cast<double>(analysis.file_bytes))
            << "B)\nprovenance: world seed " << cfg.world.seed << ", "
            << cfg.world.domain_count << " domains, "
            << cfg.world.provider_count << " providers; workload seed "
            << cfg.workload.seed << ", scale " << cfg.workload.scale
            << "; sweep/feed seeds " << cfg.sweep_seed << "/"
            << cfg.feed_seed << "; generated with " << analysis.threads
            << " threads\n";

  if (flags.get_bool("rejoin")) {
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
  }

  std::cout << "\n";
  print_pipeline_line(session, analysis.attacks, analysis.feed_records,
                      analysis.events, analysis.joined,
                      analysis.swept_measurements);
  print_analysis_values(analysis.impact, analysis.failures,
                        analysis.duration_series, analysis.by_anycast);
  return 0;
}

int cmd_analyze(util::FlagParser& flags, Session& session) {
  const std::string store_path = flags.get_string("store");
  if (!store_path.empty()) return cmd_analyze_store(flags, session, store_path);

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
  session.config("events_csv", path);
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
  session.result("events", events.size());
  return 0;
}

int cmd_transip(util::FlagParser& flags, Session& session) {
  scenario::TransIPParams params;
  params.scale = flags.get_double("scale");
  session.config("scale", params.scale);
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

int cmd_russia(util::FlagParser&, Session&) {
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

// The drive report of the in-process and --connect paths, printed and as
// report rows (`source` is the store path or the server address).
void report_drive(Session& session, const serve::DriveReport& report,
                  const serve::WorkloadSpec& workload,
                  const std::string& source) {
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
  std::cout << "total: " << util::with_commas(report.total_ops) << " ops in "
            << util::format_fixed(report.wall_s, 2)
            << "s = " << util::format_count(report.ops_per_sec) << "ops/sec";
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

  session.config("source", source);
  session.config("seed", workload.seed);
  session.config("threads", std::uint64_t{report.threads});
  session.config("dist", std::string(serve::to_string(workload.dist)));
  session.config("theta", workload.theta);
  session.config("mix", workload.mix.to_string());
  if (report.target_qps > 0.0) session.config("target_qps", report.target_qps);
  session.result("total_ops", report.total_ops);
  session.result("ops_per_sec", report.ops_per_sec);
  session.result("fingerprint", std::string(fp));
  for (const serve::QueryTypeReport& tr : report.by_type) {
    const std::string prefix = serve::to_string(tr.type);
    session.result(prefix + "_ops", tr.ops);
    session.result(prefix + "_p50_us", tr.p50_us);
    session.result(prefix + "_p99_us", tr.p99_us);
    session.result(prefix + "_p999_us", tr.p999_us);
  }
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

/// "host:port" -> (host, port); returns the error, empty on success. Port
/// must be 0..65535; 0 means ephemeral.
std::string parse_host_port(const std::string& spec, std::string& host,
                            std::uint16_t& port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    return "expected host:port, got '" + spec + "'";
  }
  host = spec.substr(0, colon);
  const std::string port_str = spec.substr(colon + 1);
  char* end = nullptr;
  const unsigned long v = std::strtoul(port_str.c_str(), &end, 10);
  if (end == port_str.c_str() || *end != '\0' || v > 65535) {
    return "bad port '" + port_str + "' in '" + spec + "'";
  }
  port = static_cast<std::uint16_t>(v);
  return "";
}

int cmd_serve(util::FlagParser& flags, Session& session) {
  const std::string store_path = flags.get_string("store");
  const std::string listen_spec = flags.get_string("listen");
  const std::string connect_spec = flags.get_string("connect");
  const double target_qps = flags.get_double("target-qps");
  const double refill_s = flags.get_double("refill");
  const bool listen_mode = !listen_spec.empty();
  const bool connect_mode = !connect_spec.empty();
  const std::pair<bool, const char*> misuse[] = {
      {listen_mode && connect_mode,
       "--listen and --connect are mutually exclusive"},
      {target_qps > 0.0 && !connect_mode,
       "--target-qps (open-loop driving) requires --connect"},
      {refill_s > 0.0 && !listen_mode, "--refill requires --listen"},
      {listen_mode && flags.get_double("watchdog-timeout-s") > 0.0,
       "--watchdog-timeout-s does not apply to serve --listen: an idle "
       "server makes no progress by design"},
      {store_path.empty() && !connect_mode,
       "serve requires --store <file.drs> (or --connect to drive a remote "
       "server)"},
  };
  for (const auto& [bad, message] : misuse) {
    if (bad) {
      std::cerr << message << "\n";
      return 2;
    }
  }
  std::string host;  // of --listen or --connect
  std::uint16_t port = 0;
  const std::string& address = listen_mode ? listen_spec : connect_spec;
  const std::string address_error =
      address.empty() ? "" : parse_host_port(address, host, port);
  if (!address_error.empty()) {
    std::cerr << "flag --" << (listen_mode ? "listen " : "connect ")
              << address_error << "\n";
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
  if (!listen_mode && !connect_mode) exec::set_global_threads(threads);

  // Command-lifetime progress source: drive()'s per-op source exists only
  // for the drive window, which a short fixed-ops run can squeeze between
  // two sampler ticks. This one spans every sample up to the
  // session.stop() bookend each path calls once its ops are counted.
  std::atomic<std::uint64_t> completed_ops{0};
  const obs::ScopedProgressSource progress(
      session.progress_sources(), "serve.completed_ops", [&completed_ops] {
        return completed_ops.load(std::memory_order_relaxed);
      });
  const auto ops_done = [&](std::uint64_t ops) {
    completed_ops.store(ops, std::memory_order_relaxed);
    session.stop();
  };

  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  // Remote drive: the server owns the store and the engine.
  if (connect_mode) {
    const net::RemoteDriveOptions ropts{
        .host = host, .port = port, .connections = threads,
        .workload = opts.workload, .ops_per_thread = opts.ops_per_thread,
        .duration_s = opts.duration_s, .target_qps = target_qps};
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
    ops_done(report.total_ops);
    report_drive(session, report, opts.workload, connect_spec);
    return 0;
  }

  // Fill phase: map the store and build the serve indexes from its columns.
  const Clock::time_point load_start = Clock::now();
  std::shared_ptr<const net::EngineHandle> handle =
      net::EngineHandle::load(store_path, /*epoch=*/0);
  const serve::QueryEngine& engine = handle->engine();
  std::cout << "fill: " << store_path << " loaded+indexed in "
            << util::format_fixed(seconds_since(load_start), 2) << "s; "
            << util::with_commas(engine.nsset_count()) << " NSSets, "
            << util::with_commas(engine.series_points()) << " series points, "
            << util::with_commas(engine.leaderboard_entries())
            << " leaderboard rows\n";
  if (engine.keys().empty()) {
    std::cerr << "store has no indexable NSSets to serve\n";
    return 1;
  }

  // Listen mode: the engine lives behind the server's atomic handle so
  // --refill can swap a rebuilt one in without dropping connections.
  if (listen_mode) {
    session.set_command("serve-listen");
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
    ops_done(stats.requests);
    std::cout << "served " << util::with_commas(stats.requests)
              << " requests over "
              << util::with_commas(stats.connections_accepted)
              << " connections (rx " << util::with_commas(stats.rx_bytes)
              << " B, tx " << util::with_commas(stats.tx_bytes) << " B), "
              << stats.malformed_frames << " malformed, "
              << stats.engine_swaps << " engine swap"
              << (stats.engine_swaps == 1 ? "" : "s") << "\n";
    session.config("store", store_path);
    session.config("listen", host + ":" + std::to_string(server.port()));
    session.config("threads", std::uint64_t{threads});
    session.result("requests", stats.requests);
    session.result("connections", stats.connections_accepted);
    session.result("rx_bytes", stats.rx_bytes);
    session.result("tx_bytes", stats.tx_bytes);
    session.result("engine_swaps", stats.engine_swaps);
    return 0;
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
  ops_done(report.total_ops);
  report_drive(session, report, opts.workload, store_path);
  return 0;
}

// Command dispatch, index-aligned with cli::kCommands (the usage header's
// source of truth); the static_assert below keeps the two from drifting.
struct CommandHandler {
  std::string_view name;
  int (*handler)(util::FlagParser&, Session&);
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
                 "worker threads; results are identical for any value "
                 "(run/generate/analyze)", 1, 4096);
  flags.add_string("zone", "", "TLD to export as a parent-zone file");
  flags.add_string("out", "", "output path for --zone");
  flags.add_string("events-csv", "",
                   "events CSV path (run: write; analyze: read)");
  flags.add_string("feed-csv", "", "RSDoS feed CSV output path (run)");
  flags.add_string("store", "",
                   "DRS store path (run/generate: write; analyze/serve: read)");
  flags.add_string("shard", "",
                   "i/N: write shard i of a deterministic N-way day "
                   "partition to --store; 'ddosrepro merge' of the N shards "
                   "equals a whole-world generate (generate)");
  flags.add_bool("rejoin",
                 "re-run the join from the stored aggregates and assert a "
                 "bit-for-bit match (analyze --store)");
  flags.add_bool("no-mmap",
                 "read the store through the buffered reader, not mmap; "
                 "output is byte-identical (analyze --store)");
  flags.add_bool("audit", "run the structural delegation audit (world)");
  flags.add_string("metrics-out", "",
                   "run-report JSON output path: config, results, stage "
                   "timings, metric snapshot (every command)");
  flags.add_string("trace-out", "",
                   "Chrome trace_event JSON output path; open in "
                   "chrome://tracing (every command)");
  flags.add_bool("progress",
                 "per-sweep-day heartbeat on stderr (run, generate)");
  flags.add_string("metrics-format", "json",
                   "--metrics-out format: json (run report) or openmetrics "
                   "(Prometheus text) (every command)");
  flags.add_string("telemetry-out", "",
                   "JSONL output path: one sample of every metric/progress/"
                   "process series per interval (every command)");
  flags.add_uint("telemetry-interval-ms", 250,
                 "telemetry sampling cadence in ms (every command)", 10,
                 60000);
  flags.add_uint("telemetry-capacity", 4096,
                 "ring capacity per telemetry series; memory is series x "
                 "capacity x 16 bytes (every command)", 2, 1 << 22);
  flags.add_string("dashboard-out", "",
                   "self-contained HTML dashboard output path: report rows, "
                   "sparklines, stage timeline (every command)");
  flags.add_double("watchdog-timeout-s", 0.0,
                   "abort with a diagnostic dump when no stage progresses "
                   "for this many seconds; 0 disables (every command but "
                   "serve --listen)", 0.0, 86400.0);
  flags.add_double("duration-s", 2.0,
                   "wall-clock budget of the mixed phase (serve; ignored "
                   "when --serve-ops > 0)", 0.0, 3600.0);
  flags.add_uint("serve-ops", 0,
                 "fixed per-thread op budget; > 0 makes the fingerprint "
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
                 "WindowScan width in days, placed uniformly over the "
                 "indexed range (serve)", 1, 1000000);
  flags.add_string("listen", "",
                   "serve the engine over TCP at host:port (port 0: "
                   "ephemeral, printed); SIGINT/SIGTERM drains (serve)");
  flags.add_string("connect", "",
                   "drive a remote server at host:port; --threads sets the "
                   "connection count (serve)");
  flags.add_double("target-qps", 0.0,
                   "open-loop aggregate request rate; latency counts from "
                   "each op's intended send time; 0 = closed loop (serve "
                   "--connect)", 0.0, 1e9);
  flags.add_double("refill", 0.0,
                   "poll the store every this-many seconds; swap in a "
                   "rebuilt engine when its device, inode, size or mtime "
                   "changes; 0 disables (serve --listen)", 0.0, 86400.0);

  if (!flags.parse(argc - 1, argv + 1)) {
    std::cerr << flags.error() << "\n" << flags.usage();
    return 2;
  }
  if (flags.help_requested() || flags.positional().empty()) {
    std::cout << flags.usage();
    return flags.help_requested() ? 0 : 2;
  }

  const std::string& command = flags.positional().front();
  const auto entry =
      std::find_if(kHandlers.begin(), kHandlers.end(),
                   [&](const CommandHandler& h) { return h.name == command; });
  if (entry == kHandlers.end()) {
    std::cerr << "unknown command '" << command << "'\n" << flags.usage();
    return 2;
  }
  const std::string metrics_format = flags.get_string("metrics-format");
  if (metrics_format != "json" && metrics_format != "openmetrics") {
    std::cerr << "--metrics-format must be json or openmetrics, got '"
              << metrics_format << "'\n";
    return 2;
  }
  // The one place store errors and unwritable outputs end a command; the
  // session is gone (its threads joined) before either handler runs.
  try {
    Session session(flags, command);
    const int status = entry->handler(flags, session);
    if (status == 0) session.write_outputs();
    return status;
  } catch (const store::StoreError& e) {
    std::cerr << "store error: " << e.what() << "\n";
  } catch (const CannotWrite& e) {
    std::cerr << "cannot write " << e.path << "\n";
  }
  return 1;
}
