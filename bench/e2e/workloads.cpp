// The batch workloads: generate, shard-merge and analyze. Each prepares
// its inputs untimed, measures set-up, warms up, then repeats its
// operation until the measured phase has lasted --seconds, and finally
// checks the outputs. With --trace a separate traced phase follows.
#include <functional>
#include <optional>

#include "bench.h"
#include "store/merge.h"
#include "store/reader.h"

namespace ddosbench {

using namespace ddos;

namespace {

/// Time `op` until at least `min_reps` runs and `seconds` have passed,
/// recording each rep's peak RSS in `peak_mb`; `after` runs untimed after
/// each rep (output checks).
std::vector<double> timed_reps(double seconds, std::size_t min_reps,
                               std::vector<double>& peak_mb,
                               const std::function<void()>& op,
                               const std::function<void()>& after = {}) {
  std::vector<double> out;
  const auto start = Clock::now();
  while (out.size() < min_reps || seconds_since(start) < seconds) {
    reset_peak_rss();
    const auto t0 = Clock::now();
    op();
    out.push_back(seconds_since(t0));
    peak_mb.push_back(peak_rss_mb());
    if (after) after();
  }
  return out;
}

std::vector<double> to_ms(std::vector<double> seconds) {
  for (double& v : seconds) v *= 1e3;
  return seconds;
}

/// Every rep wrote the same bytes as the first.
struct RepeatCheck {
  std::size_t reps = 0;
  std::size_t equal = 0;
  void add(bool same) {
    ++reps;
    equal += same ? 1 : 0;
  }
  bool ok() const { return reps > 0 && equal == reps; }
};

/// The set-up phase of generate and shard-merge, which warms the heap and
/// the pool before the measured phase: three public-stage compositions of
/// one generate pass, each timed and each checked to write the bytes of
/// `ref`. A whole pass, not just its single-threaded build_world +
/// generate_workload, is the sample: on a shared host those ~0.1 s read
/// either ~110 or ~180 ms from one second to the next.
void setup_passes(Bench& bench, const scenario::LongitudinalConfig& cfg,
                  const std::string& ref, std::vector<double>& setup_s,
                  RepeatCheck& same_as_ref) {
  const std::string composed = bench.path("composed.drs");
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    compose_generate(bench, cfg, composed);
    setup_s.push_back(seconds_since(t0));
    same_as_ref.add(files_equal(composed, ref));
  }
}

}  // namespace

RunCounts generate_store(const scenario::LongitudinalConfig& cfg,
                         unsigned threads, const std::string& path) {
  const scenario::LongitudinalResult r = scenario::run_longitudinal(cfg);
  RunCounts c;
  c.store_bytes = scenario::save_run(path, cfg, threads, r);
  c.feed_records = r.feed_records;
  c.events = r.events.size();
  c.joined = r.joined.size();
  c.swept = r.swept_measurements;
  return c;
}

RunCounts prepare_store(const scenario::LongitudinalConfig& cfg,
                        unsigned threads, const std::string& path) {
  return in_child<RunCounts>([&] { return generate_store(cfg, threads, path); });
}

void report_end_to_end(Report& report, const EndToEnd& e2e) {
  report.set_e2e("latency_ms", e2e.op_ms, "ms", Better::Lower, kLatencyBound);
  if (e2e.op_p90_ms.empty()) {
    report.set("latency_p90_ms", quantile(e2e.op_ms, 0.9), "ms", Better::Lower,
               Kind::EndToEnd, kLatencyBound, e2e.op_ms.size());
  } else {
    report.set_e2e("latency_p90_ms", e2e.op_p90_ms, "ms", Better::Lower,
                   kLatencyBound);
  }
  report.set_e2e("setup_s", e2e.setup_s, "s", Better::Lower, kSetupBound);
  report.set_e2e("peak_rss_mb", e2e.peak_rss_mb, "MiB", Better::Lower,
                 kRssBound);
  report.set("store_mb", static_cast<double>(e2e.store_bytes) / 1e6, "MB",
             Better::Lower, Kind::EndToEnd, kStoreBound);
}

// ---- generate ---------------------------------------------------------------
//
// The CLI generate path: run_longitudinal + save_run at T threads.
// Telescope inference and stitching and the sweep dominate; the store
// write is most of the rest. The first passes of a process pay for heap
// growth and pool start-up, so the reference pass and the set-up passes
// run untimed.

void run_generate(Bench& bench) {
  const scenario::LongitudinalConfig cfg = config_for(bench.options.seed);
  const std::string ref = bench.path("generate-ref.drs");
  const std::string out = bench.path("generate.drs");

  EndToEnd e2e;
  const RunCounts counts = generate_store(cfg, bench.threads, ref);
  // The public-stage composition is an independent assembly of the same
  // pipeline; traced or not, it must write the same bytes.
  RepeatCheck same_as_driver;
  setup_passes(bench, cfg, ref, e2e.setup_s, same_as_driver);

  RepeatCheck repeat;
  const std::vector<double> pass_s = timed_reps(
      bench.options.seconds, 3, e2e.peak_rss_mb,
      [&] { generate_store(cfg, bench.threads, out); },
      [&] { repeat.add(files_equal(out, ref)); });
  e2e.op_ms = to_ms(pass_s);
  e2e.store_bytes = counts.store_bytes;
  report_end_to_end(bench.report, e2e);
  bench.report.add_ops(pass_s.size(), 0);
  bench.report.check(repeat.ok(), "every pass writes the same store bytes");

  const scenario::StoreAnalysis a = scenario::analyze_store(ref);
  bench.report.check(a.joined == counts.joined && a.events == counts.events &&
                         a.feed_records == counts.feed_records &&
                         a.swept_measurements == counts.swept,
                     "the stored counts equal the generating run's");

  if (bench.options.trace) {
    const std::string composed = bench.path("composed.drs");
    begin_trace(bench, {"generate.pass"});
    for (int i = 0; i < 3; ++i) {
      {
        Span root(bench, "generate.pass");
        compose_generate(bench, cfg, composed);
      }
      same_as_driver.add(files_equal(composed, ref));
    }
    end_trace(bench, quantile(pass_s, 0.5));
  }
  bench.report.check(same_as_driver.ok(),
                     "the public-stage composition writes the same bytes as "
                     "run_longitudinal + save_run");
}

// ---- shard-merge --------------------------------------------------------------
//
// The same layers used differently: three run_shard calls pay world,
// workload and telescope three times and sweep halo days, then
// merge_stores decodes and re-encodes every block. Any change to the run
// drivers must hold here too. Writing the whole-run store and the set-up
// passes warms the heap and the pool before the measured phase.

void run_shard_merge(Bench& bench) {
  constexpr std::uint32_t kShards = 3;
  const scenario::LongitudinalConfig cfg = config_for(bench.options.seed);
  const std::string whole = bench.path("whole.drs");
  const std::string merged = bench.path("merged.drs");
  std::vector<std::string> shards;
  for (std::uint32_t i = 0; i < kShards; ++i) {
    shards.push_back(bench.path("shard" + std::to_string(i) + ".drs"));
  }

  EndToEnd e2e;
  // The whole-run store the merge must reproduce.
  generate_store(cfg, bench.threads, whole);
  RepeatCheck composed_same;
  setup_passes(bench, cfg, whole, e2e.setup_s, composed_same);
  bench.report.check(composed_same.ok(),
                     "the public-stage composition writes the same bytes as "
                     "run_longitudinal + save_run");

  std::uint64_t merged_bytes = 0;
  const auto pass = [&] {
    for (std::uint32_t i = 0; i < kShards; ++i) {
      Span span(bench, "scenario.shard");
      const scenario::ShardRunResult r = scenario::run_shard(
          cfg, scenario::ShardSpec{i, kShards}, bench.threads, shards[i]);
      span.items(r.store_bytes);
    }
    Span span(bench, "store.merge");
    const store::MergeStats stats = store::merge_stores(merged, shards);
    span.items(stats.bytes_read);
    merged_bytes = stats.bytes_written;
  };

  RepeatCheck same_as_whole;
  const std::vector<double> pass_s =
      timed_reps(bench.options.seconds, 3, e2e.peak_rss_mb, pass,
                 [&] { same_as_whole.add(files_equal(merged, whole)); });
  e2e.op_ms = to_ms(pass_s);
  e2e.store_bytes = merged_bytes;
  report_end_to_end(bench.report, e2e);
  bench.report.add_ops(pass_s.size(), 0);

  if (bench.options.trace) {
    begin_trace(bench, {"shard-merge.pass"});
    for (int i = 0; i < 2; ++i) {
      {
        Span root(bench, "shard-merge.pass");
        pass();
      }
      same_as_whole.add(files_equal(merged, whole));
    }
    end_trace(bench, quantile(pass_s, 0.5));
  }
  bench.report.check(same_as_whole.ok(),
                     "the merged store equals the whole-run store byte for "
                     "byte");
}

// ---- analyze ------------------------------------------------------------------
//
// analyze_store over a scale-10 store (about 3x the attacks of the default
// run): store mmap, lazy CRC and column decode dominate; no simulation and
// no network. The kernels see only the joined rows (about a thousand), so a
// kernel-only change should not move this workload.

void run_analyze(Bench& bench) {
  const scenario::LongitudinalConfig cfg =
      config_for(bench.options.seed, /*scale=*/10.0);
  const std::string path = bench.path("analyze.drs");
  const RunCounts counts = prepare_store(cfg, bench.threads, path);

  EndToEnd e2e;
  // Set-up is the store open analyze_store starts with: map the file and
  // parse the footer (block CRCs are checked later, on first touch).
  // Sampled after each call, so set-up and latency see the same spells of
  // a noisy host.
  const auto open_s = [&path] {
    const auto t0 = Clock::now();
    const store::Reader reader(path, store::ReadMode::Mapped);
    return seconds_since(t0);
  };
  std::optional<std::uint64_t> digest;
  RepeatCheck same_analysis;
  RepeatCheck counts_match;
  std::optional<scenario::StoreAnalysis> last;
  const auto check_last = [&] {
    const std::uint64_t d = analysis_digest(*last);
    if (!digest) digest = d;
    same_analysis.add(d == *digest);
    counts_match.add(last->joined == counts.joined &&
                     last->events == counts.events &&
                     last->feed_records == counts.feed_records);
  };
  for (int i = 0; i < 2; ++i) {
    last = scenario::analyze_store(path);
    check_last();
  }

  const std::vector<double> call_s = timed_reps(
      bench.options.seconds, 10, e2e.peak_rss_mb,
      [&] { last = scenario::analyze_store(path); },
      [&] {
        check_last();
        e2e.setup_s.push_back(open_s());
      });
  e2e.op_ms = to_ms(call_s);
  e2e.store_bytes = counts.store_bytes;
  report_end_to_end(bench.report, e2e);
  bench.report.add_ops(call_s.size(), 0);
  bench.report.check(counts_match.ok(),
                     "joined, events and feed_records equal the generating "
                     "run's");

  if (!bench.options.trace) {
    same_analysis.add(compose_analyze(bench, path) == *digest);
  } else {
    begin_trace(bench, {"analyze.call"});
    for (int i = 0; i < 10; ++i) {
      std::uint64_t d = 0;
      {
        Span root(bench, "analyze.call");
        d = compose_analyze(bench, path);
      }
      same_analysis.add(d == *digest);
    }
    end_trace(bench, quantile(call_s, 0.5));
  }
  bench.report.check(same_analysis.ok(),
                     "every analysis, and the public-stage composition, "
                     "computes the same statistics");
}

}  // namespace ddosbench
