// The serve workloads: a DRS store behind net::Server, driven over
// loopback by the benchmark's own load generator.
//
// The generator is written on the public net::Client rather than reusing
// net::drive_remote: drive_remote's open loop sleeps until the next send
// slot, so a completion is only seen (and timestamped) at the next send,
// which inflates every latency by up to one send interval. This one spins
// on try_recv() and never sleeps, so each completion is timestamped when
// it arrives. Latency runs from the op's intended send time.
#include <sched.h>

#include <algorithm>
#include <array>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "exec/pool.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/driver.h"
#include "serve/query_engine.h"

namespace ddosbench {

using namespace ddos;

namespace {

constexpr char kHost[] = "127.0.0.1";
constexpr unsigned kEventLoops = 2;
constexpr double kFailBound = 0.0;  // any increase in failures regresses

// ---- CPU placement ----------------------------------------------------------
//
// Server and clients would run on different machines; here they share
// one, so with at least four CPUs they get disjoint ones: the event loops
// CPUs 0-1, each generator connection (and the reload thread) one of its
// own from CPU 2 up. Loopback latency then does not depend on where the
// scheduler happened to place the threads of one run.

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);  // best effort
}

/// Pin the calling thread to client CPU `slot` (0, 1, ...).
void pin_client(unsigned slot) {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < 4) return;
  set_affinity({cpus[2 + slot % (cpus.size() - 2)]});
}

/// Start `server`'s event loops on the server CPUs (threads inherit the
/// creating thread's affinity).
void start_loops(net::Server& server) {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() >= 4) set_affinity({cpus[0], cpus[1]});
  server.start();
  set_affinity(cpus);
}

net::ServerOptions server_options() {
  net::ServerOptions opts;
  opts.host = kHost;
  opts.threads = kEventLoops;
  return opts;
}

struct LiveServer {
  std::shared_ptr<const net::EngineHandle> handle;
  std::unique_ptr<net::Server> server;
  net::HelloResult hello;
};

/// What a user of `serve --listen` waits for: load the store, build the
/// engine, start the loops, answer the first Hello.
LiveServer start_server(const std::string& store_path) {
  LiveServer live;
  live.handle = net::EngineHandle::load(store_path, 0);
  live.server = std::make_unique<net::Server>(live.handle, server_options());
  start_loops(*live.server);
  net::Client client;
  client.connect(kHost, live.server->port());
  live.hello = client.hello();
  return live;
}

// ---- load generator ---------------------------------------------------------

struct ConnResult {
  std::vector<double> latency_us;  // answered ops, from intended send time
  std::vector<double> late_us;     // how late each send left (open loop)
  std::uint64_t fingerprint = 0;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;  // error frames, mismatches, unanswered
  std::string error;
};

struct TrialSpec {
  unsigned connections = 1;
  std::uint64_t ops_per_conn = 0;
  double qps = 0.0;    // > 0: open loop at this total rate
  unsigned depth = 1;  // closed loop: requests kept in flight
};

struct Trial {
  std::vector<ConnResult> conns;
  double wall_s = 0.0;

  std::uint64_t sent() const {
    std::uint64_t n = 0;
    for (const ConnResult& c : conns) n += c.sent;
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const ConnResult& c : conns) n += c.failed;
    return n;
  }
  /// Latency quantile with every failed request counted as +inf.
  double latency_us(double q) const {
    std::vector<double> all;
    for (const ConnResult& c : conns) {
      all.insert(all.end(), c.latency_us.begin(), c.latency_us.end());
      all.insert(all.end(), c.failed, std::numeric_limits<double>::infinity());
    }
    return quantile(std::move(all), q);
  }
  double late_us(double q) const {
    std::vector<double> all;
    for (const ConnResult& c : conns) {
      all.insert(all.end(), c.late_us.begin(), c.late_us.end());
    }
    return quantile(std::move(all), q);
  }
};

/// Fold one wire answer like serve::drive folds the engine's; false when
/// the frame does not answer the op.
bool fold_answer(std::uint64_t& fp, const serve::Op& op,
                 const net::Answer& answer) {
  switch (op.type) {
    case serve::QueryType::PointLookup:
      if (answer.opcode != net::Opcode::PointOk) return false;
      fp = serve::fold_point_answer(fp, answer.point.found,
                                    answer.point.summary,
                                    answer.point.series_len);
      return true;
    case serve::QueryType::TopK:
      if (answer.opcode != net::Opcode::TopKOk) return false;
      fp = serve::fold_top_k_answer(
          fp, std::span<const serve::TopEntry>(*answer.rows));
      return true;
    case serve::QueryType::WindowScan:
      if (answer.opcode != net::Opcode::ScanOk) return false;
      fp = serve::fold_window_scan_answer(fp, answer.scan);
      return true;
  }
  return false;
}

void run_connection(std::uint16_t port, const serve::WorkloadSpec& spec,
                    std::uint64_t key_count, unsigned conn,
                    const TrialSpec& trial, Clock::time_point start,
                    Clock::time_point give_up, ConnResult& r) {
  const std::uint64_t n = trial.ops_per_conn;
  const bool open = trial.qps > 0.0;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(
          open ? static_cast<double>(trial.connections) / trial.qps : 0.0));
  const auto us = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  // Everything the loop writes is allocated and touched up front: a page
  // fault here would wait on the process's mmap lock, which a concurrent
  // store reload holds, and charge that wait to the server.
  std::vector<serve::Op> ops(n);
  std::vector<Clock::time_point> due(n);
  r.latency_us.assign(n, 0.0);
  if (open) r.late_us.assign(n, 0.0);
  std::uint64_t done = 0;  // answered + failed; ops [done, sent) in flight
  pin_client(conn);
  try {
    net::Client client;
    client.connect(kHost, port);
    serve::Workload workload(spec, key_count, conn);
    while (Clock::now() < start) {
    }
    for (;;) {
      const Clock::time_point now = Clock::now();
      const std::uint64_t i = r.sent;
      if (i < n && (open ? now >= start + interval * static_cast<std::int64_t>(i)
                         : i - done < trial.depth)) {
        ops[i] = workload.next();
        due[i] = open ? start + interval * static_cast<std::int64_t>(i) : now;
        client.queue_op(ops[i], static_cast<std::uint32_t>(i));
        client.flush();
        if (open) r.late_us[i] = us(now - due[i]);
        ++r.sent;
      }
      if (const net::Answer* answer = client.try_recv()) {
        const std::uint64_t j = done++;
        if (answer->request_id != static_cast<std::uint32_t>(j)) {
          ++r.failed;
          throw std::runtime_error("response id mismatch");
        }
        if (!fold_answer(r.fingerprint, ops[j], *answer)) {
          ++r.failed;
          continue;
        }
        r.latency_us[r.answered++] = us(Clock::now() - due[j]);
      } else if (done == n) {
        break;
      } else if (now > give_up) {
        throw std::runtime_error("requests unanswered when the phase ended");
      }
    }
  } catch (const std::exception& e) {
    r.error = e.what();
    r.failed += r.sent - done;
  }
  r.latency_us.resize(r.answered);
  if (open) r.late_us.resize(r.sent);
}

Trial run_trial(std::uint16_t port, const serve::WorkloadSpec& spec,
                std::uint64_t key_count, const TrialSpec& trial) {
  Trial out;
  out.conns.resize(trial.connections);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(5);
  const double schedule_s =
      trial.qps > 0.0 ? static_cast<double>(trial.ops_per_conn) *
                            trial.connections / trial.qps
                      : 60.0;
  const Clock::time_point give_up =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(schedule_s + 2.0));
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < trial.connections; ++c) {
    threads.emplace_back(run_connection, port, std::cref(spec), key_count, c,
                         std::cref(trial), start, give_up,
                         std::ref(out.conns[c]));
  }
  for (std::thread& t : threads) t.join();
  out.wall_s = seconds_since(start);
  return out;
}

/// Each connection's answer fingerprint equals a local serve::drive over
/// the same Workload(seed, t) streams and op count.
bool matches_local_drive(const serve::QueryEngine& engine,
                         const serve::WorkloadSpec& spec, const Trial& trial,
                         unsigned pool_threads) {
  for (const ConnResult& c : trial.conns) {
    if (c.failed || !c.error.empty() || c.answered != trial.conns[0].answered)
      return false;
  }
  exec::set_global_threads(static_cast<unsigned>(trial.conns.size()));
  serve::DriveOptions opts;
  opts.workload = spec;
  opts.ops_per_thread = trial.conns[0].answered;
  const serve::DriveReport local = serve::drive(engine, opts);
  exec::set_global_threads(pool_threads);
  for (std::size_t c = 0; c < trial.conns.size(); ++c) {
    if (local.thread_fingerprints[c] != trial.conns[c].fingerprint) return false;
  }
  return true;
}

serve::WorkloadSpec workload_spec(const Bench& bench, const LiveServer& live,
                                  const serve::QueryMix& mix) {
  serve::WorkloadSpec spec;
  spec.seed = serve_seed(bench.options.seed);
  spec.mix = mix;
  spec.day_min = live.hello.day_min;
  spec.day_max = live.hello.day_max;
  return spec;
}

/// Shared start of both serve workloads: write the default store (the
/// generate workload's output) in a child process, then set up five times,
/// each in a fresh process like a starting `serve --listen`; the last one
/// is this process, whose server the workload drives. A process that
/// loaded once holds no heap of earlier engines, so its memory repeats.
LiveServer prepare_server(Bench& bench, const std::string& path,
                          EndToEnd& e2e) {
  e2e.store_bytes =
      prepare_store(config_for(bench.options.seed), bench.threads, path)
          .store_bytes;
  const auto timed_setup = [&path](LiveServer& live) {
    const auto t0 = Clock::now();
    live = start_server(path);
    return seconds_since(t0);
  };
  for (int i = 0; i < 4; ++i) {
    e2e.setup_s.push_back(in_child<double>([&] {
      LiveServer live;
      return timed_setup(live);
    }));
  }
  LiveServer live;
  e2e.setup_s.push_back(timed_setup(live));
  return live;
}

// ---- traced phase -------------------------------------------------------------

/// load_run + QueryEngine, the two halves of EngineHandle::load, each
/// under its own span. The engine aliases the run, so both live here.
struct OwnedEngine {
  std::unique_ptr<scenario::StoredRun> run;
  std::unique_ptr<serve::QueryEngine> engine;
};

OwnedEngine traced_load(Bench& bench, const std::string& path) {
  OwnedEngine e;
  {
    Span span(bench, "store.load");
    e.run = std::make_unique<scenario::StoredRun>(scenario::load_run(path));
    span.items(file_bytes(path));
  }
  Span span(bench, "serve.build");
  e.engine = std::make_unique<serve::QueryEngine>(*e.run);
  span.items(e.engine->nsset_count());
  return e;
}

/// Three traced set-ups: load, build, then start a server on the engine
/// and answer a Hello. Also measures the engine's resident size.
void traced_setups(Bench& bench, const std::string& path) {
  for (int i = 0; i < 3; ++i) {
    OwnedEngine e;
    std::unique_ptr<net::Server> server;
    {
      Span root(bench, "serve.setup");
      e = traced_load(bench, path);
      Span span(bench, "net.start");
      server = std::make_unique<net::Server>(
          net::EngineHandle::view(*e.engine, 0), server_options());
      start_loops(*server);
      net::Client client;
      client.connect(kHost, server->port());
      client.hello();
    }
    server.reset();  // joins the loops before the engine goes
  }
  // Resident size of one engine: RSS before and after building it over an
  // already-loaded run, with freed heap returned to the kernel first so
  // the build touches fresh pages.
  const auto run =
      std::make_unique<scenario::StoredRun>(scenario::load_run(path));
  release_heap();
  const double before = current_rss_mb();
  const serve::QueryEngine engine(*run);
  const double engine_mb = std::max(0.0, current_rss_mb() - before) * 1.048576;
  bench.report.set("serve.engine_mb", engine_mb, "MB", Better::Lower);
  bench.report.set("serve.kb_per_nsset",
                   engine_mb * 1e3 / static_cast<double>(engine.nsset_count()),
                   "kB", Better::Lower);
}

/// In-process engine calls over the workload's own op stream, one
/// thread: the floor under each wire latency.
void report_engine_rates(Bench& bench, const serve::QueryEngine& engine,
                         const serve::WorkloadSpec& spec) {
  constexpr std::uint64_t kOps = 200000;
  serve::WorkloadSpec local = spec;
  local.day_min = engine.day_min();
  local.day_max = engine.day_max();
  serve::Workload workload(local, engine.keys().size(), 0);
  std::vector<serve::TopEntry> scratch;
  std::array<double, serve::kQueryTypeCount> busy_s{};
  std::array<std::uint64_t, serve::kQueryTypeCount> ops{};
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const serve::Op op = workload.next();
    const auto t0 = Clock::now();
    switch (op.type) {
      case serve::QueryType::PointLookup:
        engine.point_lookup(engine.keys()[op.key_index]);
        break;
      case serve::QueryType::TopK:
        engine.top_k(static_cast<serve::TopKMetric>(op.metric), op.k, scratch);
        break;
      case serve::QueryType::WindowScan:
        engine.window_scan(op.day_lo, op.day_hi);
        break;
    }
    const auto t = static_cast<std::size_t>(op.type);
    busy_s[t] += seconds_since(t0);
    ++ops[t];
  }
  const char* names[] = {"serve.point_per_s", "serve.topk_per_s",
                         "serve.scan_per_s"};
  for (std::size_t t = 0; t < serve::kQueryTypeCount; ++t) {
    bench.report.set(names[t],
                     busy_s[t] > 0.0 ? static_cast<double>(ops[t]) / busy_s[t]
                                     : 0.0,
                     "1/s", Better::Higher);
  }
}

void report_wire_bytes(Bench& bench, const net::ServerStats& before,
                       const net::ServerStats& after) {
  const double requests =
      static_cast<double>(std::max<std::uint64_t>(1, after.requests - before.requests));
  bench.report.set("net.rx_bytes_per_op",
                   static_cast<double>(after.rx_bytes - before.rx_bytes) / requests,
                   "bytes", Better::Lower);
  bench.report.set("net.tx_bytes_per_op",
                   static_cast<double>(after.tx_bytes - before.tx_bytes) / requests,
                   "bytes", Better::Lower);
}

}  // namespace

// ---- serve-point --------------------------------------------------------------
//
// The wire path: 2 event loops, 2 client connections, mix 95:4:1 with
// Zipf(0.99) keys. Open loop at 20k and at 100k queries/s, and closed
// loop with one request in flight per connection. In-process the engine
// answers a point lookup in well under a microsecond; over loopback the
// median is tens of microseconds, so the wire dominates.

void run_serve_point(Bench& bench) {
  constexpr unsigned kConnections = 2;
  const std::string path = bench.path("serve.drs");
  EndToEnd e2e;
  LiveServer live = prepare_server(bench, path, e2e);
  const serve::WorkloadSpec spec = workload_spec(bench, live, serve::QueryMix{});
  const std::uint16_t port = live.server->port();
  // Ten trials of seconds/10 each: five at 20k/s, three at 100k/s and two
  // closed-loop, interleaved so slow drift hits every kind alike.
  const double trial_s = bench.options.seconds / 10.0;
  const double kClosed = 0.0;
  const double schedule[] = {20000.0, 100000.0, 20000.0, 100000.0, 20000.0,
                             100000.0, 20000.0,  kClosed,  20000.0, kClosed};

  const net::ServerStats stats0 = live.server->stats();
  Report& rep = bench.report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool local_parity = true;
  std::vector<double> p50_20k, p90_20k, p99_20k, p999_20k, late_20k;
  std::vector<double> p50_100k, p90_100k, p99_100k, closed_qps;
  for (const double qps : schedule) {
    TrialSpec t;
    t.connections = kConnections;
    t.qps = qps;
    // A closed-loop connection completes roughly 40k requests a second.
    t.ops_per_conn = static_cast<std::uint64_t>(
        (qps == kClosed ? 40000.0 * kConnections : qps) * trial_s /
        kConnections);
    reset_peak_rss();
    const Trial trial = run_trial(port, spec, live.hello.key_count, t);
    e2e.peak_rss_mb.push_back(peak_rss_mb());
    attempted += trial.sent();
    failed += trial.failed();
    local_parity = local_parity && matches_local_drive(live.handle->engine(),
                                                       spec, trial,
                                                       bench.threads);
    if (qps == kClosed) {
      closed_qps.push_back(static_cast<double>(trial.sent()) / trial.wall_s);
    } else if (qps < 50000.0) {
      p50_20k.push_back(trial.latency_us(0.5) / 1e3);
      p90_20k.push_back(trial.latency_us(0.9) / 1e3);
      p99_20k.push_back(trial.latency_us(0.99));
      p999_20k.push_back(trial.latency_us(0.999));
      late_20k.push_back(trial.late_us(0.99));
    } else {
      p50_100k.push_back(trial.latency_us(0.5) / 1e3);
      p90_100k.push_back(trial.latency_us(0.9) / 1e3);
      p99_100k.push_back(trial.latency_us(0.99));
    }
  }
  report_wire_bytes(bench, stats0, live.server->stats());
  e2e.op_ms = p50_20k;
  e2e.op_p90_ms = p90_20k;
  report_end_to_end(rep, e2e);
  rep.set_e2e("latency_100k_ms", p50_100k, "ms", Better::Lower, kLatencyBound);
  rep.set_e2e("latency_p90_100k_ms", p90_100k, "ms", Better::Lower,
              kLatencyBound);
  rep.set_e2e("closed_qps", closed_qps, "1/s", Better::Higher, kLatencyBound);
  rep.set("fail_frac",
          static_cast<double>(failed) / static_cast<double>(attempted), "ratio",
          Better::Lower, Kind::EndToEnd, kFailBound);
  // Tails: too noisy between runs of the same code to carry a bound.
  rep.set_samples("net.p99_us_20k", p99_20k, "us", Better::Lower);
  rep.set_samples("net.p999_us_20k", p999_20k, "us", Better::Lower);
  rep.set_samples("net.p99_us_100k", p99_100k, "us", Better::Lower);
  rep.set_samples("net.gen_late_p99_us", late_20k, "us", Better::Lower);
  rep.add_ops(attempted, failed);
  rep.check(local_parity,
            "every connection's answer fingerprint equals a local "
            "serve::drive over the same op stream");

  if (bench.options.trace) {
    TrialSpec t;
    t.connections = kConnections;
    t.depth = 32;
    t.ops_per_conn = 200000;
    const Trial pipelined = run_trial(port, spec, live.hello.key_count, t);
    rep.check(matches_local_drive(live.handle->engine(), spec, pipelined,
                                  bench.threads),
              "pipelined answers equal a local serve::drive");
    rep.set("net.pipelined_qps",
            static_cast<double>(pipelined.sent()) / pipelined.wall_s, "1/s",
            Better::Higher);
    report_engine_rates(bench, live.handle->engine(), spec);
    live = LiveServer{};

    begin_trace(bench, {"serve.setup"});
    traced_setups(bench, path);
    end_trace(bench, quantile(e2e.setup_s, 0.5));
    rep.set("net.p50_rtt_ratio",
            rep.get("latency_ms").value * 1e3 /
                rep.get("ceiling.echo_rtt_us").value,
            "ratio", Better::Lower);
  }
}

// ---- serve-refill -------------------------------------------------------------
//
// Reloads compete with reads: one connection at 20k queries/s with a
// TopK/scan-heavy mix (60:20:20) while the main thread reloads the store
// (EngineHandle::load + install_engine) once a second. The exec pool is
// one thread while serving, so two event loops, the client and the
// reloading thread fill the four CPUs. Every reload loads the same
// store, so the answers stay those of a local drive.

void run_serve_refill(Bench& bench) {
  const std::string path = bench.path("serve.drs");
  EndToEnd e2e;
  LiveServer live = prepare_server(bench, path, e2e);
  const serve::WorkloadSpec spec =
      workload_spec(bench, live, serve::QueryMix{60, 20, 20});
  // From here the server owns the engine: a replaced one is freed as soon
  // as the server lets go of it.
  live.handle.reset();

  const net::ServerStats stats0 = live.server->stats();
  exec::set_global_threads(1);
  TrialSpec t;
  t.connections = 1;
  t.qps = 20000.0;
  t.ops_per_conn = static_cast<std::uint64_t>(t.qps * bench.options.seconds);
  Trial trial;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::thread client([&] {
    Trial done = run_trial(live.server->port(), spec, live.hello.key_count, t);
    const std::lock_guard<std::mutex> lock(mu);
    trial = std::move(done);
    stop = true;
    cv.notify_all();
  });

  // The reloads run on this thread, the one that loaded the first engine,
  // as in `serve --refill`: each engine is then freed to, and its memory
  // reused from, the allocator arena the next one is built in.
  const std::vector<int> cpus = allowed_cpus();
  pin_client(1);
  std::vector<double> refill_s;
  std::vector<double> window_peak_mb;
  std::string refill_error;
  std::uint64_t epoch = 0;
  Clock::time_point tick = Clock::now();
  std::unique_lock<std::mutex> lock(mu);
  while (!cv.wait_until(lock, tick += std::chrono::seconds(1),
                        [&] { return stop; })) {
    // One RSS window per reload, from this reload to the next.
    if (epoch > 0) window_peak_mb.push_back(peak_rss_mb());
    reset_peak_rss();
    lock.unlock();
    try {
      const auto t0 = Clock::now();
      live.server->install_engine(net::EngineHandle::load(path, ++epoch));
      refill_s.push_back(seconds_since(t0));
    } catch (const std::exception& e) {
      refill_error = e.what();
    }
    lock.lock();
  }
  lock.unlock();
  client.join();
  set_affinity(cpus);
  exec::set_global_threads(bench.threads);
  const net::ServerStats stats1 = live.server->stats();
  report_wire_bytes(bench, stats0, stats1);

  // Latency per one-second window of the schedule (one reload each);
  // ops complete in send order, so window w is ops [w*qps, (w+1)*qps).
  const std::vector<double>& lat = trial.conns[0].latency_us;
  const auto per_window = static_cast<std::size_t>(t.qps);
  for (std::size_t begin = 0; begin + per_window <= lat.size();
       begin += per_window) {
    const std::vector<double> window(lat.begin() + begin,
                                     lat.begin() + begin + per_window);
    e2e.op_ms.push_back(quantile(window, 0.5) / 1e3);
    e2e.op_p90_ms.push_back(quantile(window, 0.9) / 1e3);
  }
  if (e2e.op_ms.empty() || trial.failed()) {
    // Too short a phase, or failed requests: fall back to the whole
    // trial, failures counted as +inf.
    e2e.op_ms = {trial.latency_us(0.5) / 1e3};
    e2e.op_p90_ms = {trial.latency_us(0.9) / 1e3};
  }
  e2e.peak_rss_mb = window_peak_mb.empty()
                        ? std::vector<double>{peak_rss_mb()}
                        : window_peak_mb;

  Report& rep = bench.report;
  report_end_to_end(rep, e2e);
  rep.set_e2e("refill_s", refill_s, "s", Better::Lower, kLatencyBound);
  rep.set("fail_frac",
          static_cast<double>(trial.failed()) /
              static_cast<double>(std::max<std::uint64_t>(1, trial.sent())),
          "ratio", Better::Lower, Kind::EndToEnd, kFailBound);
  rep.set("net.p99_us_20k", trial.latency_us(0.99), "us", Better::Lower);
  rep.set("net.p999_us_20k", trial.latency_us(0.999), "us", Better::Lower);
  rep.set("net.gen_late_p99_us", trial.late_us(0.99), "us", Better::Lower);
  rep.set("net.engine_swaps",
          static_cast<double>(stats1.engine_swaps - stats0.engine_swaps),
          "count", Better::Higher);
  rep.add_ops(trial.sent(), trial.failed());
  rep.check(refill_error.empty() && !refill_s.empty() &&
                stats1.engine_swaps - stats0.engine_swaps == refill_s.size(),
            "every reload loaded and installed an engine" +
                (refill_error.empty() ? "" : ": " + refill_error));
  rep.check(matches_local_drive(live.server->current_engine()->engine(), spec,
                                trial, bench.threads),
            "answers across reloads equal a local serve::drive over the same "
            "op stream");

  if (bench.options.trace) {
    report_engine_rates(bench, live.server->current_engine()->engine(), spec);
    // Traced reloads into the live server: load, build, install. A
    // replaced engine is freed only once the server holds no handle to it.
    begin_trace(bench, {"serve.setup", "serve.refill"});
    traced_setups(bench, path);
    OwnedEngine current;
    std::shared_ptr<const net::EngineHandle> current_handle;
    for (int i = 0; i < 3; ++i) {
      OwnedEngine next;
      std::shared_ptr<const net::EngineHandle> next_handle;
      {
        Span root(bench, "serve.refill");
        next = traced_load(bench, path);
        Span span(bench, "net.install");
        next_handle = net::EngineHandle::view(*next.engine, 100 + i);
        live.server->install_engine(next_handle);
      }
      while (current_handle && current_handle.use_count() > 1) {
        std::this_thread::yield();
      }
      current = std::move(next);
      current_handle = std::move(next_handle);
    }
    live.server->stop();
    end_trace(bench, quantile(e2e.setup_s, 0.5));
    rep.set("net.p50_rtt_ratio",
            rep.get("latency_ms").value * 1e3 /
                rep.get("ceiling.echo_rtt_us").value,
            "ratio", Better::Lower);
  }
}

}  // namespace ddosbench
