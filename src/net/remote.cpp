#include "net/remote.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/client.h"
#include "obs/obs.h"

namespace ddos::net {

namespace {

using Clock = std::chrono::steady_clock;

struct alignas(64) LiveCount {
  std::atomic<std::uint64_t> ops{0};
};

/// Fold one wire answer with the shared driver folds; the request op says
/// which response opcode is legal. An Error frame (or a mismatched
/// opcode) is a drive failure, not a foldable answer.
std::uint64_t fold_answer(std::uint64_t fp, const serve::Op& op,
                          const Answer& answer) {
  if (answer.opcode == Opcode::Error) {
    throw std::runtime_error("net::drive_remote: server error: " +
                             answer.error.message);
  }
  switch (op.type) {
    case serve::QueryType::PointLookup:
      if (answer.opcode != Opcode::PointOk) break;
      return serve::fold_point_answer(fp, answer.point.found,
                                      answer.point.summary,
                                      answer.point.series_len);
    case serve::QueryType::TopK:
      if (answer.opcode != Opcode::TopKOk) break;
      return serve::fold_top_k_answer(
          fp, std::span<const serve::TopEntry>(*answer.rows));
    case serve::QueryType::WindowScan:
      if (answer.opcode != Opcode::ScanOk) break;
      return serve::fold_window_scan_answer(fp, answer.scan);
  }
  throw std::runtime_error(
      std::string("net::drive_remote: response opcode ") +
      to_string(answer.opcode) + " does not answer request " +
      to_string(op.type));
}

struct ThreadArgs {
  const RemoteDriveOptions* options;
  const serve::WorkloadSpec* spec;
  std::uint64_t key_count;
  unsigned thread_id;
  Clock::time_point start;
  Clock::time_point deadline;  // duration mode only
  bool fixed_ops;
  serve::ParticipantOutcome* out;
  LiveCount* live;
};

void run_closed_loop(const ThreadArgs& args) {
  Client client;
  client.connect(args.options->host, args.options->port);
  serve::Workload wl(*args.spec, args.key_count, args.thread_id);
  serve::ParticipantOutcome& me = *args.out;
  std::uint64_t fp = 0;

  Clock::time_point t_prev = Clock::now();
  for (;;) {
    if (args.fixed_ops && me.ops == args.options->ops_per_thread) break;
    const serve::Op op = wl.next();
    const auto type_index = static_cast<std::size_t>(op.type);
    client.queue_op(op, static_cast<std::uint32_t>(me.ops));
    client.flush();
    const Answer& answer = client.recv();
    if (answer.request_id != static_cast<std::uint32_t>(me.ops)) {
      throw std::runtime_error("net::drive_remote: response id mismatch");
    }
    fp = fold_answer(fp, op, answer);
    const Clock::time_point t_now = Clock::now();
    me.hists[type_index].add(
        std::chrono::duration<double, std::micro>(t_now - t_prev).count());
    t_prev = t_now;
    ++me.ops;
    ++me.type_ops[type_index];
    args.live->ops.store(me.ops, std::memory_order_relaxed);
    if (!args.fixed_ops && t_now >= args.deadline) break;
  }
  me.fingerprint = fp;
}

void run_open_loop(const ThreadArgs& args) {
  Client client;
  client.connect(args.options->host, args.options->port);
  serve::Workload wl(*args.spec, args.key_count, args.thread_id);
  serve::ParticipantOutcome& me = *args.out;
  std::uint64_t fp = 0;

  const double qps_thread =
      args.options->target_qps /
      static_cast<double>(args.options->connections);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / qps_thread));

  struct Pending {
    Clock::time_point intended;
    serve::Op op;
  };
  std::deque<Pending> pending;
  std::uint64_t sent = 0;

  const auto complete = [&](const Answer& answer) {
    const Pending p = pending.front();
    pending.pop_front();
    if (answer.request_id != static_cast<std::uint32_t>(me.ops)) {
      throw std::runtime_error("net::drive_remote: response id mismatch");
    }
    fp = fold_answer(fp, p.op, answer);
    const auto type_index = static_cast<std::size_t>(p.op.type);
    // Coordinated-omission-safe: latency runs from the op's *intended*
    // send time, so schedule slip caused by a slow server is charged to
    // the server, not silently dropped from the distribution.
    me.hists[type_index].add(std::chrono::duration<double, std::micro>(
                                 Clock::now() - p.intended)
                                 .count());
    ++me.ops;
    ++me.type_ops[type_index];
    args.live->ops.store(me.ops, std::memory_order_relaxed);
  };

  for (;;) {
    const Clock::time_point intended =
        args.start + interval * static_cast<std::int64_t>(sent);
    const bool want_send =
        args.fixed_ops ? sent < args.options->ops_per_thread
                       : intended < args.deadline;
    if (!want_send) {
      if (pending.empty()) break;
      complete(client.recv());  // blocking tail drain
      continue;
    }
    // Drain completions while waiting for the slot, waking on a readable
    // socket rather than sleeping to the slot: a reply is timestamped
    // when it arrives, never at the next send. The send itself happens at
    // (or as soon as possible after) the intended time even when earlier
    // responses are still outstanding.
    while (Clock::now() < intended) {
      if (const Answer* answer = client.try_recv()) {
        complete(*answer);
      } else {
        client.wait_readable(intended);
      }
    }
    const serve::Op op = wl.next();
    client.queue_op(op, static_cast<std::uint32_t>(sent));
    client.flush();
    pending.push_back(Pending{intended, op});
    ++sent;
    while (const Answer* answer = client.try_recv()) complete(*answer);
  }
  me.fingerprint = fp;
}

}  // namespace

serve::DriveReport drive_remote(const RemoteDriveOptions& options) {
  if (options.connections == 0) {
    throw std::invalid_argument("net::drive_remote: connections must be > 0");
  }
  if (options.target_qps < 0.0) {
    throw std::invalid_argument("net::drive_remote: target_qps must be >= 0");
  }

  // One Hello up front: the workload needs the server's key universe and
  // day range before any thread can generate ops.
  HelloResult hello;
  {
    Client probe;
    probe.connect(options.host, options.port);
    hello = probe.hello();
  }
  if (hello.key_count == 0) {
    throw std::invalid_argument(
        "net::drive_remote: server engine key universe is empty");
  }

  serve::WorkloadSpec spec = options.workload;
  spec.day_min = hello.day_min;
  spec.day_max = hello.day_max;
  // Surface spec errors here, on the caller, not inside the threads.
  { serve::Workload probe_wl(spec, hello.key_count, 0); }

  const unsigned connections = options.connections;
  std::vector<serve::ParticipantOutcome> outcomes(connections);
  std::vector<LiveCount> live(connections);
  std::vector<std::exception_ptr> errors(connections);

  obs::Observer* observer = obs::Observer::installed();
  const obs::ScopedProgressSource progress(
      observer ? &observer->progress_sources() : nullptr, "serve.remote_ops",
      [&live] {
        std::uint64_t total = 0;
        for (const LiveCount& c : live) {
          total += c.ops.load(std::memory_order_relaxed);
        }
        return total;
      });

  const bool open_loop = options.target_qps > 0.0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(
                      std::max(options.duration_s, 0.0)));

  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (unsigned t = 0; t < connections; ++t) {
    threads.emplace_back([&, t] {
      ThreadArgs args;
      args.options = &options;
      args.spec = &spec;
      args.key_count = hello.key_count;
      args.thread_id = t;
      args.start = start;
      args.deadline = deadline;
      args.fixed_ops = options.ops_per_thread > 0;
      args.out = &outcomes[t];
      args.live = &live[t];
      try {
        if (open_loop) {
          run_open_loop(args);
        } else {
          run_closed_loop(args);
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  serve::DriveReport report = serve::finalize_drive(outcomes, wall_s);
  report.target_qps = options.target_qps;
  return report;
}

}  // namespace ddos::net
