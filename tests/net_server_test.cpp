// End-to-end tests for the epoll serve front-end (net::Server), the
// blocking client, and the remote load driver.
//
// The anchor test is fingerprint parity: a remote closed-loop drive with
// C connections against a served engine must produce bit-identical
// per-thread fingerprints to serve::drive with C pool threads over the
// same (seed, mix, engine) — the wire protocol's regression gate. The
// open-loop test injects a server stall through the before_request hook
// and asserts the reported tail latency reflects the *intended* send
// schedule (coordinated-omission correction): a stalled server must show
// p99 far above its per-request service time. The re-fill test swaps the
// engine atomically under concurrent client load (the TSan target for
// the RCU handoff) and checks post-swap answers come from the new
// engine. Malformed-input tests go through a raw socket: one Error
// frame, then the connection closes; semantic errors (BadRequest) keep
// the connection alive.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/pool.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/remote.h"
#include "net/server.h"
#include "obs/obs.h"
#include "scenario/driver.h"
#include "serve/driver.h"
#include "serve/query_engine.h"
#include "store/format.h"

namespace ddos::net {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::path(testing::TempDir()) /
          (std::to_string(::getpid()) + "-" + name))
      .string();
}

// Drive latencies land in log bins a tenth of a decade wide, and a
// reported quantile lies inside the bin of the true one: above the true
// value times 10^-0.1. Bounds that must hold exactly scale by this.
const double kBinLow = std::pow(10.0, -0.1);

// A server whose event loop holds every non-Hello request for `hold`
// before executing it.
ServerOptions holding(std::chrono::microseconds hold) {
  ServerOptions options;
  options.before_request = [hold](Opcode op) {
    if (op != Opcode::Hello) std::this_thread::sleep_for(hold);
  };
  return options;
}

// Point lookups only, one connection, open loop at `qps`.
RemoteDriveOptions open_loop(std::uint16_t port, double qps,
                             std::uint64_t ops) {
  RemoteDriveOptions open;
  open.host = "127.0.0.1";
  open.port = port;
  open.connections = 1;
  open.workload.seed = 9;
  open.workload.mix = {1, 0, 0};
  open.ops_per_thread = ops;
  open.target_qps = qps;
  return open;
}

const serve::QueryTypeReport& point_report(const serve::DriveReport& report) {
  return report
      .by_type[static_cast<std::size_t>(serve::QueryType::PointLookup)];
}

class NetServerTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario::LongitudinalConfig cfg = scenario::small_longitudinal_config(21);
    result_ = new scenario::LongitudinalResult(scenario::run_longitudinal(cfg));
    config_ = new scenario::LongitudinalConfig(cfg);
    engine_ = new serve::QueryEngine(*result_);
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
    delete config_;
    config_ = nullptr;
    delete result_;
    result_ = nullptr;
  }

  /// The fixture engine wrapped for serving (caller keeps it alive).
  static std::shared_ptr<const EngineHandle> handle(std::uint64_t epoch = 1) {
    return EngineHandle::view(*engine_, epoch);
  }

  static scenario::LongitudinalResult* result_;
  static scenario::LongitudinalConfig* config_;
  static serve::QueryEngine* engine_;
};

scenario::LongitudinalResult* NetServerTest::result_ = nullptr;
scenario::LongitudinalConfig* NetServerTest::config_ = nullptr;
serve::QueryEngine* NetServerTest::engine_ = nullptr;

TEST_F(NetServerTest, HelloReportsEngineShapeAndEpoch) {
  ServerOptions options;
  options.threads = 2;
  Server server(handle(/*epoch=*/7), options);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  const HelloResult hello = client.hello(42);
  EXPECT_EQ(hello.key_count, engine_->keys().size());
  EXPECT_EQ(hello.day_min, engine_->day_min());
  EXPECT_EQ(hello.day_max, engine_->day_max());
  EXPECT_EQ(hello.nsset_count, engine_->nsset_count());
  EXPECT_EQ(hello.engine_epoch, 7u);

  client.close();
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.malformed_frames, 0u);
}

// EngineHandle::load builds its engine from the store's columns; a
// server built from it must answer with the same shape as the live
// engine the store was saved from.
TEST_F(NetServerTest, EngineHandleLoadServesASavedStore) {
  const std::string path = temp_path("net-load.drs");
  ASSERT_GT(scenario::save_run(path, *config_, 1, *result_), 0u);

  Server server(EngineHandle::load(path, /*epoch=*/3), ServerOptions{});
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  const HelloResult hello = client.hello();
  EXPECT_EQ(hello.key_count, engine_->keys().size());
  EXPECT_EQ(hello.nsset_count, engine_->nsset_count());
  EXPECT_EQ(hello.engine_epoch, 3u);
  client.close();
  server.stop();
  std::filesystem::remove(path);
}

// The parity gate: remote closed loop with C connections == local drive
// with C pool threads, per-thread and combined, for the same
// (seed, mix, engine). Any wire-format field drift, reordering or
// truncation breaks this.
TEST_F(NetServerTest, RemoteClosedLoopMatchesLocalDriveFingerprints) {
  exec::set_global_threads(2);

  serve::DriveOptions local;
  local.workload.seed = 1234;
  local.ops_per_thread = 2000;
  const serve::DriveReport local_report = serve::drive(*engine_, local);
  ASSERT_EQ(local_report.threads, 2u);

  ServerOptions options;
  options.threads = 2;
  Server server(handle(), options);
  server.start();

  RemoteDriveOptions remote;
  remote.host = "127.0.0.1";
  remote.port = server.port();
  remote.connections = 2;
  remote.workload.seed = 1234;
  remote.ops_per_thread = 2000;
  const serve::DriveReport remote_report = drive_remote(remote);
  server.stop();

  ASSERT_EQ(remote_report.threads, 2u);
  EXPECT_EQ(remote_report.total_ops, local_report.total_ops);
  ASSERT_EQ(remote_report.thread_fingerprints.size(),
            local_report.thread_fingerprints.size());
  for (std::size_t t = 0; t < local_report.thread_fingerprints.size(); ++t) {
    EXPECT_EQ(remote_report.thread_fingerprints[t],
              local_report.thread_fingerprints[t])
        << "thread " << t;
    EXPECT_EQ(remote_report.thread_ops[t], local_report.thread_ops[t]);
  }
  EXPECT_EQ(remote_report.fingerprint, local_report.fingerprint);
  EXPECT_EQ(remote_report.target_qps, 0.0);

  // Per-type op counts travel through distinct response opcodes; equality
  // means every op was answered by the matching handler.
  for (std::size_t i = 0; i < local_report.by_type.size(); ++i) {
    EXPECT_EQ(remote_report.by_type[i].ops, local_report.by_type[i].ops);
  }
}

// Coordinated-omission correction: with a server stalled ~1ms per
// request and an intended rate of 2x the service rate, the open-loop
// driver must report tail latency from the intended send times — the
// queueing delay that a closed loop (which self-clocks down to the
// service rate) structurally cannot see.
TEST_F(NetServerTest, OpenLoopLatencyIsMeasuredFromIntendedSendTime) {
  ServerOptions options;
  options.before_request = [](Opcode op) {
    if (op != Opcode::Hello) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  Server server(handle(), options);
  server.start();

  RemoteDriveOptions base;
  base.host = "127.0.0.1";
  base.port = server.port();
  base.connections = 1;
  base.workload.seed = 9;
  base.workload.mix = {1, 0, 0};  // point-only: uniform ~1ms service time
  base.ops_per_thread = 200;

  RemoteDriveOptions closed = base;
  const serve::DriveReport closed_report = drive_remote(closed);

  RemoteDriveOptions open = base;
  open.target_qps = 2000.0;  // intended interval 0.5ms << 1ms service
  const serve::DriveReport open_report = drive_remote(open);
  server.stop();

  EXPECT_EQ(open_report.target_qps, 2000.0);
  EXPECT_EQ(open_report.total_ops, 200u);
  // Fingerprints are transport-policy-independent: same op stream, same
  // engine, same fold order.
  EXPECT_EQ(open_report.fingerprint, closed_report.fingerprint);

  const auto& open_point =
      open_report.by_type[static_cast<std::size_t>(serve::QueryType::PointLookup)];
  const auto& closed_point =
      closed_report.by_type[static_cast<std::size_t>(serve::QueryType::PointLookup)];
  ASSERT_EQ(open_point.ops, 200u);

  // Deterministic queueing math: each op adds >= 0.5ms of backlog, so the
  // 200-op run ends >= 100ms behind schedule and most ops wait tens of
  // milliseconds. 20ms is a 5x safety margin over the minimum p99.
  EXPECT_GT(open_point.p99_us, 20'000.0)
      << "open-loop p99 hides the server stall (coordinated omission)";
  // The closed loop self-clocks to the ~1ms service time; the open loop's
  // tail must dwarf it.
  EXPECT_GT(open_point.p99_us, 3.0 * closed_point.p99_us);
}

// Below saturation the fixed schedule has slack: intended-send-time
// latency collapses back to the service time (no queueing term), and the
// run's wall clock is the schedule's, not the server's. Both bounds are
// set by the schedule, not by the host's speed: the last of 24 sends 25 ms
// apart is due 575 ms after the first, and a backlog would put at least
// half the replies past their next send slot, so the median would reach a
// slot.
TEST_F(NetServerTest, OpenLoopBelowSaturationPacesTheSchedule) {
  constexpr double kQps = 40.0;  // 25 ms slots >> 1 ms service: slack
  constexpr std::uint64_t kOps = 24;
  Server server(handle(), holding(std::chrono::milliseconds(1)));
  server.start();
  const serve::DriveReport report =
      drive_remote(open_loop(server.port(), kQps, kOps));
  server.stop();

  ASSERT_EQ(report.total_ops, kOps);
  const double slot_s = 1.0 / kQps;
  EXPECT_GE(report.wall_s, static_cast<double>(kOps - 1) * slot_s);
  EXPECT_LT(point_report(report).p50_us, kBinLow * slot_s * 1e6)
      << "replies queue behind each other below saturation";
}

// Replies are timestamped when they arrive: between send slots the
// driver waits on the socket, not on a sleep to the next slot. The server
// holds every reply for 4 ms, well inside the 50 ms slots, so the
// recorded latency must track the hold: at least the hold, since no reply
// leaves before it ends, and under one slot. A driver that sleeps to the
// next slot reads no reply before it, so every latency but the tail
// drain's is at least a slot and the median fails the bound on every run;
// a correct driver fails it only if the host delays the median reply by
// tens of milliseconds.
TEST_F(NetServerTest, OpenLoopTimestampsRepliesOnArrival) {
  constexpr auto kHold = std::chrono::milliseconds(4);
  constexpr double kQps = 20.0;
  constexpr std::uint64_t kOps = 20;
  Server server(handle(), holding(kHold));
  server.start();
  const serve::DriveReport report =
      drive_remote(open_loop(server.port(), kQps, kOps));
  server.stop();

  ASSERT_EQ(report.total_ops, kOps);
  const double p50_us = point_report(report).p50_us;
  const double hold_us =
      std::chrono::duration<double, std::micro>(kHold).count();
  EXPECT_GE(p50_us, kBinLow * hold_us)
      << "recorded latency is shorter than the server's hold";
  EXPECT_LT(p50_us, kBinLow * 1e6 / kQps)
      << "replies are timestamped at the next send slot, not on arrival";
}

// A reload that fails never reaches install_engine: the store is
// refused before the swap, so the server keeps answering at the
// previous epoch with the previous engine.
TEST_F(NetServerTest, FailedReloadKeepsServingThePreviousEpoch) {
  const std::string path = temp_path("net-bad-reload.drs");
  ASSERT_GT(scenario::save_run(path, *config_, 1, *result_), 0u);
  {
    // Flip one byte of the first block.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(store::kHeaderSize + 3);
    char byte = 0;
    f.get(byte);
    f.seekp(store::kHeaderSize + 3);
    f.put(static_cast<char>(byte ^ 0xFF));
  }

  Server server(handle(/*epoch=*/4), ServerOptions{});
  server.start();
  EXPECT_THROW(server.install_engine(EngineHandle::load(path, /*epoch=*/5)),
               store::StoreError);
  EXPECT_EQ(server.stats().engine_swaps, 0u);
  EXPECT_EQ(server.current_engine()->epoch(), 4u);

  Client client;
  client.connect("127.0.0.1", server.port());
  EXPECT_EQ(client.hello().engine_epoch, 4u);
  serve::Op op;
  op.type = serve::QueryType::TopK;
  op.k = 5;
  op.metric = static_cast<std::uint8_t>(serve::TopKMetric::PeakImpact);
  client.queue_op(op, 9);
  client.flush();
  const Answer& answer = client.recv();
  ASSERT_EQ(answer.opcode, Opcode::TopKOk);
  std::vector<serve::TopEntry> expected;
  expected.resize(engine_->top_k(serve::TopKMetric::PeakImpact, 5, expected));
  ASSERT_NE(answer.rows, nullptr);
  EXPECT_EQ(*answer.rows, expected);
  client.close();
  server.stop();
  std::filesystem::remove(path);
}

// Live re-fill: install_engine is one guarded shared_ptr swap, pinned
// per event batch by the loops. Clients hammer the server across the swap
// (this is the TSan target for the RCU handoff), must never see an
// error or a torn answer, and must observe the epoch bump exactly once;
// post-swap answers come from the new engine.
TEST_F(NetServerTest, InstallEngineSwapsLiveUnderConcurrentLoad) {
  scenario::LongitudinalConfig cfg_b = scenario::small_longitudinal_config(5);
  const scenario::LongitudinalResult result_b =
      scenario::run_longitudinal(cfg_b);
  const serve::QueryEngine engine_b(result_b);

  ServerOptions options;
  options.threads = 2;
  Server server(handle(/*epoch=*/1), options);
  server.start();
  const std::uint16_t port = server.port();

  constexpr int kClients = 3;
  std::atomic<bool> failed{false};
  std::atomic<int> saw_new_epoch{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client client;
        client.connect("127.0.0.1", port);
        std::uint64_t last_epoch = 0;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        std::uint32_t id = static_cast<std::uint32_t>(c) << 16;
        while (std::chrono::steady_clock::now() < deadline) {
          const HelloResult hello = client.hello(++id);
          if (hello.engine_epoch < last_epoch) {
            failed = true;  // epochs must be monotone per connection
            return;
          }
          last_epoch = hello.engine_epoch;
          // Keep the query path busy across the swap; TopK is valid
          // against either engine regardless of their key universes.
          serve::Op op;
          op.type = serve::QueryType::TopK;
          op.k = 8;
          op.metric = 0;
          client.queue_op(op, ++id);
          client.flush();
          const Answer& answer = client.recv();
          if (answer.opcode != Opcode::TopKOk || answer.request_id != id) {
            failed = true;
            return;
          }
          if (last_epoch == 2) {
            saw_new_epoch.fetch_add(1);
            return;
          }
        }
        failed = true;  // deadline: never saw the new epoch
      } catch (...) {
        failed = true;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.install_engine(EngineHandle::view(engine_b, /*epoch=*/2));
  for (std::thread& t : clients) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(saw_new_epoch.load(), kClients);
  EXPECT_EQ(server.stats().engine_swaps, 1u);

  // A fresh connection is answered entirely by the new engine.
  Client after;
  after.connect("127.0.0.1", port);
  const HelloResult hello = after.hello();
  EXPECT_EQ(hello.engine_epoch, 2u);
  EXPECT_EQ(hello.key_count, engine_b.keys().size());
  EXPECT_EQ(hello.nsset_count, engine_b.nsset_count());

  serve::Op op;
  op.type = serve::QueryType::TopK;
  op.k = 5;
  op.metric = static_cast<std::uint8_t>(serve::TopKMetric::PeakImpact);
  after.queue_op(op, 77);
  after.flush();
  const Answer& answer = after.recv();
  ASSERT_EQ(answer.opcode, Opcode::TopKOk);
  std::vector<serve::TopEntry> expected;
  const std::size_t n = engine_b.top_k(serve::TopKMetric::PeakImpact, 5, expected);
  expected.resize(n);
  ASSERT_NE(answer.rows, nullptr);
  EXPECT_EQ(*answer.rows, expected);

  after.close();
  server.stop();
}

// Unmap safety across store-backed swaps: EngineHandle::load goes
// through the mmap reader, and the engine copies everything it indexes
// before the mapping closes — so answers must never reference bytes of
// a store file that has since been swapped out (and even deleted). Swapping repeatedly between two loaded stores while
// clients hammer TopK (whose rows point into the engine's run) is the
// dangling-read probe; the TSan job runs this binary to make any
// lifetime violation loud.
TEST_F(NetServerTest, StoreBackedSwapNeverDanglesIntoTheMapping) {
  const std::string path_a = temp_path("net-swap-a.drs");
  const std::string path_b = temp_path("net-swap-b.drs");
  ASSERT_GT(scenario::save_run(path_a, *config_, 1, *result_), 0u);
  scenario::LongitudinalConfig cfg_b = scenario::small_longitudinal_config(5);
  const scenario::LongitudinalResult result_b =
      scenario::run_longitudinal(cfg_b);
  ASSERT_GT(scenario::save_run(path_b, cfg_b, 1, result_b), 0u);

  ServerOptions options;
  options.threads = 2;
  Server server(EngineHandle::load(path_a, /*epoch=*/1), options);
  server.start();
  const std::uint16_t port = server.port();

  constexpr int kClients = 2;
  constexpr std::uint64_t kSwaps = 8;
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client client;
        client.connect("127.0.0.1", port);
        std::uint32_t id = static_cast<std::uint32_t>(c) << 16;
        while (!done.load()) {
          serve::Op op;
          op.type = serve::QueryType::TopK;
          op.k = 8;
          op.metric = 0;
          client.queue_op(op, ++id);
          client.flush();
          const Answer& answer = client.recv();
          if (answer.opcode != Opcode::TopKOk || answer.request_id != id ||
              answer.rows == nullptr) {
            failed = true;
            return;
          }
          // Touch every byte of every row: a dangling reference into an
          // unmapped store would fault (or trip TSan) right here.
          for (const serve::TopEntry& row : *answer.rows) {
            if (row.key == 0 && row.value != row.value) failed = true;
          }
        }
      } catch (...) {
        failed = true;
      }
    });
  }

  for (std::uint64_t swap = 0; swap < kSwaps; ++swap) {
    const std::string& path = (swap % 2 == 0) ? path_b : path_a;
    server.install_engine(EngineHandle::load(path, /*epoch=*/swap + 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (swap == kSwaps / 2) {
      // Mid-hammer, delete both files: every engine already installed
      // must be self-contained — nothing may still read the store paths.
      std::filesystem::remove(path_a);
      std::filesystem::remove(path_b);
      break;
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  done = true;
  for (std::thread& t : clients) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GE(server.stats().engine_swaps, 1u);
  server.stop();
}

// ---- malformed input over a raw socket -------------------------------

int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

/// Read until the server closes; returns everything received.
std::vector<std::uint8_t> read_to_eof(int fd) {
  std::vector<std::uint8_t> all;
  std::uint8_t chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    all.insert(all.end(), chunk, chunk + n);
  }
  return all;
}

TEST_F(NetServerTest, MalformedFrameGetsOneErrorFrameThenClose) {
  Server server(handle(), ServerOptions{});
  server.start();
  const int fd = raw_connect(server.port());

  std::vector<std::uint8_t> wire;
  encode(1, HelloRequest{}, wire);
  wire[4] = 0x00;  // corrupt the magic byte
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  const std::vector<std::uint8_t> reply = read_to_eof(fd);  // EOF = closed
  ::close(fd);

  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(reply, frame, consumed), DecodeStatus::Ok);
  EXPECT_EQ(frame.opcode, Opcode::Error);
  EXPECT_EQ(frame.request_id, 0u);  // header was garbage; id 0 goodbye
  WireError error;
  ASSERT_TRUE(decode(frame, error));
  EXPECT_EQ(error.code, ErrorCode::Malformed);
  EXPECT_EQ(consumed, reply.size());  // exactly one frame, nothing after

  server.stop();
  EXPECT_EQ(server.stats().malformed_frames, 1u);
}

TEST_F(NetServerTest, OversizedLengthPrefixClosesWithoutBuffering) {
  Server server(handle(), ServerOptions{});
  server.start();
  const int fd = raw_connect(server.port());

  // A length prefix past kMaxFrameBytes must be rejected from the prefix
  // alone — the server never waits for (or buffers) the announced body.
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxFrameBytes) + 1;
  std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(huge & 0xFF),
      static_cast<std::uint8_t>((huge >> 8) & 0xFF),
      static_cast<std::uint8_t>((huge >> 16) & 0xFF),
      static_cast<std::uint8_t>((huge >> 24) & 0xFF),
  };
  ASSERT_EQ(::send(fd, prefix, sizeof(prefix), 0),
            static_cast<ssize_t>(sizeof(prefix)));

  const std::vector<std::uint8_t> reply = read_to_eof(fd);
  ::close(fd);

  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(reply, frame, consumed), DecodeStatus::Ok);
  EXPECT_EQ(frame.opcode, Opcode::Error);
  WireError error;
  ASSERT_TRUE(decode(frame, error));
  EXPECT_EQ(error.code, ErrorCode::Malformed);

  server.stop();
  EXPECT_EQ(server.stats().malformed_frames, 1u);
}

// Semantic errors are not framing errors: an out-of-range key_index gets
// a BadRequest Error frame and the connection stays usable.
TEST_F(NetServerTest, BadRequestAnswersErrorAndKeepsConnection) {
  Server server(handle(), ServerOptions{});
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  serve::Op op;
  op.type = serve::QueryType::PointLookup;
  op.key_index = engine_->keys().size();  // one past the end
  client.queue_op(op, 5);
  client.flush();
  const Answer& answer = client.recv();
  EXPECT_EQ(answer.opcode, Opcode::Error);
  EXPECT_EQ(answer.request_id, 5u);
  EXPECT_EQ(answer.error.code, ErrorCode::BadRequest);

  // Same connection keeps serving.
  const HelloResult hello = client.hello(6);
  EXPECT_EQ(hello.key_count, engine_->keys().size());

  client.close();
  server.stop();
  EXPECT_EQ(server.stats().malformed_frames, 0u);
  EXPECT_EQ(server.stats().connections_accepted, 1u);
}

/// Read until `n` whole frames have arrived (or the peer closes); returns
/// the bytes received.
std::vector<std::uint8_t> read_frames(int fd, std::size_t n) {
  std::vector<std::uint8_t> all;
  for (;;) {
    std::span<const std::uint8_t> rest(all);
    std::size_t got = 0;
    Frame frame;
    std::size_t consumed = 0;
    while (decode_frame(rest, frame, consumed) == DecodeStatus::Ok) {
      rest = rest.subspan(consumed);
      ++got;
    }
    if (got >= n) return all;
    std::uint8_t chunk[4096];
    const ssize_t r = ::read(fd, chunk, sizeof(chunk));
    if (r <= 0) return all;
    all.insert(all.end(), chunk, chunk + r);
  }
}

/// Total of the net.request_us histogram labelled op=`op`.
double request_us_count(const obs::Observer& observer, const char* op) {
  for (const obs::MetricSample& s : observer.metrics().snapshot().samples) {
    if (s.name == "net.request_us" && s.labels.at("op") == op) return s.value;
  }
  ADD_FAILURE() << "no net.request_us{op=" << op << "}";
  return -1.0;
}

// The reject branches that keep the connection open, in one pipelined
// burst: a Hello with a body is Malformed, a k past the frame's row cap
// and a response opcode are BadRequest, and each is answered under its
// own request id before the closing Hello is served. A frame that is no
// request is charged to no request's service-time histogram.
TEST_F(NetServerTest, RejectedRequestsKeepTheConnectionOpen) {
  obs::Observer observer;
  const obs::ScopedInstall install(observer);
  Server server(handle(), ServerOptions{});
  server.start();
  const int fd = raw_connect(server.port());

  const auto max_k = static_cast<std::uint32_t>(kMaxTopKRows);
  std::vector<std::uint8_t> wire;
  encode(1, HelloRequest{}, wire);
  wire.push_back(0);  // a Hello takes no body
  ++wire[0];          // ... so lengthen the frame by that byte
  encode(2, TopKRequest{serve::TopKMetric::Attacks, max_k}, wire);
  encode(3, TopKRequest{serve::TopKMetric::Attacks, max_k + 1}, wire);
  encode(4, WirePointResult{}, wire);
  encode(5, HelloRequest{}, wire);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  const std::vector<std::uint8_t> reply = read_frames(fd, 5);
  ::close(fd);
  struct Expect {
    Opcode opcode;
    ErrorCode code;
  };
  const Expect expect[] = {
      {Opcode::Error, ErrorCode::Malformed},
      {Opcode::TopKOk, {}},
      {Opcode::Error, ErrorCode::BadRequest},
      {Opcode::Error, ErrorCode::BadRequest},
      {Opcode::HelloOk, {}},
  };
  std::span<const std::uint8_t> rest(reply);
  for (std::uint32_t id = 1; id <= 5; ++id) {
    Frame frame;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(rest, frame, consumed), DecodeStatus::Ok)
        << "reply " << id;
    rest = rest.subspan(consumed);
    EXPECT_EQ(frame.request_id, id);
    ASSERT_EQ(frame.opcode, expect[id - 1].opcode) << "reply " << id;
    if (frame.opcode == Opcode::Error) {
      WireError error;
      ASSERT_TRUE(decode(frame, error));
      EXPECT_EQ(error.code, expect[id - 1].code) << "reply " << id;
    }
  }
  EXPECT_TRUE(rest.empty());

  server.stop();
  EXPECT_EQ(server.stats().malformed_frames, 0u);
  EXPECT_EQ(request_us_count(observer, "hello"), 2.0);
  EXPECT_EQ(request_us_count(observer, "point"), 0.0);
  EXPECT_EQ(request_us_count(observer, "topk"), 2.0);
  EXPECT_EQ(request_us_count(observer, "scan"), 0.0)
      << "a rejected response opcode was charged to the WindowScan histogram";
}

}  // namespace
}  // namespace ddos::net
