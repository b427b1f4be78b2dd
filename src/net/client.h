// net::Client — one blocking TCP connection speaking the net::codec
// protocol.
//
// The client is deliberately dumb: it owns a socket, an rx buffer and a
// tx buffer, encodes requests, and decodes whole response frames. Policy
// — closed vs open loop, pipelining depth, latency accounting,
// fingerprint folding — lives in the remote driver (net/remote.h), which
// composes these primitives. Pipelining works by queueing several
// requests before flushing; the server answers one connection's requests
// in receive order, so responses come back FIFO and the caller can match
// them to requests without a map (request ids are still echoed and
// checked).
//
// recv() blocks until one complete response frame is buffered; try_recv()
// drains whatever the kernel already has (MSG_DONTWAIT) and returns
// nullptr when no complete frame is available. wait_readable() blocks
// until the socket has bytes or a deadline passes; the open-loop driver
// alternates the two while it waits for the next send slot, so a reply
// is decoded (and timestamped) as soon as it arrives, not at the slot.
// Malformed server bytes throw std::runtime_error:
// a client has no way to resynchronize a broken stream.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/codec.h"
#include "serve/workload.h"

namespace ddos::net {

/// One decoded response frame. Aggregate of all response kinds; `opcode`
/// says which member is live. `rows` aliases client-owned scratch and is
/// valid until the next recv()/try_recv().
struct Answer {
  Opcode opcode = Opcode::Error;
  std::uint32_t request_id = 0;
  HelloResult hello;
  WirePointResult point;
  const std::vector<serve::TopEntry>* rows = nullptr;  // TopKOk
  WireScanResult scan;
  WireError error;
};

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connect (blocking) to host:port; throws std::runtime_error with the
  /// errno text on failure.
  void connect(const std::string& host, std::uint16_t port);
  void close();
  bool connected() const { return fd_ >= 0; }

  /// Synchronous Hello round trip (flushes any queued requests first).
  HelloResult hello(std::uint32_t request_id = 0);

  /// Encode one workload op into the tx buffer (nothing is sent until
  /// flush()). The request id is echoed by the server.
  void queue_op(const serve::Op& op, std::uint32_t request_id);
  /// Blocking send of everything queued.
  void flush();

  /// Block until the next whole response frame; decodes it. Throws on
  /// connection loss or malformed bytes.
  const Answer& recv();
  /// Non-blocking: decode a buffered frame if one is complete, else pull
  /// whatever the kernel has ready and retry once. nullptr = nothing yet.
  const Answer* try_recv();
  /// Block until the socket is readable (bytes or EOF) or `deadline`
  /// passes; true when readable. Consumes nothing.
  bool wait_readable(std::chrono::steady_clock::time_point deadline);

 private:
  bool parse_buffered();          // rx_buf_ -> answer_; false = need more
  bool fill(bool blocking);       // read() into rx_buf_; false = would block
  void decode_into_answer(const Frame& frame);

  int fd_ = -1;
  std::vector<std::uint8_t> tx_buf_;
  std::vector<std::uint8_t> rx_buf_;
  std::vector<std::uint8_t> rx_scratch_;  // fill()'s recv target
  std::size_t rx_off_ = 0;
  TopKRows rows_;
  Answer answer_;
};

}  // namespace ddos::net
