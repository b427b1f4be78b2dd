#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <utility>

namespace ddos::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      tx_buf_(std::move(other.tx_buf_)),
      rx_buf_(std::move(other.rx_buf_)),
      rx_scratch_(std::move(other.rx_scratch_)),
      rx_off_(std::exchange(other.rx_off_, 0)),
      rows_(std::move(other.rows_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    tx_buf_ = std::move(other.tx_buf_);
    rx_buf_ = std::move(other.rx_buf_);
    rx_scratch_ = std::move(other.rx_scratch_);
    rx_off_ = std::exchange(other.rx_off_, 0);
    rows_ = std::move(other.rows_);
  }
  return *this;
}

void Client::connect(const std::string& host, std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("net::Client socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    throw std::runtime_error("net::Client: bad address '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int saved = errno;
    close();
    errno = saved;
    throw_errno("net::Client connect " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  tx_buf_.clear();
  rx_buf_.clear();
  rx_off_ = 0;
}

HelloResult Client::hello(std::uint32_t request_id) {
  encode(request_id, HelloRequest{}, tx_buf_);
  flush();
  const Answer& answer = recv();
  if (answer.opcode == Opcode::Error) {
    throw std::runtime_error("net::Client hello: server error: " +
                             answer.error.message);
  }
  if (answer.opcode != Opcode::HelloOk || answer.request_id != request_id) {
    throw std::runtime_error("net::Client hello: unexpected response");
  }
  return answer.hello;
}

void Client::queue_op(const serve::Op& op, std::uint32_t request_id) {
  switch (op.type) {
    case serve::QueryType::PointLookup:
      encode(request_id, PointLookupRequest{op.key_index}, tx_buf_);
      break;
    case serve::QueryType::TopK:
      encode(request_id,
             TopKRequest{static_cast<serve::TopKMetric>(op.metric), op.k},
             tx_buf_);
      break;
    case serve::QueryType::WindowScan:
      encode(request_id, WindowScanRequest{op.day_lo, op.day_hi}, tx_buf_);
      break;
  }
}

void Client::flush() {
  std::size_t off = 0;
  while (off < tx_buf_.size()) {
    const ssize_t n = ::send(fd_, tx_buf_.data() + off, tx_buf_.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    throw_errno("net::Client send");
  }
  tx_buf_.clear();
}

bool Client::fill(bool blocking) {
  // A response is tens of bytes to a few KiB: recv() into a scratch
  // buffer allocated once per client and append only what arrived.
  constexpr std::size_t kChunk = 64 * 1024;
  if (rx_scratch_.empty()) rx_scratch_.resize(kChunk);
  const ssize_t n = ::recv(fd_, rx_scratch_.data(), kChunk,
                           blocking ? 0 : MSG_DONTWAIT);
  if (n > 0) {
    const std::uint8_t* const got = rx_scratch_.data();
    rx_buf_.insert(rx_buf_.end(), got, got + n);
    return true;
  }
  if (n == 0) {
    throw std::runtime_error("net::Client: connection closed by server");
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
    return false;
  }
  throw_errno("net::Client recv");
}

bool Client::parse_buffered() {
  const std::span<const std::uint8_t> pending(rx_buf_.data() + rx_off_,
                                              rx_buf_.size() - rx_off_);
  Frame frame;
  std::size_t consumed = 0;
  const DecodeStatus status = decode_frame(pending, frame, consumed);
  if (status == DecodeStatus::NeedMore) {
    // Compact consumed frames away so the buffer stays one-frame-sized.
    if (rx_off_ > 0) {
      rx_buf_.erase(rx_buf_.begin(),
                    rx_buf_.begin() + static_cast<std::ptrdiff_t>(rx_off_));
      rx_off_ = 0;
    }
    return false;
  }
  if (status != DecodeStatus::Ok) {
    throw std::runtime_error(std::string("net::Client: malformed frame "
                                         "from server: ") +
                             to_string(status));
  }
  decode_into_answer(frame);
  rx_off_ += consumed;
  return true;
}

void Client::decode_into_answer(const Frame& frame) {
  answer_ = Answer{};
  answer_.opcode = frame.opcode;
  answer_.request_id = frame.request_id;
  // Each decode declines another opcode's frame, so at most one accepts;
  // none does for a request opcode or a malformed body.
  const bool ok = decode(frame, answer_.hello) ||
                  decode(frame, answer_.point) || decode(frame, rows_) ||
                  decode(frame, answer_.scan) || decode(frame, answer_.error);
  if (!ok) {
    throw std::runtime_error("net::Client: bad response body for opcode " +
                             std::string(to_string(frame.opcode)));
  }
  if (frame.opcode == Opcode::TopKOk) answer_.rows = &rows_.rows;
}

const Answer& Client::recv() {
  while (!parse_buffered()) fill(/*blocking=*/true);
  return answer_;
}

const Answer* Client::try_recv() {
  if (parse_buffered()) return &answer_;
  if (!fill(/*blocking=*/false)) return nullptr;
  return parse_buffered() ? &answer_ : nullptr;
}

bool Client::wait_readable(std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return false;
    timespec timeout{};
    timeout.tv_sec = static_cast<std::time_t>(left / 1'000'000'000);
    timeout.tv_nsec = static_cast<long>(left % 1'000'000'000);
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int n = ::ppoll(&pfd, 1, &timeout, nullptr);
    if (n > 0) return true;
    if (n == 0) return false;
    if (errno != EINTR) throw_errno("net::Client poll");
  }
}

}  // namespace ddos::net
