// net::codec — the binary wire protocol of the serve front-end.
//
// Framing: every message is [u32 payload_len (LE)] [payload], where
// payload_len counts the payload bytes only and is capped at
// kMaxFrameBytes — a peer announcing more is malformed and the connection
// is dropped, never buffered. The payload starts with a fixed 8-byte
// header:
//
//   offset  size  field
//   0       1     magic      (0xD5)
//   1       1     version    (kProtocolVersion == 1)
//   2       1     opcode     (Opcode below)
//   3       1     reserved   (must be 0)
//   4       4     request_id (LE; echoed verbatim in the response)
//
// followed by the opcode's body. request_id lets clients pipeline: a
// server answers requests of one connection in receive order and echoes
// each id, so a client can match k outstanding requests without a map.
//
// Bodies: each opcode has one body struct below (its kOpcode and kName)
// and one field list, for_each_field(body, visit), naming the fields in
// wire order. That list is the body's layout: encode() and decode() walk
// it, and a field's C++ type alone sets its wire form:
//
//   integer          little-endian at its own width
//   double           its IEEE-754 bit pattern, as a u64
//   bool             one byte, 0 or 1
//   enum             its underlying type, inside WireRange<E>
//   Pad<N>           N zero bytes
//   vector<Row>      u32 row count, then each row's own field list
//   string           u16 length (<= kMaxMessageBytes), then the bytes
//
// Fields are packed at the byte level, never memcpy'd from structs, so
// the format is independent of host ABI; a wire width changes only with
// a field's type (serve::TopKMetric is a u8 enum for that reason).
// Requests and Responses list the bodies by direction; decode_frame,
// to_string(Opcode) and the server's request dispatch walk them.
//
// Decoding is strict and canonical: short bodies, trailing bytes, bad
// magic/version, unknown opcodes, non-zero reserved or pad bytes, enum
// values out of range and oversized frames all fail — the header with a
// typed DecodeStatus, a body with decode() returning false — so every
// body decode() accepts re-encodes to the same bytes. A fuzzed byte
// stream must never crash the decoder or silently round to a valid
// message (tests/net_codec_test.cpp hammers exactly this).
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "netsim/simtime.h"
#include "serve/query_engine.h"

namespace ddos::net {

inline constexpr std::uint8_t kMagic = 0xD5;
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 8;
/// Hard ceiling on one frame's payload. TopK responses dominate frame
/// size, so this admits ~65k-row boards while keeping a malicious length
/// prefix from ballooning a read buffer.
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;
/// Longest error message on the wire: encode() clamps to it, decode()
/// refuses more, so an error frame stays far below the frame cap.
inline constexpr std::size_t kMaxMessageBytes = 512;

enum class Opcode : std::uint8_t {
  // requests
  Hello = 0x01,
  PointLookup = 0x02,
  TopK = 0x03,
  WindowScan = 0x04,
  // responses
  HelloOk = 0x81,
  PointOk = 0x82,
  TopKOk = 0x83,
  ScanOk = 0x84,
  Error = 0x7F,
};

const char* to_string(Opcode op);

enum class ErrorCode : std::uint16_t {
  Malformed = 1,     // frame parsed but the body is invalid
  BadRequest = 2,    // semantically invalid (key_index out of range, ...)
  Internal = 3,
};

/// Why a decode was rejected. `Ok` and `NeedMore` are the two non-error
/// outcomes: NeedMore means the buffer holds a frame prefix (keep
/// reading), everything else means the peer is broken and the connection
/// must be closed.
enum class DecodeStatus {
  Ok,
  NeedMore,
  BadMagic,
  BadVersion,
  BadOpcode,
  BadReserved,
  Oversized,
  Truncated,    // body shorter than the opcode demands
  TrailingBytes,  // body longer than the opcode demands
};

const char* to_string(DecodeStatus status);

/// One parsed frame header + body view (aliases the input buffer).
struct Frame {
  Opcode opcode = Opcode::Error;
  std::uint32_t request_id = 0;
  std::span<const std::uint8_t> body;
};

/// N zero bytes: sent as zeros, refused when non-zero.
template <std::size_t N>
struct Pad {};

/// The legal values of each enum a body carries, inclusive.
template <class E>
struct WireRange;
template <>
struct WireRange<serve::TopKMetric> {
  static constexpr auto first = serve::TopKMetric::Attacks,
                        last = serve::TopKMetric::FailureRate;
};
template <>
struct WireRange<ErrorCode> {
  static constexpr auto first = ErrorCode::Malformed,
                        last = ErrorCode::Internal;
};

// ---- bodies: one struct and one field list each ----------------------

/// A field list takes its body const (encode) or mutable (decode).
template <class Body, class T>
concept BodyOf = std::same_as<std::remove_const_t<Body>, T>;

struct HelloRequest {
  static constexpr Opcode kOpcode = Opcode::Hello;
  static constexpr const char* kName = "hello";
};
constexpr void for_each_field(BodyOf<HelloRequest> auto&, auto&&) {}

struct PointLookupRequest {
  static constexpr Opcode kOpcode = Opcode::PointLookup;
  static constexpr const char* kName = "point_lookup";
  std::uint64_t key_index = 0;  // rank into the engine's keys()
};
constexpr void for_each_field(BodyOf<PointLookupRequest> auto& body,
                              auto&& visit) {
  visit(body.key_index);
}

struct TopKRequest {
  static constexpr Opcode kOpcode = Opcode::TopK;
  static constexpr const char* kName = "top_k";
  serve::TopKMetric metric = serve::TopKMetric::Attacks;
  std::uint32_t k = 0;
};
constexpr void for_each_field(BodyOf<TopKRequest> auto& body, auto&& visit) {
  visit(body.metric);
  visit(Pad<3>{});
  visit(body.k);
}

struct WindowScanRequest {
  static constexpr Opcode kOpcode = Opcode::WindowScan;
  static constexpr const char* kName = "window_scan";
  netsim::DayIndex day_lo = 0;
  netsim::DayIndex day_hi = -1;
};
constexpr void for_each_field(BodyOf<WindowScanRequest> auto& body,
                              auto&& visit) {
  visit(body.day_lo);
  visit(body.day_hi);
}

struct HelloResult {
  static constexpr Opcode kOpcode = Opcode::HelloOk;
  static constexpr const char* kName = "hello_ok";
  std::uint64_t key_count = 0;
  netsim::DayIndex day_min = 0;
  netsim::DayIndex day_max = -1;
  std::uint64_t nsset_count = 0;
  /// Re-fill generation of the answering engine; bumps on every swap.
  std::uint64_t engine_epoch = 0;

  friend bool operator==(const HelloResult&, const HelloResult&) = default;
};
constexpr void for_each_field(BodyOf<HelloResult> auto& body, auto&& visit) {
  visit(body.key_count);
  visit(body.day_min);
  visit(body.day_max);
  visit(body.nsset_count);
  visit(body.engine_epoch);
}

/// PointLookup answer as it travels the wire: the summary plus the two
/// span lengths (the arrays themselves stay server-side; the driver's
/// fingerprint folds only the lengths, so the wire answer is exactly the
/// fold's input).
struct WirePointResult {
  static constexpr Opcode kOpcode = Opcode::PointOk;
  static constexpr const char* kName = "point_ok";
  bool found = false;
  serve::NssetSummary summary;
  std::uint32_t event_count = 0;
  std::uint32_t series_len = 0;

  friend bool operator==(const WirePointResult&,
                         const WirePointResult&) = default;
};
constexpr void for_each_field(BodyOf<WirePointResult> auto& body,
                              auto&& visit) {
  visit(body.found);
  visit(Pad<3>{});
  visit(body.summary.nsset);
  visit(body.summary.events);
  visit(body.summary.domains_hosted);
  visit(body.summary.peak_impact);
  visit(body.summary.max_failure_rate);
  visit(body.summary.ok);
  visit(body.summary.timeouts);
  visit(body.summary.servfails);
  visit(body.summary.first_day);
  visit(body.summary.last_day);
  visit(body.event_count);
  visit(body.series_len);
}

/// TopK answer: the leaderboard rows, in board order.
struct TopKRows {
  static constexpr Opcode kOpcode = Opcode::TopKOk;
  static constexpr const char* kName = "top_k_ok";
  std::vector<serve::TopEntry> rows;
};
constexpr void for_each_field(BodyOf<serve::TopEntry> auto& row,
                              auto&& visit) {
  visit(row.key);
  visit(row.value);
}
constexpr void for_each_field(BodyOf<TopKRows> auto& body, auto&& visit) {
  visit(body.rows);
}

/// WindowScan answer: the engine's result as it is.
struct WireScanResult : serve::WindowScanResult {
  static constexpr Opcode kOpcode = Opcode::ScanOk;
  static constexpr const char* kName = "scan_ok";
};
constexpr void for_each_field(BodyOf<WireScanResult> auto& body,
                              auto&& visit) {
  visit(body.day_lo);
  visit(body.day_hi);
  visit(body.events);
  visit(body.events_with_failures);
  visit(body.timeouts);
  visit(body.servfails);
  visit(body.impaired_10x);
  visit(body.severe_100x);
  visit(body.max_peak_impact);
}

struct WireError {
  static constexpr Opcode kOpcode = Opcode::Error;
  static constexpr const char* kName = "error";
  ErrorCode code = ErrorCode::Internal;
  std::string message;

  friend bool operator==(const WireError&, const WireError&) = default;
};
constexpr void for_each_field(BodyOf<WireError> auto& body, auto&& visit) {
  visit(body.code);
  visit(body.message);
}

/// The bodies of one direction. visit(op, f) calls f(Body{}) for the
/// body whose kOpcode is `op` and returns its position in the list, or
/// kSize without calling f when no listed body has that opcode.
template <class... Bodies>
struct MessageList {
  static constexpr std::size_t kSize = sizeof...(Bodies);

  template <class F>
  static std::size_t visit(Opcode op, F&& f) {
    std::size_t at = 0;
    (void)((Bodies::kOpcode == op ? (f(Bodies{}), true) : (++at, false)) ||
           ...);
    return at;
  }
};

using Requests = MessageList<HelloRequest, PointLookupRequest, TopKRequest,
                             WindowScanRequest>;
using Responses = MessageList<HelloResult, WirePointResult, TopKRows,
                              WireScanResult, WireError>;

// ---- the wire form of each field type --------------------------------

namespace detail {

template <class T>
concept WireInt = std::integral<T> && !std::same_as<T, bool>;

/// Wire bytes of a body whose fields all have a fixed width (integers,
/// doubles, bools and enums are sent at their own size).
template <class Body>
constexpr std::size_t fixed_wire_bytes() {
  std::size_t bytes = 0;
  Body body{};
  for_each_field(body, [&bytes](const auto& field) { bytes += sizeof(field); });
  return bytes;
}

/// Appends each visited field's wire form to `out`.
struct FieldWriter {
  std::vector<std::uint8_t>& out;

  template <WireInt T>
  void operator()(T v) const {
    const auto u = static_cast<std::make_unsigned_t<T>>(v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out.push_back(static_cast<std::uint8_t>(u >> (8 * i)));
    }
  }
  void operator()(bool v) const { (*this)(static_cast<std::uint8_t>(v)); }
  void operator()(double v) const {
    (*this)(std::bit_cast<std::uint64_t>(v));
  }
  template <class E>
    requires std::is_enum_v<E>
  void operator()(E v) const {
    (*this)(static_cast<std::underlying_type_t<E>>(v));
  }
  template <std::size_t N>
  void operator()(Pad<N>) const {
    out.insert(out.end(), N, std::uint8_t{0});
  }
  template <class Row>
  void operator()(const std::vector<Row>& rows) const {
    (*this)(static_cast<std::uint32_t>(rows.size()));
    for (const Row& row : rows) for_each_field(row, *this);
  }
  void operator()(const std::string& s) const {
    const std::size_t n = std::min(s.size(), kMaxMessageBytes);
    (*this)(static_cast<std::uint16_t>(n));
    out.insert(out.end(), s.data(), s.data() + n);
  }
};

/// Reads each visited field's wire form from `buf`; any bound, value or
/// pad violation trips `ok` sticky-false, so a body decodes linearly and
/// is tested once at the end.
struct FieldReader {
  std::span<const std::uint8_t> buf;
  std::size_t pos = 0;
  bool ok = true;

  std::size_t left() const { return buf.size() - pos; }
  bool need(std::size_t n) {
    if (left() < n) ok = false;
    return ok;
  }
  /// The whole body read, nothing left over.
  bool done() const { return ok && pos == buf.size(); }

  template <WireInt T>
  void operator()(T& v) {
    std::uint64_t u = 0;
    if (need(sizeof(T))) {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        u |= std::uint64_t{buf[pos + i]} << (8 * i);
      }
      pos += sizeof(T);
    }
    v = static_cast<T>(static_cast<std::make_unsigned_t<T>>(u));
  }
  void operator()(bool& v) {
    std::uint8_t b = 0;
    (*this)(b);
    if (b > 1) ok = false;
    v = b == 1;
  }
  void operator()(double& v) {
    std::uint64_t bits = 0;
    (*this)(bits);
    v = std::bit_cast<double>(bits);
  }
  template <class E>
    requires std::is_enum_v<E>
  void operator()(E& v) {
    std::underlying_type_t<E> raw = 0;
    (*this)(raw);
    v = static_cast<E>(raw);
    if (v < WireRange<E>::first || v > WireRange<E>::last) ok = false;
  }
  template <std::size_t N>
  void operator()(Pad<N>) {
    for (std::size_t i = 0; i < N; ++i) {
      std::uint8_t b = 0;
      (*this)(b);
      if (b != 0) ok = false;
    }
  }
  template <class Row>
  void operator()(std::vector<Row>& rows) {
    std::uint32_t n = 0;
    (*this)(n);
    rows.clear();
    // The count must fit the bytes left before anything is sized by it.
    if (!ok || n > left() / fixed_wire_bytes<Row>()) {
      ok = false;
      return;
    }
    rows.resize(n);
    for (Row& row : rows) for_each_field(row, *this);
  }
  void operator()(std::string& s) {
    std::uint16_t n = 0;
    (*this)(n);
    if (n > kMaxMessageBytes) ok = false;
    if (!need(n)) return;
    s.assign(reinterpret_cast<const char*>(buf.data() + pos), n);
    pos += n;
  }
};

// Reserve the 4-byte length slot, write the header, return the slot.
std::size_t begin_frame(std::vector<std::uint8_t>& out, Opcode op,
                        std::uint32_t request_id);
// Patch the slot with the payload length.
void end_frame(std::vector<std::uint8_t>& out, std::size_t len_at);

}  // namespace detail

/// Most TopKOk rows one frame can carry.
inline constexpr std::size_t kMaxTopKRows =
    (kMaxFrameBytes - kHeaderBytes - sizeof(std::uint32_t)) /
    detail::fixed_wire_bytes<serve::TopEntry>();

// ---- encoding and decoding -------------------------------------------

/// Append one whole frame carrying `body` to `out`.
template <class Body>
void encode(std::uint32_t request_id, const Body& body,
            std::vector<std::uint8_t>& out) {
  const std::size_t at = detail::begin_frame(out, Body::kOpcode, request_id);
  for_each_field(body, detail::FieldWriter{out});
  detail::end_frame(out, at);
}

/// Parse one frame from the front of `buf`. On Ok, `frame` views into
/// `buf` and `consumed` is the total frame size (4 + payload) to pop.
/// On NeedMore nothing is consumed; any other status is fatal for the
/// connection.
DecodeStatus decode_frame(std::span<const std::uint8_t> buf, Frame& frame,
                          std::size_t& consumed);

/// Strict body decode: false unless `frame` carries Body's opcode and its
/// body is exactly Body's layout with legal values. `body` is
/// unspecified after a false return.
template <class Body>
bool decode(const Frame& frame, Body& body) {
  if (frame.opcode != Body::kOpcode) return false;
  detail::FieldReader reader{frame.body};
  for_each_field(body, reader);
  return reader.done();
}

}  // namespace ddos::net
