// Wire-protocol acceptance: every message type must survive an
// encode/decode round trip bit-exactly and encode to the literal bytes
// pinned per opcode, and every malformed byte stream — truncated,
// oversized, corrupted header, wrong body length, invalid enum — must be
// rejected with a typed status instead of best-effort acceptance. The
// fuzz loops at the end are the "never crash, never silently accept"
// guarantee the server's connection handling stands on; whatever body
// they do accept must re-encode to the bytes it came from.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/codec.h"
#include "netsim/rng.h"

namespace ddos::net {
namespace {

std::vector<std::uint8_t> one_hello(std::uint32_t request_id) {
  std::vector<std::uint8_t> buf;
  encode(request_id, HelloRequest{}, buf);
  return buf;
}

/// The body decoded from `frame`, nullopt when decode() refuses it.
template <class Body>
std::optional<Body> decoded(const Frame& frame) {
  Body body;
  if (!decode(frame, body)) return std::nullopt;
  return body;
}

/// Decodes `frame` as every request and response body: a body decode()
/// accepts must re-encode to `bytes`, the whole frame as received.
void expect_canonical(const Frame& frame, std::span<const std::uint8_t> bytes) {
  const auto check = [&]<class Body>(Body body) {
    if (!decode(frame, body)) return;
    std::vector<std::uint8_t> again;
    encode(frame.request_id, body, again);
    EXPECT_TRUE(std::ranges::equal(again, bytes))
        << Body::kName << " accepted a body no encoder produces";
  };
  const auto each = [&]<class... Bodies>(MessageList<Bodies...>) {
    (check(Bodies{}), ...);
  };
  each(Requests{});
  each(Responses{});
}

Frame decode_ok(const std::vector<std::uint8_t>& buf) {
  Frame frame;
  std::size_t consumed = 0;
  const DecodeStatus status = decode_frame(buf, frame, consumed);
  EXPECT_EQ(status, DecodeStatus::Ok) << to_string(status);
  EXPECT_EQ(consumed, buf.size());
  return frame;
}

TEST(NetCodec, RoundTripsRequests) {
  {
    const Frame f = decode_ok(one_hello(7));
    EXPECT_EQ(f.opcode, Opcode::Hello);
    EXPECT_EQ(f.request_id, 7u);
    EXPECT_TRUE(f.body.empty());
  }
  {
    std::vector<std::uint8_t> buf;
    encode(0xDEADBEEF, PointLookupRequest{0x0123456789ABCDEFull}, buf);
    const Frame f = decode_ok(buf);
    EXPECT_EQ(f.opcode, Opcode::PointLookup);
    EXPECT_EQ(f.request_id, 0xDEADBEEFu);
    const auto req = decoded<PointLookupRequest>(f);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->key_index, 0x0123456789ABCDEFull);
  }
  {
    std::vector<std::uint8_t> buf;
    encode(3, TopKRequest{serve::TopKMetric::PeakImpact, 25}, buf);
    const auto req = decoded<TopKRequest>(decode_ok(buf));
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->metric, serve::TopKMetric::PeakImpact);
    EXPECT_EQ(req->k, 25u);
  }
  {
    std::vector<std::uint8_t> buf;
    encode(9, WindowScanRequest{-5, 1234}, buf);
    const auto req = decoded<WindowScanRequest>(decode_ok(buf));
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->day_lo, -5);
    EXPECT_EQ(req->day_hi, 1234);
  }
}

TEST(NetCodec, RoundTripsResponses) {
  {
    HelloResult hello;
    hello.key_count = 12345;
    hello.day_min = -3;
    hello.day_max = 511;
    hello.nsset_count = 777;
    hello.engine_epoch = 42;
    std::vector<std::uint8_t> buf;
    encode(1, hello, buf);
    const auto back = decoded<HelloResult>(decode_ok(buf));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, hello);
  }
  {
    WirePointResult point;
    point.found = true;
    point.summary.nsset = 0xABCDu;
    point.summary.events = 17;
    point.summary.domains_hosted = 99999;
    point.summary.peak_impact = 123.456789;
    point.summary.max_failure_rate = 0.25;
    point.summary.ok = 10;
    point.summary.timeouts = 5;
    point.summary.servfails = 2;
    point.summary.first_day = -1;
    point.summary.last_day = 500;
    point.event_count = 17;
    point.series_len = 31;
    std::vector<std::uint8_t> buf;
    encode(2, point, buf);
    const auto back = decoded<WirePointResult>(decode_ok(buf));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, point);
  }
  {
    const std::vector<serve::TopEntry> rows = {
        {1, 10.5}, {2, -0.0}, {0xFFFFFFFFFFFFFFFFull, 1e300}};
    std::vector<std::uint8_t> buf;
    encode(3, TopKRows{rows}, buf);
    TopKRows back;
    ASSERT_TRUE(decode(decode_ok(buf), back));
    EXPECT_EQ(back.rows, rows);

    buf.clear();
    encode(4, TopKRows{}, buf);  // zero rows is a valid answer
    ASSERT_TRUE(decode(decode_ok(buf), back));
    EXPECT_TRUE(back.rows.empty());
  }
  {
    serve::WindowScanResult scan;
    scan.day_lo = -7;
    scan.day_hi = 100;
    scan.events = 12;
    scan.events_with_failures = 6;
    scan.timeouts = 4;
    scan.servfails = 2;
    scan.impaired_10x = 3;
    scan.severe_100x = 1;
    scan.max_peak_impact = 512.125;
    std::vector<std::uint8_t> buf;
    encode(5, WireScanResult{scan}, buf);
    const auto back = decoded<WireScanResult>(decode_ok(buf));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, scan);
  }
  {
    std::vector<std::uint8_t> buf;
    encode(6, WireError{ErrorCode::BadRequest, "key out of range"}, buf);
    const auto back = decoded<WireError>(decode_ok(buf));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->code, ErrorCode::BadRequest);
    EXPECT_EQ(back->message, "key out of range");
  }
}

// The wire bytes themselves, pinned per opcode: a round trip cannot see a
// field that changes width on both sides at once, a literal frame can.
// Every body carries non-default values, and each pad and enum the body
// has; the first 12 bytes of each frame are length prefix and header.
TEST(NetCodec, FramesMatchGoldenBytes) {
  using Bytes = std::vector<std::uint8_t>;
  const auto framed = [](auto encode_into) {
    Bytes buf;
    encode_into(buf);
    return buf;
  };
  HelloResult hello;
  hello.key_count = 1000;
  hello.day_min = -1;
  hello.day_max = 512;
  hello.nsset_count = 77;
  hello.engine_epoch = 3;
  WirePointResult point;
  point.found = true;
  point.summary.nsset = 0xABCD;
  point.summary.events = 17;
  point.summary.domains_hosted = 99999;
  point.summary.peak_impact = 1.5;
  point.summary.max_failure_rate = 0.25;
  point.summary.ok = 10;
  point.summary.timeouts = 5;
  point.summary.servfails = 2;
  point.summary.first_day = -1;
  point.summary.last_day = 500;
  point.event_count = 17;
  point.series_len = 31;
  const std::vector<serve::TopEntry> rows = {{1, 10.5},
                                             {0xFFFFFFFFFFFFFFFFull, -2.0}};
  serve::WindowScanResult scan;
  scan.day_lo = -7;
  scan.day_hi = 100;
  scan.events = 12;
  scan.events_with_failures = 6;
  scan.timeouts = 4;
  scan.servfails = 2;
  scan.impaired_10x = 3;
  scan.severe_100x = 1;
  scan.max_peak_impact = 512.125;

  struct Golden {
    const char* what;
    Bytes encoded;
    Bytes expect;
  };
  const Golden golden[] = {
      {"hello",
       framed([](Bytes& b) { encode(0x01020304, HelloRequest{}, b); }),
       {0x08, 0, 0, 0, 0xD5, 1, 0x01, 0, 0x04, 0x03, 0x02, 0x01}},
      {"point_lookup",
       framed([](Bytes& b) {
         encode(5, PointLookupRequest{0x0123456789ABCDEFull}, b);
       }),
       {0x10, 0, 0, 0, 0xD5, 1, 0x02, 0, 5, 0, 0, 0,
        0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01}},
      {"top_k",
       framed([](Bytes& b) {
         encode(6, TopKRequest{serve::TopKMetric::FailureRate, 300}, b);
       }),
       {0x10, 0, 0, 0, 0xD5, 1, 0x03, 0, 6, 0, 0, 0,
        2, 0, 0, 0,           // metric, pad
        0x2C, 0x01, 0, 0}},   // k
      {"window_scan",
       framed([](Bytes& b) { encode(7, WindowScanRequest{-2, 600}, b); }),
       {0x18, 0, 0, 0, 0xD5, 1, 0x04, 0, 7, 0, 0, 0,
        0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
        0x58, 0x02, 0, 0, 0, 0, 0, 0}},
      {"hello_ok",
       framed([&](Bytes& b) { encode(8, hello, b); }),
       {0x30, 0, 0, 0, 0xD5, 1, 0x81, 0, 8, 0, 0, 0,
        0xE8, 0x03, 0, 0, 0, 0, 0, 0,                    // key_count
        0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // day_min
        0x00, 0x02, 0, 0, 0, 0, 0, 0,                    // day_max
        0x4D, 0, 0, 0, 0, 0, 0, 0,                       // nsset_count
        0x03, 0, 0, 0, 0, 0, 0, 0}},                     // engine_epoch
      {"point_ok",
       framed([&](Bytes& b) { encode(9, point, b); }),
       {0x50, 0, 0, 0, 0xD5, 1, 0x82, 0, 9, 0, 0, 0,
        1, 0, 0, 0,                                      // found, pad
        0xCD, 0xAB, 0, 0,                                // nsset
        0x11, 0, 0, 0,                                   // events
        0x9F, 0x86, 0x01, 0, 0, 0, 0, 0,                 // domains_hosted
        0, 0, 0, 0, 0, 0, 0xF8, 0x3F,                    // peak_impact
        0, 0, 0, 0, 0, 0, 0xD0, 0x3F,                    // max_failure_rate
        0x0A, 0, 0, 0,                                   // ok
        0x05, 0, 0, 0,                                   // timeouts
        0x02, 0, 0, 0,                                   // servfails
        0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // first_day
        0xF4, 0x01, 0, 0, 0, 0, 0, 0,                    // last_day
        0x11, 0, 0, 0,                                   // event_count
        0x1F, 0, 0, 0}},                                 // series_len
      {"top_k_ok",
       framed([&](Bytes& b) { encode(10, TopKRows{rows}, b); }),
       {0x2C, 0, 0, 0, 0xD5, 1, 0x83, 0, 10, 0, 0, 0,
        2, 0, 0, 0,                                      // n
        1, 0, 0, 0, 0, 0, 0, 0,                          // key
        0, 0, 0, 0, 0, 0, 0x25, 0x40,                    // value
        0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
        0, 0, 0, 0, 0, 0, 0, 0xC0}},
      {"scan_ok",
       framed([&](Bytes& b) { encode(11, WireScanResult{scan}, b); }),
       {0x50, 0, 0, 0, 0xD5, 1, 0x84, 0, 11, 0, 0, 0,
        0xF9, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // day_lo
        0x64, 0, 0, 0, 0, 0, 0, 0,                       // day_hi
        0x0C, 0, 0, 0, 0, 0, 0, 0,                       // events
        0x06, 0, 0, 0, 0, 0, 0, 0,                       // with failures
        0x04, 0, 0, 0, 0, 0, 0, 0,                       // timeouts
        0x02, 0, 0, 0, 0, 0, 0, 0,                       // servfails
        0x03, 0, 0, 0, 0, 0, 0, 0,                       // impaired_10x
        0x01, 0, 0, 0, 0, 0, 0, 0,                       // severe_100x
        0, 0, 0, 0, 0, 0x01, 0x80, 0x40}},               // max_peak_impact
      {"error",
       framed([](Bytes& b) {
         encode(12, WireError{ErrorCode::BadRequest, "oops"}, b);
       }),
       {0x10, 0, 0, 0, 0xD5, 1, 0x7F, 0, 12, 0, 0, 0,
        2, 0, 4, 0, 'o', 'o', 'p', 's'}},
  };
  for (const Golden& g : golden) {
    EXPECT_EQ(g.encoded, g.expect) << g.what;
  }
}

TEST(NetCodec, PipelinedFramesDecodeSequentially) {
  std::vector<std::uint8_t> buf;
  encode(0, PointLookupRequest{11}, buf);
  encode(1, TopKRequest{serve::TopKMetric::Attacks, 5}, buf);
  encode(2, WindowScanRequest{0, 9}, buf);

  std::span<const std::uint8_t> rest(buf);
  for (std::uint32_t expect_id = 0; expect_id < 3; ++expect_id) {
    Frame frame;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(rest, frame, consumed), DecodeStatus::Ok);
    EXPECT_EQ(frame.request_id, expect_id);
    rest = rest.subspan(consumed);
  }
  EXPECT_TRUE(rest.empty());
}

TEST(NetCodec, EveryTruncatedPrefixAsksForMore) {
  std::vector<std::uint8_t> buf;
  encode(77, PointLookupRequest{123456}, buf);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    Frame frame;
    std::size_t consumed = 0;
    const DecodeStatus status = decode_frame(
        std::span<const std::uint8_t>(buf.data(), len), frame, consumed);
    EXPECT_EQ(status, DecodeStatus::NeedMore) << "prefix length " << len;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(NetCodec, OversizedLengthRejectedBeforeBuffering) {
  // Only the 4-byte length prefix has arrived, announcing a payload past
  // the cap: the decoder must reject NOW, not wait for the bytes.
  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::vector<std::uint8_t> buf;
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<std::uint8_t>(huge >> (8 * i)));
  }
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(buf, frame, consumed), DecodeStatus::Oversized);
}

TEST(NetCodec, PayloadShorterThanHeaderIsTruncated) {
  std::vector<std::uint8_t> buf = {4, 0, 0, 0, kMagic, kProtocolVersion, 1,
                                   0};
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(buf, frame, consumed), DecodeStatus::Truncated);
}

TEST(NetCodec, CorruptedHeaderBytesGetTypedRejections) {
  const std::vector<std::uint8_t> good = one_hello(1);
  ASSERT_GE(good.size(), 4 + kHeaderBytes);

  struct Case {
    std::size_t offset;  // into the payload header
    std::uint8_t value;
    DecodeStatus expect;
  };
  const Case cases[] = {
      {0, 0x00, DecodeStatus::BadMagic},
      {1, 99, DecodeStatus::BadVersion},
      {2, 0x55, DecodeStatus::BadOpcode},
      {3, 1, DecodeStatus::BadReserved},
  };
  for (const Case& c : cases) {
    std::vector<std::uint8_t> bad = good;
    bad[4 + c.offset] = c.value;
    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(decode_frame(bad, frame, consumed), c.expect)
        << "offset " << c.offset;
  }
}

// Build a frame whose payload is (header with `op`) + `body`, bypassing
// the typed encoders so tests can hand the decoders broken bodies.
std::vector<std::uint8_t> raw_frame(Opcode op,
                                    const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> buf;
  const std::uint32_t payload =
      static_cast<std::uint32_t>(kHeaderBytes + body.size());
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<std::uint8_t>(payload >> (8 * i)));
  }
  buf.push_back(kMagic);
  buf.push_back(kProtocolVersion);
  buf.push_back(static_cast<std::uint8_t>(op));
  buf.push_back(0);
  for (int i = 0; i < 4; ++i) buf.push_back(0);  // request_id 0
  buf.insert(buf.end(), body.begin(), body.end());
  return buf;
}

TEST(NetCodec, BodyDecodersRejectWrongLengthsAndValues) {
  // PointLookup body must be exactly 8 bytes.
  for (const std::size_t len : {std::size_t{7}, std::size_t{9}}) {
    const auto buf = raw_frame(Opcode::PointLookup,
                               std::vector<std::uint8_t>(len, 0));
    EXPECT_FALSE(decoded<PointLookupRequest>(decode_ok(buf)).has_value())
        << "body length " << len;
  }
  // TopK: metric must be 0..2 and the pad bytes zero.
  {
    std::vector<std::uint8_t> body = {3, 0, 0, 0, 5, 0, 0, 0};
    EXPECT_FALSE(decoded<TopKRequest>(decode_ok(raw_frame(Opcode::TopK, body)))
                     .has_value())
        << "metric 3 must be rejected";
    body = {0, 1, 0, 0, 5, 0, 0, 0};
    EXPECT_FALSE(decoded<TopKRequest>(decode_ok(raw_frame(Opcode::TopK, body)))
                     .has_value())
        << "non-zero pad must be rejected";
  }
  // PointOk: found must be 0/1.
  {
    std::vector<std::uint8_t> good;
    encode(0, WirePointResult{}, good);
    Frame f = decode_ok(good);
    std::vector<std::uint8_t> body(f.body.begin(), f.body.end());
    body[0] = 2;
    EXPECT_FALSE(
        decoded<WirePointResult>(decode_ok(raw_frame(Opcode::PointOk, body)))
            .has_value());
  }
  // TopKOk: row count must match the byte count.
  {
    std::vector<std::uint8_t> body = {2, 0, 0, 0};  // claims 2 rows, has 1
    body.resize(4 + 16, 0);
    TopKRows rows;
    EXPECT_FALSE(decode(decode_ok(raw_frame(Opcode::TopKOk, body)), rows));
  }
  // Error: message length must match the remaining bytes.
  {
    std::vector<std::uint8_t> body = {1, 0, 5, 0, 'a', 'b'};
    EXPECT_FALSE(decoded<WireError>(decode_ok(raw_frame(Opcode::Error, body)))
                     .has_value());
  }
  // A decoder handed the wrong opcode's frame declines.
  {
    std::vector<std::uint8_t> buf;
    encode(0, TopKRequest{serve::TopKMetric::Attacks, 5}, buf);
    EXPECT_FALSE(decoded<PointLookupRequest>(decode_ok(buf)).has_value());
    EXPECT_FALSE(decoded<WindowScanRequest>(decode_ok(buf)).has_value());
  }
}

TEST(NetCodec, ErrorMessageClampedToFrameSafeLength) {
  const std::string huge(600, 'x');
  std::vector<std::uint8_t> buf;
  encode(0, WireError{ErrorCode::Internal, huge}, buf);
  const auto back = decoded<WireError>(decode_ok(buf));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->message.size(), 512u);

  // Decoding is canonical: a message no encoder can produce is refused.
  std::vector<std::uint8_t> body = {1, 0, 0x01, 0x02};  // 513 bytes follow
  body.resize(body.size() + 513, 'x');
  EXPECT_FALSE(decoded<WireError>(decode_ok(raw_frame(Opcode::Error, body)))
                   .has_value());
}

TEST(NetCodec, FuzzedRandomBuffersNeverCrashOrOverconsume) {
  netsim::Rng rng(0xC0DEC);
  for (int iter = 0; iter < 20000; ++iter) {
    const std::size_t len = rng.uniform_u64(64);
    std::vector<std::uint8_t> buf(len);
    for (std::uint8_t& b : buf) {
      b = static_cast<std::uint8_t>(rng.uniform_u64(256));
    }
    Frame frame;
    std::size_t consumed = 0;
    const DecodeStatus status = decode_frame(buf, frame, consumed);
    if (status == DecodeStatus::Ok) {
      ASSERT_LE(consumed, buf.size());
      // Whatever parsed, the strict body decoders must not read past the
      // span they were given (ASan/val would flag it); they may accept or
      // reject, but must return, and what they accept is canonical.
      expect_canonical(frame, std::span(buf.data(), consumed));
    } else {
      EXPECT_EQ(consumed, 0u);
    }
  }
}

TEST(NetCodec, FuzzedBitFlipsOnValidFramesNeverCrash) {
  netsim::Rng rng(0xBADC0DE);
  std::vector<std::uint8_t> pristine;
  encode(123, WirePointResult{}, pristine);
  const std::vector<serve::TopEntry> rows = {{1, 2.0}, {3, 4.0}};
  encode(124, TopKRows{rows}, pristine);
  encode(125, WireError{ErrorCode::Malformed, "boom"}, pristine);

  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<std::uint8_t> buf = pristine;
    // Flip 1..4 random bytes, sometimes truncate.
    const int flips = 1 + static_cast<int>(rng.uniform_u64(4));
    for (int i = 0; i < flips; ++i) {
      buf[rng.uniform_u64(buf.size())] ^=
          static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    }
    if (rng.uniform_u64(4) == 0) {
      buf.resize(rng.uniform_u64(buf.size() + 1));
    }
    std::span<const std::uint8_t> rest(buf);
    // Walk frames like the server does until the stream breaks or drains.
    for (;;) {
      Frame frame;
      std::size_t consumed = 0;
      const DecodeStatus status = decode_frame(rest, frame, consumed);
      if (status != DecodeStatus::Ok) break;
      expect_canonical(frame, rest.first(consumed));
      rest = rest.subspan(consumed);
    }
  }
}

}  // namespace
}  // namespace ddos::net
