#include "net/codec.h"

namespace ddos::net {

namespace {

/// Calls f(Body{}) for the request or response body whose opcode is `op`;
/// false when no body has it.
template <class F>
bool visit_message(Opcode op, F&& f) {
  return Requests::visit(op, f) < Requests::kSize ||
         Responses::visit(op, f) < Responses::kSize;
}

}  // namespace

namespace detail {

std::size_t begin_frame(std::vector<std::uint8_t>& out, Opcode op,
                        std::uint32_t request_id) {
  const std::size_t len_at = out.size();
  const FieldWriter put{out};
  put(std::uint32_t{0});  // patched by end_frame
  put(kMagic);
  put(kProtocolVersion);
  put(op);
  put(std::uint8_t{0});  // reserved
  put(request_id);
  return len_at;
}

void end_frame(std::vector<std::uint8_t>& out, std::size_t len_at) {
  const std::size_t payload = out.size() - len_at - 4;
  for (int i = 0; i < 4; ++i) {
    out[len_at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload >> (8 * i));
  }
}

}  // namespace detail

const char* to_string(Opcode op) {
  const char* name = "?";
  visit_message(op, [&name](auto body) { name = decltype(body)::kName; });
  return name;
}

const char* to_string(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::Ok: return "ok";
    case DecodeStatus::NeedMore: return "need_more";
    case DecodeStatus::BadMagic: return "bad_magic";
    case DecodeStatus::BadVersion: return "bad_version";
    case DecodeStatus::BadOpcode: return "bad_opcode";
    case DecodeStatus::BadReserved: return "bad_reserved";
    case DecodeStatus::Oversized: return "oversized";
    case DecodeStatus::Truncated: return "truncated";
    case DecodeStatus::TrailingBytes: return "trailing_bytes";
  }
  return "?";
}

DecodeStatus decode_frame(std::span<const std::uint8_t> buf, Frame& frame,
                          std::size_t& consumed) {
  consumed = 0;
  if (buf.size() < 4) return DecodeStatus::NeedMore;
  std::uint32_t payload_len = 0;
  detail::FieldReader{buf}(payload_len);
  // The length is validated BEFORE waiting for the bytes: an oversized
  // announcement is rejected immediately, so a hostile peer cannot make
  // the server buffer toward a 4 GiB frame that will never be accepted.
  if (payload_len > kMaxFrameBytes) return DecodeStatus::Oversized;
  if (payload_len < kHeaderBytes) {
    // A frame too short to hold the header can never become valid.
    return DecodeStatus::Truncated;
  }
  if (buf.size() - 4 < payload_len) return DecodeStatus::NeedMore;

  const std::span<const std::uint8_t> payload = buf.subspan(4, payload_len);
  if (payload[0] != kMagic) return DecodeStatus::BadMagic;
  if (payload[1] != kProtocolVersion) return DecodeStatus::BadVersion;
  const auto opcode = static_cast<Opcode>(payload[2]);
  if (!visit_message(opcode, [](auto) {})) return DecodeStatus::BadOpcode;
  if (payload[3] != 0) return DecodeStatus::BadReserved;

  frame.opcode = opcode;
  detail::FieldReader{payload.subspan(4)}(frame.request_id);
  frame.body = payload.subspan(kHeaderBytes);
  consumed = 4 + static_cast<std::size_t>(payload_len);
  return DecodeStatus::Ok;
}

}  // namespace ddos::net
