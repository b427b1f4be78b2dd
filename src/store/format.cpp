#include "store/format.h"

namespace ddos::store {

const char* to_string(ColumnType t) {
  switch (t) {
    case ColumnType::U64: return "u64";
    case ColumnType::F64: return "f64";
    case ColumnType::U8: return "u8";
    case ColumnType::Str: return "str";
  }
  return "?";
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80u) {
    out.push_back(static_cast<char>((v & 0x7Fu) | 0x80u));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

bool get_varint(std::string_view buf, std::size_t& pos, std::uint64_t& v) {
  v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= buf.size()) return false;
    const auto byte = static_cast<std::uint8_t>(buf[pos++]);
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      // Reject non-canonical 10-byte varints whose top bits overflow.
      if (shift == 63 && byte > 1) return false;
      return true;
    }
  }
  return false;
}

void put_fixed32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

bool get_fixed32(std::string_view buf, std::size_t& pos, std::uint32_t& v) {
  if (pos + 4 > buf.size()) return false;
  v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf[pos + i]))
         << (8 * i);
  pos += 4;
  return true;
}

void put_fixed64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

bool get_fixed64(std::string_view buf, std::size_t& pos, std::uint64_t& v) {
  if (pos + 8 > buf.size()) return false;
  v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(buf[pos + i]))
         << (8 * i);
  pos += 8;
  return true;
}

void put_string(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out.append(s);
}

bool get_string(std::string_view buf, std::size_t& pos, std::string& s) {
  std::uint64_t len = 0;
  if (!get_varint(buf, pos, len)) return false;
  // pos <= size here; `pos + len` could wrap for a hostile length.
  if (len > buf.size() - pos) return false;
  s.assign(buf.substr(pos, len));
  pos += len;
  return true;
}

}  // namespace ddos::store
