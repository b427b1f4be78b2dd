#include "dns/wire.h"

namespace ddos::dns {

bool encode_name(const DomainName& name, std::vector<std::uint8_t>& out) {
  if (name.empty()) return false;
  std::vector<std::uint8_t> buf;
  for (const auto label : name.labels()) {
    if (label.empty() || label.size() > 63) return false;
    buf.push_back(static_cast<std::uint8_t>(label.size()));
    buf.insert(buf.end(), label.begin(), label.end());
  }
  buf.push_back(0);  // root
  if (buf.size() > 255) return false;
  out.insert(out.end(), buf.begin(), buf.end());
  return true;
}

std::optional<DomainName> decode_name(std::span<const std::uint8_t> message,
                                      std::size_t offset, std::size_t& next) {
  std::string name;
  std::size_t pos = offset;
  bool jumped = false;
  int jumps = 0;
  next = offset;

  while (true) {
    if (pos >= message.size()) return std::nullopt;
    const std::uint8_t len = message[pos];
    if ((len & 0xC0) == 0xC0) {
      // Compression pointer: two bytes, must point strictly backwards.
      if (pos + 1 >= message.size()) return std::nullopt;
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3F) << 8) | message[pos + 1];
      if (target >= pos) return std::nullopt;  // forward/self pointer
      if (++jumps > 32) return std::nullopt;   // loop guard
      if (!jumped) next = pos + 2;
      jumped = true;
      pos = target;
      continue;
    }
    if (len & 0xC0) return std::nullopt;  // reserved label types
    if (len == 0) {
      if (!jumped) next = pos + 1;
      break;
    }
    if (pos + 1 + len > message.size()) return std::nullopt;
    if (!name.empty()) name.push_back('.');
    name.append(reinterpret_cast<const char*>(&message[pos + 1]), len);
    if (name.size() > 253) return std::nullopt;
    pos += 1 + len;
  }
  if (name.empty()) return std::nullopt;  // the bare root is not a domain
  return DomainName::parse(name);
}

}  // namespace ddos::dns
