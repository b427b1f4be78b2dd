#include "telescope/darknet.h"

#include <stdexcept>

namespace ddos::telescope {

Darknet::Darknet(std::vector<netsim::Prefix> prefixes)
    : prefixes_(std::move(prefixes)) {
  if (prefixes_.empty())
    throw std::invalid_argument("Darknet: no prefixes");
  for (std::size_t i = 0; i < prefixes_.size(); ++i) {
    for (std::size_t j = i + 1; j < prefixes_.size(); ++j) {
      if (prefixes_[i].contains(prefixes_[j]) ||
          prefixes_[j].contains(prefixes_[i]))
        throw std::invalid_argument("Darknet: overlapping prefixes");
    }
  }
}

Darknet Darknet::ucsd_like() {
  // Placeholder blocks in experimental space, sized like the UCSD-NT.
  return Darknet({
      netsim::Prefix(netsim::IPv4Addr(44, 0, 0, 0), 9),
      netsim::Prefix(netsim::IPv4Addr(45, 128, 0, 0), 10),
  });
}

std::uint64_t Darknet::address_count() const {
  std::uint64_t total = 0;
  for (const auto& p : prefixes_) total += p.size();
  return total;
}

double Darknet::ipv4_fraction() const {
  return static_cast<double>(address_count()) / 4294967296.0;
}

std::uint32_t Darknet::slash16_count() const {
  std::uint64_t total = 0;
  for (const auto& p : prefixes_) {
    if (p.length() <= 16) {
      total += std::uint64_t{1} << (16 - p.length());
    } else {
      total += 1;  // A prefix longer than /16 still spans one /16.
    }
  }
  return static_cast<std::uint32_t>(total);
}

}  // namespace ddos::telescope
