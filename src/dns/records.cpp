#include "dns/records.h"

#include <algorithm>

namespace ddos::dns {

NSSetKey NSSetKey::from_ips(std::vector<netsim::IPv4Addr> in) {
  std::sort(in.begin(), in.end());
  in.erase(std::unique(in.begin(), in.end()), in.end());
  return NSSetKey{std::move(in)};
}

}  // namespace ddos::dns
