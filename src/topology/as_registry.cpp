#include "topology/as_registry.h"

namespace ddos::topology {

bool AsRegistry::add(const AsInfo& info) {
  const auto it = by_asn_.find(info.asn);
  const bool conflict = it != by_asn_.end() && it->second.org != info.org;
  by_asn_[info.asn] = info;
  return !conflict;
}

std::string AsRegistry::org_of(Asn asn) const {
  const auto it = by_asn_.find(asn);
  return it == by_asn_.end() ? std::string{} : it->second.org;
}

std::string AsRegistry::country_of(Asn asn) const {
  const auto it = by_asn_.find(asn);
  return it == by_asn_.end() ? std::string{} : it->second.country_code;
}

}  // namespace ddos::topology
