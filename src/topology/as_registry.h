// AS and organisation registry — the simulated counterpart of CAIDA's
// as2org dataset (§3.3). Maps AS numbers to organisation names and country
// codes; used to attribute attacks to companies (Tables 4 and 6).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

namespace ddos::topology {

using Asn = std::uint32_t;

struct AsInfo {
  Asn asn = 0;
  std::string org;           // Organisation name, e.g. "Google".
  std::string country_code;  // ISO-3166 alpha-2, e.g. "US".
};

/// Registry of known ASes. Unknown lookups return "" rather than
/// fabricating entries — callers decide how to handle unattributed space.
class AsRegistry {
 public:
  /// Registers or updates an AS. Returns false if the ASN already existed
  /// with a different organisation (update still applied).
  bool add(const AsInfo& info);

  std::string org_of(Asn asn) const;           // "" when unknown
  std::string country_of(Asn asn) const;       // "" when unknown

  std::size_t size() const { return by_asn_.size(); }

 private:
  std::unordered_map<Asn, AsInfo> by_asn_;
};

}  // namespace ddos::topology
