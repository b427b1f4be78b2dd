// The network telescope: globally routed but unused address space whose
// inbound traffic is pure Internet Background Radiation. The UCSD-NT
// announces a /9 and a /10 (§3.1) — approximately 1/341 of IPv4 — which is
// the sampling fraction every inference in the paper extrapolates through
// (footnote 2: pps = ppm x 341 / 60).
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/ipv4.h"

namespace ddos::telescope {

class Darknet {
 public:
  /// Custom telescope from explicit prefixes (must be non-overlapping).
  explicit Darknet(std::vector<netsim::Prefix> prefixes);

  /// The UCSD-NT layout: a /9 plus a /10.
  static Darknet ucsd_like();

  const std::vector<netsim::Prefix>& prefixes() const { return prefixes_; }

  /// Addresses covered.
  std::uint64_t address_count() const;

  /// Fraction of the 2^32 IPv4 space covered (~1/341 for UCSD-NT).
  double ipv4_fraction() const;

  /// Inverse of the fraction — the extrapolation multiplier (~341).
  double extrapolation_factor() const { return 1.0 / ipv4_fraction(); }

  /// Number of /16-equivalent subnets covered (the RSDoS "spread" unit).
  std::uint32_t slash16_count() const;

 private:
  std::vector<netsim::Prefix> prefixes_;
};

}  // namespace ddos::telescope
