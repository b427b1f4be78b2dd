// AttackSchedule — indexed collection of attacks, answering the two load
// questions the DNS model asks for every (address, window):
//   (1) how much flood is arriving at this exact IP, and
//   (2) how congested is the shared /24 upstream link
//       (attacks on *any* address in the /24 consume it — the mil.ru
//       shared-bottleneck effect, §5.2.3).
#pragma once

#include <cstdint>
#include <vector>

#include "attack/attack.h"
#include "netsim/ipv4.h"
#include "netsim/simtime.h"
#include "util/flat_map.h"

namespace ddos::attack {

class AttackSchedule {
 public:
  /// Adds an attack; returns its assigned id if the spec's id was 0.
  std::uint64_t add(AttackSpec spec);

  std::size_t size() const { return attacks_.size(); }
  const std::vector<AttackSpec>& attacks() const { return attacks_; }

  /// Total flood pps arriving at `ip` during `window` (all vectors,
  /// including telescope-invisible ones — the victim feels them all).
  double attack_pps_at(netsim::IPv4Addr ip, netsim::WindowIndex window) const;

  /// Total flood pps entering the /24 containing `ip` during `window`.
  double slash24_pps_at(netsim::IPv4Addr ip, netsim::WindowIndex window) const;

  /// Shared-link utilisation of the /24 containing `ip`:
  /// slash24 flood / link capacity. Link capacity defaults to "effectively
  /// infinite" until configured for a prefix.
  void set_link_capacity(netsim::IPv4Addr any_ip_in_24, double pps);
  double link_utilisation_at(netsim::IPv4Addr ip,
                             netsim::WindowIndex window) const;

  /// Truncate attack `id` so it ends at `at` (used by mitigations that
  /// silence the flood's observable effects mid-attack). Returns false if
  /// the id is unknown or `at` is not strictly inside the attack.
  bool truncate_attack(std::uint64_t id, netsim::SimTime at);

 private:
  // Flat open-addressing indexes: the load model probes by_ip_/by_slash24_
  // once per (server, window) query, the hottest lookups after the store
  // fold — see util/flat_map.h.
  std::vector<AttackSpec> attacks_;
  std::uint64_t next_id_ = 1;
  util::FlatMap<netsim::IPv4Addr, std::vector<std::size_t>> by_ip_;
  util::FlatMap<netsim::IPv4Addr, std::vector<std::size_t>> by_slash24_;
  util::FlatMap<netsim::IPv4Addr, double> link_capacity_;  // key: /24 net
};

}  // namespace ddos::attack
