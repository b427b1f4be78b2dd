#include "attack/schedule.h"

#include <algorithm>

namespace ddos::attack {

std::uint64_t AttackSchedule::add(AttackSpec spec) {
  if (spec.id == 0) spec.id = next_id_++;
  next_id_ = std::max(next_id_, spec.id + 1);
  const std::size_t idx = attacks_.size();
  by_ip_[spec.target].push_back(idx);
  by_slash24_[spec.target.slash24()].push_back(idx);
  attacks_.push_back(spec);
  return spec.id;
}

double AttackSchedule::attack_pps_at(netsim::IPv4Addr ip,
                                     netsim::WindowIndex window) const {
  const std::vector<std::size_t>* idxs = by_ip_.find(ip);
  if (!idxs) return 0.0;
  double pps = 0.0;
  for (const std::size_t idx : *idxs)
    pps += attacks_[idx].victim_pps_in_window(window);
  return pps;
}

double AttackSchedule::slash24_pps_at(netsim::IPv4Addr ip,
                                      netsim::WindowIndex window) const {
  const std::vector<std::size_t>* idxs = by_slash24_.find(ip.slash24());
  if (!idxs) return 0.0;
  double pps = 0.0;
  for (const std::size_t idx : *idxs)
    pps += attacks_[idx].victim_pps_in_window(window);
  return pps;
}

void AttackSchedule::set_link_capacity(netsim::IPv4Addr any_ip_in_24,
                                       double pps) {
  link_capacity_.insert_or_assign(any_ip_in_24.slash24(), pps);
}

double AttackSchedule::link_utilisation_at(netsim::IPv4Addr ip,
                                           netsim::WindowIndex window) const {
  const double* cap = link_capacity_.find(ip.slash24());
  if (!cap || *cap <= 0.0) return 0.0;
  return slash24_pps_at(ip, window) / *cap;
}

bool AttackSchedule::truncate_attack(std::uint64_t id, netsim::SimTime at) {
  for (auto& spec : attacks_) {
    if (spec.id != id) continue;
    if (at <= spec.start || at >= spec.end()) return false;
    spec.duration_s = at - spec.start;
    return true;
  }
  return false;
}

}  // namespace ddos::attack
