#include "topology/prefix_table.h"

namespace ddos::topology {

struct PrefixTable::Node {
  std::unique_ptr<Node> child[2];
  bool has_entry = false;
  Asn origin = 0;
};

PrefixTable::PrefixTable() : root_(std::make_unique<Node>()) {}
PrefixTable::~PrefixTable() = default;
PrefixTable::PrefixTable(PrefixTable&&) noexcept = default;
PrefixTable& PrefixTable::operator=(PrefixTable&&) noexcept = default;

namespace {
// Bit i (0 = most significant) of a host-order address.
inline int bit_at(std::uint32_t v, int i) { return (v >> (31 - i)) & 1; }
}  // namespace

void PrefixTable::announce(const netsim::Prefix& prefix, Asn origin) {
  Node* node = root_.get();
  const std::uint32_t net = prefix.network().value();
  for (int i = 0; i < prefix.length(); ++i) {
    const int b = bit_at(net, i);
    if (!node->child[b]) node->child[b] = std::make_unique<Node>();
    node = node->child[b].get();
  }
  if (!node->has_entry) ++size_;
  node->has_entry = true;
  node->origin = origin;
}

std::optional<RouteEntry> PrefixTable::lookup(netsim::IPv4Addr addr) const {
  const std::uint32_t v = addr.value();
  const Node* node = root_.get();
  std::optional<RouteEntry> best;
  int depth = 0;
  if (node->has_entry)
    best = RouteEntry{netsim::Prefix(netsim::IPv4Addr(0), 0), node->origin};
  while (depth < 32) {
    const int b = bit_at(v, depth);
    if (!node->child[b]) break;
    node = node->child[b].get();
    ++depth;
    if (node->has_entry) {
      best = RouteEntry{netsim::Prefix(addr, depth), node->origin};
    }
  }
  return best;
}

Asn PrefixTable::origin_of(netsim::IPv4Addr addr) const {
  const auto entry = lookup(addr);
  return entry ? entry->origin : 0;
}

}  // namespace ddos::topology
