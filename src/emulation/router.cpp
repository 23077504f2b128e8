#include "emulation/router.hpp"

#include <algorithm>

#include "emulation/forwarding.hpp"

namespace autonet::emulation {

using addressing::Ipv4Addr;
using addressing::Ipv4Prefix;

std::string BgpRoute::fingerprint() const {
  std::string out = prefix.to_string() + "|";
  for (auto as : as_path) out += std::to_string(as) + ",";
  out += "|" + next_hop.to_string() + "|" + from_peer.to_string() + "|" +
         std::to_string(local_pref);
  return out;
}

Ipv4Addr VirtualRouter::router_id() const {
  if (config_.router_id) return *config_.router_id;
  if (config_.loopback) return config_.loopback->address;
  Ipv4Addr best;
  for (const auto& iface : config_.interfaces) {
    best = std::max(best, iface.address.address);
  }
  return best;
}

bool VirtualRouter::ospf_covers(const Ipv4Prefix& subnet, std::int64_t* area) const {
  if (!config_.ospf_enabled) return false;
  for (const auto& net : config_.ospf_networks) {
    if (net.network.contains(subnet)) {
      if (area != nullptr) *area = net.area;
      return true;
    }
  }
  return false;
}

bool VirtualRouter::owns_address(Ipv4Addr addr) const {
  if (config_.loopback && config_.loopback->address == addr) return true;
  for (const auto& iface : config_.interfaces) {
    if (iface.address.address == addr) return true;
  }
  return false;
}

const FibEntry* VirtualRouter::lookup(Ipv4Addr dst) const {
  return emulation::lookup(fib_, dst);
}

}  // namespace autonet::emulation
