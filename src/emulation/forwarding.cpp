// Each hop reports the address the probe's ICMP reply comes from: the
// *incoming* interface of a transit router, as the real Linux traceroute
// the paper runs would see.
#include "emulation/forwarding.hpp"

namespace autonet::emulation {

using addressing::Ipv4Addr;

const FibEntry* lookup(const std::vector<FibEntry>& fib, Ipv4Addr dst) {
  const FibEntry* best = nullptr;
  for (const auto& entry : fib) {
    if (!entry.prefix.contains(dst)) continue;
    if (best == nullptr) {
      best = &entry;
      continue;
    }
    if (entry.prefix.length() != best->prefix.length()) {
      if (entry.prefix.length() > best->prefix.length()) best = &entry;
      continue;
    }
    const int ad_new = admin_distance(entry.source);
    const int ad_best = admin_distance(best->source);
    if (ad_new != ad_best) {
      if (ad_new < ad_best) best = &entry;
      continue;
    }
    if (entry.metric < best->metric) best = &entry;
  }
  return best;
}

std::optional<Ipv4Addr> probe_address(const RouterConfig& config) {
  if (config.loopback) return config.loopback->address;
  if (!config.interfaces.empty()) return config.interfaces[0].address.address;
  return std::nullopt;
}

Forwarding forward(const ForwardingPlane& plane, std::size_t src, Ipv4Addr dst,
                   int max_ttl) {
  auto down = [&plane](std::size_t r) { return plane.is_down && plane.is_down(r); };
  Forwarding out;
  std::size_t current = src;
  out.dropped_at = current;
  if (down(current)) return out;
  if (plane.owns_address(current, dst)) {
    out.hops.push_back({dst, current});
    out.outcome = ForwardOutcome::kReached;
    return out;
  }
  for (int ttl = 0; ttl < max_ttl; ++ttl) {
    out.dropped_at = current;
    const FibEntry* route = lookup(plane.fib(current), dst);
    if (route == nullptr) return out;  // !N — network unreachable
    // On-link routes deliver to whichever router owns dst.
    const Ipv4Addr hop_target = route->next_hop ? *route->next_hop : dst;
    auto owner = plane.by_address->find(hop_target.value());
    if (owner == plane.by_address->end()) return out;
    const std::size_t next = owner->second;
    if (down(next)) return out;  // dead node: probe goes unanswered
    if (plane.owns_address(next, dst)) {
      out.hops.push_back({dst, next});
      out.outcome = ForwardOutcome::kReached;
      return out;
    }
    out.hops.push_back({hop_target, next});
    current = next;
  }
  out.outcome = ForwardOutcome::kTtlExceeded;
  return out;
}

}  // namespace autonet::emulation
