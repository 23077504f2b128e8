// traceroute/ping over the converged FIBs: adapters from router names to
// the shared index-based forwarding walk (emulation/forwarding.hpp).
#include <stdexcept>

#include "emulation/network.hpp"

namespace autonet::emulation {

using addressing::Ipv4Addr;

Forwarding EmulatedNetwork::walk(std::string_view src_router, Ipv4Addr dst,
                                 int max_ttl) const {
  auto src = by_name_.find(src_router);
  if (src == by_name_.end()) {
    throw std::invalid_argument("traceroute: unknown router " +
                                std::string(src_router));
  }
  if (!started_) {
    throw std::logic_error("traceroute: network not started");
  }
  const ForwardingPlane plane{
      [this](std::size_t r) -> const std::vector<FibEntry>& {
        return routers_[r].fib();
      },
      &by_address_,
      [this](std::size_t r, Ipv4Addr addr) { return routers_[r].owns_address(addr); },
      // A failed router neither sources probes nor answers them.
      [this](std::size_t r) { return router_failed(r); }};
  return forward(plane, src->second, dst, max_ttl);
}

TracerouteResult EmulatedNetwork::traceroute(std::string_view src_router,
                                             Ipv4Addr dst, int max_ttl) const {
  const Forwarding walked = walk(src_router, dst, max_ttl);
  TracerouteResult result;
  result.reached = walked.outcome == ForwardOutcome::kReached;
  double rtt = 0.0;
  for (const ForwardHop& hop : walked.hops) {
    rtt += 0.1;
    result.hops.push_back({hop.address, routers_[hop.router].name(), rtt});
  }
  return result;
}

TracerouteResult EmulatedNetwork::traceroute(std::string_view src_router,
                                             std::string_view dst_router,
                                             int max_ttl) const {
  const VirtualRouter* dst = router(dst_router);
  if (dst == nullptr) {
    throw std::invalid_argument("traceroute: unknown router " +
                                std::string(dst_router));
  }
  const auto target = probe_address(dst->config());
  if (!target) {
    throw std::invalid_argument("traceroute: " + std::string(dst_router) +
                                " has no addresses");
  }
  return traceroute(src_router, *target, max_ttl);
}

bool EmulatedNetwork::ping(std::string_view src_router, Ipv4Addr dst) const {
  return walk(src_router, dst).outcome == ForwardOutcome::kReached;
}

}  // namespace autonet::emulation
