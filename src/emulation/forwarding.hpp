// The data plane downstream of the FIBs: one longest-prefix match and one
// hop-by-hop walk over router indices, shared by the emulation
// (traceroute/ping) and the predictor (analysis::trace). Their control
// planes, which fill the FIBs, stay independent: fib-crosscheck compares
// those.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "emulation/router.hpp"

namespace autonet::emulation {

/// Longest-prefix match (ties: lowest admin distance, then lowest
/// metric, then the earlier entry); nullptr when no route covers `dst`.
[[nodiscard]] const FibEntry* lookup(const std::vector<FibEntry>& fib,
                                     addressing::Ipv4Addr dst);

/// The address a router is probed at: its loopback, else its first
/// interface; nullopt when it has neither.
[[nodiscard]] std::optional<addressing::Ipv4Addr> probe_address(
    const RouterConfig& config);

struct ForwardingPlane {
  std::function<const std::vector<FibEntry>&(std::size_t router)> fib;
  /// Address -> owning router: resolves next hops and on-link delivery.
  const std::map<std::uint32_t, std::size_t>* by_address = nullptr;
  std::function<bool(std::size_t router, addressing::Ipv4Addr)> owns_address;
  /// A down router neither forwards nor answers. Empty: none is down.
  std::function<bool(std::size_t router)> is_down;
};

struct ForwardHop {
  /// The reply's source: the destination on the last hop of a reached
  /// walk, else the address the packet arrived on.
  addressing::Ipv4Addr address;
  std::size_t router = 0;
};

enum class ForwardOutcome { kReached, kDropped, kTtlExceeded };

struct Forwarding {
  ForwardOutcome outcome = ForwardOutcome::kDropped;
  /// The router that had no route, no next-hop owner or a down next hop
  /// (or was down itself, at the source); valid for kDropped.
  std::size_t dropped_at = 0;
  std::vector<ForwardHop> hops;
};

/// Forwards from router `src` towards `dst` for at most `max_ttl` hops.
/// kTtlExceeded is a forwarding cycle or a loop-free path longer than
/// `max_ttl`.
[[nodiscard]] Forwarding forward(const ForwardingPlane& plane, std::size_t src,
                                 addressing::Ipv4Addr dst, int max_ttl);

}  // namespace autonet::emulation
