// The shared data plane (emulation/forwarding.hpp): the one longest-prefix
// match and the one hop-by-hop walk that both the emulation's traceroute
// and the predictor's analysis::trace forward through, driven here over a
// hand-built 4-router FIB set.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "emulation/forwarding.hpp"

namespace {

using namespace autonet;
using addressing::Ipv4Addr;
using addressing::Ipv4Prefix;
using emulation::FibEntry;
using emulation::ForwardOutcome;
using emulation::RouteSource;

Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }

FibEntry route(const char* prefix, std::optional<Ipv4Addr> next_hop,
               RouteSource source = RouteSource::kOspf, double metric = 0) {
  return FibEntry{*Ipv4Prefix::parse(prefix), source, "eth0", next_hop, metric};
}

// --- lookup -------------------------------------------------------------

struct LookupCase {
  const char* name;
  std::vector<FibEntry> fib;
  const char* dst;
  int expect;  // index into fib; -1 = no route
};

TEST(ForwardingLookup, LongestPrefixThenAdminDistanceThenMetric) {
  const std::vector<LookupCase> cases = {
      {"longer prefix beats lower admin distance",
       {route("10.0.0.0/8", std::nullopt, RouteSource::kConnected),
        route("10.0.0.4/32", ip("10.1.0.2"), RouteSource::kIbgp)},
       "10.0.0.4", 1},
      {"equal length: lower admin distance wins",
       {route("10.9.0.0/16", ip("10.1.0.2"), RouteSource::kOspf, 1),
        route("10.9.0.0/16", ip("10.1.0.2"), RouteSource::kEbgp, 5)},
       "10.9.1.1", 1},
      {"equal length and distance: lower metric wins",
       {route("10.9.0.0/16", ip("10.1.0.2"), RouteSource::kOspf, 20),
        route("10.9.0.0/16", ip("10.1.0.2"), RouteSource::kOspf, 10)},
       "10.9.1.1", 1},
      {"full tie: the earlier entry stays",
       {route("10.9.0.0/16", ip("10.1.0.2"), RouteSource::kOspf, 10),
        route("10.9.0.0/16", ip("10.1.0.6"), RouteSource::kOspf, 10)},
       "10.9.1.1", 0},
      {"no covering route", {route("10.9.0.0/16", ip("10.1.0.2"))}, "10.8.0.1", -1},
  };
  for (const LookupCase& c : cases) {
    const FibEntry* got = emulation::lookup(c.fib, ip(c.dst));
    const FibEntry* want = c.expect < 0 ? nullptr : &c.fib[c.expect];
    EXPECT_EQ(got, want) << c.name;
  }
}

TEST(ForwardingLookup, ProbeAddressIsLoopbackElseFirstInterface) {
  emulation::RouterConfig config;
  EXPECT_EQ(emulation::probe_address(config), std::nullopt);
  emulation::InterfaceConfig eth0;
  eth0.address = {ip("10.1.0.1"), *Ipv4Prefix::parse("10.1.0.0/30")};
  config.interfaces.push_back(eth0);
  EXPECT_EQ(emulation::probe_address(config), ip("10.1.0.1"));
  config.loopback = {ip("10.0.0.1"), *Ipv4Prefix::parse("10.0.0.1/32")};
  EXPECT_EQ(emulation::probe_address(config), ip("10.0.0.1"));
}

// --- forward ------------------------------------------------------------

// A chain a(0) - b(1) - c(2) - d(3): loopbacks 10.0.0.{1..4}, links
// 10.1.{0,1,2}.0/30 with the lower router on .1.
const std::vector<std::vector<const char*>> kOwned = {
    {"10.0.0.1", "10.1.0.1"},
    {"10.0.0.2", "10.1.0.2", "10.1.1.1"},
    {"10.0.0.3", "10.1.1.2", "10.1.2.1"},
    {"10.0.0.4", "10.1.2.2"},
};

struct Hop {
  const char* address;
  std::size_t router;
};

struct WalkCase {
  const char* name;
  std::vector<std::vector<FibEntry>> fibs;  // per router index
  std::size_t src;
  const char* dst;
  int max_ttl;
  ForwardOutcome outcome;
  std::size_t dropped_at;  // checked for kDropped only
  std::vector<Hop> hops;
  std::set<std::size_t> down = {};
};

emulation::Forwarding walk(const WalkCase& c) {
  std::map<std::uint32_t, std::size_t> by_address;
  for (std::size_t r = 0; r < kOwned.size(); ++r) {
    for (const char* addr : kOwned[r]) by_address[ip(addr).value()] = r;
  }
  const emulation::ForwardingPlane plane{
      [&c](std::size_t r) -> const std::vector<FibEntry>& { return c.fibs[r]; },
      &by_address,
      [](std::size_t r, Ipv4Addr addr) {
        for (const char* owned : kOwned[r]) {
          if (ip(owned) == addr) return true;
        }
        return false;
      },
      [&c](std::size_t r) { return c.down.contains(r); }};
  return emulation::forward(plane, c.src, ip(c.dst), c.max_ttl);
}

TEST(ForwardingWalk, HandBuiltFibs) {
  // Towards d's loopback along the chain.
  const std::vector<std::vector<FibEntry>> chain = {
      {route("10.0.0.4/32", ip("10.1.0.2"))},
      {route("10.0.0.4/32", ip("10.1.1.2"))},
      {route("10.0.0.4/32", ip("10.1.2.2"))},
      {}};
  // a and b point the destination at each other.
  const std::vector<std::vector<FibEntry>> two_cycle = {
      {route("10.0.0.4/32", ip("10.1.0.2"))},
      {route("10.0.0.4/32", ip("10.1.0.1"))},
      {},
      {}};
  const std::vector<WalkCase> cases = {
      {"source owns the destination", {{}, {}, {}, {}}, 0, "10.1.0.1", 30,
       ForwardOutcome::kReached, 0, {{"10.1.0.1", 0}}},
      {"transit hops answer from the incoming interface", chain, 0, "10.0.0.4", 30,
       ForwardOutcome::kReached, 0,
       {{"10.1.0.2", 1}, {"10.1.1.2", 2}, {"10.0.0.4", 3}}},
      {"on-link delivery to the owner of the destination",
       {{route("10.1.0.0/30", std::nullopt, RouteSource::kConnected)}, {}, {}, {}},
       0, "10.1.0.2", 30, ForwardOutcome::kReached, 0, {{"10.1.0.2", 1}}},
      {"on-link address nobody owns drops",
       {{route("10.1.0.0/30", std::nullopt, RouteSource::kConnected)}, {}, {}, {}},
       0, "10.1.0.3", 30, ForwardOutcome::kDropped, 0, {}},
      {"no route at the source drops there", {{}, {}, {}, {}}, 0, "10.0.0.4", 30,
       ForwardOutcome::kDropped, 0, {}},
      {"no route at a transit router drops there",
       {chain[0], {}, {}, {}}, 0, "10.0.0.4", 30, ForwardOutcome::kDropped, 1,
       {{"10.1.0.2", 1}}},
      {"next hop owned by no router drops",
       {{route("10.0.0.4/32", ip("10.1.0.3"))}, {}, {}, {}}, 0, "10.0.0.4", 30,
       ForwardOutcome::kDropped, 0, {}},
      {"down next hop: the probe goes unanswered", chain, 0, "10.0.0.4", 30,
       ForwardOutcome::kDropped, 1, {{"10.1.0.2", 1}}, {2}},
      {"down source sends nothing", chain, 0, "10.0.0.4", 30,
       ForwardOutcome::kDropped, 0, {}, {0}},
      {"2-cycle exhausts the TTL", two_cycle, 0, "10.0.0.4", 4,
       ForwardOutcome::kTtlExceeded, 0,
       {{"10.1.0.2", 1}, {"10.1.0.1", 0}, {"10.1.0.2", 1}, {"10.1.0.1", 0}}},
      {"loop-free path longer than the TTL exhausts it too", chain, 0, "10.0.0.4", 2,
       ForwardOutcome::kTtlExceeded, 0, {{"10.1.0.2", 1}, {"10.1.1.2", 2}}},
  };
  for (const WalkCase& c : cases) {
    const emulation::Forwarding got = walk(c);
    EXPECT_EQ(got.outcome, c.outcome) << c.name;
    if (c.outcome == ForwardOutcome::kDropped) {
      EXPECT_EQ(got.dropped_at, c.dropped_at) << c.name;
    }
    ASSERT_EQ(got.hops.size(), c.hops.size()) << c.name;
    for (std::size_t i = 0; i < c.hops.size(); ++i) {
      EXPECT_EQ(got.hops[i].address, ip(c.hops[i].address)) << c.name << " hop " << i;
      EXPECT_EQ(got.hops[i].router, c.hops[i].router) << c.name << " hop " << i;
    }
  }
}

}  // namespace
