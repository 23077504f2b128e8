// Differential oracle for the lint gate's per-device index. The naive
// bodies of bgp-asym-session, ibgp-nexthop-unresolved and
// ebgp-peer-not-adjacent, which rescan every neighbor statement or every
// interface of the network per statement and re-parse each subnet, are
// kept here as reference rules, over per-device maps rebuilt from the
// NIDB rather than the index's device views. The indexed rules must emit exactly the
// same findings in the same order on the builtin topologies, on
// generated fuzz scenarios, and on the NREN model after seeded NIDB
// mutations that make them fire.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "addressing/ipv4.hpp"
#include "compiler/platform_compiler.hpp"
#include "core/workflow.hpp"
#include "fuzz/rng.hpp"
#include "fuzz/scenario.hpp"
#include "topology/builtin.hpp"
#include "topology/generators.hpp"
#include "verify/index.hpp"
#include "verify/rules.hpp"

namespace {

using namespace autonet;
using addressing::Ipv4Addr;
using addressing::Ipv4Prefix;
using verify::detail::NidbIndex;

// --- Naive reference rules ---------------------------------------------------

const std::string* string_field(const nidb::Value& object, std::string_view key) {
  const nidb::Value* v = object.find(key);
  return v != nullptr ? v->as_string() : nullptr;
}

const nidb::Array* array_field(const nidb::Value& object, std::string_view path) {
  const nidb::Value* v = object.find_path(path);
  return v != nullptr ? v->as_array() : nullptr;
}

std::string bare(std::string addr) {
  if (auto slash = addr.find('/'); slash != std::string::npos) addr.resize(slash);
  return addr;
}

/// The per-device maps the rules read before the index had device views,
/// rebuilt straight from the NIDB.
struct Reference {
  std::map<std::string, std::string> address_owner;  // bare ip -> first claimer
  std::map<std::string, std::set<std::string>> owned;  // device -> bare ips
  std::map<std::string, std::int64_t> device_asn;
  /// device -> CIDR strings its OSPF process covers, unparsed.
  std::map<std::string, std::set<std::string>> ospf_covered;
};

Reference reference(const nidb::Nidb& nidb) {
  Reference ref;
  for (const nidb::DeviceRecord* rec : nidb.devices()) {
    const nidb::Value& d = rec->data;
    const nidb::Value* asn = d.find("asn");
    ref.device_asn[rec->name] = asn != nullptr ? asn->as_int().value_or(0) : 0;
    auto claim = [&](const std::string& with_len) {
      const std::string ip = bare(with_len);
      ref.address_owner.emplace(ip, rec->name);
      ref.owned[rec->name].insert(ip);
    };
    if (const std::string* lo = string_field(d, "loopback")) claim(*lo);
    if (const nidb::Array* links = array_field(d, "ospf.ospf_links")) {
      for (const nidb::Value& link : *links) {
        if (const std::string* network = string_field(link, "network")) {
          ref.ospf_covered[rec->name].insert(*network);
        }
      }
    }
    if (const nidb::Array* ifaces = array_field(d, "interfaces")) {
      for (const nidb::Value& iface : *ifaces) {
        const std::string* ip = string_field(iface, "ip_address");
        const nidb::Value* stub = iface.find("stub");
        if (ip != nullptr && string_field(iface, "subnet") != nullptr &&
            (stub == nullptr || !stub->truthy())) {
          claim(*ip);
        }
      }
    }
  }
  return ref;
}

void naive_asym_session(const NidbIndex& index, const Reference& ref,
                        verify::Emitter& out) {
  for (const auto& n : index.neighbors) {
    auto owner = ref.address_owner.find(n.neighbor_ip);
    if (owner == ref.address_owner.end()) continue;
    const std::string& peer = owner->second;
    auto mine = ref.owned.find(n.device);
    bool reverse = false;
    for (const auto& back : index.neighbors) {
      if (back.device == peer && mine != ref.owned.end() &&
          mine->second.contains(back.neighbor_ip)) {
        reverse = true;
        break;
      }
    }
    if (!reverse) {
      out.emit(n.device, "session to " + n.neighbor_ip + " (" + peer +
                             ") has no matching reverse neighbor statement",
               n.path());
    }
  }
}

void naive_ibgp_nexthop(const NidbIndex& index, const Reference& ref,
                        verify::Emitter& out) {
  for (const auto& n : index.neighbors) {
    if (!n.ibgp || n.neighbor_ip.empty()) continue;
    auto owner = ref.address_owner.find(n.neighbor_ip);
    if (owner == ref.address_owner.end()) continue;
    const std::string& peer = owner->second;
    auto as_a = ref.device_asn.find(n.device);
    auto as_b = ref.device_asn.find(peer);
    if (as_a == ref.device_asn.end() || as_b == ref.device_asn.end() ||
        as_a->second != as_b->second) {
      continue;
    }
    auto own_igp = ref.ospf_covered.find(n.device);
    if (own_igp == ref.ospf_covered.end() || own_igp->second.empty()) continue;

    auto addr = Ipv4Addr::parse(n.neighbor_ip);
    if (!addr) continue;
    bool resolvable = false;
    for (const auto& iface : index.interfaces) {
      if (iface.device != n.device) continue;
      if (auto p = Ipv4Prefix::parse(iface.subnet); p && p->contains(*addr)) {
        resolvable = true;
        break;
      }
    }
    if (!resolvable) {
      auto peer_igp = ref.ospf_covered.find(peer);
      if (peer_igp != ref.ospf_covered.end()) {
        for (const auto& network : peer_igp->second) {
          if (auto p = Ipv4Prefix::parse(network); p && p->contains(*addr)) {
            resolvable = true;
            break;
          }
        }
      }
    }
    if (!resolvable) {
      out.emit(n.device,
               "iBGP neighbor " + n.neighbor_ip + " (" + peer +
                   ") is unresolvable: " + peer +
                   " does not advertise it into the IGP and it is not on a "
                   "connected subnet",
               n.path());
    }
  }
}

void naive_ebgp_adjacency(const NidbIndex& index, const Reference& ref,
                          verify::Emitter& out) {
  for (const auto& n : index.neighbors) {
    if (n.ibgp || n.multihop || n.neighbor_ip.empty()) continue;
    auto owner = ref.address_owner.find(n.neighbor_ip);
    if (owner == ref.address_owner.end()) continue;
    auto addr = Ipv4Addr::parse(n.neighbor_ip);
    if (!addr) continue;
    bool adjacent = false;
    for (const auto& iface : index.interfaces) {
      if (iface.device != n.device) continue;
      if (auto p = Ipv4Prefix::parse(iface.subnet); p && p->contains(*addr)) {
        adjacent = true;
        break;
      }
    }
    if (!adjacent) {
      out.emit(n.device,
               "eBGP neighbor " + n.neighbor_ip + " (" + owner->second +
                   ") is on no collision domain shared with " + n.device,
               n.path());
    }
  }
}

// --- Harness ------------------------------------------------------------------

const char* const kRules[] = {"bgp-asym-session", "ibgp-nexthop-unresolved",
                              "ebgp-peer-not-adjacent"};

std::string describe(const std::vector<verify::Finding>& findings) {
  std::string text;
  for (const auto& f : findings) {
    text += f.code + " | " + f.device + " | " + f.path + " | " + f.message + "\n";
  }
  return text;
}

/// Runs the registered rule and its naive reference on `nidb`, expects the
/// exact same findings in the same order, and returns how many there were.
std::size_t expect_same_findings(const nidb::Nidb& nidb, const NidbIndex& index,
                                 const Reference& ref, const std::string& rule_id,
                                 const std::string& label) {
  const verify::Rule* rule = verify::RuleRegistry::builtin().find(rule_id);
  EXPECT_NE(rule, nullptr) << rule_id;
  if (rule == nullptr) return 0;
  verify::LintInput input;
  input.nidb = &nidb;
  verify::RuleContext ctx;
  ctx.input = &input;
  ctx.index = &index;

  verify::Report indexed;
  verify::Emitter indexed_out(rule->info, rule->info.default_severity, indexed);
  rule->run(ctx, indexed_out);

  verify::Report naive;
  verify::Emitter naive_out(rule->info, rule->info.default_severity, naive);
  if (rule_id == "bgp-asym-session") {
    naive_asym_session(index, ref, naive_out);
  } else if (rule_id == "ibgp-nexthop-unresolved") {
    naive_ibgp_nexthop(index, ref, naive_out);
  } else {
    naive_ebgp_adjacency(index, ref, naive_out);
  }

  EXPECT_TRUE(indexed.findings == naive.findings)
      << label << ": " << rule_id << " diverges from the naive reference\n"
      << "indexed:\n" << describe(indexed.findings)
      << "naive:\n" << describe(naive.findings);
  return naive.findings.size();
}

/// Per rule, the findings summed over every NIDB compared.
using Tally = std::map<std::string, std::size_t>;

void compare_all(const nidb::Nidb& nidb, const std::string& label, Tally& tally) {
  const NidbIndex index = NidbIndex::build(nidb);
  const Reference ref = reference(nidb);
  for (const char* rule : kRules) {
    tally[rule] += expect_same_findings(nidb, index, ref, rule, label);
  }
}

/// Compiles `graph` with the given workflow options into a NIDB the test
/// owns and may mutate.
nidb::Nidb compile(const graph::Graph& graph, const core::WorkflowOptions& opts = {}) {
  core::Workflow wf(opts);
  wf.load(graph).design();
  return compiler::platform_compiler_for(opts.platform).compile(wf.anm());
}

// --- Seeded NIDB mutations ----------------------------------------------------

/// The array at a dotted `path` of the record, or nullptr when absent.
nidb::Array* array_at(nidb::DeviceRecord& rec, std::string_view path) {
  const nidb::Value* found = rec.data.find_path(path);
  if (found == nullptr || !found->is_array()) return nullptr;
  // The record itself is mutable; find_path only has no non-const overload.
  return &const_cast<nidb::Value*>(found)->array();
}

/// Breaks a compiled NIDB the way hand edits do, deterministically from
/// `seed`: drops about one neighbor statement in `drop_one_in`, blanks
/// one neighbor address, duplicates one interface address onto another
/// device, makes the subnet carrying one eBGP session unparseable, and
/// makes every OSPF network of one iBGP speaker unparseable.
void mutate(nidb::Nidb& nidb, std::uint64_t seed, std::uint64_t drop_one_in) {
  fuzz::Rng rng(seed);
  std::vector<nidb::DeviceRecord*> records;
  for (const nidb::DeviceRecord* rec : nidb.devices()) {
    records.push_back(nidb.device(rec->name));
  }
  auto pick = [&](auto&& usable) -> nidb::DeviceRecord* {
    std::vector<nidb::DeviceRecord*> candidates;
    for (nidb::DeviceRecord* rec : records) {
      if (usable(*rec)) candidates.push_back(rec);
    }
    return candidates.empty() ? nullptr : candidates[rng.below(candidates.size())];
  };
  auto non_empty = [](nidb::DeviceRecord& rec, std::string_view path) {
    nidb::Array* arr = array_at(rec, path);
    return arr != nullptr && !arr->empty();
  };

  for (nidb::DeviceRecord* rec : records) {
    for (const char* path : {"bgp.ibgp_neighbors", "bgp.ebgp_neighbors"}) {
      if (nidb::Array* arr = array_at(*rec, path)) {
        std::erase_if(*arr, [&](const nidb::Value&) { return rng.below(drop_one_in) == 0; });
      }
    }
  }

  if (auto* rec = pick([&](auto& r) { return non_empty(r, "bgp.ibgp_neighbors"); })) {
    nidb::Array& arr = *array_at(*rec, "bgp.ibgp_neighbors");
    arr[rng.below(arr.size())]["neighbor"] = "";
  }

  if (auto* from = pick([&](auto& r) { return non_empty(r, "interfaces"); })) {
    const nidb::Array& src = *array_at(*from, "interfaces");
    const std::string* ip = string_field(src[rng.below(src.size())], "ip_address");
    auto* to = pick([&](auto& r) { return &r != from && non_empty(r, "interfaces"); });
    if (ip != nullptr && to != nullptr) {
      nidb::Array& dst = *array_at(*to, "interfaces");
      dst[rng.below(dst.size())]["ip_address"] = std::string(*ip);
    }
  }

  if (auto* rec = pick([&](auto& r) {
        return non_empty(r, "bgp.ebgp_neighbors") && non_empty(r, "interfaces");
      })) {
    const nidb::Array& sessions = *array_at(*rec, "bgp.ebgp_neighbors");
    nidb::Array& ifaces = *array_at(*rec, "interfaces");
    nidb::Value* victim = &ifaces[rng.below(ifaces.size())];
    const std::string* peer = string_field(sessions.front(), "neighbor");
    const auto addr = peer != nullptr ? Ipv4Addr::parse(*peer) : std::nullopt;
    for (nidb::Value& iface : ifaces) {
      const std::string* subnet = string_field(iface, "subnet");
      const auto prefix = subnet != nullptr ? Ipv4Prefix::parse(*subnet) : std::nullopt;
      if (addr && prefix && prefix->contains(*addr)) victim = &iface;
    }
    (*victim)["subnet"] = "unparseable";
  }

  if (auto* rec = pick([&](auto& r) {
        return non_empty(r, "ospf.ospf_links") && non_empty(r, "bgp.ibgp_neighbors");
      })) {
    for (nidb::Value& link : *array_at(*rec, "ospf.ospf_links")) {
      link["network"] = "not-a-network";
    }
  }
}

// --- Tests --------------------------------------------------------------------

TEST(LintOracle, BuiltinTopologies) {
  const std::pair<const char*, graph::Graph> topologies[] = {
      {"figure5", topology::figure5()},
      {"small-internet", topology::small_internet()},
      {"bad-gadget", topology::bad_gadget()},
      {"med-oscillation", topology::med_oscillation()},
  };
  Tally tally;
  for (const auto& [name, graph] : topologies) {
    for (const char* ibgp : {"mesh", "rr-auto"}) {
      core::WorkflowOptions opts;
      opts.ibgp = ibgp;
      nidb::Nidb nidb = compile(graph, opts);
      const std::string label = std::string(name) + "/" + ibgp;
      compare_all(nidb, label, tally);
      mutate(nidb, fuzz::fnv1a(label), 10);
      compare_all(nidb, label + " mutated", tally);
    }
  }
  for (const char* rule : kRules) EXPECT_GT(tally[rule], 0u) << rule;
}

TEST(LintOracle, GeneratedScenarios) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const fuzz::Scenario s = fuzz::generate_scenario(seed, 12);
    core::WorkflowOptions opts;
    opts.platform = s.platform;
    opts.ibgp = s.ibgp;
    nidb::Nidb nidb = compile(s.graph, opts);
    const std::string label = "seed " + std::to_string(seed) + " (" + s.summary + ")";
    compare_all(nidb, label, tally);
    mutate(nidb, seed, 10);
    compare_all(nidb, label + " mutated", tally);
  }
  for (const char* rule : kRules) EXPECT_GT(tally[rule], 0u) << rule;
}

TEST(LintOracle, MutatedNrenModel) {
  // Unmutated, the NREN model lints clean, which on its own would prove
  // little; each mutation below makes at least one of the rules fire.
  nidb::Nidb nidb = compile(topology::make_nren_model());
  ASSERT_EQ(nidb.device_count(), 1158u);
  mutate(nidb, 1, 100);
  Tally tally;
  compare_all(nidb, "nren mutated", tally);
  for (const char* rule : kRules) EXPECT_GT(tally[rule], 0u) << rule;
}

}  // namespace
