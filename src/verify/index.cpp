#include "verify/index.hpp"

#include <algorithm>

namespace autonet::verify::detail {

using nidb::Array;
using nidb::DeviceRecord;
using nidb::Value;

namespace {

std::string strip_len(std::string addr) {
  if (auto slash = addr.find('/'); slash != std::string::npos) addr.resize(slash);
  return addr;
}

const std::string* find_string(const Value& v, std::string_view path) {
  const Value* f = v.find_path(path);
  return f != nullptr ? f->as_string() : nullptr;
}

std::int64_t find_int(const Value& v, std::string_view path, std::int64_t fallback) {
  const Value* f = v.find_path(path);
  if (f == nullptr) return fallback;
  return f->as_int().value_or(fallback);
}

}  // namespace

std::string NeighborRef::path() const {
  return std::string("bgp.") + (ibgp ? "ibgp_neighbors" : "ebgp_neighbors") + "[" +
         std::to_string(index) + "]";
}

NidbIndex NidbIndex::build(const nidb::Nidb& nidb) {
  NidbIndex index;

  if (const std::string* mode = find_string(nidb.data(), "design.ibgp_mode")) {
    index.ibgp_mode = *mode;
  }

  for (const DeviceRecord* rec : nidb.devices()) {
    const Value& d = rec->data;
    DeviceView& view = index.devices.emplace_back();
    view.name = rec->name;
    view.asn = find_int(d, "asn", 0);
    if (const std::string* type = find_string(d, "device_type")) view.type = *type;
    if (const std::string* hostname = find_string(d, "hostname")) {
      index.hostname_users[*hostname].push_back(rec->name);
    }

    auto claim_address = [&](const std::string& with_len, std::string path) {
      std::string ip = strip_len(with_len);
      const std::size_t self = index.devices.size() - 1;
      auto [it, inserted] = index.address_owner.emplace(ip, self);
      if (!inserted && it->second != self) {
        index.duplicate_addresses.push_back(
            {ip, rec->name, index.devices[it->second].name, std::move(path)});
        view.contested.insert(std::move(ip));
      }
    };
    if (const std::string* lo = find_string(d, "loopback")) claim_address(*lo, "loopback");

    // OSPF coverage: which networks this device's process covers, and in
    // which area (for per-subnet consistency and next-hop resolution).
    std::map<std::string, std::int64_t> covered;
    if (const Value* links = d.find_path("ospf.ospf_links")) {
      if (const Array* arr = links->as_array()) {
        for (const Value& link : *arr) {
          const std::string* network =
              link.find("network") != nullptr ? link.find("network")->as_string()
                                              : nullptr;
          if (network != nullptr) {
            const Value* area = link.find("area");
            covered[*network] = area != nullptr ? area->as_int().value_or(0) : 0;
            view.runs_ospf = true;
            if (auto p = addressing::Ipv4Prefix::parse(*network)) {
              view.ospf_networks.push_back(*p);
            }
          }
        }
      }
    }

    view.interfaces_begin = index.interfaces.size();
    if (const Value* ifaces = d.find("interfaces")) {
      if (const Array* arr = ifaces->as_array()) {
        for (std::size_t i = 0; i < arr->size(); ++i) {
          const Value& iface = (*arr)[i];
          const std::string* ip = iface.find("ip_address") != nullptr
                                      ? iface.find("ip_address")->as_string()
                                      : nullptr;
          const std::string* subnet = iface.find("subnet") != nullptr
                                          ? iface.find("subnet")->as_string()
                                          : nullptr;
          if (ip == nullptr || subnet == nullptr) continue;
          // Attached stub networks (`advertise_prefix` origins) are
          // anycast by design: the same prefix may be originated at
          // several points, so stub addresses claim no ownership.
          const Value* stub = iface.find("stub");
          if (stub == nullptr || !stub->truthy()) {
            claim_address(*ip, "interfaces[" + std::to_string(i) + "].ip_address");
          }
          index.interfaces.push_back({rec->name, strip_len(*ip), *subnet,
                                      addressing::Ipv4Prefix::parse(*subnet), i});
          auto it = covered.find(*subnet);
          index.subnet_attachments[*subnet].push_back(
              {rec->name, it == covered.end() ? -1 : it->second});
        }
      }
    }
    view.interfaces_end = index.interfaces.size();

    view.neighbors_begin = index.neighbors.size();
    for (const bool ibgp : {true, false}) {
      const Value* list =
          d.find_path(ibgp ? "bgp.ibgp_neighbors" : "bgp.ebgp_neighbors");
      const Array* arr = list != nullptr ? list->as_array() : nullptr;
      if (arr == nullptr) continue;
      for (std::size_t i = 0; i < arr->size(); ++i) {
        const Value& n = (*arr)[i];
        NeighborRef ref;
        ref.device = rec->name;
        ref.ibgp = ibgp;
        ref.index = i;
        if (const std::string* ip = n.find("neighbor") != nullptr
                                        ? n.find("neighbor")->as_string()
                                        : nullptr) {
          ref.neighbor_ip = *ip;
        }
        if (const Value* remote = n.find("remote_as")) {
          ref.remote_as = remote->as_int().value_or(0);
        }
        if (const Value* rr = n.find("rr_client")) ref.rr_client = rr->truthy();
        if (const Value* mh = n.find("multihop")) ref.multihop = mh->truthy();
        index.neighbors.push_back(std::move(ref));
      }
    }
    view.neighbors_end = index.neighbors.size();
  }

  // Resolve every statement's peer now that every address is claimed.
  for (auto& n : index.neighbors) {
    auto owner = index.address_owner.find(n.neighbor_ip);
    if (owner != index.address_owner.end()) n.peer = owner->second;
  }

  // Derive the iBGP session view from the gathered neighbor statements:
  // directed statement edges device -> peer (neighbor loopback resolved
  // to its owner, same-AS only), then keep the bidirectional ones.
  std::map<std::string, std::set<std::string>> stated;
  std::map<std::pair<std::string, std::string>, bool> client_edge;
  std::set<std::int64_t> active_as;  // ASes with any iBGP configured
  for (const DeviceView& view : index.devices) {
    for (const auto& n : index.neighbors_of(view)) {
      if (!n.ibgp || n.neighbor_ip.empty()) continue;
      if (n.peer == kNoDevice) continue;  // bgp-unknown-peer
      const DeviceView& peer = index.devices[n.peer];
      if (view.asn != peer.asn) continue;  // bgp-wrong-as territory
      stated[view.name].insert(peer.name);
      if (n.rr_client) client_edge[{view.name, peer.name}] = true;
      active_as.insert(view.asn);
    }
  }
  // Every router of an AS that runs iBGP is a member — including one
  // with no sessions at all, which is exactly a partition.
  for (const DeviceView& view : index.devices) {
    if (active_as.contains(view.asn) && view.type == "router") {
      index.ibgp.members[view.asn].insert(view.name);
    }
  }
  for (const auto& [device, peers] : stated) {
    for (const auto& peer : peers) {
      auto back = stated.find(peer);
      if (back != stated.end() && back->second.contains(device)) {
        index.ibgp.sessions[device].insert(peer);
      }
      if (client_edge.contains({device, peer})) {
        index.ibgp.clients_of[device].insert(peer);
      }
    }
  }
  return index;
}

const DeviceView* NidbIndex::device(std::string_view name) const {
  auto it = std::ranges::lower_bound(devices, name, std::less<>{}, &DeviceView::name);
  return it != devices.end() && it->name == name ? &*it : nullptr;
}

std::span<const InterfaceRef> NidbIndex::interfaces_of(const DeviceView& view) const {
  return std::span(interfaces)
      .subspan(view.interfaces_begin, view.interfaces_end - view.interfaces_begin);
}

std::span<const NeighborRef> NidbIndex::neighbors_of(const DeviceView& view) const {
  return std::span(neighbors)
      .subspan(view.neighbors_begin, view.neighbors_end - view.neighbors_begin);
}

bool NidbIndex::attaches_subnet_containing(const DeviceView& view,
                                           addressing::Ipv4Addr addr) const {
  for (const auto& iface : interfaces_of(view)) {
    if (iface.prefix && iface.prefix->contains(addr)) return true;
  }
  return false;
}

}  // namespace autonet::verify::detail
