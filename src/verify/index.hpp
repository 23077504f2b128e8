// Internal to the verify engine: the shared gather pass over the NIDB.
// Built once per run_lint() invocation, then handed read-only to every
// rule, so adding a rule does not add another database walk.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "addressing/ipv4.hpp"
#include "nidb/nidb.hpp"

namespace autonet::verify::detail {

struct InterfaceRef {
  std::string device;
  std::string ip;      // bare address
  std::string subnet;  // CIDR string
  /// `subnet` parsed once; nullopt when it does not parse.
  std::optional<addressing::Ipv4Prefix> prefix;
  std::size_t index = 0;  // position in the device's interfaces array
};

/// Position in NidbIndex::devices of no device.
inline constexpr std::size_t kNoDevice = static_cast<std::size_t>(-1);

struct NeighborRef {
  std::string device;
  std::string neighbor_ip;  // bare address ("" when the statement is empty)
  /// `address_owner[neighbor_ip]`: the position in NidbIndex::devices
  /// of the device owning the address; kNoDevice when none claims it.
  std::size_t peer = kNoDevice;
  std::int64_t remote_as = 0;
  bool ibgp = false;
  bool rr_client = false;  // this device treats the peer as an RR client
  bool multihop = false;   // session deliberately targets a non-adjacent
                           // address (e.g. C-BGP node-id peering)
  std::size_t index = 0;   // position in the neighbor array
  /// NIDB attribute path of the statement, e.g. "bgp.ibgp_neighbors[2]".
  [[nodiscard]] std::string path() const;
};

struct SubnetAttachment {
  std::string device;
  /// OSPF area this device's process covers the subnet in; -1 = the
  /// device does not run OSPF on it.
  std::int64_t area = -1;
};

struct DuplicateAddress {
  std::string ip;
  std::string device;  // second claimer
  std::string owner;   // first claimer
  std::string path;    // where the second claim came from
};

/// The per-AS iBGP session view shared by the signaling rules: built in
/// the same gather pass as the rest of the index so the rules that read
/// it (partition, cluster loops) do not each rebuild it.
struct IbgpView {
  /// AS -> member routers (device_type "router") that appear in it.
  std::map<std::int64_t, std::set<std::string>> members;
  /// Established sessions: both ends carry a statement for the other.
  std::map<std::string, std::set<std::string>> sessions;
  /// device -> peers it treats as route-reflector clients.
  std::map<std::string, std::set<std::string>> clients_of;
};

/// One device's share of the gather pass. The walk pushes a device's
/// interfaces and neighbor statements together, so each device owns one
/// contiguous run of `NidbIndex::interfaces` and of `NidbIndex::neighbors`.
struct DeviceView {
  std::string name;
  std::int64_t asn = 0;
  std::string type;  // device_type, "" when absent
  std::size_t interfaces_begin = 0, interfaces_end = 0;
  std::size_t neighbors_begin = 0, neighbors_end = 0;
  /// Addresses this device claims after another device claimed them
  /// first. With the addresses `address_owner` maps to this device, they
  /// are every address it claims.
  std::set<std::string> contested;
  /// True when its OSPF process covers any network (ospf_links).
  bool runs_ospf = false;
  /// The covered networks that parse, parsed once.
  std::vector<addressing::Ipv4Prefix> ospf_networks;
};

struct NidbIndex {
  /// bare ip -> position in `devices` of the first device claiming it.
  std::map<std::string, std::size_t> address_owner;
  /// Every device, in the NIDB's (name) order: visiting each one's
  /// `neighbors_of` in turn visits `neighbors` front to back.
  std::vector<DeviceView> devices;
  std::vector<InterfaceRef> interfaces;
  std::vector<NeighborRef> neighbors;
  std::map<std::string, std::vector<std::string>> hostname_users;
  std::map<std::string, std::vector<SubnetAttachment>> subnet_attachments;
  std::vector<DuplicateAddress> duplicate_addresses;
  /// From nidb.data()["design"]["ibgp_mode"], "" when absent.
  std::string ibgp_mode;
  /// iBGP session graph, derived from `neighbors` after the walk.
  IbgpView ibgp;

  [[nodiscard]] static NidbIndex build(const nidb::Nidb& nidb);

  /// The named device's view; nullptr for a name the NIDB does not hold.
  [[nodiscard]] const DeviceView* device(std::string_view name) const;
  /// The device's own run of `interfaces` / `neighbors`.
  [[nodiscard]] std::span<const InterfaceRef> interfaces_of(const DeviceView& view) const;
  [[nodiscard]] std::span<const NeighborRef> neighbors_of(const DeviceView& view) const;
  /// True when one of the device's interfaces attaches a subnet that
  /// contains `addr` (subnets that do not parse never match).
  [[nodiscard]] bool attaches_subnet_containing(const DeviceView& view,
                                                addressing::Ipv4Addr addr) const;
};

}  // namespace autonet::verify::detail
