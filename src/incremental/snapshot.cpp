#include "incremental/snapshot.hpp"

#include <algorithm>
#include <string_view>
#include <vector>

#include "core/hash.hpp"
#include "nidb/value.hpp"

namespace autonet::incremental {

namespace {

using graph::AttrMap;
using graph::AttrValue;
using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

/// Canonical attribute serialization: the variant index disambiguates
/// 1 (int) from "1" (string) so type flips change the hash.
void append_value(std::string& out, const AttrValue& v) {
  out += std::to_string(v.storage().index());
  out += ':';
  out += v.to_string();
}

void append_attrs(std::string& out, const AttrMap& attrs) {
  for (const auto& [key, value] : attrs) {
    out += key;
    out += '=';
    append_value(out, value);
    out += ';';
  }
}

/// The whole graph: its node lines (every attribute), then its edge
/// lines (every attribute), each set sorted, then the graph-level data().
std::string serialize_graph(const Graph& g) {
  std::string out;
  auto append_sorted = [&out](std::vector<std::string>& lines, const char* end) {
    std::sort(lines.begin(), lines.end());
    for (const auto& line : lines) {
      out += line;
      out += '\n';
    }
    out += end;
  };
  std::vector<std::string> lines;
  for (NodeId n : g.nodes()) {
    std::string line = g.node_name(n);
    line += '{';
    append_attrs(line, g.node_attrs(n));
    line += '}';
    lines.push_back(std::move(line));
  }
  append_sorted(lines, "--\n");
  lines.clear();
  for (EdgeId e : g.edges()) {
    std::string a = g.node_name(g.edge_src(e));
    std::string b = g.node_name(g.edge_dst(e));
    if (!g.directed() && b < a) std::swap(a, b);
    std::string line = a + ">" + b + "{";
    append_attrs(line, g.edge_attrs(e));
    line += '}';
    lines.push_back(std::move(line));
  }
  append_sorted(lines, "==\n");
  append_attrs(out, g.data());
  return out;
}

/// One overlay's per-node texts, each serialized once and shared by the
/// node's own signature block and by every line that names it as a peer.
struct OverlayTexts {
  std::string name;
  const Graph* graph = nullptr;
  std::vector<std::string> attrs;  // by NodeId
  /// Collision domains of the ip overlay: "cd[" + every member's edge
  /// and node attributes, sorted + "]" (empty for other nodes).
  std::vector<std::string> domain;
  /// BGP overlays: the node's id in the ip overlay (kInvalidNode if none).
  std::vector<NodeId> ip_node;
};

std::size_t id_bound(const Graph& g) {
  std::size_t bound = 0;
  for (NodeId n : g.nodes()) bound = std::max<std::size_t>(bound, n + 1);
  return bound;
}

std::string domain_text(const Graph& g, NodeId cd, const std::vector<std::string>& attrs) {
  std::vector<std::string> members;
  for (EdgeId me : g.incident_edges(cd)) {
    NodeId member = g.edge_other(me, cd);
    std::string m = g.node_name(member) + "{";
    append_attrs(m, g.edge_attrs(me));
    m += "}{";
    m += attrs[member];
    m += '}';
    members.push_back(std::move(m));
  }
  std::sort(members.begin(), members.end());
  std::string out = "cd[";
  for (const auto& m : members) out += m;
  out += ']';
  return out;
}

}  // namespace

DeviceSignatures device_signatures(const anm::AbstractNetworkModel& anm,
                                   const std::string& platform) {
  DeviceSignatures out;
  const std::vector<std::string> overlays = anm.overlay_names();
  const Graph& phy = anm.overlay("phy").unwrap();

  // Whole-network digest: every overlay's graph-level data() (allocated
  // IP blocks, ibgp mode, service zones), the service overlays in full
  // (a dns/rpki change repoints resolvers on every device), and the
  // platform (it selects the device compilers).
  std::string global = "platform:" + platform + "\n";
  for (const std::string& name : overlays) {
    const Graph& g = anm.overlay(name).unwrap();
    global += name + ":{";
    append_attrs(global, g.data());
    global += "}\n";
    if (name == "dns" || name == "rpki") {
      global += serialize_graph(g);
    }
  }
  out.global_digest = core::fnv1a(global);

  std::vector<OverlayTexts> texts(overlays.size());
  const OverlayTexts* ip = nullptr;
  for (std::size_t i = 0; i < overlays.size(); ++i) {
    OverlayTexts& t = texts[i];
    t.name = overlays[i];
    t.graph = &anm.overlay(t.name).unwrap();
    t.attrs.resize(id_bound(*t.graph));
    for (NodeId n : t.graph->nodes()) append_attrs(t.attrs[n], t.graph->node_attrs(n));
    if (t.name == "ip") ip = &t;
  }
  for (OverlayTexts& t : texts) {
    const Graph& g = *t.graph;
    if (&t == ip) {
      // Two hops through a collision domain: the subnet and every
      // member's interface address feed this device's interface and its
      // neighbors' addresses into the compiled record.
      t.domain.resize(t.attrs.size());
      for (NodeId n : g.nodes()) {
        if (attr_or_unset(g.node_attrs(n), "collision_domain").truthy()) {
          t.domain[n] = domain_text(g, n, t.attrs);
        }
      }
    } else if (ip != nullptr && (t.name == "ebgp" || t.name == "ibgp")) {
      // BGP sessions address the peer's loopback: each line carries the
      // peer's ip overlay attributes.
      t.ip_node.assign(t.attrs.size(), graph::kInvalidNode);
      for (NodeId n : g.nodes()) t.ip_node[n] = ip->graph->find_node(g.node_name(n));
    }
  }

  // A device's signature is the FNV-1a of its name, then per overlay its
  // attribute block and its sorted incident-edge lines. The lines are
  // built into one buffer and hashed in order without being joined.
  std::string buf;
  std::vector<std::size_t> ends;
  std::vector<std::string_view> lines;
  for (NodeId d : phy.nodes()) {
    const std::string& device = phy.node_name(d);
    std::uint64_t h = core::fnv1a("\n", core::fnv1a(device));
    for (const OverlayTexts& t : texts) {
      const Graph& g = *t.graph;
      NodeId n = g.find_node(device);
      if (n == graph::kInvalidNode) continue;
      h = core::fnv1a("[", h);
      h = core::fnv1a(t.name, h);
      h = core::fnv1a("]{", h);
      h = core::fnv1a(t.attrs[n], h);
      h = core::fnv1a("}\n", h);
      buf.clear();
      ends.clear();
      for (EdgeId e : g.incident_edges(n)) {
        NodeId peer = g.edge_other(e, n);
        buf += g.edge_src(e) == n ? ">" : "<";
        buf += g.node_name(peer);
        buf += '{';
        append_attrs(buf, g.edge_attrs(e));
        buf += "}peer{";
        buf += t.attrs[peer];
        buf += '}';
        if (!t.domain.empty()) buf += t.domain[peer];
        if (!t.ip_node.empty() && t.ip_node[peer] != graph::kInvalidNode) {
          buf += "ip{";
          buf += ip->attrs[t.ip_node[peer]];
          buf += '}';
        }
        ends.push_back(buf.size());
      }
      lines.clear();
      std::size_t begin = 0;
      for (std::size_t end : ends) {
        lines.emplace_back(buf.data() + begin, end - begin);
        begin = end;
      }
      std::sort(lines.begin(), lines.end());
      for (std::string_view line : lines) h = core::fnv1a("\n", core::fnv1a(line, h));
    }
    out.sigs[device] = h;
  }
  return out;
}

std::map<std::string, std::uint64_t> template_base_hashes(
    const render::TemplateStore& store) {
  std::map<std::string, std::uint64_t> out;
  for (const std::string& base : store.bases()) {
    std::string acc = base + "\n";
    for (const auto& entry : store.entries(base)) {
      acc += entry.path;
      acc += entry.is_template ? "|T|" : "|S|";
      acc += entry.static_content;
      acc += '\n';
    }
    out[base] = core::fnv1a(acc);
  }
  return out;
}

// --- snapshot.json ---------------------------------------------------------
// Hashes are persisted as decimal strings: nidb::Value integers are
// signed 64-bit and FNV values use the full unsigned range.

namespace {

nidb::Value hash_map_to_value(const std::map<std::string, std::uint64_t>& m) {
  nidb::Object out;
  for (const auto& [key, value] : m) out[key] = std::to_string(value);
  return nidb::Value(std::move(out));
}

std::map<std::string, std::uint64_t> hash_map_from_value(const nidb::Value* v) {
  std::map<std::string, std::uint64_t> out;
  if (v == nullptr || !v->is_object()) return out;
  for (const auto& [key, value] : *v->as_object()) {
    if (const auto* s = value.as_string()) out[key] = std::stoull(*s);
  }
  return out;
}

}  // namespace

std::string Snapshot::to_json() const {
  nidb::Object out;
  out["version"] = std::int64_t{1};
  out["input_hash"] = input_hash;
  out["platform"] = platform;
  out["lint_sig"] = lint_sig;
  out["nidb_hash"] = std::to_string(nidb_hash);
  out["data_hash"] = std::to_string(data_hash);
  out["global_digest"] = std::to_string(global_digest);
  out["device_sigs"] = hash_map_to_value(device_sigs);
  out["template_hashes"] = hash_map_to_value(template_hashes);
  return nidb::Value(std::move(out)).to_json(true);
}

// Unknown keys are ignored: snapshots written while design rules were
// still reused also carry per-rule projection hashes, and stay valid
// baselines.
std::optional<Snapshot> Snapshot::from_json(const std::string& text) {
  nidb::Value doc;
  try {
    doc = nidb::parse_json(text);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (!doc.is_object()) return std::nullopt;
  Snapshot snap;
  try {
    if (const auto* s = doc.find("input_hash"); s != nullptr && s->as_string()) {
      snap.input_hash = *s->as_string();
    }
    if (const auto* s = doc.find("platform"); s != nullptr && s->as_string()) {
      snap.platform = *s->as_string();
    }
    if (const auto* s = doc.find("lint_sig"); s != nullptr && s->as_string()) {
      snap.lint_sig = *s->as_string();
    }
    if (const auto* s = doc.find("nidb_hash"); s != nullptr && s->as_string()) {
      snap.nidb_hash = std::stoull(*s->as_string());
    }
    if (const auto* s = doc.find("data_hash"); s != nullptr && s->as_string()) {
      snap.data_hash = std::stoull(*s->as_string());
    }
    if (const auto* s = doc.find("global_digest"); s != nullptr && s->as_string()) {
      snap.global_digest = std::stoull(*s->as_string());
    }
    snap.device_sigs = hash_map_from_value(doc.find("device_sigs"));
    snap.template_hashes = hash_map_from_value(doc.find("template_hashes"));
  } catch (const std::exception&) {
    return std::nullopt;
  }
  return snap;
}

}  // namespace autonet::incremental
