#include "design/bgp.hpp"

#include <map>
#include <stdexcept>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/transforms.hpp"

namespace autonet::design {

using anm::OverlayEdge;
using anm::OverlayGraph;
using anm::OverlayNode;

OverlayGraph build_ebgp(anm::AbstractNetworkModel& anm) {
  OverlayGraph g_phy = anm["phy"];
  OverlayGraph g_ebgp = anm.add_overlay("ebgp", g_phy.routers(), true, {"asn"});
  // Eq. 3, bidirected: a session in each direction per inter-AS link.
  // Policy attributes ride along (§7.3: "the routing policy can be stored
  // as a string attribute on the edge"): `local_pref` on an input link
  // makes both endpoints prefer routes received over it.
  g_ebgp.add_edges_from(
      g_phy.edges([](const OverlayEdge& e) {
        return e.src().asn() != e.dst().asn() && e.src().is_router() &&
               e.dst().is_router();
      }),
      {"local_pref", "med"}, /*bidirected=*/true);
  return g_ebgp;
}

OverlayGraph build_ibgp_full_mesh(anm::AbstractNetworkModel& anm) {
  OverlayGraph g_phy = anm["phy"];
  auto rtrs = g_phy.routers();
  OverlayGraph g_ibgp = anm.add_overlay("ibgp", rtrs, true, {"asn"});
  g_ibgp.data()["ibgp_mode"] = "mesh";
  // Eq. 2: (s, t) for every ordered same-AS router pair, each AS's
  // routers kept in `rtrs` order so the edges come out in that order.
  std::map<std::int64_t, std::vector<const OverlayNode*>> by_asn;
  for (const auto& r : rtrs) by_asn[r.asn()].push_back(&r);
  for (const auto& s : rtrs) {
    for (const OverlayNode* t : by_asn[s.asn()]) {
      if (s.name() != t->name()) g_ibgp.add_edge(s.name(), t->name());
    }
  }
  return g_ibgp;
}

OverlayGraph build_ibgp_route_reflectors(anm::AbstractNetworkModel& anm) {
  OverlayGraph g_phy = anm["phy"];
  auto rtrs = g_phy.routers();
  OverlayGraph g_ibgp =
      anm.add_overlay("ibgp", rtrs, true, {"asn", "rr", "rr_cluster"});
  g_ibgp.data()["ibgp_mode"] = "rr";

  std::map<std::int64_t, std::vector<OverlayNode>> reflectors;
  std::map<std::int64_t, std::vector<OverlayNode>> clients;
  for (const auto& n : g_ibgp.nodes()) {
    if (n.attr("rr").truthy()) reflectors[n.asn()].push_back(n);
    else clients[n.asn()].push_back(n);
  }

  for (const auto& [asn, rrs] : reflectors) {
    // (rr, rr) full mesh within the AS.
    for (const auto& a : rrs) {
      for (const auto& b : rrs) {
        if (a.name() != b.name()) g_ibgp.add_edge(a.name(), b.name());
      }
    }
  }
  for (auto& [asn, members] : clients) {
    auto rit = reflectors.find(asn);
    if (rit == reflectors.end()) {
      // No reflectors in this AS: fall back to a client full mesh so the
      // AS still has complete iBGP reachability.
      for (const auto& a : members) {
        for (const auto& b : members) {
          if (a.name() != b.name()) g_ibgp.add_edge(a.name(), b.name());
        }
      }
      continue;
    }
    for (const auto& c : members) {
      const auto* cluster = c.attr("rr_cluster").as_string();
      for (const auto& rr : rit->second) {
        if (cluster != nullptr && !cluster->empty() && *cluster != rr.name()) {
          continue;  // pinned to a specific reflector
        }
        auto down = g_ibgp.add_edge(rr.name(), c.name());
        down.set("rr_client", true);
        g_ibgp.add_edge(c.name(), rr.name());
      }
    }
  }
  return g_ibgp;
}

std::size_t select_route_reflectors(anm::AbstractNetworkModel& anm,
                                    const RrSelectOptions& opts) {
  OverlayGraph g_phy = anm["phy"];
  std::size_t marked = 0;

  // Per-AS subgraph of the physical topology, then centrality over it.
  auto groups = graph::group_by(g_phy.unwrap(), "asn");
  for (const auto& [asn_value, members] : groups) {
    if (!asn_value.is_set()) continue;
    std::vector<graph::NodeId> as_routers;
    for (graph::NodeId n : members) {
      if (g_phy.node(n).is_router()) as_routers.push_back(n);
    }
    if (as_routers.size() <= opts.min_as_size) continue;

    graph::Graph sub(false, "asn_subgraph");
    for (graph::NodeId n : as_routers) sub.add_node(g_phy.unwrap().node_name(n));
    for (graph::NodeId n : as_routers) {
      for (graph::EdgeId e : g_phy.unwrap().out_edges(n)) {
        graph::NodeId m = g_phy.unwrap().edge_other(e, n);
        graph::NodeId su = sub.find_node(g_phy.unwrap().node_name(n));
        graph::NodeId sv = sub.find_node(g_phy.unwrap().node_name(m));
        if (sv != graph::kInvalidNode && su < sv &&
            sub.find_edge(su, sv) == graph::kInvalidEdge) {
          sub.add_edge(su, sv);
        }
      }
    }

    std::map<graph::NodeId, double> centrality;
    if (opts.metric == "betweenness") centrality = graph::betweenness_centrality(sub);
    else if (opts.metric == "closeness") centrality = graph::closeness_centrality(sub);
    else if (opts.metric == "degree") centrality = graph::degree_centrality(sub);
    else throw std::invalid_argument("unknown centrality metric '" + opts.metric + "'");

    for (graph::NodeId top : graph::top_k_central(sub, centrality, opts.per_as)) {
      g_phy.node(sub.node_name(top))->set("rr", true);
      ++marked;
    }
  }
  return marked;
}

std::size_t session_count(const OverlayGraph& g) {
  // Directed overlays hold one edge per direction; a session is a pair.
  return g.directed() ? g.edge_count() / 2 : g.edge_count();
}

}  // namespace autonet::design
