#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/temp_dir.hpp"
#include "core/workflow.hpp"
#include "render/renderer.hpp"
#include "topology/builtin.hpp"

namespace {

using namespace autonet;
using render::ConfigTree;
using render::TemplateStore;

render::ConfigTree rendered(const std::string& platform = "netkit") {
  core::WorkflowOptions opts;
  opts.platform = platform;
  core::Workflow wf(opts);
  wf.load(topology::small_internet()).design().compile().render();
  return wf.configs();
}

TEST(ConfigTree, PutGetPaths) {
  ConfigTree tree;
  tree.put("a/b/c.conf", "hello");
  tree.put("a/d.conf", "world");
  EXPECT_TRUE(tree.contains("a/b/c.conf"));
  EXPECT_EQ(*tree.get("a/d.conf"), "world");
  EXPECT_EQ(tree.get("missing"), nullptr);
  EXPECT_EQ(tree.paths().size(), 2u);
  EXPECT_EQ(tree.paths_under("a/b").size(), 1u);
  EXPECT_EQ(tree.file_count(), 2u);
  EXPECT_EQ(tree.total_bytes(), 10u);
  // items = 2 files + dirs {a, a/b}
  EXPECT_EQ(tree.item_count(), 4u);
}

TEST(ConfigTree, OverwriteReplaces) {
  ConfigTree tree;
  tree.put("x", "1");
  tree.put("x", "22");
  EXPECT_EQ(tree.file_count(), 1u);
  EXPECT_EQ(*tree.get("x"), "22");
}

TEST(ConfigTree, DiskRoundTrip) {
  ConfigTree tree;
  tree.put("lab.conf", "LAB_VERSION=1\n");
  tree.put("r1/etc/quagga/zebra.conf", "hostname r1\n");
  const core::TempDir tmp("autonet_tree_test");
  const std::string dir = tmp.path() + "/tree";
  tree.write_to_disk(dir);
  auto restored = ConfigTree::read_from_disk(dir);
  EXPECT_EQ(restored, tree);
  std::filesystem::remove_all(dir);
  EXPECT_THROW(ConfigTree::read_from_disk(dir), std::runtime_error);
}

TEST(Render, QuaggaOspfdMatchesPaperSyntax) {
  auto tree = rendered();
  const auto* conf = tree.get("localhost/netkit/as100r1/etc/quagga/ospfd.conf");
  ASSERT_NE(conf, nullptr);
  EXPECT_NE(conf->find("hostname as100r1"), std::string::npos);
  EXPECT_NE(conf->find("password 1234"), std::string::npos);
  EXPECT_NE(conf->find("router ospf"), std::string::npos);
  EXPECT_NE(conf->find(" area 0"), std::string::npos);
  EXPECT_NE(conf->find("network 192.168."), std::string::npos);
  EXPECT_NE(conf->find("ip ospf cost 1"), std::string::npos);
}

TEST(Render, QuaggaBgpdNeighbors) {
  auto tree = rendered();
  const auto* conf = tree.get("localhost/netkit/as20r2/etc/quagga/bgpd.conf");
  ASSERT_NE(conf, nullptr);
  EXPECT_NE(conf->find("router bgp 20"), std::string::npos);
  EXPECT_NE(conf->find("remote-as 100"), std::string::npos);  // eBGP to as100r1
  EXPECT_NE(conf->find("remote-as 20"), std::string::npos);   // iBGP mesh
  EXPECT_NE(conf->find("update-source lo"), std::string::npos);
  EXPECT_NE(conf->find("next-hop-self"), std::string::npos);
}

TEST(Render, NetkitStartupAndLabConf) {
  auto tree = rendered();
  const auto* startup = tree.get("localhost/netkit/as1r1/.startup");
  ASSERT_NE(startup, nullptr);
  EXPECT_NE(startup->find("/sbin/ifconfig eth1"), std::string::npos);
  EXPECT_NE(startup->find("netmask 255.255.255.252"), std::string::npos);
  EXPECT_NE(startup->find("ifconfig lo:1"), std::string::npos);
  const auto* lab = tree.get("lab.conf");
  ASSERT_NE(lab, nullptr);
  EXPECT_NE(lab->find("as1r1[1]="), std::string::npos);
}

TEST(Render, IosWildcardNetworks) {
  auto tree = rendered("dynagen");
  const auto* conf = tree.get("localhost/dynagen/as100r1/startup-config.cfg");
  ASSERT_NE(conf, nullptr);
  EXPECT_NE(conf->find("hostname as100r1"), std::string::npos);
  EXPECT_NE(conf->find("interface FastEthernet0/0"), std::string::npos);
  // IOS network statements use wildcard masks.
  EXPECT_NE(conf->find(" 0.0.0.3 area 0"), std::string::npos);
  EXPECT_NE(conf->find("router bgp 100"), std::string::npos);
  EXPECT_NE(conf->find("mask 255.255."), std::string::npos);
  const auto* net = tree.get("topology.net");
  ASSERT_NE(net, nullptr);
  EXPECT_NE(net->find("[[router as100r1]]"), std::string::npos);
}

TEST(Render, JunosStructure) {
  auto tree = rendered("junosphere");
  const auto* conf = tree.get("localhost/junosphere/as100r1/juniper.conf");
  ASSERT_NE(conf, nullptr);
  EXPECT_NE(conf->find("host-name as100r1;"), std::string::npos);
  EXPECT_NE(conf->find("family inet"), std::string::npos);
  EXPECT_NE(conf->find("autonomous-system 100;"), std::string::npos);
  EXPECT_NE(conf->find("group ibgp"), std::string::npos);
  EXPECT_NE(conf->find("peer-as"), std::string::npos);
  // Balanced braces.
  EXPECT_EQ(std::count(conf->begin(), conf->end(), '{'),
            std::count(conf->begin(), conf->end(), '}'));
}

TEST(Render, CbgpNetworkScript) {
  auto tree = rendered("cbgp");
  const auto* script = tree.get("network.cli");
  ASSERT_NE(script, nullptr);
  EXPECT_NE(script->find("net add node"), std::string::npos);
  EXPECT_NE(script->find("net add link"), std::string::npos);
  EXPECT_NE(script->find("igp-weight"), std::string::npos);
  EXPECT_NE(script->find("bgp add router"), std::string::npos);
  EXPECT_NE(script->find("net add domain 100 igp"), std::string::npos);
  EXPECT_NE(script->find("net domain 100 compute"), std::string::npos);
  EXPECT_NE(script->find("sim run"), std::string::npos);
}

TEST(Render, DeterministicOutput) {
  auto a = rendered();
  auto b = rendered();
  EXPECT_EQ(a, b);
}

TEST(Render, StatsMatchTree) {
  core::Workflow wf;
  wf.load(topology::small_internet()).design().compile().render();
  auto stats = render::stats_of(wf.nidb(), wf.configs());
  EXPECT_EQ(stats.devices, 14u);
  EXPECT_EQ(stats.files, wf.configs().file_count());
  EXPECT_EQ(stats.items, wf.configs().item_count());
  EXPECT_EQ(stats.bytes, wf.configs().total_bytes());
  EXPECT_GT(stats.items, stats.files);
}

TEST(Render, MissingTemplateBaseThrows) {
  nidb::Nidb nidb;
  auto& rec = nidb.add_device("r1");
  rec.data.set_path("render.base", "templates/doesnotexist");
  rec.data.set_path("render.base_dst_folder", "x/r1");
  EXPECT_THROW(render::render_configs(nidb), std::runtime_error);
}

TEST(TemplateStoreTest, CustomDirectoryWithStaticFiles) {
  // §5.5: a user directory holding templates (*.tmpl) and static files.
  const core::TempDir tmp("autonet_tmpl_test");
  const std::filesystem::path dir = tmp.path();
  std::filesystem::create_directories(dir / "etc");
  std::ofstream(dir / "etc" / "motd") << "static banner\n";
  std::ofstream(dir / "etc" / "custom.conf.tmpl") << "host ${node.hostname}\n";

  TemplateStore store;
  store.add_directory("templates/custom", dir.string());
  nidb::Nidb nidb;
  auto& rec = nidb.add_device("r9");
  rec.data["hostname"] = "r9";
  rec.data.set_path("render.base", "templates/custom");
  rec.data.set_path("render.base_dst_folder", "localhost/custom/r9");
  auto tree = render::render_configs(nidb, store);
  EXPECT_EQ(*tree.get("localhost/custom/r9/etc/motd"), "static banner\n");
  EXPECT_EQ(*tree.get("localhost/custom/r9/etc/custom.conf"), "host r9\n");
}

TEST(TemplateStoreTest, MissingDirectoryThrows) {
  TemplateStore store;
  EXPECT_THROW(store.add_directory("x", "/nonexistent/dir"), std::runtime_error);
}

TEST(Render, ServerStartupHasInterfacesOnly) {
  auto input = topology::figure5();
  auto s = input.add_node("server1");
  input.set_node_attr(s, "device_type", "server");
  input.set_node_attr(s, "asn", 1);
  input.add_edge("server1", "r1");
  core::Workflow wf;
  wf.load(input).design().compile().render();
  const auto* startup = wf.configs().get("localhost/netkit/server1/.startup");
  ASSERT_NE(startup, nullptr);
  EXPECT_NE(startup->find("/sbin/ifconfig eth1"), std::string::npos);
  EXPECT_EQ(startup->find("zebra"), std::string::npos);
  // No quagga directory for plain servers.
  EXPECT_FALSE(wf.configs().contains("localhost/netkit/server1/etc/quagga/daemons"));
}

}  // namespace
