// Robustness: malformed or adversarial inputs must produce typed errors
// (or clean skips), never crashes or silent corruption — the parsers face
// user-supplied files and hand-edited configs.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <typeinfo>

#include "core/temp_dir.hpp"
#include "emulation/config_parse.hpp"
#include "emulation/incident.hpp"
#include "emulation/network.hpp"
#include "measure/textfsm.hpp"
#include "nidb/value.hpp"
#include "templates/template.hpp"
#include "topology/gml.hpp"
#include "topology/graphml.hpp"
#include "topology/rocketfuel.hpp"

namespace {

using namespace autonet;

std::vector<std::string> garbage_corpus() {
  std::vector<std::string> corpus{
      "",
      " ",
      "\n\n\n",
      "\x00\x01\x02",
      "<<<<>>>>",
      "graph [ node [ id",
      "<graphml><graph>",
      "<graphml><graph edgedefault=\"undirected\"><node id=\"a\"></graph></graphml>",
      "router bgp abc\n neighbor x remote-as y\n",
      "${unterminated",
      "% for x in:\n% endfor\n",
      "]]]}}}",
      std::string(10000, 'A'),
      std::string("\xff\xfe\xfd"),
  };
  // Deterministic pseudo-random byte soup.
  std::mt19937_64 rng(1234);
  for (int i = 0; i < 10; ++i) {
    std::string s;
    std::uniform_int_distribution<int> len(1, 500);
    std::uniform_int_distribution<int> byte(0, 255);
    int count = len(rng);
    for (int j = 0; j < count; ++j) s += static_cast<char>(byte(rng));
    corpus.push_back(std::move(s));
  }
  return corpus;
}

TEST(Robustness, GraphmlNeverCrashes) {
  for (const auto& text : garbage_corpus()) {
    try {
      auto g = topology::load_graphml(text);
      (void)g.node_count();
    } catch (const topology::ParseError&) {
    } catch (const std::exception&) {
      // Any std exception is acceptable; crashes are not.
    }
  }
  SUCCEED();
}

TEST(Robustness, GmlNeverCrashes) {
  for (const auto& text : garbage_corpus()) {
    try {
      auto g = topology::load_gml(text);
      (void)g.node_count();
    } catch (const std::exception&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, RocketfuelNeverCrashes) {
  for (const auto& text : garbage_corpus()) {
    try {
      auto g = topology::load_rocketfuel(text);
      (void)g.node_count();
    } catch (const std::exception&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, GraphmlAlwaysThrowsTypedParseError) {
  // Stronger than "no crash": every rejection is the typed ParseError,
  // never a raw std::runtime_error / std::out_of_range escaping from the
  // XML layer or std::stoi.
  for (const auto& text : garbage_corpus()) {
    try {
      auto g = topology::load_graphml(text);
      (void)g.node_count();
    } catch (const topology::ParseError&) {
      // The contract.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped exception for input " << testing::PrintToString(text)
                    << ": " << e.what();
    }
  }
}

TEST(Robustness, GraphmlEntityReferenceEdgeCases) {
  auto doc = [](const std::string& label) {
    return "<graphml><key id=\"d0\" for=\"node\" attr.name=\"label\" "
           "attr.type=\"string\"/><graph id=\"g\" edgedefault=\"undirected\">"
           "<node id=\"a\"><data key=\"d0\">" +
           label + "</data></node></graph></graphml>";
  };
  // "&#;" used to read one byte past the entity text; huge values used
  // to escape as std::out_of_range from std::stoi. Both are typed now.
  EXPECT_THROW((void)topology::load_graphml(doc("&#;")), topology::ParseError);
  EXPECT_THROW((void)topology::load_graphml(doc("&#x;")), topology::ParseError);
  EXPECT_THROW((void)topology::load_graphml(doc("&#99999999999999999999;")),
               topology::ParseError);
  EXPECT_THROW((void)topology::load_graphml(doc("&#xZZ;")), topology::ParseError);

  // Valid references still decode (including UTF-8 beyond one byte).
  auto g = topology::load_graphml(doc("&#65;&#x42;&#20013;"));
  ASSERT_EQ(g.node_count(), 1u);
  const auto* label = g.node_attr(g.find_node("AB\xE4\xB8\xAD"), "label").as_string();
  ASSERT_NE(label, nullptr);
  EXPECT_EQ(*label, "AB\xE4\xB8\xAD");
}

TEST(Robustness, GraphmlErrorsCarryLineContext) {
  const std::string text =
      "<graphml>\n"
      "  <graph id=\"g\" edgedefault=\"undirected\">\n"
      "    <node id=\"a\"></nod>\n"
      "  </graph>\n"
      "</graphml>\n";
  try {
    (void)topology::load_graphml(text);
    FAIL() << "expected ParseError";
  } catch (const topology::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(Robustness, GraphmlFileErrorsCarryPath) {
  const core::TempDir tmp("autonet-bad");
  const std::string path = tmp.path() + "/bad.graphml";
  {
    std::ofstream out(path, std::ios::binary);
    out << "<graphml>\n<graph>\n";
  }
  try {
    (void)topology::load_graphml_file(path);
    FAIL() << "expected ParseError";
  } catch (const topology::ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line"), std::string::npos) << what;
  }
}

TEST(Robustness, RocketfuelMalformedLineIsTypedError) {
  // Comments and blank lines are fine; a non-comment line without a
  // leading router uid is a typed error naming its line (it used to be
  // silently dropped).
  const std::string good =
      "# comment\n"
      "1 @loc bb -> <2> =r1 rn\n"
      "\n"
      "2 @loc -> <1> =r2 rn\n";
  EXPECT_EQ(topology::load_rocketfuel(good).node_count(), 2u);

  const std::string bad =
      "1 @loc bb -> <2> =r1 rn\n"
      "oops not a router\n";
  try {
    (void)topology::load_rocketfuel(bad);
    FAIL() << "expected ParseError";
  } catch (const topology::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(Robustness, RocketfuelFileErrorsCarryPath) {
  const core::TempDir tmp("autonet-bad");
  const std::string path = tmp.path() + "/bad.cch";
  {
    std::ofstream out(path, std::ios::binary);
    out << "1 @loc -> <2> =r1 rn\nbogus\n";
  }
  try {
    (void)topology::load_rocketfuel_file(path);
    FAIL() << "expected ParseError";
  } catch (const topology::ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

TEST(Robustness, GmlMalformedInputIsTypedError) {
  // Each of these used to escape as an untyped std::invalid_argument,
  // std::out_of_range, or std::bad_variant_access (found by
  // `autonet fuzz --oracle loader-robustness`); corrupted GML may only
  // surface as ParseError.
  const char* bad[] = {
      "graph [ node [ id - ] ]",                 // bare sign, stoll
      "graph [ node [ id 99999999999999999999999999 ] ]",  // overflow
      "graph [ node [ id 1 w 1e99999 ] ]",       // stod overflow
      "graph [ node 5 ]",                        // node value not a list
      "graph [ edge \"x\" ]",                    // edge value not a list
      "graph [ node [ id 1 ] edge [ source \"a\" target 1 ] ]",
      "graph [ node [ id 1 ] edge [ source 1 target 9 ] ]",
      "graph [ node [ id 1 ] node [ ] ]",        // node without id
      "graph [ \"unterminated",
      "nothing here",
  };
  for (const char* text : bad) {
    try {
      (void)topology::load_gml(text);
      // Some corruptions still parse (GML is permissive); that is fine.
    } catch (const topology::ParseError&) {
      // typed: fine
    } catch (const std::exception& e) {
      FAIL() << "untyped " << typeid(e).name() << " for: " << text << " — "
             << e.what();
    }
  }
  EXPECT_THROW((void)topology::load_gml("graph [ node [ id - ] ]"),
               topology::ParseError);
}

TEST(Robustness, GmlFileErrorsCarryPath) {
  const core::TempDir tmp("autonet-bad");
  const std::string path = tmp.path() + "/bad.gml";
  {
    std::ofstream out(path, std::ios::binary);
    out << "graph [ node [ id - ] ]";
  }
  try {
    (void)topology::load_gml_file(path);
    FAIL() << "expected ParseError";
  } catch (const topology::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(Robustness, JsonNeverCrashes) {
  for (const auto& text : garbage_corpus()) {
    try {
      auto v = nidb::parse_json(text);
      (void)v.to_json();
    } catch (const std::exception&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, TemplateNeverCrashes) {
  templates::Context ctx;
  ctx.set("node", nidb::Value(nidb::Object{{"x", nidb::Value(1)}}));
  for (const auto& text : garbage_corpus()) {
    try {
      auto out = templates::render(text, ctx);
      (void)out.size();
    } catch (const std::exception&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, ConfigParsersNeverCrash) {
  for (const auto& text : garbage_corpus()) {
    try {
      (void)emulation::parse_ios_config(text);
    } catch (const std::exception&) {
    }
    try {
      (void)emulation::parse_junos_config(text);
    } catch (const std::exception&) {
    }
    try {
      (void)emulation::parse_cbgp_script(text);
    } catch (const std::exception&) {
    }
    try {
      render::ConfigTree tree;
      tree.put("dev/.startup", text);
      tree.put("dev/etc/quagga/ospfd.conf", text);
      tree.put("dev/etc/quagga/bgpd.conf", text);
      (void)emulation::parse_quagga_device(tree, "dev", "dev");
    } catch (const std::exception&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, CbgpNetworkBootNeverCrashes) {
  // Beyond parsing: garbage fed all the way into network construction
  // (and, when it survives, convergence) must stay typed exceptions.
  for (const auto& text : garbage_corpus()) {
    try {
      auto net = emulation::EmulatedNetwork::from_cbgp_script(text);
      (void)net.start();
    } catch (const std::exception&) {
    }
  }
  // Near-valid scripts with broken tails exercise the later stages.
  const std::vector<std::string> tails{
      "net add node 1.1.1.1\nnet add node", "net add link 1.1.1.1",
      "net add link 1.1.1.1 2.2.2.2 999999999999",
      "bgp add router 1 not-an-ip", "bgp router 1.1.1.1\n  add peer 2"};
  for (const auto& tail : tails) {
    try {
      auto net = emulation::EmulatedNetwork::from_cbgp_script(
          "net add node 1.1.1.1\n" + tail + "\n");
      (void)net.start();
    } catch (const std::exception&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, IncidentScriptNeverCrashes) {
  for (const auto& text : garbage_corpus()) {
    try {
      (void)emulation::parse_incident_script(text);
    } catch (const emulation::IncidentError&) {
    }
  }
  SUCCEED();
}

TEST(Robustness, TextFsmNeverCrashes) {
  for (const auto& text : garbage_corpus()) {
    try {
      auto fsm = measure::TextFsm::parse(text);
      (void)fsm.run("input line\n");
    } catch (const std::exception&) {
    }
    // Garbage as *input* to a valid template must never throw at all.
    EXPECT_NO_THROW(measure::TextFsm::traceroute_template().run(text));
  }
}

TEST(Robustness, DeepTemplateNestingBounded) {
  // 64 nested loops parse and render without stack issues.
  std::string text;
  for (int i = 0; i < 64; ++i) {
    text += "% for v" + std::to_string(i) + " in xs:\n";
  }
  text += "y\n";
  for (int i = 0; i < 64; ++i) text += "% endfor\n";
  templates::Context ctx;
  ctx.set("xs", nidb::Value(nidb::Array{nidb::Value(1)}));
  EXPECT_EQ(templates::render(text, ctx), "y\n");
}

TEST(Robustness, HugeJsonRoundTrip) {
  nidb::Array arr;
  for (int i = 0; i < 20000; ++i) {
    arr.emplace_back(nidb::Object{{"i", nidb::Value(i)}});
  }
  nidb::Value v{std::move(arr)};
  auto text = v.to_json();
  EXPECT_EQ(nidb::parse_json(text), v);
}

}  // namespace
