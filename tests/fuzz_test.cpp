// The fuzzing subsystem: deterministic scenario generation, the oracle
// registry, the shrinking minimizer, and the journaled campaign driver.
// The acceptance property lives here too: a fixed-seed campaign is
// byte-deterministic (same journal on every invocation) and every
// built-in oracle is green on the committed example topologies.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "core/hash.hpp"
#include "core/json.hpp"
#include "core/temp_dir.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/rng.hpp"
#include "fuzz/scenario.hpp"
#include "fuzz/session.hpp"
#include "fuzz/shrink.hpp"
#include "obs/registry.hpp"
#include "topology/builtin.hpp"
#include "topology/graphml.hpp"

namespace {

using namespace autonet;
namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- RNG / seeds -----------------------------------------------------------

TEST(FuzzRng, SplitmixIsDeterministicAndSeedSensitive) {
  fuzz::Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  bool differs = false;
  fuzz::Rng a2(42);
  for (int i = 0; i < 100; ++i) differs |= a2.next() != c.next();
  EXPECT_TRUE(differs);
  EXPECT_EQ(fuzz::Rng(7).below(0), 0u);
  for (int i = 0; i < 50; ++i) {
    const auto v = fuzz::Rng(i).range(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(FuzzRng, MixAndFnvAreStableAcrossPlatforms) {
  // Pinned values: the corpus addresses and journal seeds depend on
  // these never changing.
  static_assert(core::fnv1a("") == 0xcbf29ce484222325ULL);
  EXPECT_EQ(core::fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(core::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(core::fnv1a("b", core::fnv1a("a")), core::fnv1a("ab"));
  EXPECT_EQ(fuzz::mix(1, 2), 0x7717980363c8e066ULL);
  EXPECT_NE(fuzz::mix(1, 2), fuzz::mix(2, 1));
}

// --- Scenario generation ---------------------------------------------------

TEST(FuzzScenario, SameSeedProducesByteIdenticalScenario) {
  for (std::uint64_t seed : {1ULL, 7ULL, 99ULL, 12345ULL}) {
    const fuzz::Scenario a = fuzz::generate_scenario(seed, 40);
    const fuzz::Scenario b = fuzz::generate_scenario(seed, 40);
    EXPECT_EQ(fuzz::scenario_to_graphml(a), fuzz::scenario_to_graphml(b));
    EXPECT_EQ(a.summary, b.summary);
    EXPECT_LE(a.graph.node_count(), 40u);
    EXPECT_GE(a.graph.node_count(), 2u);
    // Every generated scenario is a valid pipeline input: connected,
    // every node a router with an ASN.
    EXPECT_TRUE(fuzz::connected_without(a.graph, graph::kInvalidNode));
    for (graph::NodeId n : a.graph.nodes()) {
      EXPECT_TRUE(a.graph.node_attrs(n).contains("asn"));
      EXPECT_TRUE(a.graph.node_attrs(n).contains("device_type"));
    }
  }
}

TEST(FuzzScenario, DifferentSeedsExploreDifferentShapes) {
  std::set<std::string> shapes;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    shapes.insert(fuzz::generate_scenario(seed, 24).summary);
  }
  EXPECT_GE(shapes.size(), 8u);  // the space is actually being explored
}

TEST(FuzzScenario, GraphmlRoundTripPreservesScenario) {
  fuzz::Scenario s = fuzz::generate_scenario(77, 16);
  s.ibgp = "rr";
  const std::string text = fuzz::scenario_to_graphml(s);
  const fuzz::Scenario back = fuzz::scenario_from_graphml(text);
  EXPECT_EQ(back.seed, s.seed);
  EXPECT_EQ(back.ibgp, "rr");
  EXPECT_EQ(back.platform, s.platform);
  // Serializing the round-tripped scenario is a fixpoint.
  EXPECT_EQ(fuzz::scenario_to_graphml(back), text);
}

TEST(FuzzScenario, MutationsApplyAndPreserveInvariants) {
  fuzz::Scenario s = fuzz::generate_scenario(5, 20);
  const std::size_t nodes_before = s.graph.node_count();
  bool any = false;
  for (auto kind :
       {fuzz::MutationKind::kAddLink, fuzz::MutationKind::kRemoveLink,
        fuzz::MutationKind::kCostPerturb, fuzz::MutationKind::kAreaReassign,
        fuzz::MutationKind::kPolicyFlip}) {
    graph::Graph g = s.graph;
    const std::string tag = fuzz::apply_mutation(g, kind, 9001);
    if (tag.empty()) continue;
    any = true;
    EXPECT_EQ(g.node_count(), nodes_before) << tag;
    EXPECT_TRUE(fuzz::connected_without(g, graph::kInvalidNode)) << tag;
  }
  EXPECT_TRUE(any);
  // apply_any_mutation finds one deterministically.
  graph::Graph g1 = s.graph, g2 = s.graph;
  EXPECT_EQ(fuzz::apply_any_mutation(g1, 4), fuzz::apply_any_mutation(g2, 4));
  EXPECT_EQ(topology::to_graphml(g1), topology::to_graphml(g2));
}

// --- Oracles ---------------------------------------------------------------

TEST(FuzzOracles, RegistryHasSixNamedOracles) {
  const auto& oracles = fuzz::oracle_registry();
  ASSERT_EQ(oracles.size(), 6u);
  for (const char* name :
       {"fib-crosscheck", "incr-equivalence", "ckpt-resume",
        "lint-determinism", "render-roundtrip", "loader-robustness"}) {
    EXPECT_NE(fuzz::find_oracle(name), nullptr) << name;
  }
  EXPECT_EQ(fuzz::find_oracle("nope"), nullptr);
}

TEST(FuzzOracles, AllSixGreenOnCommittedExamples) {
  fuzz::Scenario fig;
  fig.graph = topology::figure5();
  fig.seed = 5;
  fig.summary = "fixture(figure5)";
  for (const auto& oracle : fuzz::oracle_registry()) {
    const auto result = oracle.run(fig);
    EXPECT_FALSE(result.failed())
        << oracle.name << " on figure5: " << result.detail;
  }
}

TEST(FuzzOracles, GreenOnGeneratedMultiAsScenario) {
  const fuzz::Scenario s = fuzz::generate_scenario(3, 10);
  for (const auto& oracle : fuzz::oracle_registry()) {
    const auto result = oracle.run(s);
    EXPECT_FALSE(result.failed())
        << oracle.name << " on " << s.summary << ": " << result.detail;
  }
}

// --- Shrinker --------------------------------------------------------------

// The injected bug: the "oracle" fails iff some live edge joins two
// poisoned nodes — a stand-in for a real two-node interaction bug.
fuzz::Oracle poison_oracle() {
  return {"poison-pair", "fails when two poisoned nodes share a link",
          [](const fuzz::Scenario& s) {
            for (graph::EdgeId e : s.graph.edges()) {
              const auto& a = s.graph.node_attrs(s.graph.edge_src(e));
              const auto& b = s.graph.node_attrs(s.graph.edge_dst(e));
              if (a.contains("poison") && b.contains("poison")) {
                return fuzz::OracleResult::fail("poisoned pair linked");
              }
            }
            return fuzz::OracleResult::pass();
          }};
}

TEST(FuzzOracles, SameSeedScratchDirsAreDistinctAndIndependent) {
  // Two same-seed campaigns (processes or threads) each get their own
  // checkpoint directory (core::TempDir, named as the incr oracle names
  // it): neither can delete the other's files.
  std::optional<core::TempDir> first(std::in_place, "autonet-fuzz-incr-7");
  const core::TempDir second("autonet-fuzz-incr-7");
  const std::string first_path = first->path();
  EXPECT_NE(first_path, second.path());
  EXPECT_NE(first_path.find("autonet-fuzz-incr-7-"), std::string::npos) << first_path;
  EXPECT_TRUE(fs::is_directory(first_path));
  EXPECT_TRUE(fs::is_empty(first_path));

  std::ofstream(first_path + "/snapshot.json") << "{}";
  std::ofstream(second.path() + "/snapshot.json") << "{}";
  first.reset();
  EXPECT_FALSE(fs::exists(first_path));
  EXPECT_EQ(slurp(second.path() + "/snapshot.json"), "{}");
}

TEST(FuzzShrink, MinimizesInjectedBugToAtMostSixNodes) {
  // A big seeded scenario with the bug planted on one existing link.
  fuzz::Scenario s = fuzz::generate_scenario(1, 40);
  ASSERT_GE(s.graph.node_count(), 10u);
  const graph::EdgeId victim = s.graph.edges().front();
  s.graph.set_node_attr(s.graph.edge_src(victim), "poison", true);
  s.graph.set_node_attr(s.graph.edge_dst(victim), "poison", true);

  const fuzz::Oracle oracle = poison_oracle();
  ASSERT_TRUE(oracle.run(s).failed());

  const fuzz::ShrinkResult shrunk = fuzz::shrink(s, oracle);
  EXPECT_TRUE(oracle.run(shrunk.scenario).failed());  // still a repro
  EXPECT_LE(shrunk.scenario.graph.node_count(), 6u);
  EXPECT_GE(shrunk.steps, 1u);
  EXPECT_GE(shrunk.evaluations, shrunk.steps);

  // Deterministic: shrinking the same failure twice gives the same
  // minimum.
  const fuzz::ShrinkResult again = fuzz::shrink(s, oracle);
  EXPECT_EQ(fuzz::scenario_to_graphml(again.scenario),
            fuzz::scenario_to_graphml(shrunk.scenario));
}

TEST(FuzzShrink, RespectsEvaluationBudget) {
  fuzz::Scenario s = fuzz::generate_scenario(2, 30);
  const graph::EdgeId victim = s.graph.edges().front();
  s.graph.set_node_attr(s.graph.edge_src(victim), "poison", true);
  s.graph.set_node_attr(s.graph.edge_dst(victim), "poison", true);
  fuzz::ShrinkLimits limits;
  limits.max_evals = 5;
  const fuzz::ShrinkResult shrunk = fuzz::shrink(s, poison_oracle(), limits);
  EXPECT_LE(shrunk.evaluations, 5u);
  EXPECT_TRUE(poison_oracle().run(shrunk.scenario).failed());
}

// --- Corpus ----------------------------------------------------------------

TEST(FuzzCorpus, SaveListLoadRoundTrip) {
  const core::TempDir tmp("autonet_fuzz_corpus");
  const std::string& dir = tmp.path();
  const fuzz::Scenario s = fuzz::generate_scenario(13, 8);
  const std::string path =
      fuzz::save_corpus_entry(dir, "render-roundtrip", s, "detail text");
  EXPECT_TRUE(fs::exists(path));

  const auto entries = fuzz::list_corpus(dir);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].oracle, "render-roundtrip");
  const fuzz::Scenario back = fuzz::load_corpus_entry(entries[0].path);
  EXPECT_EQ(back.seed, s.seed);
  EXPECT_EQ(fuzz::scenario_to_graphml(back), fuzz::scenario_to_graphml(s));

  // The sibling repro note names the oracle and a replay command that is
  // corpus-location independent.
  const std::string repro = slurp(dir + "/render-roundtrip/13.repro");
  EXPECT_NE(repro.find("oracle: render-roundtrip"), std::string::npos);
  EXPECT_NE(repro.find("autonet fuzz --replay render-roundtrip/13.graphml"),
            std::string::npos);
}

// --- Campaign driver -------------------------------------------------------

TEST(FuzzSession, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(core::json_escape("a\"b\\c\nd\te\rf"), "a\\\"b\\\\c\\nd\\te\\rf");
  EXPECT_EQ(core::json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(core::json_escape(std::string(1, '\x1f')), "\\u001f");
  std::string quoted = "x=";
  core::append_json_string(quoted, "\"\x7f");
  EXPECT_EQ(quoted, "x=\"\\\"\x7f\"");
}

// Every control byte in a record's free text survives write -> resume
// (the journal escapes them as \u00XX), and a torn line is skipped, so
// its run executes again.
TEST(FuzzSession, JournalRecordWithControlBytesRoundTripsThroughResume) {
  std::string controls;
  for (int c = 0; c < 0x20; ++c) controls += static_cast<char>(c);
  controls += "\x7f\"\\/";
  fuzz::FuzzRunRecord record;
  record.run = 0;
  record.seed = 0xfedcba9876543210ULL;  // past the int64 range
  record.oracle = "ckpt-resume";
  record.scenario = "scenario:" + controls;
  record.status = "fail";
  record.detail = "detail:" + controls;
  record.corpus_path = "ckpt-resume/1.graphml";
  auto expect_record = [&record](const fuzz::FuzzRunRecord& got) {
    EXPECT_EQ(got.run, record.run);
    EXPECT_EQ(got.seed, record.seed);
    EXPECT_EQ(got.oracle, record.oracle);
    EXPECT_EQ(got.scenario, record.scenario);
    EXPECT_EQ(got.status, record.status);
    EXPECT_EQ(got.detail, record.detail);
    EXPECT_EQ(got.corpus_path, record.corpus_path);
  };
  const std::string line = fuzz::journal_line(record);
  EXPECT_NE(line.find("\\u0001"), std::string::npos) << line;
  const std::optional<fuzz::FuzzRunRecord> parsed = fuzz::parse_journal_line(line);
  ASSERT_TRUE(parsed.has_value());
  expect_record(*parsed);
  EXPECT_FALSE(fuzz::parse_journal_line(line.substr(0, line.size() - 1)).has_value());

  const core::TempDir tmp("autonet_fuzz_journal_roundtrip");
  fuzz::FuzzOptions options;
  options.seed = 4;
  options.runs = 1;
  options.max_nodes = 8;
  options.corpus_dir = tmp.path();
  obs::Registry registry;
  obs::RegistryScope scope(registry);
  (void)fuzz::run_fuzz(options);
  const std::string path = tmp.path() + "/journal.jsonl";
  const std::string header = slurp(path).substr(0, slurp(path).find('\n') + 1);

  // The written record, then a torn copy of another run-0 record.
  std::ofstream(path, std::ios::binary)
      << header << line << "\n" << line.substr(0, line.size() / 2) << "\n";
  const fuzz::FuzzReport resumed = fuzz::run_fuzz(options);
  EXPECT_EQ(resumed.resumed, 1u);
  EXPECT_EQ(resumed.executed, 0u);
  ASSERT_EQ(resumed.violations.size(), 1u);
  expect_record(resumed.violations[0]);

  // A journal holding only the torn line re-executes the run.
  std::ofstream(path, std::ios::binary) << header << line.substr(0, line.size() / 2) << "\n";
  const fuzz::FuzzReport rerun = fuzz::run_fuzz(options);
  EXPECT_EQ(rerun.resumed, 0u);
  EXPECT_EQ(rerun.executed, 1u);
}

TEST(FuzzSession, CampaignJournalIsByteDeterministic) {
  const core::TempDir dir_a_tmp("autonet_fuzz_camp_a");
  const std::string& dir_a = dir_a_tmp.path();
  const core::TempDir dir_b_tmp("autonet_fuzz_camp_b");
  const std::string& dir_b = dir_b_tmp.path();
  fuzz::FuzzOptions options;
  options.seed = 1;
  options.runs = 8;
  options.max_nodes = 12;

  options.corpus_dir = dir_a;
  const fuzz::FuzzReport a = fuzz::run_fuzz(options);
  options.corpus_dir = dir_b;
  const fuzz::FuzzReport b = fuzz::run_fuzz(options);

  EXPECT_TRUE(a.clean()) << (a.violations.empty() ? "" : a.violations[0].detail);
  EXPECT_EQ(a.executed, 8u);
  EXPECT_EQ(slurp(dir_a + "/journal.jsonl"), slurp(dir_b + "/journal.jsonl"));
}

// Two same-seed campaigns at once, on two threads of one process, each
// journaling into its own directory: any state the campaigns share (the
// global registry, oracle and analysis caches) must not leak into a
// run's outcome, so the journals are byte-identical. Six runs visit
// every oracle once.
TEST(FuzzSession, ConcurrentSameSeedCampaignsWriteIdenticalJournals) {
  const core::TempDir dir_a("autonet_fuzz_concurrent_a");
  const core::TempDir dir_b("autonet_fuzz_concurrent_b");
  auto campaign = [](const std::string& dir, fuzz::FuzzReport& report) {
    fuzz::FuzzOptions options;
    options.seed = 1;
    options.runs = 6;
    options.max_nodes = 12;
    options.corpus_dir = dir;
    report = fuzz::run_fuzz(options);
  };
  fuzz::FuzzReport a;
  fuzz::FuzzReport b;
  std::thread first(campaign, dir_a.path(), std::ref(a));
  std::thread second(campaign, dir_b.path(), std::ref(b));
  first.join();
  second.join();

  EXPECT_EQ(a.executed, 6u);
  EXPECT_EQ(b.executed, 6u);
  const std::string journal = slurp(dir_a.path() + "/journal.jsonl");
  EXPECT_FALSE(journal.empty());
  EXPECT_EQ(journal, slurp(dir_b.path() + "/journal.jsonl"));
}

TEST(FuzzSession, CampaignResumesFromJournalWithoutReexecution) {
  const core::TempDir tmp("autonet_fuzz_resume");
  const std::string& dir = tmp.path();
  fuzz::FuzzOptions options;
  options.seed = 4;
  options.runs = 6;
  options.max_nodes = 10;
  options.corpus_dir = dir;

  obs::Registry registry;
  obs::RegistryScope scope(registry);
  const fuzz::FuzzReport first = fuzz::run_fuzz(options);
  EXPECT_EQ(first.executed, 6u);
  EXPECT_EQ(first.resumed, 0u);
  std::uint64_t runs_counter = 0;
  for (const auto& [name, value] : registry.counter_values()) {
    if (name == "fuzz.runs") runs_counter = value;
  }
  EXPECT_EQ(runs_counter, 6u);

  const std::string journal = slurp(dir + "/journal.jsonl");
  const fuzz::FuzzReport second = fuzz::run_fuzz(options);
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(second.resumed, 6u);
  EXPECT_EQ(second.passed + second.skipped + second.failed, 6u);
  // Resuming a complete campaign appends nothing.
  EXPECT_EQ(slurp(dir + "/journal.jsonl"), journal);

  // A different campaign (more runs) restarts the journal.
  options.runs = 7;
  const fuzz::FuzzReport third = fuzz::run_fuzz(options);
  EXPECT_EQ(third.executed, 7u);
  EXPECT_EQ(third.resumed, 0u);
}

TEST(FuzzSession, ViolationIsShrunkJournaledAndSavedToCorpus) {
  // End-to-end with a failing campaign: plant a violation by asking for
  // an unknown... rather, drive run_fuzz's failure path directly via a
  // scenario replay against the poison oracle through shrink+corpus.
  const core::TempDir tmp("autonet_fuzz_violation");
  const std::string& dir = tmp.path();
  fuzz::Scenario s = fuzz::generate_scenario(6, 24);
  const graph::EdgeId victim = s.graph.edges().front();
  s.graph.set_node_attr(s.graph.edge_src(victim), "poison", true);
  s.graph.set_node_attr(s.graph.edge_dst(victim), "poison", true);
  const fuzz::Oracle oracle = poison_oracle();

  const fuzz::ShrinkResult shrunk = fuzz::shrink(s, oracle);
  const std::string path =
      fuzz::save_corpus_entry(dir, oracle.name, shrunk.scenario, shrunk.detail);
  // The persisted repro replays to the same failure.
  const fuzz::Scenario back = fuzz::load_corpus_entry(path);
  EXPECT_TRUE(fuzz::replay_scenario(back, oracle).failed());
  EXPECT_LE(back.graph.node_count(), 6u);
}

TEST(FuzzSession, UnknownOracleThrows) {
  fuzz::FuzzOptions options;
  options.oracle = "does-not-exist";
  const core::TempDir tmp("autonet_fuzz_unknown");
  options.corpus_dir = tmp.path();
  EXPECT_THROW((void)fuzz::run_fuzz(options), std::runtime_error);
}

}  // namespace
