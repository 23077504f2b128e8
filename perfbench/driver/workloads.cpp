#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/workflow.hpp"
#include "deploy/archive.hpp"
#include "emulation/network.hpp"
#include "experiment/aggregate.hpp"
#include "experiment/campaign.hpp"
#include "experiment/runner.hpp"
#include "fuzz/rng.hpp"
#include "graph/algorithms.hpp"
#include "incremental/delta.hpp"
#include "measure/client.hpp"
#include "obs/registry.hpp"
#include "render/renderer.hpp"
#include "topology/generators.hpp"
#include "topology/graphml.hpp"
#include "topology/load.hpp"
#include "verify/analysis/cache.hpp"
#include "verify/analysis/model.hpp"
#include "verify/analysis/workspace.hpp"
#include "verify/rules.hpp"

namespace perfbench {

namespace {

using namespace autonet;
namespace analysis = verify::analysis;

// Set-up is timed several times and reported as the median: at least
// kMinSetupRepeats times, and until kSetupBudgetS has been spent, so a
// millisecond set-up (writing one input file) is sampled across several
// seconds rather than caught in one instant of a host whose speed drifts.
constexpr std::size_t kMinSetupRepeats = 5;
constexpr double kSetupBudgetS = 5.0;
constexpr int kRulePairs = 3;
constexpr std::size_t kPathChecks = 64;
constexpr std::size_t kLatencySamples = 1000;

std::string fmt(const char* format, double a, double b = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b);
  return buf;
}

// The metric name of a span's self time: "design" -> "design.ms",
// "verify.lint" -> "verify.lint_ms".
std::string layer_metric(const std::string& layer) {
  return layer + (layer.find('.') == std::string::npos ? ".ms" : "_ms");
}

// One fresh CLI-equivalent invocation: a new Workflow recording into a
// new registry (a new process starts with an empty global registry).
// The lint gate runs its rules on one thread, so an iteration is one
// thread's work, like the reference unit it is measured against.
struct Pipeline {
  std::unique_ptr<obs::Registry> registry = std::make_unique<obs::Registry>();
  std::unique_ptr<core::Workflow> wf = std::make_unique<core::Workflow>(options());

  Pipeline() { wf->use_telemetry(registry.get()); }
  static core::WorkflowOptions options() {
    core::WorkflowOptions o;
    o.lint.options.jobs = 1;
    return o;
  }
  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    for (const auto& [key, value] : registry->counter_values()) {
      if (key == name) return value;
    }
    return 0;
  }
};

graph::Graph load_file(Tracer& tracer, const std::string& path) {
  return tracer.span("topology.load", [&] { return topology::load_topology_file(path); });
}

// load -> design -> compile, each a span named for its layer.
void build_to_nidb(Tracer& tracer, core::Workflow& wf, const graph::Graph& input) {
  tracer.span("anm.load", [&] { wf.load(input); });
  tracer.span("design", [&] { wf.design(); });
  tracer.span("compiler", [&] { wf.compile(); });
}

// ... -> render -> lint: the build every NREN workload but nren-analyze runs.
void build_through_lint(Tracer& tracer, core::Workflow& wf, const graph::Graph& input) {
  build_to_nidb(tracer, wf, input);
  tracer.span("render", [&] { wf.render(); });
  tracer.span("verify.lint", [&] { wf.lint(); });
}

// Runs `make` once in a traced run, else kMinSetupRepeats times and
// until kSetupBudgetS is spent, keeping the last result; returns the
// median time. Earlier results are destroyed before the next timed attempt.
template <typename T, typename F>
double repeat_setup(const Context& ctx, std::optional<T>& keep, F&& make) {
  std::vector<double> samples;
  double spent = 0;
  const std::size_t least = ctx.trace ? 1 : kMinSetupRepeats;
  const double budget = ctx.trace ? 0 : kSetupBudgetS;
  while (samples.size() < least || spent < budget) {
    keep.reset();
    const double start = now_s();
    T value = make();
    samples.push_back(now_s() - start);
    spent += samples.back();
    keep.emplace(std::move(value));
  }
  return median(samples);
}

std::string join_seconds(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) out += fmt(" %.3f", v);
  return out;
}

// Untraced run: one warm-up iteration, then closed-loop iterations for
// ctx.seconds with the reference unit timed before the first and after
// each, then the end-to-end metrics. `wall_ratio` is the median over the
// iterations of the iteration's wall time divided by the mean of the two
// reference times around it. `peak_rss_mb` is the highest VmHWM of an
// iteration, the mark reset before each, so the reference unit's table
// between iterations does not count.
template <typename F>
void timed_loop(const Context& ctx, Outcome& out, double setup_s, F&& iterate) {
  Tracer plain(false);
  bool peak_per_iteration = true;
  double peak_mb = 0;
  auto run = [&] {
    peak_per_iteration &= reset_peak_rss();
    const double wall = iterate(plain);
    peak_mb = std::max(peak_mb, peak_rss_mb());
    return wall;
  };
  const double warmup_s = run();
  Loop loop(ctx.seconds);
  std::vector<double> wall;
  std::vector<double> ratio;
  std::vector<double> reference{reference_s()};
  std::vector<double> cpu;
  while (loop.more()) {
    wall.push_back(run());
    cpu.push_back(plain.last_cpu_s());
    reference.push_back(reference_s());
    ratio.push_back(wall.back() / ((reference[reference.size() - 2] + reference.back()) / 2));
    loop.record(wall.back() + reference.back());
  }
  out.metric("wall_ratio", median(ratio), "ratio");
  out.metric("setup_s", setup_s, "s");
  out.metric("peak_rss_mb", peak_per_iteration ? peak_mb : peak_rss_mb(), "MB");
  out.metric("wall_s", median(wall), "s");
  out.notes.push_back(fmt("wall_ratio, wall_s: medians of %.0f closed-loop iteration(s) after "
                          "a %.3f s warm-up",
                          static_cast<double>(wall.size()), warmup_s));
  out.notes.push_back(fmt("process.cpu_s %.3f s per iteration; reference unit %.4f s (median)",
                          median(cpu), median(reference)));
  out.notes.push_back("iterations (s):" + join_seconds(wall));
  out.notes.push_back("reference unit (s):" + join_seconds(reference));
  if (!peak_per_iteration) {
    out.notes.push_back("VmHWM could not be reset: peak_rss_mb is the whole process's peak");
  }
}

// Traced run: pairs an untraced iteration (the overhead reference) with
// a traced one for ctx.seconds, at least one pair; the pairs alternate
// which side runs first.
template <typename F>
void traced_loop(const Context& ctx, Tracer& traced, Outcome& out, F&& iterate) {
  Tracer plain(false);
  Loop loop(ctx.seconds);
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::vector<double> cpu;
  auto run_plain = [&] {
    plain_s.push_back(iterate(plain));
    cpu.push_back(plain.last_cpu_s());
  };
  while (loop.more()) {
    const bool traced_first = plain_s.size() % 2 == 1;
    if (traced_first) traced_s.push_back(iterate(traced));
    run_plain();
    if (!traced_first) traced_s.push_back(iterate(traced));
    loop.record(plain_s.back() + traced_s.back());
  }
  out.metric("process.cpu_s", median(cpu), "s");
  out.metric("trace.wall_s", median(traced_s), "s");
  out.metric("trace.overhead_ratio", median(traced_s) / median(plain_s), "ratio");
  out.notes.push_back("traced iterations (s):" + join_seconds(traced_s) +
                      "; untraced (s):" + join_seconds(plain_s));
}

void layer_metrics(Outcome& out, const Tracer& tracer) {
  for (const auto& [layer, ms] : tracer.layer_self_ms()) {
    out.metric(layer_metric(layer), ms, "ms");
  }
  out.metric("trace.coverage", tracer.coverage(), "ratio");
}

std::vector<std::string> router_names(const analysis::Model& model) {
  std::vector<std::string> names;
  for (const auto& router : model.routers()) names.push_back(router.hostname);
  return names;
}

// Seeded ordered pairs of distinct routers.
std::vector<std::pair<std::string, std::string>> sample_pairs(
    const std::vector<std::string>& names, std::size_t count, fuzz::Rng& rng) {
  if (names.size() < 2) throw std::invalid_argument("sample_pairs: fewer than two routers");
  std::vector<std::pair<std::string, std::string>> pairs;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t s = rng.below(names.size());
    std::size_t d = rng.below(names.size() - 1);
    if (d >= s) ++d;
    pairs.emplace_back(names[s], names[d]);
  }
  return pairs;
}

// Per-layer verify metrics: run_lint with every rule disabled times the
// shared index gather; each rule run alone, minus a gather-only run next
// to it, is that rule's cost, the median of kRulePairs such pairs. Rules
// that cost well under a millisecond read as noise around 0 (negative
// too); BENCHMARK.json declares only the rules that cost more than 10 ms.
void lint_rule_probes(Outcome& out, const nidb::Nidb& nidb) {
  obs::Registry registry;
  obs::RegistryScope scope(registry);
  const verify::RuleRegistry& rules = verify::RuleRegistry::builtin();
  verify::LintInput input;
  input.nidb = &nidb;
  input.templates = &render::TemplateStore::builtins();
  auto time_lint = [&](const std::string& only) {
    verify::LintOptions options;
    for (const auto& rule : rules.rules()) {
      options.enabled[rule.info.id] = rule.info.id == only;
    }
    const double start = now_s();
    const verify::Report report = verify::run_lint(input, options, rules);
    return (now_s() - start) * 1e3;
  };
  std::vector<double> gather;
  for (const auto& rule : rules.rules()) {
    std::vector<double> cost;
    for (int i = 0; i < kRulePairs; ++i) {
      // Alternate which side of the pair runs first.
      double gather_ms = 0;
      double rule_ms = 0;
      if (i % 2 == 0) {
        gather_ms = time_lint("");
        rule_ms = time_lint(rule.info.id);
      } else {
        rule_ms = time_lint(rule.info.id);
        gather_ms = time_lint("");
      }
      cost.push_back(rule_ms - gather_ms);
      gather.push_back(gather_ms);
    }
    out.metric("verify.rule." + rule.info.id + "_ms", median(cost), "ms");
  }
  out.metric("verify.index_ms", median(gather), "ms");
}

void render_counts(Outcome& out, const render::ConfigTree& configs) {
  out.metric("render.files", static_cast<double>(configs.file_count()), "count");
  out.metric("render.bytes", static_cast<double>(configs.total_bytes()), "bytes");
}

// --- Seeded inputs -----------------------------------------------------

// An input topology written to a fresh directory, as a user hands it to
// the CLI.
struct InputFile {
  std::unique_ptr<TempDir> dir;
  std::string path;
};

InputFile write_input(const std::string& label, const graph::Graph& g) {
  InputFile in{std::make_unique<TempDir>(label), ""};
  in.path = in.dir->path() + "/" + label + ".graphml";
  write_file(in.path, topology::to_graphml(g));
  return in;
}

// The paper's §3.2 input: the European NREN model (42 ASes, 1158
// routers). Fixed; the seed picks only the probe samples.
InputFile nren_input() { return write_input("nren", topology::make_nren_model()); }

// The independent predictor's verdict on every ordered router pair:
// reached, beyond the 30-hop probe limit on a simple (loop-free) path,
// or broken (dropped or looping). Pure over an immutable prediction, so
// the sources are split across worker threads.
struct Census {
  std::size_t reached = 0;
  std::size_t beyond_limit = 0;
  std::size_t broken = 0;
};

// Classifies the pairs whose source index is first, first + stride, ...
Census census_slice(const analysis::Model& model, const analysis::Prediction& prediction,
                    std::size_t first, std::size_t stride) {
  const auto& routers = model.routers();
  Census c;
  for (std::size_t s = first; s < routers.size(); s += stride) {
    for (std::size_t d = 0; d < routers.size(); ++d) {
      if (s == d) continue;
      const analysis::Path path = analysis::trace_to_router(
          model, prediction, routers[s].hostname, routers[d].hostname);
      if (path.reached) {
        ++c.reached;
        continue;
      }
      const auto seq = analysis::router_sequence(routers[s].hostname, path);
      const std::set<std::string> distinct(seq.begin(), seq.end());
      ++(path.looped && distinct.size() == seq.size() ? c.beyond_limit : c.broken);
    }
  }
  return c;
}

Census predicted_census(const analysis::Model& model, const analysis::Prediction& prediction) {
  const std::size_t workers = bench_jobs();
  std::vector<Census> partial(workers);
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      try {
        partial[w] = census_slice(model, prediction, w, workers);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  Census total;
  for (const Census& c : partial) {
    total.reached += c.reached;
    total.beyond_limit += c.beyond_limit;
    total.broken += c.broken;
  }
  return total;
}

// Per-layer probes of a deployed workflow: emulation work counts, the
// deploy archive, a fresh emulation boot, and single-probe latency.
// `reachable` is the pair count the measure phase found.
void network_probes(Tracer& tracer, Outcome& out, core::Workflow& wf, std::size_t reachable,
                    fuzz::Rng& rng) {
  const std::size_t n = wf.network().router_count();
  out.metric("measure.probes", static_cast<double>(n * (n - 1)), "count");
  out.metric("measure.reached_ratio",
             static_cast<double>(reachable) / static_cast<double>(n * (n - 1)), "ratio");
  const emulation::EmulationStats& stats = wf.network().stats();
  out.metric("emulation.bgp_rounds",
             static_cast<double>(wf.deploy_result().convergence.rounds), "count");
  out.metric("emulation.bgp_updates", static_cast<double>(stats.bgp_updates), "count");
  out.metric("emulation.spf_runs", static_cast<double>(stats.spf_runs), "count");
  out.metric("emulation.decision_reruns", static_cast<double>(stats.decision_reruns),
             "count");

  std::string blob;
  for (int i = 0; i < 3; ++i) {
    blob = tracer.span("deploy.pack", [&] { return deploy::pack(wf.configs()); });
  }
  out.metric("deploy.pack_ms", tracer.span_ms("deploy.pack"), "ms");
  out.metric("deploy.archive_bytes", static_cast<double>(blob.size()), "bytes");
  tracer.span("emulation.start", [&] {
    auto net = emulation::EmulatedNetwork::from_nidb(wf.nidb(), wf.configs());
    return net.start();
  });
  out.metric("emulation.start_ms", tracer.span_ms("emulation.start"), "ms");

  const measure::MeasurementClient client = wf.measurement();
  const std::vector<std::string> names = wf.network().router_names();
  std::vector<double> probe_us;
  for (const auto& [src, dst] : sample_pairs(names, kLatencySamples, rng)) {
    const double start = now_s();
    const measure::TraceResult trace = client.traceroute(src, dst);
    probe_us.push_back((now_s() - start) * 1e6);
  }
  out.metric("measure.probe_p50_us", percentile(probe_us, 0.5), "us");
  out.metric("measure.probe_p99_us", percentile(probe_us, 0.99), "us");
}

// Per-layer probes of the analysis engine on `nidb`: one public
// Workspace call per span on a fresh Workspace with a cold cache, the
// peak-RSS growth of the all-pairs path table, the cache's builds and
// hits once a second Workspace has asked for the same baseline,
// single-trace latency, and k=1 what-if re-predictions over a seeded
// link sample.
void analysis_probes(Tracer& tracer, Outcome& out, const nidb::Nidb& nidb, fuzz::Rng& rng) {
  analysis::FibCache::global().clear();
  const analysis::Workspace ws(nidb);
  tracer.span("analysis.model", [&] { return ws.model().size(); });
  const auto prediction = tracer.span("analysis.predict", [&] { return ws.baseline(); });
  const double hwm_before = peak_rss_mb();
  tracer.span("analysis.paths", [&] { return ws.baseline_paths().size(); });
  out.metric("analysis.paths_rss_mb", peak_rss_mb() - hwm_before, "MB");
  const analysis::Stats stats = ws.stats();
  out.metric("analysis.spf_runs", static_cast<double>(stats.spf_runs), "count");
  out.metric("analysis.bgp_rounds", static_cast<double>(stats.bgp_rounds), "count");
  // A second Workspace on the same NIDB, as a second in-process lint run
  // makes one: its baseline must come from the content-addressed cache.
  const analysis::Workspace again(nidb);
  again.baseline();
  out.check(again.stats().fib_cache_hits == 1,
            "second Workspace on the same NIDB rebuilt its baseline");
  const analysis::FibCache::Stats fib = analysis::FibCache::global().stats();
  out.metric("analysis.fib_builds", static_cast<double>(fib.misses), "count");
  out.metric("analysis.fib_cache_hits", static_cast<double>(fib.hits), "count");

  std::vector<double> trace_us;
  for (const auto& [src, dst] : sample_pairs(router_names(ws.model()), kLatencySamples, rng)) {
    const double start = now_s();
    const analysis::Path trace = analysis::trace_to_router(ws.model(), *prediction, src, dst);
    trace_us.push_back((now_s() - start) * 1e6);
  }
  out.metric("analysis.trace_p50_us", percentile(trace_us, 0.5), "us");
  out.metric("analysis.trace_p99_us", percentile(trace_us, 0.99), "us");

  const std::vector<analysis::Link> links = ws.model().links();
  std::vector<double> whatif_ms;
  for (int i = 0; i < 3; ++i) {
    const analysis::Link& link = links.at(rng.below(links.size()));
    const double start = now_s();
    const auto failed = ws.whatif({link.subnet});
    whatif_ms.push_back((now_s() - start) * 1e3);
    if (!failed->bgp_converged) out.check(false, "what-if " + link.a + "<->" + link.b);
  }
  out.metric("analysis.whatif_p50_ms", percentile(whatif_ms, 0.5), "ms");
  out.metric("analysis.whatif_p90_ms", percentile(whatif_ms, 0.9), "ms");
  analysis::FibCache::global().clear();
}

// --- nren-run ------------------------------------------------------------

Outcome run_nren_run(const Context& ctx, Tracer& tracer) {
  Outcome out;
  std::optional<InputFile> input;
  const double setup_s = repeat_setup(ctx, input, [] { return nren_input(); });

  std::unique_ptr<Pipeline> last;
  std::size_t reachable = 0;
  std::vector<std::size_t> reached;  // measured reachable pairs per iteration
  auto iterate = [&](Tracer& t) {
    last.reset();
    auto p = std::make_unique<Pipeline>();
    core::Workflow& wf = *p->wf;
    measure::ValidationReport validation;
    measure::MeasurementClient::ReachabilityMatrix matrix;
    const double wall = t.iteration([&] {
      const graph::Graph g = load_file(t, input->path);
      build_through_lint(t, wf, g);
      t.span("deploy", [&] { wf.deploy(); });
      if (!t.on()) {
        wf.measure();
        return;
      }
      // Traced: the measure phase's two public halves, so the split shows.
      t.span("measure", [&] {
        validation = t.span("measure.validate_ospf", [&] { return wf.validate_ospf(); });
        matrix = t.span("measure.reachability",
                        [&] { return wf.measurement().reachability(); });
      });
    });
    reachable = t.on() ? matrix.reachable_pairs() : p->counter("measure.reachable_pairs");
    const bool valid = t.on() ? validation.ok : wf.measure_report().ok;
    out.check(wf.ok() && wf.deploy_result().convergence.converged && valid,
              "run iteration: deploy, BGP convergence or OSPF validation failed");
    reached.push_back(reachable);
    last = std::move(p);
    return wall;
  };

  if (!ctx.trace) {
    timed_loop(ctx, out, setup_s, iterate);
  } else {
    traced_loop(ctx, tracer, out, iterate);
  }

  // Correctness against the independent predictor. The input is
  // connected, so every pair must be reachable or lie beyond the probes'
  // 30-hop limit on a loop-free path, and the measured matrix must count
  // exactly the pairs the predictor reaches.
  core::Workflow& wf = *last->wf;
  analysis::FibCache::global().clear();
  const analysis::Workspace ws(wf.nidb());
  const auto prediction = ws.baseline();
  const Census census = predicted_census(ws.model(), *prediction);
  const std::size_t routers = wf.network().router_count();
  out.check(census.broken == 0 &&
                census.reached + census.beyond_limit == routers * (routers - 1),
            "predictor: " + std::to_string(census.broken) + " pairs dropped or looping");
  for (const std::size_t measured : reached) {
    out.check(measured == census.reached,
              "measured " + std::to_string(measured) + " reachable pairs, predicted " +
                  std::to_string(census.reached));
  }
  out.notes.push_back(fmt("reachability: %.0f pairs reached, %.0f beyond the 30-hop probe limit",
                          static_cast<double>(census.reached),
                          static_cast<double>(census.beyond_limit)));
  // Measured paths equal the predicted ones on a seeded sample.
  const measure::MeasurementClient client = wf.measurement();
  fuzz::Rng rng(ctx.seed);
  const std::vector<std::string> names = router_names(ws.model());
  std::size_t mismatches = 0;
  for (const auto& [src, dst] : sample_pairs(names, kPathChecks, rng)) {
    const measure::TraceResult measured = client.traceroute(src, dst);
    const analysis::Path path = analysis::trace_to_router(ws.model(), *prediction, src, dst);
    const bool same = measured.reached == path.reached &&
                      measured.node_path == analysis::router_sequence(src, path);
    if (!same) ++mismatches;
    out.check(same, "path " + src + "->" + dst + " differs from prediction");
  }
  out.notes.push_back(fmt("path check: %.0f/%.0f sampled measured paths equal the prediction",
                          static_cast<double>(kPathChecks - mismatches),
                          static_cast<double>(kPathChecks)));
  if (!ctx.trace) return out;

  layer_metrics(out, tracer);
  render_counts(out, wf.configs());
  network_probes(tracer, out, wf, reachable, rng);
  lint_rule_probes(out, wf.nidb());
  return out;
}

// --- nren-analyze --------------------------------------------------------

// Findings that would mean the analysis itself is wrong on the NREN
// model, which is connected, loop-free and blackhole-free by design.
std::size_t forwarding_findings(const verify::Report& report) {
  static const std::set<std::string> kCodes = {"predicted-unreachable",
                                               "predicted-blackhole", "forwarding-loop"};
  std::size_t count = 0;
  for (const auto& finding : report.findings) count += kCodes.count(finding.code);
  return count;
}

verify::Report analyze(const nidb::Nidb& nidb, std::size_t jobs) {
  verify::LintInput input;
  input.nidb = &nidb;
  input.templates = &render::TemplateStore::builtins();
  verify::LintOptions options;
  options.jobs = jobs;
  return verify::run_lint(input, options, verify::RuleRegistry::with_analysis());
}

// run_lint builds its analysis Workspace internally, so the traced
// iterations credit the durations of a separate pass of the same
// Workspace calls to the analysis layers inside their verify.lint span.
// The pass runs first, so the path table's peak-RSS growth is measured
// from a low base.
void analysis_decomposition(const Context& ctx, Tracer& tracer, Outcome& out,
                            const std::string& path) {
  Pipeline p;
  p.wf->load(topology::load_topology_file(path)).design().compile();
  fuzz::Rng rng(ctx.seed);
  analysis_probes(tracer, out, p.wf->nidb(), rng);
  for (const char* layer : {"analysis.model", "analysis.predict", "analysis.paths"}) {
    tracer.attribute("verify.lint", layer, tracer.span_ms(layer) / 1e3);
  }
}

Outcome run_nren_analyze(const Context& ctx, Tracer& tracer) {
  Outcome out;
  std::optional<InputFile> input;
  const double setup_s = repeat_setup(ctx, input, [] { return nren_input(); });
  if (ctx.trace) analysis_decomposition(ctx, tracer, out, input->path);

  const std::size_t jobs = bench_jobs();
  std::unique_ptr<Pipeline> last;
  std::vector<std::uint64_t> report_hashes;
  auto iterate = [&](Tracer& t) {
    last.reset();
    analysis::FibCache::global().clear();
    auto p = std::make_unique<Pipeline>();
    obs::RegistryScope scope(*p->registry);
    std::optional<verify::Report> report;
    const double wall = t.iteration([&] {
      const graph::Graph g = load_file(t, input->path);
      build_to_nidb(t, *p->wf, g);
      report = t.span("verify.lint", [&] { return analyze(p->wf->nidb(), jobs); });
    });
    out.check(analysis::FibCache::global().stats().misses == 1,
              "analyze iteration served from a warm FibCache");
    out.check(forwarding_findings(*report) == 0,
              "analyze: unreachable/blackhole/loop findings on the NREN model");
    report_hashes.push_back(fuzz::fnv1a(report->to_json()));
    last = std::move(p);
    return wall;
  };

  if (!ctx.trace) {
    timed_loop(ctx, out, setup_s, iterate);
    for (const std::uint64_t h : report_hashes) {
      out.check(h == report_hashes.front(), "analyze report differs between iterations");
    }
    return out;
  }
  traced_loop(ctx, tracer, out, iterate);
  // Determinism across job counts, once, outside timing.
  analysis::FibCache::global().clear();
  const std::uint64_t serial = fuzz::fnv1a(analyze(last->wf->nidb(), 1).to_json());
  for (const std::uint64_t h : report_hashes) {
    out.check(h == serial,
              "analyze report differs between jobs=1 and jobs=" + std::to_string(jobs));
  }
  layer_metrics(out, tracer);
  return out;
}

// --- sweep ---------------------------------------------------------------

struct SweepInput {
  InputFile topology;
  experiment::CampaignSpec spec;
  std::size_t routers = 0;
};

// A seeded multi-AS topology of 150 routers (25 ASes of 6; one
// attribute-marked route reflector per AS, so the "rr" axis differs from
// "mesh"), and a 36-run campaign over it: iBGP mode x backoff x DNS x 3
// repetitions, each run riding through a fail/restore of a seeded
// non-bridge link. The seed varies the wiring, not the size.
SweepInput sweep_input(std::uint64_t seed) {
  fuzz::Rng rng(seed);
  topology::MultiAsOptions options;
  options.as_count = 25;
  options.min_routers_per_as = 6;
  options.max_routers_per_as = 6;
  options.seed = 1 + rng.below(1000000);
  graph::Graph g = topology::make_multi_as(options);

  std::map<std::string, std::vector<graph::NodeId>> by_as;
  for (const graph::NodeId n : g.nodes()) by_as[g.node_attr(n, "asn").to_string()].push_back(n);
  for (const auto& [asn, members] : by_as) {
    g.set_node_attr(members[rng.below(members.size())], "rr", true);
  }
  const std::vector<graph::EdgeId> bridge_list = graph::bridges(g);
  const std::set<graph::EdgeId> bridge_set(bridge_list.begin(), bridge_list.end());
  std::vector<graph::EdgeId> candidates;
  for (const graph::EdgeId e : g.edges()) {
    if (!bridge_set.contains(e)) candidates.push_back(e);
  }
  const graph::EdgeId link = candidates.at(rng.below(candidates.size()));
  const std::string a = g.node_name(g.edge_src(link));
  const std::string b = g.node_name(g.edge_dst(link));

  SweepInput in{write_input("sweep", g), {}, g.node_count()};
  const std::string text = "campaign perfbench-sweep\n"
                           "topology " + in.topology.path + "\n"
                           "repetitions 3\n"
                           "seed " + std::to_string(seed) + "\n"
                           "axis ibgp mesh rr rr-auto\n"
                           "axis backoff_base_ms range 50 100 step 50\n"
                           "axis dns on off\n"
                           "option platform netkit\n"
                           "incident fail_link " + a + " " + b + "\n"
                           "incident restore_link " + a + " " + b + "\n"
                           "probe reachability\n";
  in.spec = experiment::parse_campaign(text);
  return in;
}

bool run_ok(const experiment::RunResult& run, std::size_t routers) {
  const double pairs = static_cast<double>(routers * (routers - 1));
  return run.ok && run.metric("probe.reachability.frac") == 1.0 &&
         run.metric("incident.ok") == 1.0 && run.metric("incident.applied") == 2.0 &&
         run.metric("incident.baseline_pairs") == pairs &&
         run.metric("incident.final_pairs") == pairs;
}

std::string aggregate_csv(const std::vector<experiment::RunResult>& results) {
  return experiment::to_csv(experiment::aggregate(results));
}

experiment::CampaignResult run_campaign(const experiment::CampaignSpec& spec, int jobs,
                                        const std::string& journal_dir) {
  experiment::RunnerOptions options;
  options.jobs = jobs;
  options.journal_path = journal_dir + "/journal.jsonl";
  return experiment::CampaignRunner(spec, options).run();
}

void check_campaign(Outcome& out, const SweepInput& input,
                    const experiment::CampaignResult& result) {
  out.check(result.results.size() == input.spec.run_count(), "campaign: missing runs");
  for (const auto& run : result.results) {
    out.check(run_ok(run, input.routers), "campaign run " + run.id + " failed: " + run.error);
  }
}

// Per-layer probes of the experiment layer after a campaign whose
// aggregate CSVs are `csvs` and whose wall time was `campaign_ms`: each
// matrix cell alone on one thread, as a jobs=1 campaign runs it (per-run
// cost, and the reference aggregate for the parallel one), and the
// emulation's reconvergence after one link failure and its repair.
void campaign_probes(Tracer& tracer, Outcome& out, const SweepInput& input,
                     const std::vector<std::string>& csvs, double campaign_ms) {
  const experiment::CampaignSpec& spec = input.spec;
  std::vector<double> run_ms;
  std::vector<experiment::RunResult> serial;
  for (const experiment::RunSpec& run : experiment::expand(spec)) {
    const double start = now_s();
    serial.push_back(experiment::CampaignRunner::execute_run(run, spec));
    run_ms.push_back((now_s() - start) * 1e3);
  }
  double total_ms = 0;
  for (const double ms : run_ms) total_ms += ms;
  const std::string serial_csv = aggregate_csv(serial);
  for (const std::string& csv : csvs) {
    out.check(csv == serial_csv, "campaign aggregate differs between jobs=1 and jobs=" +
                                     std::to_string(bench_jobs()));
  }
  out.metric("experiment.run_p50_ms", percentile(run_ms, 0.5), "ms");
  out.metric("experiment.run_p90_ms", percentile(run_ms, 0.9), "ms");
  out.metric("experiment.parallel_efficiency",
             total_ms / (static_cast<double>(bench_jobs()) * campaign_ms), "ratio");

  const emulation::IncidentStep& incident = spec.incident.front();
  Pipeline p;
  p.wf->run(topology::load_topology_file(input.topology.path));
  emulation::EmulatedNetwork& net = p.wf->network();
  for (int i = 0; i < 3; ++i) {
    tracer.span("emulation.reconverge", [&] {
      net.fail_link(incident.a, incident.b);
      net.start();
      net.restore_link(incident.a, incident.b);
      return net.start();
    });
  }
  out.metric("emulation.reconverge_ms", tracer.span_ms("emulation.reconverge"), "ms");
}

Outcome run_sweep(const Context& ctx, Tracer& tracer) {
  Outcome out;
  std::optional<SweepInput> input;
  const double setup_s = repeat_setup(ctx, input, [&] { return sweep_input(ctx.seed); });
  const experiment::CampaignSpec& spec = input->spec;
  out.notes.push_back(fmt("sweep topology: %.0f routers, %.0f-run campaign",
                          static_cast<double>(input->routers),
                          static_cast<double>(spec.run_count())));

  const int jobs = static_cast<int>(bench_jobs());
  std::vector<std::string> csvs;
  std::uint64_t journal_bytes = 0;
  auto iterate = [&](Tracer& t) {
    const TempDir journal("journal");
    experiment::CampaignResult result;
    const double wall = t.iteration([&] {
      result = t.span("experiment.campaign",
                      [&] { return run_campaign(spec, jobs, journal.path()); });
    });
    journal_bytes = dir_bytes(journal.path());
    check_campaign(out, *input, result);
    csvs.push_back(aggregate_csv(result.results));
    return wall;
  };

  if (!ctx.trace) {
    timed_loop(ctx, out, setup_s, iterate);
    for (const std::string& csv : csvs) {
      out.check(csv == csvs.front(), "campaign aggregate differs between iterations");
    }
    return out;
  }
  traced_loop(ctx, tracer, out, iterate);
  layer_metrics(out, tracer);
  out.metric("experiment.journal_bytes", static_cast<double>(journal_bytes), "bytes");
  campaign_probes(tracer, out, *input, csvs, tracer.layer_self_ms().at("experiment.campaign"));
  return out;
}

// The experiment layer, probed in a traced run whose workload does not
// run campaigns: one sweep campaign over the seeded sweep input, then
// campaign_probes.
void experiment_probes(const Context& ctx, Tracer& tracer, Outcome& out) {
  const SweepInput input = sweep_input(ctx.seed);
  const TempDir journal("journal");
  const auto result = tracer.span("experiment.campaign", [&] {
    return run_campaign(input.spec, static_cast<int>(bench_jobs()), journal.path());
  });
  out.metric("experiment.campaign_ms", tracer.span_ms("experiment.campaign"), "ms");
  out.metric("experiment.journal_bytes", static_cast<double>(dir_bytes(journal.path())),
             "bytes");
  check_campaign(out, input, result);
  campaign_probes(tracer, out, input, {aggregate_csv(result.results)},
                  tracer.span_ms("experiment.campaign"));
}

// --- nren-edit -----------------------------------------------------------

struct EditInput {
  InputFile base;
  std::string edited_path;
  std::unique_ptr<TempDir> checkpoint;  // the checkpointed baseline build
  std::string edit;                     // human description
};

// The NREN model, plus a copy with one seeded intra-AS link's ospf_cost
// changed, both written out; then the checkpointed baseline build the
// incremental run chains off (`autonet run base --checkpoint DIR`).
EditInput edit_input(std::uint64_t seed) {
  graph::Graph g = topology::make_nren_model();
  std::vector<graph::EdgeId> intra;
  for (const graph::EdgeId e : g.edges()) {
    if (g.node_attr(g.edge_src(e), "asn").to_string() ==
        g.node_attr(g.edge_dst(e), "asn").to_string()) {
      intra.push_back(e);
    }
  }
  fuzz::Rng rng(seed);
  const graph::EdgeId edge = intra.at(rng.below(intra.size()));
  const std::int64_t old_cost = g.edge_attr(edge, "ospf_cost").as_int().value_or(1);
  std::int64_t cost = 2 + static_cast<std::int64_t>(rng.below(60));
  if (cost == old_cost) ++cost;

  EditInput in{write_input("nren-base", g), "", std::make_unique<TempDir>("baseline"), ""};
  in.edit = g.node_name(g.edge_src(edge)) + "<->" + g.node_name(g.edge_dst(edge)) +
            " ospf_cost " + std::to_string(old_cost) + "->" + std::to_string(cost);
  g.set_edge_attr(edge, "ospf_cost", cost);
  in.edited_path = in.base.dir->path() + "/nren-edited.graphml";
  write_file(in.edited_path, topology::to_graphml(g));

  Pipeline p;
  p.wf->checkpoint_to(in.checkpoint->path());
  Tracer off(false);
  build_through_lint(off, *p.wf, topology::load_topology_file(in.base.path));
  return in;
}

// The layers off the edit path, probed once on the edited NREN build so
// that every layer has an NREN-scale figure in this workload's trace:
// deploy and measure as `autonet run --incremental` continues, then the
// emulation, measurement and analysis probes.
void off_path_probes(const Context& ctx, Tracer& tracer, Outcome& out, core::Workflow& wf) {
  tracer.span("deploy", [&] { wf.deploy(); });
  measure::ValidationReport validation;
  measure::MeasurementClient::ReachabilityMatrix matrix;
  tracer.span("measure", [&] {
    validation = tracer.span("measure.validate_ospf", [&] { return wf.validate_ospf(); });
    matrix = tracer.span("measure.reachability",
                         [&] { return wf.measurement().reachability(); });
  });
  out.check(wf.ok() && wf.deploy_result().convergence.converged && validation.ok,
            "edited build: deploy, BGP convergence or OSPF validation failed");
  const double validate_ms = tracer.span_ms("measure.validate_ospf");
  const double reach_ms = tracer.span_ms("measure.reachability");
  out.metric("deploy.ms", tracer.span_ms("deploy"), "ms");
  out.metric("measure.validate_ospf_ms", validate_ms, "ms");
  out.metric("measure.reachability_ms", reach_ms, "ms");
  out.metric("measure.ms", tracer.span_ms("measure") - validate_ms - reach_ms, "ms");
  fuzz::Rng rng(ctx.seed);
  network_probes(tracer, out, wf, matrix.reachable_pairs(), rng);
  analysis_probes(tracer, out, wf.nidb(), rng);
  for (const char* layer : {"analysis.model", "analysis.predict", "analysis.paths"}) {
    out.metric(layer_metric(layer), tracer.span_ms(layer), "ms");
  }
}

struct BuildHashes {
  std::uint64_t nidb = 0;
  std::uint64_t configs = 0;
  std::uint64_t lint = 0;
  bool operator==(const BuildHashes&) const = default;
};

BuildHashes hash_build(const core::Workflow& wf) {
  std::string configs;
  for (const auto& [path, content] : wf.configs()) {
    configs += path;
    configs += '\0';
    configs += content;
    configs += '\0';
  }
  return {fuzz::fnv1a(wf.nidb().to_json()), fuzz::fnv1a(configs),
          fuzz::fnv1a(wf.lint_report().to_json())};
}

// Per-layer probes of the incremental pipeline, given the edit input
// and a workflow that rebuilt the edited graph from its baseline: reuse
// counts, the graph diff, and what checkpoint writing adds to a cold build.
void incremental_probes(Tracer& tracer, Outcome& out, const EditInput& input,
                        const core::Workflow& edited) {
  const core::IncrementalReport& incr = edited.incremental_report();
  const double devices = static_cast<double>(edited.nidb().device_count());
  out.metric("incremental.devices_reused",
             static_cast<double>(incr.devices_reused_compile), "count");
  out.metric("incremental.devices_dirty",
             static_cast<double>(incr.plan.dirty_devices.size()), "count");
  out.metric("incremental.lint_rules_reused", static_cast<double>(incr.lint_rules_reused),
             "count");
  out.metric("incremental.reuse_ratio",
             static_cast<double>(incr.devices_reused_compile) / devices, "ratio");
  out.metric("core.checkpoint_bytes",
             static_cast<double>(dir_bytes(input.checkpoint->path())), "bytes");

  const graph::Graph base = topology::load_topology_file(input.base.path);
  const graph::Graph changed = topology::load_topology_file(input.edited_path);
  for (int i = 0; i < 3; ++i) {
    const auto delta =
        tracer.span("incremental.diff", [&] { return incremental::diff_graphs(base, changed); });
    if (delta.size() != 1) out.check(false, "diff_graphs: expected exactly one delta");
  }
  out.metric("incremental.diff_ms", tracer.span_ms("incremental.diff"), "ms");

  // Checkpoint writing: a checkpointed cold build minus a plain one.
  Tracer off(false);
  std::vector<double> overhead_ms;
  for (int i = 0; i < 2; ++i) {
    TempDir dir("ckpt");
    Pipeline with;
    with.wf->checkpoint_to(dir.path());
    double start = now_s();
    build_through_lint(off, *with.wf, base);
    const double checkpointed = now_s() - start;
    Pipeline plain;
    start = now_s();
    build_through_lint(off, *plain.wf, base);
    overhead_ms.push_back((checkpointed - (now_s() - start)) * 1e3);
  }
  out.metric("core.checkpoint_write_ms", median(overhead_ms), "ms");
}

// The probes every gated workload's traced run ends with, so that each
// reports every layer at NREN scale: the lint rules on `wf`'s build, the
// off-path layers on `wf` itself, and one sweep campaign.
void layer_probe_suite(const Context& ctx, Tracer& tracer, Outcome& out, core::Workflow& wf) {
  lint_rule_probes(out, wf.nidb());
  off_path_probes(ctx, tracer, out, wf);
  experiment_probes(ctx, tracer, out);
}

Outcome run_nren_edit(const Context& ctx, Tracer& tracer) {
  Outcome out;
  std::optional<EditInput> input;
  const double setup_s = repeat_setup(ctx, input, [&] { return edit_input(ctx.seed); });
  out.notes.push_back("edit: " + input->edit);

  std::unique_ptr<Pipeline> last;
  std::vector<BuildHashes> hashes;
  auto iterate = [&](Tracer& t) {
    last.reset();
    auto p = std::make_unique<Pipeline>();
    core::Workflow& wf = *p->wf;
    const double wall = t.iteration([&] {
      wf.incremental_from(input->checkpoint->path());
      const graph::Graph g = load_file(t, input->edited_path);
      build_through_lint(t, wf, g);
    });
    const core::IncrementalReport& incr = wf.incremental_report();
    out.check(incr.mode == "partial" && incr.plan.dirty_devices.size() == 2,
              "edit iteration: mode " + incr.mode + ", " +
                  std::to_string(incr.plan.dirty_devices.size()) + " dirty devices");
    hashes.push_back(hash_build(wf));
    last = std::move(p);
    return wall;
  };

  if (!ctx.trace) {
    timed_loop(ctx, out, setup_s, iterate);
  } else {
    traced_loop(ctx, tracer, out, iterate);
  }

  // Reference: a from-scratch build of the edited graph.
  Pipeline scratch;
  Tracer off(false);
  build_through_lint(off, *scratch.wf, topology::load_topology_file(input->edited_path));
  const BuildHashes reference = hash_build(*scratch.wf);
  for (const BuildHashes& h : hashes) {
    out.check(h == reference, "incremental build differs from the from-scratch build");
  }
  if (!ctx.trace) return out;

  layer_metrics(out, tracer);
  core::Workflow& wf = *last->wf;
  render_counts(out, wf.configs());
  incremental_probes(tracer, out, *input, wf);
  layer_probe_suite(ctx, tracer, out, wf);
  return out;
}

// --- nren-build ----------------------------------------------------------

Outcome run_nren_build(const Context& ctx, Tracer& tracer) {
  Outcome out;
  std::optional<InputFile> input;
  const double setup_s = repeat_setup(ctx, input, [] { return nren_input(); });

  std::unique_ptr<Pipeline> last;
  std::vector<BuildHashes> hashes;
  auto iterate = [&](Tracer& t) {
    last.reset();
    auto p = std::make_unique<Pipeline>();
    const double wall = t.iteration([&] {
      const graph::Graph g = load_file(t, input->path);
      build_through_lint(t, *p->wf, g);
    });
    hashes.push_back(hash_build(*p->wf));
    last = std::move(p);
    return wall;
  };

  if (!ctx.trace) {
    timed_loop(ctx, out, setup_s, iterate);
  } else {
    traced_loop(ctx, tracer, out, iterate);
  }

  // Every iteration builds the same bytes; the NIDB survives a JSON
  // round trip; every device has its rendered configuration directory.
  for (const BuildHashes& h : hashes) {
    out.check(h == hashes.front(), "cold build differs between iterations");
  }
  const core::Workflow& wf = *last->wf;
  const std::string json = wf.nidb().to_json();
  out.check(nidb::Nidb::from_json(json).to_json() == json, "NIDB JSON round trip differs");
  std::size_t unrendered = 0;
  for (const auto* device : wf.nidb().devices()) {
    if (wf.configs().paths_under(device->dst_folder()).empty()) ++unrendered;
  }
  out.check(unrendered == 0, std::to_string(unrendered) + " devices have no rendered configs");
  if (!ctx.trace) return out;

  layer_metrics(out, tracer);
  render_counts(out, wf.configs());
  const EditInput edit = edit_input(ctx.seed);
  Pipeline rebuilt;
  rebuilt.wf->incremental_from(edit.checkpoint->path());
  Tracer off(false);
  build_through_lint(off, *rebuilt.wf, topology::load_topology_file(edit.edited_path));
  incremental_probes(tracer, out, edit, *rebuilt.wf);
  layer_probe_suite(ctx, tracer, out, *last->wf);
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"nren-build", run_nren_build},
      {"nren-edit", run_nren_edit},
      {"nren-run", run_nren_run},
      {"nren-analyze", run_nren_analyze},
      {"sweep", run_sweep},
  };
  return kWorkloads;
}

}  // namespace perfbench
