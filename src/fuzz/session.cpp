#include "fuzz/session.hpp"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/json.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/rng.hpp"
#include "obs/registry.hpp"

namespace autonet::fuzz {

namespace {

namespace fs = std::filesystem;

/// The campaign identity line: a journal belongs to exactly one
/// (seed, runs, max_nodes, oracle) tuple; anything else starts fresh.
std::string campaign_header(const FuzzOptions& options) {
  std::string out = "{\"campaign\":{\"seed\":" + std::to_string(options.seed) +
                    ",\"runs\":" + std::to_string(options.runs) +
                    ",\"max_nodes\":" + std::to_string(options.max_nodes) +
                    ",\"oracle\":";
  core::append_json_string(out, options.oracle);
  out += "}}";
  return out;
}

std::string record_line(const FuzzRunRecord& r) {
  std::string out = "{\"run\":" + std::to_string(r.run) +
                    ",\"seed\":" + std::to_string(r.seed) + ",\"oracle\":";
  core::append_json_string(out, r.oracle);
  out += ",\"scenario\":";
  core::append_json_string(out, r.scenario);
  out += ",\"status\":\"" + r.status + "\",\"detail\":";
  core::append_json_string(out, r.detail);
  out += ",\"corpus\":";
  core::append_json_string(out, r.corpus_path);
  out += '}';
  return out;
}

/// Minimal field extraction from our own journal lines (the writer and
/// reader share the exact format; this is not a general JSON parser).
std::string extract_string(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  std::string out;
  for (std::size_t i = at + needle.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      const char esc = line[++i];
      if (esc == 'n') {
        out += '\n';
      } else if (esc == 'r') {
        out += '\r';
      } else if (esc == 't') {
        out += '\t';
      } else {
        out += esc;
      }
      continue;
    }
    if (c == '"') break;
    out += c;
  }
  return out;
}

std::int64_t extract_int(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + needle.size(), nullptr, 10);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path, std::ios::binary);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// The oracles this campaign schedules, in registry order.
std::vector<const Oracle*> enabled_oracles(const FuzzOptions& options) {
  std::vector<const Oracle*> out;
  if (!options.oracle.empty()) {
    if (const Oracle* oracle = find_oracle(options.oracle)) out.push_back(oracle);
    return out;
  }
  for (const Oracle& oracle : oracle_registry()) out.push_back(&oracle);
  return out;
}

}  // namespace

OracleResult replay_scenario(const Scenario& s, const Oracle& oracle) {
  return oracle.run(s);
}

FuzzReport run_fuzz(const FuzzOptions& options, core::RunControl* control) {
  FuzzReport report;
  const std::vector<const Oracle*> oracles = enabled_oracles(options);
  if (oracles.empty()) {
    throw std::runtime_error("fuzz: unknown oracle '" + options.oracle + "'");
  }

  fs::create_directories(options.corpus_dir);
  const std::string journal_path =
      (fs::path(options.corpus_dir) / "journal.jsonl").string();
  const std::string header = campaign_header(options);

  // Resume: adopt the existing journal's recorded runs when it belongs
  // to this exact campaign; otherwise start the journal over.
  std::vector<std::string> done(options.runs);  // run index -> line or ""
  bool fresh = true;
  if (fs::exists(journal_path)) {
    const std::vector<std::string> lines = read_lines(journal_path);
    if (!lines.empty() && lines.front() == header) {
      fresh = false;
      for (std::size_t i = 1; i < lines.size(); ++i) {
        const std::int64_t run = extract_int(lines[i], "run");
        if (run >= 0 && static_cast<std::size_t>(run) < options.runs) {
          done[static_cast<std::size_t>(run)] = lines[i];
        }
      }
    }
  }
  if (fresh) core::write_file_atomic(journal_path, header + "\n");

  auto& registry = obs::Registry::current();
  const auto started = std::chrono::steady_clock::now();
  auto out_of_budget = [&] {
    if (options.time_budget_s == 0) return false;
    const auto elapsed = std::chrono::steady_clock::now() - started;
    return std::chrono::duration_cast<std::chrono::seconds>(elapsed).count() >=
           static_cast<std::int64_t>(options.time_budget_s);
  };

  for (std::size_t i = 0; i < options.runs; ++i) {
    core::checkpoint(control, "fuzz.run");

    FuzzRunRecord record;
    record.run = i;

    if (!done[i].empty()) {
      // Satisfied from the journal: count it without re-executing.
      const std::string& line = done[i];
      record.seed = static_cast<std::uint64_t>(extract_int(line, "seed"));
      record.oracle = extract_string(line, "oracle");
      record.scenario = extract_string(line, "scenario");
      record.status = extract_string(line, "status");
      record.detail = extract_string(line, "detail");
      record.corpus_path = extract_string(line, "corpus");
      ++report.resumed;
    } else {
      if (out_of_budget()) {
        report.out_of_time = true;
        break;
      }
      record.seed = mix(options.seed, i);
      const Oracle& oracle = *oracles[i % oracles.size()];
      record.oracle = oracle.name;

      Scenario scenario = generate_scenario(record.seed, options.max_nodes);
      record.scenario = scenario.summary;
      const OracleResult result = oracle.run(scenario);

      ++report.executed;
      registry.counter("fuzz.runs").inc();
      registry.counter("fuzz." + oracle.name + ".runs").inc();

      if (result.failed()) {
        registry.counter("fuzz.failures").inc();
        registry.counter("fuzz." + oracle.name + ".failures").inc();
        const ShrinkResult shrunk =
            shrink(scenario, oracle, options.shrink);
        report.shrink_steps += shrunk.steps;
        registry.counter("fuzz.shrink_steps").inc(shrunk.steps);
        const std::string saved = save_corpus_entry(
            options.corpus_dir, oracle.name, shrunk.scenario, shrunk.detail);
        record.status = "fail";
        record.detail = shrunk.detail.empty() ? result.detail : shrunk.detail;
        record.corpus_path =
            oracle.name + "/" + std::to_string(shrunk.scenario.seed) +
            ".graphml";
        (void)saved;
      } else if (result.status == OracleResult::Status::kSkip) {
        record.status = "skip";
        record.detail = result.detail;
      } else {
        record.status = "pass";
      }
      core::append_line_durable(journal_path, record_line(record));
    }

    if (record.status == "fail") {
      ++report.failed;
      report.violations.push_back(record);
    } else if (record.status == "skip") {
      ++report.skipped;
    } else {
      ++report.passed;
    }
  }

  return report;
}

}  // namespace autonet::fuzz
