#include "fuzz/session.hpp"

#include <charconv>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <fstream>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/json.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/rng.hpp"
#include "nidb/value.hpp"
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

std::string journal_line(const FuzzRunRecord& r) {
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

std::optional<FuzzRunRecord> parse_journal_line(std::string line) {
  // A scenario seed spans the full uint64 range and nidb numbers are
  // int64: the seed's digits are converted here and zeroed for the parser.
  // (Inside a JSON string the quotes of `"seed":` would be escaped, so the
  // first match is the key.)
  constexpr std::string_view kSeed = "\"seed\":";
  FuzzRunRecord r;
  if (const std::size_t at = line.find(kSeed); at != std::string::npos) {
    const std::size_t begin = at + kSeed.size();
    std::size_t end = begin;
    while (end < line.size() && line[end] >= '0' && line[end] <= '9') ++end;
    const auto [p, ec] = std::from_chars(line.data() + begin, line.data() + end, r.seed);
    if (ec != std::errc{} || p != line.data() + end) return std::nullopt;
    line.replace(begin, end - begin, "0");
  }
  nidb::Value doc;
  try {
    doc = nidb::parse_json(line);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  const nidb::Value* run = doc.find("run");
  const std::optional<std::int64_t> index = run != nullptr && run->is_int()
                                                ? run->as_int()
                                                : std::nullopt;
  if (!index || *index < 0) return std::nullopt;
  r.run = static_cast<std::size_t>(*index);
  auto text = [&doc](std::string_view key) {
    const nidb::Value* v = doc.find(key);
    const std::string* s = v != nullptr ? v->as_string() : nullptr;
    return s != nullptr ? *s : std::string();
  };
  r.oracle = text("oracle");
  r.scenario = text("scenario");
  r.status = text("status");
  r.detail = text("detail");
  r.corpus_path = text("corpus");
  return r;
}

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
  std::vector<std::optional<FuzzRunRecord>> done(options.runs);
  bool fresh = true;
  if (fs::exists(journal_path)) {
    const std::vector<std::string> lines = read_lines(journal_path);
    if (!lines.empty() && lines.front() == header) {
      fresh = false;
      for (std::size_t i = 1; i < lines.size(); ++i) {
        std::optional<FuzzRunRecord> record = parse_journal_line(lines[i]);
        if (record && record->run < options.runs) done[record->run] = std::move(record);
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

    if (done[i]) {
      // Satisfied from the journal: count it without re-executing.
      record = std::move(*done[i]);
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
      core::append_line_durable(journal_path, journal_line(record));
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
