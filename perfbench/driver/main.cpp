// perfbench_driver: runs one benchmark workload against the autonet
// library and prints its metrics, the last line being one JSON object.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-root DIR [--inject LAYER=MS]
//
// --work-root holds every scratch directory the run makes (and the
// span file of a traced run); --inject adds a fixed delay inside every
// span of one layer, for the attribution self-test.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-root DIR [--inject LAYER=MS]\n",
               why);
  return 2;
}

void print_result(const Outcome& out) {
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& failure : out.failures) {
    std::printf("# FAILED: %s\n", failure.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  char buf[512];
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage(("unexpected argument " + key).c_str());
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("every option takes a value");
  for (const char* required : {"workload", "seed", "seconds", "trace", "work-root"}) {
    if (!args.contains(required)) return usage((std::string("missing --") + required).c_str());
  }

  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (w.name == args["workload"]) workload = &w;
  }
  if (workload == nullptr) return usage(("unknown workload " + args["workload"]).c_str());

  Context ctx;
  ctx.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  ctx.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  ctx.trace = args["trace"] == "1";
  std::string inject_layer;
  double inject_ms = 0;
  if (args.contains("inject")) {
    const std::string& spec = args["inject"];
    const auto eq = spec.find('=');
    if (eq == std::string::npos) return usage("--inject expects LAYER=MS");
    inject_layer = spec.substr(0, eq);
    inject_ms = std::strtod(spec.c_str() + eq + 1, nullptr);
  }

  try {
    const std::string root = args["work-root"];
    std::filesystem::create_directories(root);
    TempDir::set_root(root);
    Tracer tracer(ctx.trace, inject_layer, inject_ms);
    Outcome out = workload->run(ctx, tracer);
    std::set<std::string> names;
    for (const Metric& m : out.metrics) {
      if (!std::isfinite(m.value) || !names.insert(m.name).second) {
        std::fprintf(stderr, "perfbench_driver: metric %s is not finite or repeated\n",
                     m.name.c_str());
        return 1;
      }
    }
    if (ctx.trace) {
      const std::string spans = root + "/spans-" + workload->name + "-seed" +
                                args["seed"] + ".json";
      write_file(spans, tracer.to_json());
      out.notes.push_back("spans written to " + spans);
    }
    print_result(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s: %s\n", workload->name.c_str(), e.what());
    return 1;
  }
  return 0;
}
