// The benchmark's workloads. Each is a single closed-loop client: the
// next iteration starts only after the previous one completes, and every
// timed iteration pays what a fresh CLI invocation pays (new Workflow,
// new telemetry registry, cold prediction cache, fresh directories).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10;
  /// false: time untraced iterations and report the end-to-end metrics.
  /// true: alternate untraced and traced iterations and report the
  /// per-layer metrics derived from the spans.
  bool trace = false;
};

struct Workload {
  std::string name;
  Outcome (*run)(const Context& ctx, Tracer& tracer);
};

[[nodiscard]] const std::vector<Workload>& workloads();

}  // namespace perfbench
