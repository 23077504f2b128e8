// The benchmark's own tracer. Spans are recorded around each call the
// driver makes into the library (never inside it): name, start, end,
// parent span and iteration id. They stay in memory and are written out
// once, at the end of the run. A layer's self time is its span's
// duration minus the part its child spans cover.
#pragma once

#include <malloc.h>

#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  /// `inject_layer`, when set, adds a sleep of `inject_ms` inside every
  /// span of that name — the attribution self-test's hook.
  explicit Tracer(bool on, std::string inject_layer = "", double inject_ms = 0)
      : on_(on), inject_layer_(std::move(inject_layer)), inject_ms_(inject_ms) {}

  [[nodiscard]] bool on() const { return on_; }

  /// Runs f, inside a span named `name` when tracing is on.
  template <typename F>
  auto span(const std::string& name, F&& f) {
    Scope scope(*this, name);
    return f();
  }

  /// Runs one closed-loop iteration under a root span; returns its wall
  /// time in seconds (tracing on or off). Freed heap is first returned
  /// to the kernel, so every iteration faults its memory in again as a
  /// fresh process would, instead of reusing the previous one's pages.
  template <typename F>
  double iteration(F&& f) {
    malloc_trim(0);
    const double cpu_start = cpu_s();
    const double start = now_s();
    {
      Scope scope(*this, "iteration");
      f();
    }
    const double wall = now_s() - start;
    last_cpu_s_ = cpu_s() - cpu_start;
    if (on_) ++iteration_;
    return wall;
  }
  /// User + system CPU seconds of the last iteration.
  [[nodiscard]] double last_cpu_s() const { return last_cpu_s_; }

  /// Declares that every span named `parent` contains `seconds` of work
  /// belonging to `layer`, measured by a separate decomposition pass
  /// because the call itself is opaque. Subtracted from the parent's
  /// self time and credited to `layer`.
  void attribute(const std::string& parent, const std::string& layer, double seconds);

  /// Per-layer self time in ms, median over the traced iterations.
  [[nodiscard]] std::map<std::string, double> layer_self_ms() const;
  /// Share of the iteration wall covered by its layers' self times,
  /// median over the traced iterations.
  [[nodiscard]] double coverage() const;
  /// Spans of a separately timed measurement (outside any iteration).
  [[nodiscard]] double span_ms(const std::string& name) const;

  /// Chrome-trace JSON of every recorded span.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Record {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    int iteration = -1;  // -1: outside any iteration
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  [[nodiscard]] std::vector<std::map<std::string, double>> per_iteration() const;

  bool on_;
  std::string inject_layer_;
  double inject_ms_;
  int iteration_ = 0;
  double last_cpu_s_ = 0;
  bool in_iteration_ = false;
  std::vector<Record> records_;
  std::vector<int> stack_;
  std::map<std::string, std::vector<std::pair<std::string, double>>> attributed_;
};

}  // namespace perfbench
