#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, const std::string& name) : tracer_(&tracer) {
  if (!tracer.on_) return;
  Record record;
  record.name = name;
  record.parent = tracer.stack_.empty() ? -1 : tracer.stack_.back();
  if (name == "iteration" && record.parent == -1) tracer.in_iteration_ = true;
  record.iteration = tracer.in_iteration_ ? tracer.iteration_ : -1;
  record.start = now_s();
  index_ = static_cast<int>(tracer.records_.size());
  tracer.records_.push_back(std::move(record));
  tracer.stack_.push_back(index_);
  if (!tracer.inject_layer_.empty() && name == tracer.inject_layer_) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(tracer.inject_ms_));
  }
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Record& record = tracer_->records_[static_cast<std::size_t>(index_)];
  record.end = now_s();
  tracer_->stack_.pop_back();
  if (record.parent == -1 && record.name == "iteration") tracer_->in_iteration_ = false;
}

void Tracer::attribute(const std::string& parent, const std::string& layer,
                       double seconds) {
  attributed_[parent].emplace_back(layer, seconds);
}

std::vector<std::map<std::string, double>> Tracer::per_iteration() const {
  std::vector<std::map<std::string, double>> out(static_cast<std::size_t>(iteration_));
  std::vector<double> child_s(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child_s[static_cast<std::size_t>(r.parent)] += r.end - r.start;
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.iteration < 0) continue;
    auto& layers = out[static_cast<std::size_t>(r.iteration)];
    double self = r.end - r.start - child_s[i];
    if (auto it = attributed_.find(r.name); it != attributed_.end()) {
      for (const auto& [layer, seconds] : it->second) {
        // Never credit more than the span has left: the separate pass
        // that measured the attribution can run slower than the span.
        const double credited = std::min(seconds, std::max(self, 0.0));
        layers[layer] += credited;
        self -= credited;
      }
    }
    layers[r.name] += self;
  }
  return out;
}

std::map<std::string, double> Tracer::layer_self_ms() const {
  std::map<std::string, std::vector<double>> samples;
  for (const auto& layers : per_iteration()) {
    for (const auto& [name, seconds] : layers) {
      if (name != "iteration") samples[name].push_back(seconds * 1e3);
    }
  }
  std::map<std::string, double> out;
  for (const auto& [name, values] : samples) out[name] = median(values);
  return out;
}

double Tracer::coverage() const {
  std::vector<double> shares;
  for (const auto& layers : per_iteration()) {
    double covered = 0;
    double total = 0;
    for (const auto& [name, seconds] : layers) {
      total += seconds;
      if (name != "iteration") covered += seconds;
    }
    if (total > 0) shares.push_back(covered / total);
  }
  return median(shares);
}

double Tracer::span_ms(const std::string& name) const {
  std::vector<double> values;
  for (const Record& r : records_) {
    if (r.name == name && r.iteration < 0) values.push_back((r.end - r.start) * 1e3);
  }
  return median(values);
}

std::string Tracer::to_json() const {
  std::string out = "{\"traceEvents\":[";
  const double origin = records_.empty() ? 0 : records_.front().start;
  char buf[512];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                  "\"iteration\":%d}}",
                  i == 0 ? "" : ",\n", r.name.c_str(), (r.start - origin) * 1e6,
                  (r.end - r.start) * 1e6, i, r.parent, r.iteration);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
