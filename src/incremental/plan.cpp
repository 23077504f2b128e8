#include "incremental/plan.hpp"

namespace autonet::incremental {

void plan_devices(const Snapshot& baseline, const DeviceSignatures& current,
                  RecomputePlan& plan) {
  plan.reused_devices.clear();
  plan.dirty_devices.clear();
  if (baseline.global_digest != current.global_digest) {
    for (const auto& [device, sig] : current.sigs) {
      plan.dirty_devices.insert(device);
    }
    plan.explain.push_back(
        "compile: all devices re-compiled (global digest changed: overlay "
        "data, service overlays, or platform)");
    return;
  }
  for (const auto& [device, sig] : current.sigs) {
    auto base = baseline.device_sigs.find(device);
    if (base != baseline.device_sigs.end() && base->second == sig) {
      plan.reused_devices.insert(device);
    } else {
      plan.dirty_devices.insert(device);
      plan.explain.push_back("compile." + device + ": re-compiled (" +
                             (base == baseline.device_sigs.end()
                                  ? "new device"
                                  : "neighborhood changed") +
                             ")");
    }
  }
  plan.explain.push_back("compile: " + std::to_string(plan.reused_devices.size()) +
                         " device(s) reused, " +
                         std::to_string(plan.dirty_devices.size()) +
                         " re-compiled");
}

void plan_lint(const Snapshot& baseline, const std::string& lint_sig,
               const std::map<std::string, std::uint64_t>& template_hashes,
               RecomputePlan& plan) {
  if (baseline.lint_sig != lint_sig) {
    plan.lint_reusable = false;
    plan.explain.emplace_back("lint: template rules re-run (lint options changed)");
    return;
  }
  if (baseline.template_hashes != template_hashes) {
    plan.lint_reusable = false;
    plan.explain.emplace_back("lint: template rules re-run (template sets changed)");
    return;
  }
  plan.lint_reusable = true;
  plan.explain.emplace_back("lint: template-family findings rehydrated from baseline");
}

}  // namespace autonet::incremental
