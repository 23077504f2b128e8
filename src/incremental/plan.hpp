// The recompute plan: which devices and lint rules an incremental run
// may satisfy from its baseline, derived from snapshot hash comparison
// plus the dirty-propagation edges documented in docs/incremental.md (a
// global-digest change dirties every device). Design rules are not
// planned: they always re-run.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "incremental/snapshot.hpp"

namespace autonet::incremental {

struct RecomputePlan {
  /// "warm" (full restore), "partial" (per-phase reuse), or "cold".
  std::string mode = "cold";

  std::set<std::string> reused_devices;   // compile + render reuse set
  std::set<std::string> dirty_devices;
  /// Template-family lint rules may rehydrate from the baseline report.
  bool lint_reusable = false;

  /// One line per decision, for `autonet run --incremental --explain`.
  std::vector<std::string> explain;
};

/// Compares baseline vs current device signatures. A global-digest
/// mismatch (overlay data, service overlays, platform) empties the reuse
/// set: the compiler's network-wide sections read all of it.
void plan_devices(const Snapshot& baseline, const DeviceSignatures& current,
                  RecomputePlan& plan);

/// Whether the baseline lint report can rehydrate template-family
/// findings: lint options and the template sets must be unchanged.
void plan_lint(const Snapshot& baseline, const std::string& lint_sig,
               const std::map<std::string, std::uint64_t>& template_hashes,
               RecomputePlan& plan);

}  // namespace autonet::incremental
