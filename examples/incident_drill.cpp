// Incident drill: the resilience_audit what-if study re-run on a
// deployment that itself misbehaves (§5.7: checksum-failing transfers,
// machines that refuse to boot). A seeded FaultPlan injects transient
// transfer corruption and a boot failure; the deployer retries with
// backoff and degrades gracefully, then an IncidentRunner drives a
// scripted link-failure timeline over whatever survived.
#include <cstdio>

#include "core/workflow.hpp"
#include "deploy/faults.hpp"
#include "emulation/incident.hpp"
#include "topology/builtin.hpp"

int main() {
  using namespace autonet;

  // The deployment substrate misbehaves deterministically (seed 42):
  // two corrupted transfers and one transient boot failure on as20r1 (host "localhost").
  deploy::FaultPlan faults(42);
  faults.fail_transfers("localhost", 2);
  faults.fail_boot("localhost", "as20r1", 1);

  core::WorkflowOptions opts;
  opts.deploy.allow_partial = true;
  core::Workflow wf(opts);
  wf.use_faults(&faults);
  wf.run(topology::small_internet());

  const auto& dr = wf.deploy_result();
  std::printf("deploy: success=%d degraded=%d transfers=%d boots=%d\n",
              dr.success, dr.degraded, dr.transfer_attempts, dr.boot_attempts);
  for (const auto& line : faults.injected()) {
    std::printf("  injected: %s\n", line.c_str());
  }
  for (const auto& err : dr.errors) {
    std::printf("  error: %s\n", err.to_string().c_str());
  }
  if (!dr.success) return 1;

  // Same what-if study as resilience_audit, now as a scripted timeline
  // with per-step reachability deltas and a convergence watchdog.
  auto& net = wf.network();
  emulation::IncidentRunner runner(net);
  auto report = runner.run_script(
      "# cut AS100's provider uplink, then repair it\n"
      "fail_link as20r2 as100r1\n"
      "restore_link as20r2 as100r1\n"
      "# the dual-homed AS200 border router dies outright\n"
      "fail_node as200r1\n"
      "restore_node as200r1\n");
  std::printf("\n%s", report.to_string().c_str());
  return report.ok ? 0 : 2;
}
