// Cooperative cancellation and deadlines: token semantics, virtual-clock
// deadlines, the RunControl checkpoint taxonomy, deadline-clamped deploy
// backoff, and propagation through every pipeline phase — a pre-set
// cancel must be observed within one sub-phase step, with all completed
// phases' results intact after the throw.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/workflow.hpp"
#include "deploy/deployer.hpp"
#include "obs/registry.hpp"
#include "topology/builtin.hpp"

namespace {

using namespace autonet;

std::uint64_t counter_value(obs::Registry& registry, const std::string& name) {
  for (const auto& [key, value] : registry.counter_values()) {
    if (key == name) return value;
  }
  return 0;
}

// --- CancellationToken ----------------------------------------------------

TEST(CancellationToken, FirstRequestWinsAndSticks) {
  core::CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), "");
  token.request_cancel("operator abort");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "operator abort");
  token.request_cancel("a later, losing reason");
  EXPECT_EQ(token.reason(), "operator abort");  // first wins
  EXPECT_TRUE(token.cancelled());               // and it is sticky
}

TEST(CancellationToken, SigintFlagIsProcessWideAndResettable) {
  core::CancellationToken::reset_sigint();
  EXPECT_FALSE(core::CancellationToken::sigint_received());
  core::CancellationToken unlinked;
  core::CancellationToken linked;
  linked.link_sigint();
  // No signal yet: neither token is cancelled.
  EXPECT_FALSE(linked.cancelled());
  core::CancellationToken::reset_sigint();
}

// --- Deadline (virtual clock) ---------------------------------------------

TEST(Deadline, UnarmedNeverExpires) {
  core::Deadline deadline;
  EXPECT_FALSE(deadline.armed());
  EXPECT_FALSE(deadline.expired());
  EXPECT_EQ(deadline.remaining_us(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(deadline.clamp_delay_ms(1234), 1234);  // passthrough
}

TEST(Deadline, ExpiresOnTheVirtualClock) {
  obs::Registry registry(std::make_unique<obs::VirtualClock>());
  obs::RegistryScope scope(registry);
  const core::Deadline deadline = core::Deadline::after_ms(100);
  EXPECT_TRUE(deadline.armed());
  EXPECT_EQ(deadline.budget_us(), 100000u);
  // The virtual clock ticks a hair per read (so spans order); allow it.
  EXPECT_GE(deadline.remaining_us(), 99900u);
  EXPECT_LE(deadline.remaining_us(), 100000u);
  EXPECT_FALSE(deadline.expired());

  ASSERT_TRUE(registry.advance_clock_us(60000));
  EXPECT_GE(deadline.elapsed_us(), 60000u);
  EXPECT_LE(deadline.elapsed_us(), 60100u);
  EXPECT_GE(deadline.remaining_us(), 39900u);
  EXPECT_LE(deadline.remaining_us(), 40000u);
  // Clamp: a 200ms backoff is cut to the ~40ms remaining, never past it.
  EXPECT_GE(deadline.clamp_delay_ms(200), 39);
  EXPECT_LE(deadline.clamp_delay_ms(200), 40);
  EXPECT_EQ(deadline.clamp_delay_ms(10), 10);  // already within budget

  ASSERT_TRUE(registry.advance_clock_us(60000));
  EXPECT_TRUE(deadline.expired());
  EXPECT_EQ(deadline.remaining_us(), 0u);
  EXPECT_EQ(deadline.clamp_delay_ms(200), 0);
}

TEST(Deadline, WallArmedDeadlineDoesNotFireUnderAFreshVirtualClock) {
  // exp run arms its deadline on the global (wall) registry, then each
  // run executes under a per-run VirtualClock starting at 0. A clock
  // reading below the arming time must read as elapsed 0, not as a
  // huge unsigned wraparound that would expire every run instantly.
  obs::Registry wall_like(std::make_unique<obs::VirtualClock>());
  ASSERT_TRUE(wall_like.advance_clock_us(500000));  // "wall" now = 500ms
  core::Deadline deadline;
  {
    obs::RegistryScope scope(wall_like);
    deadline = core::Deadline::after_ms(100);
  }
  obs::Registry per_run(std::make_unique<obs::VirtualClock>());  // now = 0
  obs::RegistryScope scope(per_run);
  EXPECT_EQ(deadline.elapsed_us(), 0u);
  EXPECT_FALSE(deadline.expired());
  EXPECT_EQ(deadline.remaining_us(), 100000u);
}

// --- RunControl::checkpoint taxonomy --------------------------------------

TEST(RunControl, CheckpointThrowsTypedCancelled) {
  obs::Registry registry(std::make_unique<obs::VirtualClock>());
  obs::RegistryScope scope(registry);
  core::RunControl control;
  control.checkpoint("phase.design");  // benign while not cancelled
  control.token.request_cancel("test cancel");
  EXPECT_FALSE(control.deadline.expired());
  EXPECT_TRUE(control.should_stop());
  try {
    control.checkpoint("phase.deploy");
    FAIL() << "expected core::Cancelled";
  } catch (const core::Cancelled& e) {
    EXPECT_EQ(e.where(), "phase.deploy");
    EXPECT_EQ(e.reason(), "test cancel");
    EXPECT_NE(std::string(e.what()).find("phase.deploy"), std::string::npos);
  }
  EXPECT_EQ(counter_value(registry, "cancel.observed"), 1u);
}

TEST(RunControl, CheckpointThrowsTypedDeadlineExceeded) {
  obs::Registry registry(std::make_unique<obs::VirtualClock>());
  obs::RegistryScope scope(registry);
  core::RunControl control;
  control.deadline = core::Deadline::after_ms(5);
  control.checkpoint("deploy.boot.r1");  // within budget
  ASSERT_TRUE(registry.advance_clock_us(6000));
  EXPECT_TRUE(control.should_stop());
  try {
    control.checkpoint("deploy.boot.r2");
    FAIL() << "expected core::DeadlineExceeded";
  } catch (const core::DeadlineExceeded& e) {
    EXPECT_EQ(e.where(), "deploy.boot.r2");
    EXPECT_EQ(e.budget_us(), 5000u);
    EXPECT_GE(e.elapsed_us(), 6000u);
  }
  EXPECT_EQ(counter_value(registry, "deadline.observed"), 1u);
  // Both interrupt types share the Interrupted base for supervisors.
  EXPECT_THROW(control.checkpoint("x"), core::Interrupted);
}

TEST(RunControl, TripHookCancelsAtAnExactBoundary) {
  core::RunControl control;
  control.trip_hook = [](std::string_view where) {
    return where == "design.ibgp";
  };
  control.checkpoint("design.ospf");  // hook declines: no throw
  try {
    control.checkpoint("design.ibgp");
    FAIL() << "expected core::Cancelled";
  } catch (const core::Cancelled& e) {
    EXPECT_EQ(e.where(), "design.ibgp");
    EXPECT_NE(e.reason().find("chaos trip at design.ibgp"), std::string::npos);
  }
}

TEST(RunControl, NullSafeFreeCheckpoint) {
  core::checkpoint(nullptr, "anywhere");  // no-op, no crash
  core::RunControl control;
  control.token.request_cancel();
  EXPECT_THROW(core::checkpoint(&control, "somewhere"), core::Cancelled);
}

// --- Deadline-clamped deploy backoff (satellite) ---------------------------

TEST(BackoffClamp, ClampCutsDelayWithoutPerturbingTheJitterStream) {
  deploy::DeployOptions opts;
  opts.backoff_base_ms = 100;
  opts.backoff_max_ms = 5000;
  opts.backoff_seed = 42;
  deploy::BackoffClock clamped(opts);
  deploy::BackoffClock free_running(opts);
  const int cut = clamped.next_delay_ms(3, 7);
  EXPECT_LE(cut, 7);
  (void)free_running.next_delay_ms(3);
  // The RNG is consumed before clamping: the next draws stay in lockstep.
  for (int attempt = 4; attempt <= 6; ++attempt) {
    EXPECT_EQ(clamped.next_delay_ms(attempt), free_running.next_delay_ms(attempt));
  }
}

TEST(BackoffClamp, RunDeadlineTightensThePhaseBudget) {
  obs::Registry registry(std::make_unique<obs::VirtualClock>());
  obs::RegistryScope scope(registry);
  deploy::DeployOptions opts;
  core::RunControl control;
  control.deadline = core::Deadline::after_ms(50);
  opts.control = &control;
  deploy::BackoffClock clock(opts);
  // No phase budget: the run deadline is the only bound (the virtual
  // clock ticks a hair per read, so allow 49/50).
  EXPECT_GE(deploy::backoff_clamp_ms(clock, 0, opts), 45);
  EXPECT_LE(deploy::backoff_clamp_ms(clock, 0, opts), 50);
  // A looser phase budget than the run deadline: deadline wins.
  EXPECT_LE(deploy::backoff_clamp_ms(clock, 60000, opts), 50);
  ASSERT_TRUE(registry.advance_clock_us(50000));
  EXPECT_EQ(deploy::backoff_clamp_ms(clock, 0, opts), 0);  // expired
  // Unsupervised options are unbounded without a phase budget.
  deploy::DeployOptions plain;
  EXPECT_EQ(deploy::backoff_clamp_ms(clock, 0, plain), -1);
}

// --- Propagation: every phase observes a pre-set cancel --------------------

class PhaseCancellation : public ::testing::Test {
 protected:
  obs::Registry registry_{std::make_unique<obs::VirtualClock>()};
  obs::RegistryScope scope_{registry_};
  core::RunControl control_;
  core::Workflow wf_;

  void SetUp() override {
    wf_.use_telemetry(&registry_);
    wf_.use_control(&control_);
  }
};

TEST_F(PhaseCancellation, LoadObservesAtItsBoundary) {
  control_.token.request_cancel();
  try {
    wf_.load(topology::figure5());
    FAIL() << "expected core::Cancelled";
  } catch (const core::Cancelled& e) {
    EXPECT_EQ(e.where(), "phase.load");
  }
}

TEST_F(PhaseCancellation, DesignObservesAndLoadSurvives) {
  wf_.load(topology::figure5());
  control_.token.request_cancel();
  try {
    wf_.design();
    FAIL() << "expected core::Cancelled";
  } catch (const core::Cancelled& e) {
    EXPECT_EQ(e.where(), "phase.design");
  }
  // The completed load phase's result is intact after the throw.
  EXPECT_GT(wf_.anm().overlay("phy").node_count(), 0u);
}

TEST_F(PhaseCancellation, CompileObservesAtItsBoundary) {
  wf_.load(topology::figure5()).design();
  control_.token.request_cancel();
  try {
    wf_.compile();
    FAIL() << "expected core::Cancelled";
  } catch (const core::Cancelled& e) {
    EXPECT_EQ(e.where(), "phase.compile");
  }
}

TEST_F(PhaseCancellation, RenderObservesAtItsBoundary) {
  wf_.load(topology::figure5()).design().compile();
  control_.token.request_cancel();
  try {
    wf_.render();
    FAIL() << "expected core::Cancelled";
  } catch (const core::Cancelled& e) {
    EXPECT_EQ(e.where(), "phase.render");
  }
  EXPECT_NO_THROW((void)wf_.nidb());  // compile result intact
}

TEST_F(PhaseCancellation, LintObservesAtItsBoundary) {
  wf_.load(topology::figure5()).design().compile().render();
  control_.token.request_cancel();
  try {
    wf_.lint();
    FAIL() << "expected core::Cancelled";
  } catch (const core::Cancelled& e) {
    EXPECT_EQ(e.where(), "phase.lint");
  }
  EXPECT_NO_THROW((void)wf_.configs());  // render result intact
}

TEST_F(PhaseCancellation, DeployObservesAtItsBoundary) {
  wf_.load(topology::figure5()).design().compile().render().lint();
  control_.token.request_cancel();
  try {
    wf_.deploy();
    FAIL() << "expected core::Cancelled";
  } catch (const core::Cancelled& e) {
    EXPECT_EQ(e.where(), "phase.deploy");
  }
}

TEST_F(PhaseCancellation, MeasureObservesAtItsBoundary) {
  wf_.run(topology::figure5());
  ASSERT_TRUE(wf_.ok());
  control_.token.request_cancel();
  try {
    wf_.measure();
    FAIL() << "expected core::Cancelled";
  } catch (const core::Cancelled& e) {
    EXPECT_EQ(e.where(), "phase.measure");
  }
  // The deployed network survives the cancelled measure phase.
  EXPECT_TRUE(wf_.deploy_result().success);
}

TEST_F(PhaseCancellation, SubPhaseTripInterruptsMidDesign) {
  control_.trip_hook = [](std::string_view where) {
    return where == "design.ip";
  };
  wf_.load(topology::figure5());
  try {
    wf_.design();
    FAIL() << "expected core::Cancelled";
  } catch (const core::Cancelled& e) {
    EXPECT_EQ(e.where(), "design.ip");
  }
  // Rules before the trip already ran: the OSPF overlay exists.
  EXPECT_TRUE(wf_.anm().has_overlay("ospf"));
}

TEST_F(PhaseCancellation, EveryLayerPublishesSubPhaseBoundaries) {
  // A recording (never-tripping) hook sees the cooperative checkpoints of
  // every layer: the unit-of-work guarantee is only as good as the
  // boundary coverage.
  std::set<std::string> seen;
  control_.trip_hook = [&seen](std::string_view where) {
    seen.insert(std::string(where));
    return false;
  };
  wf_.run(topology::figure5());
  wf_.measure();

  for (const char* phase :
       {"phase.load", "phase.design", "phase.compile", "phase.render",
        "phase.lint", "phase.deploy", "phase.measure"}) {
    EXPECT_TRUE(seen.contains(phase)) << phase;
  }
  // One boundary per design rule, rendered device, lint rule, booted
  // machine, BGP round, and measurement probe family.
  EXPECT_TRUE(seen.contains("design.ospf"));
  EXPECT_TRUE(seen.contains("design.ibgp"));
  EXPECT_TRUE(seen.contains("design.ip"));
  EXPECT_TRUE(seen.contains("emulation.start"));
  EXPECT_TRUE(seen.contains("emulation.bgp.round"));
  EXPECT_TRUE(seen.contains("measure.validate_ospf"));
  EXPECT_TRUE(seen.contains("measure.reachability"));
  std::size_t render_devices = 0, lint_rules = 0;
  for (const std::string& where : seen) {
    render_devices += where.starts_with("render.device.") ? 1 : 0;
    lint_rules += where.starts_with("lint.") ? 1 : 0;
  }
  EXPECT_EQ(render_devices, 5u);  // figure5 has five routers
  EXPECT_GE(lint_rules, 10u);     // the builtin rule set
}

}  // namespace
