// End-to-end: fault injection (server/faults.hpp) + the health-driven
// degraded-mode controller (rt/health.hpp) in the discrete-event engine.
//
// The setting is Figure 3's: the server's response distribution is the
// benefit function itself, so the benefit IS the probability of a timely
// higher-performance result and G(0) = 0. A mid-run slowdown-plus-drop
// window makes the static vector burn its setup budgets on compensations,
// while the adaptive controller switches to a pessimistic ODM vector whose
// windows admit the inflated responses -- strictly more benefit, still zero
// deadline misses (abort_on_deadline_miss is armed in both runs).

#include <gtest/gtest.h>

#include "core/odm.hpp"
#include "core/workload.hpp"
#include "rt/health.hpp"
#include "server/faults.hpp"
#include "sim/benefit_response.hpp"
#include "sim/engine.hpp"
#include "sim/reference_engine.hpp"
#include "sim/simulator.hpp"

namespace rt::sim {
namespace {

using namespace rt::literals;

constexpr double kSlowdownFactor = 2.0;

struct Setting {
  core::TaskSet tasks;
  core::DecisionVector static_decisions;
  core::DecisionVector degraded_decisions;
  std::unique_ptr<server::FaultInjector> server;  ///< faulted benefit server
};

server::FaultScript midrun_fault() {
  server::FaultScript script;
  script.seed = 0xFA02;
  server::FaultClause slow;
  slow.kind = server::FaultKind::kSlowdown;
  slow.start = TimePoint::zero() + Duration::seconds(15);
  slow.end = TimePoint::zero() + Duration::seconds(45);
  slow.factor = kSlowdownFactor;
  server::FaultClause burst = slow;
  burst.kind = server::FaultKind::kDropBurst;
  burst.drop_probability = 0.25;
  script.clauses = {slow, burst};
  return script;
}

Setting make_setting() {
  Rng rng(20140601);
  core::PaperSimConfig wl;
  wl.num_tasks = 12;
  Setting s;
  s.tasks = core::make_paper_simulation_taskset(rng, wl);

  core::OdmConfig odm;
  odm.apply_task_weights = false;
  s.static_decisions = core::decide_offloading(s.tasks, odm).decisions;
  core::OdmConfig pessimistic = odm;
  pessimistic.estimation_error = kSlowdownFactor - 1.0;
  s.degraded_decisions = core::decide_offloading(s.tasks, pessimistic).decisions;

  std::vector<core::BenefitFunction> gs;
  for (const auto& t : s.tasks) gs.push_back(t.benefit);
  s.server = std::make_unique<server::FaultInjector>(
      std::make_unique<BenefitDrivenResponse>(std::move(gs)), midrun_fault());
  return s;
}

health::ModeControllerConfig controller_config(core::DecisionVector degraded) {
  health::ModeControllerConfig mc;
  // Healthy shadow rate here is the mean G(r_level), around 0.6 -- the
  // thresholds sit below that, with the usual hysteresis band between them.
  mc.health.window = 32;
  mc.health.min_samples = 8;
  mc.health.degrade_below = 0.3;
  mc.health.recover_above = 0.5;
  mc.health.min_normal_dwell = Duration::seconds(1);
  mc.health.min_degraded_dwell = Duration::seconds(2);
  mc.degraded = std::move(degraded);
  return mc;
}

SimConfig fig3_config() {
  SimConfig cfg;
  cfg.horizon = Duration::seconds(60);
  cfg.seed = 77;
  cfg.benefit_semantics = BenefitSemantics::kTimelyCount;
  cfg.exec_policy = ExecTimePolicy::kUniformFraction;
  cfg.abort_on_deadline_miss = true;  // the guarantee must hold in both modes
  return cfg;
}

TEST(Adaptive, BeatsStaticUnderScriptedFaultWithZeroMisses) {
  const Setting s = make_setting();
  const SimConfig cfg = fig3_config();

  const std::unique_ptr<server::ResponseModel> srv_static = s.server->clone();
  const SimResult st =
      simulate(s.tasks, s.static_decisions, *srv_static, cfg);

  health::ModeController controller(controller_config(s.degraded_decisions));
  SimConfig adaptive_cfg = cfg;
  adaptive_cfg.controller = &controller;
  const std::unique_ptr<server::ResponseModel> srv_adaptive = s.server->clone();
  const SimResult ad =
      simulate(s.tasks, s.static_decisions, *srv_adaptive, adaptive_cfg);

  EXPECT_EQ(st.metrics.total_deadline_misses(), 0u);
  EXPECT_EQ(ad.metrics.total_deadline_misses(), 0u);
  EXPECT_EQ(st.metrics.mode_changes, 0u);
  EXPECT_GE(ad.metrics.mode_changes, 2u);  // degrade, then recover
  EXPECT_GT(ad.metrics.time_in_degraded_ns, 0);
  EXPECT_LT(ad.metrics.time_in_degraded_ns, cfg.horizon.ns());
  EXPECT_GT(ad.metrics.total_benefit(), st.metrics.total_benefit());
}

TEST(Adaptive, ModeChangeTraceEventsMatchTheMetric) {
  const Setting s = make_setting();
  health::ModeController controller(controller_config(s.degraded_decisions));
  SimConfig cfg = fig3_config();
  cfg.controller = &controller;
  cfg.trace_capacity = 200'000;

  const std::unique_ptr<server::ResponseModel> srv = s.server->clone();
  const SimResult res = simulate(s.tasks, s.static_decisions, *srv, cfg);
  ASSERT_FALSE(res.metrics.trace_truncated);

  std::uint64_t changes = 0;
  std::size_t last_mode = 0;
  for (const auto& ev : res.trace.events()) {
    if (ev.kind != TraceKind::kModeChange) continue;
    ++changes;
    // The event's task field is the new mode; transitions must alternate
    // starting with enter-degraded, and the job field runs the count.
    EXPECT_EQ(ev.task, last_mode == 0 ? 1u : 0u);
    EXPECT_EQ(ev.job, changes);
    last_mode = ev.task;
  }
  EXPECT_EQ(changes, res.metrics.mode_changes);
  EXPECT_GE(changes, 2u);
}

TEST(Adaptive, NeverTriggeringControllerLeavesMetricsUntouched) {
  // degrade_below = 0 can never fire (no rate is < 0), so the controller
  // rides along without ever switching -- and the run must be bit-identical
  // to the same seed without a controller, mode bookkeeping aside.
  const Setting s = make_setting();
  SimConfig cfg = fig3_config();

  const std::unique_ptr<server::ResponseModel> srv_plain = s.server->clone();
  const SimResult plain =
      simulate(s.tasks, s.static_decisions, *srv_plain, cfg);

  health::ModeControllerConfig mc = controller_config(s.degraded_decisions);
  mc.health.degrade_below = 0.0;
  mc.health.recover_above = 0.5;
  health::ModeController controller(mc);
  SimConfig with_ctl = cfg;
  with_ctl.controller = &controller;
  const std::unique_ptr<server::ResponseModel> srv_ctl = s.server->clone();
  const SimResult inert =
      simulate(s.tasks, s.static_decisions, *srv_ctl, with_ctl);

  EXPECT_EQ(inert.metrics.mode_changes, 0u);
  EXPECT_EQ(inert.metrics.time_in_degraded_ns, 0);
  ASSERT_EQ(plain.metrics.per_task.size(), inert.metrics.per_task.size());
  EXPECT_EQ(plain.metrics.cpu_busy_ns, inert.metrics.cpu_busy_ns);
  EXPECT_EQ(plain.metrics.context_switches, inert.metrics.context_switches);
  for (std::size_t i = 0; i < plain.metrics.per_task.size(); ++i) {
    const auto& x = plain.metrics.per_task[i];
    const auto& y = inert.metrics.per_task[i];
    EXPECT_EQ(x.released, y.released) << i;
    EXPECT_EQ(x.completed, y.completed) << i;
    EXPECT_EQ(x.timely_results, y.timely_results) << i;
    EXPECT_EQ(x.compensations, y.compensations) << i;
    EXPECT_EQ(x.accrued_benefit, y.accrued_benefit) << i;
  }
}

// The fault injector is just another ResponseModel: with no controller the
// zero-allocation engine must still match the seed reference engine bit for
// bit through a faulted run.
TEST(Adaptive, FaultedStaticRunMatchesTheReferenceEngine) {
  const Setting s = make_setting();
  SimConfig cfg = fig3_config();
  cfg.abort_on_deadline_miss = false;
  cfg.trace_capacity = 200'000;

  const std::unique_ptr<server::ResponseModel> srv_ref = s.server->clone();
  const std::unique_ptr<server::ResponseModel> srv_opt = s.server->clone();
  const SimResult ref =
      simulate_reference(s.tasks, s.static_decisions, *srv_ref, cfg);
  SimEngine engine;
  const SimResult opt = engine.run(s.tasks, s.static_decisions, *srv_opt, cfg);

  ASSERT_EQ(ref.metrics.per_task.size(), opt.metrics.per_task.size());
  EXPECT_EQ(ref.metrics.cpu_busy_ns, opt.metrics.cpu_busy_ns);
  EXPECT_EQ(ref.metrics.context_switches, opt.metrics.context_switches);
  EXPECT_EQ(ref.metrics.end_time.ns(), opt.metrics.end_time.ns());
  for (std::size_t i = 0; i < ref.metrics.per_task.size(); ++i) {
    const auto& x = ref.metrics.per_task[i];
    const auto& y = opt.metrics.per_task[i];
    EXPECT_EQ(x.released, y.released) << i;
    EXPECT_EQ(x.completed, y.completed) << i;
    EXPECT_EQ(x.deadline_misses, y.deadline_misses) << i;
    EXPECT_EQ(x.timely_results, y.timely_results) << i;
    EXPECT_EQ(x.compensations, y.compensations) << i;
    EXPECT_EQ(x.late_results, y.late_results) << i;
    EXPECT_EQ(x.accrued_benefit, y.accrued_benefit) << i;
  }
  const auto& re = ref.trace.events();
  const auto& oe = opt.trace.events();
  ASSERT_EQ(re.size(), oe.size());
  for (std::size_t i = 0; i < re.size(); ++i) {
    EXPECT_EQ(re[i].time.ns(), oe[i].time.ns()) << "trace event " << i;
    EXPECT_EQ(re[i].kind, oe[i].kind) << "trace event " << i;
    EXPECT_EQ(re[i].task, oe[i].task) << "trace event " << i;
  }
}

// The controller path of the reference engine: with a fresh controller on
// each side, mode switches happen at the same releases, every job keeps its
// release-time vector, and both engines feed the controller the same
// outcomes -- so the zero-allocation engine must still match bit for bit.
TEST(Adaptive, ControlledRunMatchesTheReferenceEngine) {
  const Setting s = make_setting();
  SimConfig cfg = fig3_config();
  cfg.abort_on_deadline_miss = false;
  cfg.trace_capacity = 200'000;

  health::ModeController ctl_ref(controller_config(s.degraded_decisions));
  health::ModeController ctl_opt(controller_config(s.degraded_decisions));
  SimConfig cfg_ref = cfg;
  cfg_ref.controller = &ctl_ref;
  SimConfig cfg_opt = cfg;
  cfg_opt.controller = &ctl_opt;

  const std::unique_ptr<server::ResponseModel> srv_ref = s.server->clone();
  const std::unique_ptr<server::ResponseModel> srv_opt = s.server->clone();
  const SimResult ref =
      simulate_reference(s.tasks, s.static_decisions, *srv_ref, cfg_ref);
  SimEngine engine;
  const SimResult opt =
      engine.run(s.tasks, s.static_decisions, *srv_opt, cfg_opt);

  ASSERT_FALSE(ref.metrics.trace_truncated);
  EXPECT_GT(ref.metrics.mode_changes, 0u);
  EXPECT_EQ(ref.metrics.mode_changes, opt.metrics.mode_changes);
  EXPECT_EQ(ref.metrics.time_in_degraded_ns, opt.metrics.time_in_degraded_ns);
  EXPECT_EQ(ref.metrics.cpu_busy_ns, opt.metrics.cpu_busy_ns);
  EXPECT_EQ(ref.metrics.context_switches, opt.metrics.context_switches);
  EXPECT_EQ(ref.metrics.end_time.ns(), opt.metrics.end_time.ns());
  ASSERT_EQ(ref.metrics.per_task.size(), opt.metrics.per_task.size());
  for (std::size_t i = 0; i < ref.metrics.per_task.size(); ++i) {
    const auto& x = ref.metrics.per_task[i];
    const auto& y = opt.metrics.per_task[i];
    EXPECT_EQ(x.released, y.released) << i;
    EXPECT_EQ(x.completed, y.completed) << i;
    EXPECT_EQ(x.deadline_misses, y.deadline_misses) << i;
    EXPECT_EQ(x.local_runs, y.local_runs) << i;
    EXPECT_EQ(x.offload_attempts, y.offload_attempts) << i;
    EXPECT_EQ(x.timely_results, y.timely_results) << i;
    EXPECT_EQ(x.compensations, y.compensations) << i;
    EXPECT_EQ(x.late_results, y.late_results) << i;
    EXPECT_EQ(x.accrued_benefit, y.accrued_benefit) << i;
    EXPECT_EQ(x.observed_response_ms.count(), y.observed_response_ms.count()) << i;
    EXPECT_EQ(x.observed_response_ms.sum(), y.observed_response_ms.sum()) << i;
  }
  const auto& re = ref.trace.events();
  const auto& oe = opt.trace.events();
  ASSERT_EQ(re.size(), oe.size());
  for (std::size_t i = 0; i < re.size(); ++i) {
    EXPECT_EQ(re[i].time.ns(), oe[i].time.ns()) << "trace event " << i;
    EXPECT_EQ(re[i].kind, oe[i].kind) << "trace event " << i;
    EXPECT_EQ(re[i].task, oe[i].task) << "trace event " << i;
    EXPECT_EQ(re[i].job, oe[i].job) << "trace event " << i;
  }
}

}  // namespace
}  // namespace rt::sim
