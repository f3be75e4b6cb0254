// Spec-driven construction is bit-identical to inline construction.
//
// The acceptance bar for the declarative layer: a nested composed stack
// (faults(routing(bursty(lognormal))) plus an adaptive controller) built
// from one JSON document must produce the exact SimMetrics and ODM results
// of hand-written C++ over a fixed seed grid; likewise a sweep grid run
// through plan_batch() vs an inline ScenarioSpec vector.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/odm.hpp"
#include "core/workload.hpp"
#include "exp/batch.hpp"
#include "rt/health.hpp"
#include "server/bursty.hpp"
#include "server/faults.hpp"
#include "server/response_model.hpp"
#include "server/routing.hpp"
#include "sim/simulator.hpp"
#include "spec/grid.hpp"
#include "spec/scenario_doc.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

using namespace rt;

namespace {

void expect_metrics_equal(const sim::SimMetrics& a, const sim::SimMetrics& b) {
  ASSERT_EQ(a.per_task.size(), b.per_task.size());
  for (std::size_t i = 0; i < a.per_task.size(); ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    const sim::TaskMetrics& x = a.per_task[i];
    const sim::TaskMetrics& y = b.per_task[i];
    EXPECT_EQ(x.released, y.released);
    EXPECT_EQ(x.completed, y.completed);
    EXPECT_EQ(x.deadline_misses, y.deadline_misses);
    EXPECT_EQ(x.local_runs, y.local_runs);
    EXPECT_EQ(x.offload_attempts, y.offload_attempts);
    EXPECT_EQ(x.timely_results, y.timely_results);
    EXPECT_EQ(x.compensations, y.compensations);
    EXPECT_EQ(x.late_results, y.late_results);
    EXPECT_EQ(x.accrued_benefit, y.accrued_benefit);
    EXPECT_EQ(x.observed_response_ms.count(), y.observed_response_ms.count());
    EXPECT_EQ(x.observed_response_ms.sum(), y.observed_response_ms.sum());
    EXPECT_EQ(x.observed_response_ms.min(), y.observed_response_ms.min());
    EXPECT_EQ(x.observed_response_ms.max(), y.observed_response_ms.max());
  }
  EXPECT_EQ(a.cpu_busy_ns, b.cpu_busy_ns);
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.mode_changes, b.mode_changes);
  EXPECT_EQ(a.time_in_degraded_ns, b.time_in_degraded_ns);
  EXPECT_TRUE(a.end_time == b.end_time);
}

void expect_decisions_equal(const core::DecisionVector& a,
                            const core::DecisionVector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    EXPECT_EQ(a[i].level, b[i].level);
    EXPECT_TRUE(a[i].response_time == b[i].response_time);
    EXPECT_EQ(a[i].claimed_benefit, b[i].claimed_benefit);
  }
}

// The composed stack under test: faults(routing(bursty(lognormal), bounded))
// with a pessimistic-odm controller. Must stay in sync with the inline
// construction in ComposedStackTest below.
constexpr std::string_view kComposedDoc = R"json({
  "workload": {"type": "random", "seed": 7, "num_tasks": 4},
  "server": {
    "type": "fault-injector",
    "script": {
      "seed": 9001,
      "clauses": [{"kind": "outage", "start_ms": 1500, "end_ms": 3000}]
    },
    "inner": {
      "type": "routing",
      "route_of_stream": [0, 1, 0, 1],
      "routes": [
        {
          "type": "bursty",
          "seed": 3,
          "mean_calm_ms": 4000,
          "mean_burst_ms": 800,
          "calm": {"type": "shifted-lognormal", "mu_log_ms": 2.7,
                   "sigma_log": 0.4},
          "burst": {"type": "shifted-lognormal", "shift_ms": 150,
                    "mu_log_ms": 6.0, "sigma_log": 0.9,
                    "drop_probability": 0.15}
        },
        {
          "type": "bounded",
          "bound_ms": 400,
          "inner": {"type": "shifted-lognormal", "shift_ms": 2,
                    "mu_log_ms": 3.1, "sigma_log": 0.5,
                    "drop_probability": 0.05}
        }
      ]
    }
  },
  "controller": {"type": "pessimistic-odm", "estimation_error": 1.0},
  "sim": {"horizon_ms": 6000}
})json";

std::unique_ptr<server::ResponseModel> inline_lognormal(double shift_ms,
                                                        double mu, double sigma,
                                                        double drop) {
  return std::make_unique<server::ShiftedLognormalResponse>(
      Duration::from_ms(shift_ms), mu, sigma, drop);
}

std::unique_ptr<server::ResponseModel> inline_composed_server() {
  server::BurstyConfig bursty;
  bursty.mean_calm_duration = Duration::from_ms(4000);
  bursty.mean_burst_duration = Duration::from_ms(800);
  bursty.calm = inline_lognormal(0, 2.7, 0.4, 0);
  bursty.burst = inline_lognormal(150, 6.0, 0.9, 0.15);

  std::vector<std::unique_ptr<server::ResponseModel>> routes;
  routes.push_back(
      std::make_unique<server::BurstyResponse>(std::move(bursty), 3));
  routes.push_back(std::make_unique<server::BoundedResponse>(
      inline_lognormal(2, 3.1, 0.5, 0.05), Duration::from_ms(400)));
  auto routing = std::make_unique<server::RoutingResponse>(
      std::move(routes), std::vector<std::size_t>{0, 1, 0, 1});

  server::FaultScript script;
  script.seed = 9001;
  server::FaultClause outage;
  outage.kind = server::FaultKind::kOutage;
  outage.start = TimePoint::zero() + Duration::from_ms(1500);
  outage.end = TimePoint::zero() + Duration::from_ms(3000);
  script.clauses = {outage};
  script.validate();
  return std::make_unique<server::FaultInjector>(std::move(routing),
                                                 std::move(script));
}

TEST(SpecDifferential, ComposedStackWithControllerIsBitIdentical) {
  const spec::ScenarioDoc doc = spec::ScenarioDoc::parse_text(kComposedDoc);

  // Inline reference: the same workload, ODM, stack, and controller.
  core::RandomTasksetConfig wcfg;
  wcfg.num_tasks = 4;
  Rng rng(7);
  const core::TaskSet tasks = core::make_random_taskset(rng, wcfg);
  const core::OdmConfig odm;  // document uses all defaults
  const core::OdmResult inline_odm = core::decide_offloading(tasks, odm);

  core::OdmConfig pessimistic = odm;
  pessimistic.estimation_error = 1.0;
  health::ModeControllerConfig controller_cfg;  // default health section
  controller_cfg.degraded =
      core::decide_offloading(tasks, pessimistic).decisions;

  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));

    // Spec-driven run.
    const spec::BuiltScenario built = spec::build_scenario(
        spec::with_override(doc, "sim.seed", Json(static_cast<double>(seed))));
    const core::OdmResult spec_odm =
        core::decide_offloading(built.tasks, built.odm);
    health::ModeController spec_controller(*built.controller);
    sim::SimConfig spec_sim = built.sim;
    spec_sim.controller = &spec_controller;
    const sim::SimResult spec_res = sim::simulate(
        built.tasks, spec_odm.decisions, *built.server, spec_sim, built.profile);

    // Inline run.
    health::ModeController inline_controller(controller_cfg);
    sim::SimConfig inline_sim;
    inline_sim.horizon = Duration::from_ms(6000);
    inline_sim.seed = seed;
    inline_sim.controller = &inline_controller;
    const std::unique_ptr<server::ResponseModel> inline_server =
        inline_composed_server();
    const sim::SimResult inline_res = sim::simulate(
        tasks, inline_odm.decisions, *inline_server, inline_sim, {});

    expect_decisions_equal(spec_odm.decisions, inline_odm.decisions);
    EXPECT_EQ(spec_odm.claimed_objective, inline_odm.claimed_objective);
    expect_decisions_equal(built.controller->degraded, controller_cfg.degraded);
    expect_metrics_equal(spec_res.metrics, inline_res.metrics);
  }
}

TEST(SpecDifferential, BatchPlanMatchesInlineSpecVector) {
  const spec::ScenarioDoc doc = spec::ScenarioDoc::parse_text(R"json({
    "workload": {"type": "random", "seed": 11, "num_tasks": 5},
    "server": {"type": "shifted-lognormal", "mu_log_ms": 3.0,
               "sigma_log": 0.5},
    "sim": {"horizon_ms": 4000},
    "sweep": {
      "jobs": 2,
      "base_seed": 5,
      "axes": [
        {"path": "odm.estimation_error", "values": [0.0, 0.25]},
        {"path": "sim.horizon_ms", "values": [3000, 4500]}
      ]
    }
  })json");

  const spec::BatchPlan plan = spec::plan_batch(doc);
  ASSERT_EQ(plan.specs.size(), 4u);
  EXPECT_EQ(plan.batch.jobs, 2u);
  EXPECT_EQ(plan.batch.base_seed, 5u);
  exp::BatchRunner spec_runner(plan.batch);
  const std::vector<exp::ScenarioOutcome> spec_out =
      spec_runner.run(plan.specs);

  // Inline reference: the same grid, row major (estimation_error outer).
  core::RandomTasksetConfig wcfg;
  wcfg.num_tasks = 5;
  Rng rng(11);
  const core::TaskSet tasks = core::make_random_taskset(rng, wcfg);
  const auto server = std::shared_ptr<const server::ResponseModel>(
      inline_lognormal(0, 3.0, 0.5, 0));
  std::vector<exp::ScenarioSpec> inline_specs;
  for (const double error : {0.0, 0.25}) {
    for (const double horizon_ms : {3000.0, 4500.0}) {
      exp::ScenarioSpec s;
      s.tasks = tasks;
      s.odm.estimation_error = error;
      s.server = server;
      s.sim.horizon = Duration::from_ms(horizon_ms);
      inline_specs.push_back(std::move(s));
    }
  }
  exp::BatchConfig batch;
  batch.jobs = 2;
  batch.base_seed = 5;
  exp::BatchRunner inline_runner(batch);
  const std::vector<exp::ScenarioOutcome> inline_out =
      inline_runner.run(inline_specs);

  ASSERT_EQ(spec_out.size(), inline_out.size());
  for (std::size_t i = 0; i < spec_out.size(); ++i) {
    SCOPED_TRACE("scenario " + std::to_string(i));
    expect_decisions_equal(spec_out[i].decisions, inline_out[i].decisions);
    EXPECT_EQ(spec_out[i].odm.claimed_objective,
              inline_out[i].odm.claimed_objective);
    expect_metrics_equal(spec_out[i].metrics, inline_out[i].metrics);
  }
}

}  // namespace
