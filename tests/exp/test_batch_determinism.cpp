// The BatchRunner's core promise: worker count is a pure performance knob.
// The same sweep on 1, 2, or 8 workers must produce bit-identical results
// (exact double equality, not tolerances), because every scenario draws its
// seed from its index and owns a private Rng + cloned ResponseModel.
//
// This file is the one the TSan build (RTOFFLOAD_SANITIZE=thread) is
// expected to exercise: it drives the pool, the per-scenario cloning, and
// the disjoint result slots under real concurrency.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/odm.hpp"
#include "core/workload.hpp"
#include "exp/batch.hpp"
#include "obs/sink.hpp"
#include "sim/benefit_response.hpp"
#include "spec/grid.hpp"

namespace {

using namespace rt;

/// A small Figure-3-shaped grid (examples/specs/fig3.json with 10 tasks,
/// three accuracy ratios and a 5 s horizon): 3 x 2 = 6 scenarios.
constexpr const char* kSmallFig3Doc = R"json({
  "workload": {"type": "paper", "seed": 7, "num_tasks": 10},
  "odm": {"apply_task_weights": false},
  "server": {"type": "benefit-driven"},
  "sim": {"benefit_semantics": "timely-count", "horizon_ms": 5000},
  "sweep": {
    "axes": [
      {"path": "odm.estimation_error", "values": [-0.2, 0.0, 0.2]},
      {"path": "odm.solver", "values": ["dp-profits", "heu-oe"]}
    ]
  }
})json";

struct SmallSweep {
  spec::BatchPlan plan;
  std::vector<exp::ScenarioOutcome> outcomes;
};

SmallSweep run_small_sweep(unsigned jobs, obs::Sink* sink = nullptr) {
  SmallSweep sweep;
  sweep.plan =
      spec::plan_batch(spec::ScenarioDoc::parse_text(kSmallFig3Doc));
  sweep.plan.batch.jobs = jobs;
  sweep.outcomes = exp::BatchRunner(sweep.plan.batch).run(sweep.plan.specs, sink);
  return sweep;
}

/// Bit-identical decisions and per-task metrics, not approximately equal.
void expect_outcomes_equal(const std::vector<exp::ScenarioOutcome>& a,
                           const std::vector<exp::ScenarioOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    SCOPED_TRACE(s);
    EXPECT_EQ(a[s].odm.claimed_objective, b[s].odm.claimed_objective);
    ASSERT_EQ(a[s].decisions.size(), b[s].decisions.size());
    for (std::size_t t = 0; t < a[s].decisions.size(); ++t) {
      EXPECT_EQ(a[s].decisions[t].level, b[s].decisions[t].level);
      EXPECT_EQ(a[s].decisions[t].response_time, b[s].decisions[t].response_time);
    }
    ASSERT_EQ(a[s].metrics.per_task.size(), b[s].metrics.per_task.size());
    for (std::size_t t = 0; t < a[s].metrics.per_task.size(); ++t) {
      const sim::TaskMetrics& x = a[s].metrics.per_task[t];
      const sim::TaskMetrics& y = b[s].metrics.per_task[t];
      EXPECT_EQ(x.released, y.released);
      EXPECT_EQ(x.completed, y.completed);
      EXPECT_EQ(x.deadline_misses, y.deadline_misses);
      EXPECT_EQ(x.timely_results, y.timely_results);
      EXPECT_EQ(x.compensations, y.compensations);
      EXPECT_EQ(x.late_results, y.late_results);
      EXPECT_EQ(x.accrued_benefit, y.accrued_benefit);
    }
  }
}

TEST(ScenarioSeed, DeterministicAndDistinct) {
  EXPECT_EQ(exp::scenario_seed(1, 0), exp::scenario_seed(1, 0));
  EXPECT_EQ(exp::scenario_seed(99, 123), exp::scenario_seed(99, 123));

  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {std::uint64_t{1}, std::uint64_t{2}}) {
    for (std::size_t i = 0; i < 1000; ++i) {
      seen.insert(exp::scenario_seed(base, i));
    }
  }
  EXPECT_EQ(seen.size(), 2000u) << "seed collisions across indices/bases";
}

TEST(BatchDeterminism, SweepIdenticalAcrossWorkerCounts) {
  const SmallSweep r1 = run_small_sweep(1);
  const SmallSweep r2 = run_small_sweep(2);
  const SmallSweep r8 = run_small_sweep(8);

  ASSERT_EQ(r1.outcomes.size(), 3u * 2u);
  for (const SmallSweep* other : {&r2, &r8}) {
    for (std::size_t i = 0; i < r1.plan.specs.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(r1.plan.specs[i].odm.estimation_error,
                other->plan.specs[i].odm.estimation_error);
      EXPECT_EQ(r1.plan.specs[i].odm.solver, other->plan.specs[i].odm.solver);
    }
    expect_outcomes_equal(r1.outcomes, other->outcomes);
  }

  // The sweep must have produced real signal, or the equalities above are
  // vacuous: analytic sum_i G_i(R_i) over offloaded tasks, and simulated
  // timely results per job.
  double analytic_sum = 0.0, simulated_sum = 0.0;
  for (const exp::ScenarioOutcome& o : r1.outcomes) {
    const core::TaskSet& tasks = r1.plan.specs[o.index].tasks;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (o.decisions[i].offloaded()) {
        analytic_sum += tasks[i].benefit.value_at(o.decisions[i].response_time);
      }
      const sim::TaskMetrics& m = o.metrics.per_task[i];
      if (m.released > 0) {
        simulated_sum += m.accrued_benefit / static_cast<double>(m.released);
      }
    }
  }
  EXPECT_GT(analytic_sum, 0.0);
  EXPECT_GT(simulated_sum, 0.0);
}

TEST(BatchDeterminism, DecideOffloadingBatchMatchesSerial) {
  std::vector<core::TaskSet> sets;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    core::PaperSimConfig wl;
    wl.num_tasks = 8;
    sets.push_back(core::make_paper_simulation_taskset(rng, wl));
  }

  std::vector<core::OdmResult> serial;
  for (const auto& ts : sets) serial.push_back(core::decide_offloading(ts));

  for (unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE(jobs);
    const std::vector<core::OdmResult> batch =
        core::decide_offloading_batch(sets, {}, jobs);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < sets.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(batch[i].feasible, serial[i].feasible);
      EXPECT_EQ(batch[i].claimed_objective, serial[i].claimed_objective);
      ASSERT_EQ(batch[i].decisions.size(), serial[i].decisions.size());
      for (std::size_t t = 0; t < serial[i].decisions.size(); ++t) {
        EXPECT_EQ(batch[i].decisions[t].offloaded(),
                  serial[i].decisions[t].offloaded());
        EXPECT_EQ(batch[i].decisions[t].level, serial[i].decisions[t].level);
        EXPECT_EQ(batch[i].decisions[t].response_time,
                  serial[i].decisions[t].response_time);
      }
    }
  }
}

TEST(BatchDeterminism, TelemetryDoesNotPerturbResults) {
  // Attaching a sink must be pure observation: the sweep's outcomes stay
  // bit-identical to a telemetry-free run.
  const SmallSweep bare = run_small_sweep(2);

  obs::Sink sink;
  const SmallSweep observed = run_small_sweep(2, &sink);
  expect_outcomes_equal(observed.outcomes, bare.outcomes);

  // The merged counters must have recorded the sweep.
  EXPECT_EQ(sink.registry().counter("batch.scenarios").value(),
            bare.outcomes.size());
  EXPECT_GT(sink.registry().counter("sim.events").value(), 0u);
  EXPECT_GT(sink.registry().counter("odm.decisions").value(), 0u);
  EXPECT_GT(sink.registry().histogram("mckp.items_pruned").count(), 0u);
  EXPECT_FALSE(sink.phases().empty());
}

TEST(BatchDeterminism, MergedCountersIdenticalAcrossWorkerCounts) {
  // Counters and value histograms (not the *_ns wall-clock ones) are
  // integer sums over per-scenario work, so the merged totals must be
  // identical for every worker count.
  obs::Sink s1, s8;
  (void)run_small_sweep(1, &s1);
  (void)run_small_sweep(8, &s8);

  ASSERT_EQ(s1.registry().counters().size(), s8.registry().counters().size());
  for (const auto& [name, c] : s1.registry().counters()) {
    SCOPED_TRACE(name);
    const obs::Counter* other = s8.registry().find_counter(name);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(c.value(), other->value());
  }
  for (const auto& [name, h] : s1.registry().histograms()) {
    if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ns") == 0) {
      continue;  // wall-clock durations carry no determinism promise
    }
    SCOPED_TRACE(name);
    const obs::LogHistogram* other = s8.registry().find_histogram(name);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(h.count(), other->count());
    EXPECT_EQ(h.sum(), other->sum());
    for (std::size_t b = 0; b < obs::LogHistogram::kBuckets; ++b) {
      EXPECT_EQ(h.bucket_count(b), other->bucket_count(b));
    }
  }
}

TEST(BatchDeterminism, ReplicatedSpecsIdenticalAcrossWorkerCounts) {
  // A spec with replications > 1 leases the batched engine inside the
  // worker; like everything else, the outcome (replication-0 metrics AND
  // the cross-replication aggregate) must be bit-identical for every
  // worker count, and a K = 1 spec must not change at all.
  Rng rng(7);
  core::PaperSimConfig wl;
  wl.num_tasks = 10;
  const core::TaskSet tasks = core::make_paper_simulation_taskset(rng, wl);
  std::vector<core::BenefitFunction> gs;
  for (const auto& t : tasks) gs.push_back(t.benefit);
  auto server = std::make_shared<sim::BenefitDrivenResponse>(std::move(gs));

  exp::ScenarioSpec spec;
  spec.tasks = tasks;
  spec.server = server;
  spec.sim.horizon = Duration::seconds(5);
  spec.sim.benefit_semantics = sim::BenefitSemantics::kTimelyCount;

  constexpr std::size_t kReps = 16;
  std::vector<exp::ScenarioSpec> specs(3, spec);
  specs[0].replications = kReps;
  specs[2].replications = kReps;  // specs[1] stays serial (K = 1)

  auto run_with = [&](unsigned jobs) {
    return exp::BatchRunner({.jobs = jobs, .base_seed = 5}).run(specs);
  };
  const std::vector<exp::ScenarioOutcome> o1 = run_with(1);
  const std::vector<exp::ScenarioOutcome> o4 = run_with(4);

  ASSERT_EQ(o1.size(), 3u);
  ASSERT_EQ(o4.size(), 3u);
  for (std::size_t i = 0; i < o1.size(); ++i) {
    SCOPED_TRACE(i);
    const std::size_t want = i == 1 ? 1u : kReps;
    EXPECT_EQ(o1[i].aggregate.replications, want);
    EXPECT_EQ(o4[i].aggregate.replications, want);
    // Bit-identical across worker counts: metrics and aggregate stats.
    EXPECT_EQ(o1[i].metrics.total_benefit(), o4[i].metrics.total_benefit());
    EXPECT_EQ(o1[i].metrics.total_deadline_misses(),
              o4[i].metrics.total_deadline_misses());
    EXPECT_EQ(o1[i].aggregate.total_benefit.mean(),
              o4[i].aggregate.total_benefit.mean());
    EXPECT_EQ(o1[i].aggregate.total_benefit.stddev(),
              o4[i].aggregate.total_benefit.stddev());
  }
  // Real signal, or the equalities above are vacuous.
  EXPECT_GT(o1[0].aggregate.total_benefit.mean(), 0.0);
  EXPECT_GT(o1[0].aggregate.total_benefit.stddev(), 0.0);
}

TEST(BatchDeterminism, ForEachRngIsPerIndex) {
  // for_each hands each index an Rng seeded only by (base_seed, index):
  // the draws must not depend on worker count or execution order.
  exp::BatchConfig cfg1;
  cfg1.jobs = 1;
  exp::BatchConfig cfg8;
  cfg8.jobs = 8;

  constexpr std::size_t kN = 64;
  std::vector<double> draws1(kN), draws8(kN);
  exp::BatchRunner(cfg1).for_each(
      kN, [&](std::size_t i, Rng& rng) { draws1[i] = rng.uniform(); });
  exp::BatchRunner(cfg8).for_each(
      kN, [&](std::size_t i, Rng& rng) { draws8[i] = rng.uniform(); });

  EXPECT_EQ(draws1, draws8);
  EXPECT_GT(std::set<double>(draws1.begin(), draws1.end()).size(), kN / 2);
}

}  // namespace
