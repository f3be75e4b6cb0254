// Tests of the benchmark's own code: the reducers, the span accounting,
// and the promise that a traced pass runs the program exactly as an
// untraced one does.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/task.hpp"
#include "reduce.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using rt::Duration;
using rt::TimePoint;
using rt::sim::TraceKind;

TimePoint at_ms(double ms) { return TimePoint(static_cast<std::int64_t>(ms * 1e6)); }

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_TRUE(perfbench::percentile_reportable(100, 90.0));
  EXPECT_FALSE(perfbench::percentile_reportable(99, 90.0));
  EXPECT_TRUE(perfbench::percentile_reportable(20, 50.0));
  EXPECT_FALSE(perfbench::percentile_reportable(19, 50.0));
  EXPECT_TRUE(perfbench::percentile_reportable(1000, 99.0));
  EXPECT_FALSE(perfbench::percentile_reportable(999, 99.0));
  EXPECT_TRUE(perfbench::percentile_reportable(10000, 99.9));
  EXPECT_FALSE(perfbench::percentile_reportable(9999, 99.9));
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(perfbench::median({}), std::invalid_argument);
}

TEST(Spread, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  EXPECT_DOUBLE_EQ(perfbench::interquartile_range({5.0, 1.0, 4.0, 2.0, 3.0}), 3.0);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  EXPECT_DOUBLE_EQ(perfbench::interquartile_range({2.0, 1.0}), 1.5);
  EXPECT_THROW(perfbench::interquartile_range({1.0}), std::invalid_argument);
}

TEST(Spread, SelfTimeResolvedOnlyAboveItsSpread) {
  EXPECT_TRUE(perfbench::self_time_resolved({70.0, 75.0, 72.0, 80.0, 74.0}));
  // About 1 ms of work under +-10 ms of noise from the subtracted probe.
  EXPECT_FALSE(perfbench::self_time_resolved({12.0, -9.0, 1.0, 6.0, -4.0}));
  EXPECT_FALSE(perfbench::self_time_resolved({-2.0, -1.0, -3.0}));
  EXPECT_FALSE(perfbench::self_time_resolved({5.0}));
}

// One periodic task (T = D = 100 ms) offloaded with R = 30 ms against a
// fixed 20 ms service, at time scale 0.5: job 1 gets a reply 20.2 ms after
// its send, job 2's timer fires 0.1 ms late.
TEST(ProtocolTrace, OverheadSlipAndMargins) {
  rt::core::Task task;
  task.name = "t";
  task.period = Duration::from_ms(100);
  task.deadline = Duration::from_ms(100);
  rt::core::Decision offload;
  offload.level = 1;
  offload.response_time = Duration::from_ms(30);

  rt::sim::Trace trace(64);
  trace.record(at_ms(0), TraceKind::kRelease, 0, 1);
  trace.record(at_ms(4), TraceKind::kSetupDone, 0, 1);
  trace.record(at_ms(24.2), TraceKind::kResultTimely, 0, 1);
  trace.record(at_ms(30), TraceKind::kJobComplete, 0, 1);
  trace.record(at_ms(100.05), TraceKind::kRelease, 0, 2);  // released late
  trace.record(at_ms(104), TraceKind::kSetupDone, 0, 2);
  trace.record(at_ms(134.1), TraceKind::kTimerFired, 0, 2);
  trace.record(at_ms(150), TraceKind::kJobComplete, 0, 2);
  trace.record(at_ms(151), TraceKind::kResultLate, 0, 2);

  const perfbench::ProtocolStats s = perfbench::reduce_protocol_trace(
      trace, {task}, {offload}, Duration::from_ms(20), 0.5);
  ASSERT_EQ(s.overhead_us.size(), 1u);
  EXPECT_NEAR(s.overhead_us[0], 100.0, 1e-9);  // 0.2 ms protocol * 0.5
  ASSERT_EQ(s.timer_slip_us.size(), 1u);
  EXPECT_NEAR(s.timer_slip_us[0], 50.0, 1e-9);  // 0.1 ms protocol * 0.5
  EXPECT_NEAR(s.reply_margin_min_ms, 9.8, 1e-9);
  // Job 2's deadline comes from its intended release (100 ms), not the
  // recorded 100.05 ms.
  EXPECT_NEAR(s.job_slack_min_ms, 50.0, 1e-9);
}

TEST(ProtocolTrace, RejectsTruncatedAndOrphanEvents) {
  rt::core::Task task;
  task.period = Duration::from_ms(100);
  task.deadline = Duration::from_ms(100);
  rt::sim::Trace small(1);
  small.record(at_ms(0), TraceKind::kRelease, 0, 1);
  small.record(at_ms(1), TraceKind::kSetupDone, 0, 1);
  EXPECT_THROW(perfbench::reduce_protocol_trace(small, {task}, {rt::core::Decision{}},
                                                Duration::zero(), 1.0),
               std::invalid_argument);
  rt::sim::Trace orphan(8);
  orphan.record(at_ms(3), TraceKind::kResultTimely, 0, 7);
  EXPECT_THROW(perfbench::reduce_protocol_trace(orphan, {task}, {rt::core::Decision{}},
                                                Duration::zero(), 1.0),
               std::invalid_argument);
}

perfbench::SpanRecord span(const char* name, std::int64_t start, std::int64_t end,
                           int parent, bool probe = false, double weight = 1.0) {
  perfbench::SpanRecord s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.probe = probe;
  s.weight = weight;
  return s;
}

// A 100 ns report: a 60 ns batch run on 2 workers whose two cells,
// re-run alone, take 40 ns each (30 of it simulation), plus 10 ns of
// rendering. Self times must sum to the root and split the batch wall
// time by the 1/2 weights.
TEST(Spans, SelfTimesAttributeProbesByWeight) {
  const std::vector<perfbench::SpanRecord> spans{
      span("report", 0, 100, -1),
      span("exp.run", 10, 70, 0),
      span("report.render", 80, 90, 0),
      span("exp.cell", 200, 240, 1, true, 0.5),
      span("sim.run", 205, 235, 3),
      span("exp.cell", 300, 340, 1, true, 0.5),
      span("sim.run", 305, 335, 5),
  };
  const std::vector<double> self = perfbench::self_times_ns(spans);
  EXPECT_DOUBLE_EQ(self[0], 30.0);  // glue: 100 - 60 - 10
  EXPECT_DOUBLE_EQ(self[1], 20.0);  // 60 - (40 + 40) / 2
  EXPECT_DOUBLE_EQ(self[2], 10.0);
  EXPECT_DOUBLE_EQ(self[3], 5.0);   // (40 - 30) / 2
  EXPECT_DOUBLE_EQ(self[4], 15.0);  // 30 / 2
  double total = 0.0;
  for (const double s : self) total += s;
  EXPECT_DOUBLE_EQ(total, 100.0);
}

TEST(Spans, RecorderNestsAndClosesInnermostFirst) {
  perfbench::SpanRecorder rec;
  rec.set_scenario("x");
  const int outer = rec.open("outer");
  const int inner = rec.open("inner");
  EXPECT_THROW(rec.close(outer), std::logic_error);
  rec.close(inner);
  rec.close(outer);
  const int probe = rec.open_probe("probe", inner, 0.25);
  rec.close(probe);
  EXPECT_EQ(rec.spans()[1].parent, outer);
  EXPECT_EQ(rec.spans()[2].parent, inner);
  EXPECT_TRUE(rec.spans()[2].probe);
  EXPECT_EQ(rec.spans()[2].scenario, "x");
  EXPECT_THROW(rec.open_probe("bad", 99, 1.0), std::logic_error);
}

// A traced pass records spans only from the benchmark's side: it attaches
// no obs::Sink (which would, among other things, push every batched
// replication off the shared-skeleton fast path) and so renders reports
// byte-identical to an untraced pass.
TEST(TracedPass, ReportsAreByteIdenticalToUntraced) {
  const auto workload = perfbench::make_workload("fault-stack", PERFBENCH_SPECS_DIR,
                                                 perfbench::kDefaultSeed + 1);
  const perfbench::Iteration plain = workload->iterate(nullptr, "plain");
  perfbench::SpanRecorder rec;
  const perfbench::Iteration traced = workload->iterate(&rec, "traced");
  EXPECT_TRUE(plain.failures.empty()) << plain.failures.front();
  EXPECT_TRUE(traced.failures.empty()) << traced.failures.front();
  ASSERT_EQ(plain.reports.size(), 2u);
  EXPECT_EQ(plain.reports, traced.reports);
  // Only the traced pass runs probes, which count MCKP items.
  std::map<std::string, double> traced_counters = traced.counters;
  traced_counters.erase("mckp.items");
  EXPECT_EQ(plain.counters, traced_counters);
  EXPECT_FALSE(rec.spans().empty());
  std::vector<std::string> failures;
  workload->final_checks(failures);
  EXPECT_TRUE(failures.empty());
}

TEST(TracedPass, AttachesNoSink) {
  // With a sink attached the batched engine's skeleton_eligible() sends
  // every replication to the serial fallback; the traced Figure 3 pass
  // still sees fast-path replications.
  const auto workload =
      perfbench::make_workload("fig3-mc", PERFBENCH_SPECS_DIR, perfbench::kDefaultSeed);
  perfbench::SpanRecorder rec;
  const perfbench::Iteration traced = workload->iterate(&rec, "traced");
  EXPECT_TRUE(traced.failures.empty()) << traced.failures.front();
  EXPECT_GT(traced.counters.at("sim.fast_path_share"), 0.0);
  // And the benchmark's sources never name the telemetry sink type.
  for (const char* file : {"workloads.cpp", "main.cpp", "spans.cpp", "reduce.cpp"}) {
    std::ifstream in(std::string(PERFBENCH_SPECS_DIR) + "/../src/" + file);
    ASSERT_TRUE(in) << file;
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str().find("obs::Sink"), std::string::npos) << file;
    EXPECT_EQ(buf.str().find(".sink ="), std::string::npos) << file;
  }
}

}  // namespace
