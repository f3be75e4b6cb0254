#pragma once
// Reductions the benchmark applies to what the program returns: order
// statistics with the "at least ten samples beyond" reporting rule, and
// the real tier's protocol trace turned into overhead, timer slip and
// margins.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/decision.hpp"
#include "core/task.hpp"
#include "sim/trace.hpp"
#include "util/time.hpp"

namespace perfbench {

/// Samples a percentile needs beyond it before it may be reported.
inline constexpr double kMinSamplesBeyond = 10.0;

/// True when `n` samples leave at least kMinSamplesBeyond above the
/// p-th percentile (p in [0, 100)).
bool percentile_reportable(std::size_t n, double p);

/// Median (mean of the middle pair for even sizes); throws on empty input.
double median(std::vector<double> values);

/// Third minus first quartile, the quartiles taken as Python's
/// statistics.quantiles(values, n=4) takes them; throws on fewer than two
/// values.
double interquartile_range(std::vector<double> values);

/// A self time that subtracts separately timed probe re-runs from a
/// pipeline call is resolved, given its value in each traced pass, when
/// its median is positive and larger than the interquartile range of the
/// per-pass values. Fewer than two passes resolve nothing.
bool self_time_resolved(const std::vector<double>& per_pass);

/// What the real tier's protocol trace (runtime::RuntimeResult::trace)
/// says about transport and timers. Times in the trace are protocol
/// time; wall quantities multiply by the time scale.
struct ProtocolStats {
  /// Per timely reply: observed response minus the modelled service
  /// time, wall microseconds.
  std::vector<double> overhead_us;
  /// Per fired compensation timer: fire instant minus (send + R), wall
  /// microseconds.
  std::vector<double> timer_slip_us;
  /// Smallest R minus observed response over timely replies, protocol ms
  /// (+inf with no timely reply).
  double reply_margin_min_ms = 0.0;
  /// Smallest job deadline minus completion over completed jobs, protocol
  /// ms (+inf with no completion). Deadlines come from the intended
  /// periodic release instants k * T, as the runtime anchors them.
  double job_slack_min_ms = 0.0;
};

/// Reduces a protocol trace of a periodic task set run under one decision
/// vector. `service_time` is the modelled (fixed) service time of every
/// request; `time_scale` is wall seconds per protocol second. Throws
/// std::invalid_argument on a truncated trace or an event that names an
/// unknown task or an unsent job.
ProtocolStats reduce_protocol_trace(const rt::sim::Trace& trace,
                                    const rt::core::TaskSet& tasks,
                                    const rt::core::DecisionVector& decisions,
                                    rt::Duration service_time,
                                    double time_scale);

}  // namespace perfbench
