#include "reduce.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

bool percentile_reportable(std::size_t n, double p) {
  // (100 - p) / 100 is inexact for p = 90 or 99.9; allow for the rounding.
  return static_cast<double>(n) * (100.0 - p) / 100.0 >= kMinSamplesBeyond - 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(
      values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

double interquartile_range(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n < 2) throw std::invalid_argument("interquartile range of fewer than two values");
  std::sort(values.begin(), values.end());
  // statistics.quantiles' "exclusive" method: the i-th quartile sits at
  // rank i * (n + 1) / 4, interpolated, the lower index clamped to 1..n-1.
  const auto quartile = [&values, n](std::size_t i) {
    std::size_t j = i * (n + 1) / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * (n + 1)) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  return quartile(3) - quartile(1);
}

bool self_time_resolved(const std::vector<double>& per_pass) {
  if (per_pass.size() < 2) return false;
  const double mid = median(per_pass);
  return mid > 0.0 && interquartile_range(per_pass) < mid;
}

ProtocolStats reduce_protocol_trace(const rt::sim::Trace& trace,
                                    const rt::core::TaskSet& tasks,
                                    const rt::core::DecisionVector& decisions,
                                    rt::Duration service_time,
                                    double time_scale) {
  using rt::sim::TraceKind;
  if (trace.truncated()) {
    throw std::invalid_argument("protocol trace truncated");
  }
  if (decisions.size() != tasks.size()) {
    throw std::invalid_argument("decision vector does not match the task set");
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ProtocolStats out;
  out.reply_margin_min_ms = kInf;
  out.job_slack_min_ms = kInf;

  std::vector<std::int64_t> releases_of(tasks.size(), 0);
  std::unordered_map<std::uint64_t, rt::TimePoint> deadline_of;
  std::unordered_map<std::uint64_t, rt::TimePoint> sent_at;
  for (const rt::sim::TraceEvent& ev : trace.events()) {
    if (ev.kind == TraceKind::kModeChange) continue;  // task = mode, not a task
    if (ev.task >= tasks.size()) {
      throw std::invalid_argument("trace event names an unknown task");
    }
    const rt::core::Task& task = tasks[ev.task];
    const rt::Duration window = decisions[ev.task].response_time;
    switch (ev.kind) {
      case TraceKind::kRelease: {
        const std::int64_t k = releases_of[ev.task]++;
        deadline_of[ev.job] =
            rt::TimePoint(k * task.period.ns()) + task.deadline;
        break;
      }
      case TraceKind::kSetupDone:
        sent_at[ev.job] = ev.time;
        break;
      case TraceKind::kResultTimely:
      case TraceKind::kTimerFired: {
        const auto it = sent_at.find(ev.job);
        if (it == sent_at.end()) {
          throw std::invalid_argument("trace resolves a job that never sent");
        }
        const rt::Duration since_send = ev.time - it->second;
        if (ev.kind == TraceKind::kResultTimely) {
          out.overhead_us.push_back(
              static_cast<double>((since_send - service_time).ns()) *
              time_scale / 1e3);
          out.reply_margin_min_ms =
              std::min(out.reply_margin_min_ms, (window - since_send).ms());
        } else {
          out.timer_slip_us.push_back(
              static_cast<double>((since_send - window).ns()) * time_scale /
              1e3);
        }
        break;
      }
      case TraceKind::kJobComplete: {
        const auto it = deadline_of.find(ev.job);
        if (it == deadline_of.end()) {
          throw std::invalid_argument("trace completes a job never released");
        }
        out.job_slack_min_ms =
            std::min(out.job_slack_min_ms, (it->second - ev.time).ms());
        break;
      }
      default:
        break;
    }
  }
  return out;
}

}  // namespace perfbench
