#include "sim/job_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/deadline.hpp"
#include "obs/sink.hpp"
#include "sim/engine_detail.hpp"

namespace rt::sim {

JobScheduler::JobScheduler(const core::TaskSet& tasks,
                           const core::DecisionVector& decisions,
                           const SimConfig& config,
                           const RequestProfile& profile,
                           std::string_view metric_prefix, SliceTimer& slice)
    : tasks_(tasks), decisions_(decisions), config_(config), profile_(profile),
      slice_(slice), rng_(config.seed), trace_(config.trace_capacity) {
  if (tasks_.size() != decisions_.size()) {
    throw std::invalid_argument("simulate: decisions arity mismatch");
  }
  core::validate_task_set(tasks_);
  detail::validate_decisions(tasks_, decisions_);
  metrics_.per_task.resize(tasks_.size());
  detail::compute_dm_ranks(dm_rank_, tasks_);
  // Mode controller: re-armed over the static vector. The degraded vector
  // goes through the same validation -- a controller must not be able to
  // smuggle in an unsimulatable decision.
  if (config_.controller != nullptr) {
    config_.controller->begin_run(decisions_, TimePoint::zero());
    const core::DecisionVector& degraded = config_.controller->degraded_decisions();
    if (degraded.size() != tasks_.size()) {
      throw std::invalid_argument("simulate: degraded decisions arity mismatch");
    }
    detail::validate_decisions(tasks_, degraded);
  }
  // Resolve metric handles once; with no sink every handle stays null and
  // the per-event hooks are one branch each.
  if (config_.sink != nullptr) {
    auto& reg = config_.sink->registry();
    const std::string prefix(metric_prefix);
    released_counter_ = &reg.counter(prefix + ".jobs_released");
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      const std::string task = prefix + ".task." + std::to_string(i);
      timely_counters_.push_back(&reg.counter(task + ".timely"));
      comp_counters_.push_back(&reg.counter(task + ".compensations"));
      miss_counters_.push_back(&reg.counter(task + ".misses"));
    }
  }
}

Duration JobScheduler::actual_exec(Duration wcet) {
  if (wcet.ns() <= 0) return Duration::zero();
  switch (config_.exec_policy) {
    case ExecTimePolicy::kAlwaysWcet:
      return wcet;
    case ExecTimePolicy::kUniformFraction: {
      const auto lo = static_cast<std::int64_t>(
          config_.exec_min_fraction * static_cast<double>(wcet.ns()));
      return Duration::nanoseconds(
          rng_.uniform_int(std::max<std::int64_t>(lo, 0), wcet.ns()));
    }
  }
  return wcet;
}

void JobScheduler::advance(TimePoint t) {
  if (running_ != nullptr) {
    const Duration elapsed = t - dispatch_time_;
    if (elapsed.is_negative()) {
      throw std::logic_error("simulate: time went backwards");
    }
    running_->remaining -= elapsed;
    if (running_->remaining.is_negative()) running_->remaining = Duration::zero();
    metrics_.cpu_busy_ns += elapsed.ns();
    dispatch_time_ = t;
  }
  now_ = t;
}

void JobScheduler::dispatch() {
  SubJob* top = ready_.empty() ? nullptr : *ready_.begin();
  // Idempotence: if the choice is unchanged and a slice end is armed, its
  // absolute time is still correct (remaining shrinks exactly as the clock
  // advances), so re-arming would only breed timers.
  if (top == running_ && slice_armed_) return;
  if (top != running_) {
    if (running_ != nullptr) {
      trace_.record(now_, TraceKind::kPreempt, running_->task, running_->job_id);
    }
    running_ = top;
    dispatch_time_ = now_;
    if (running_ != nullptr) {
      trace_.record(now_, TraceKind::kDispatch, running_->task, running_->job_id);
      ++metrics_.context_switches;
      // Charge the switch cost to the incoming sub-job: extra demand the
      // analysis covers by WCET inflation.
      running_->remaining += config_.context_switch_overhead;
    }
  }
  slice_armed_ = running_ != nullptr;
  if (slice_armed_) {
    slice_.arm(now_ + running_->remaining);
  } else {
    slice_.disarm();
  }
}

void JobScheduler::make_ready(SubJob sj) {
  sj.seq = ++subjob_seq_;
  sj.priority_key = config_.scheduler_policy == SchedulerPolicy::kEdf
                        ? sj.abs_deadline.ns()
                        : dm_rank_[sj.task];
  pool_.push_back(sj);
  ready_.insert(&pool_.back());
}

/// Applies the controller's verdict at a release boundary. Jobs already
/// released (including their in-flight offloads) carry their mode and
/// finish under it.
void JobScheduler::maybe_switch_mode() {
  const auto mode = static_cast<std::uint8_t>(config_.controller->evaluate(now_));
  if (mode == cur_mode_) return;
  if (cur_mode_ != 0) {
    metrics_.time_in_degraded_ns += (now_ - mode_since_).ns();
  }
  cur_mode_ = mode;
  mode_since_ = now_;
  ++metrics_.mode_changes;
  trace_.record(now_, TraceKind::kModeChange, mode, metrics_.mode_changes);
}

TimePoint JobScheduler::release(std::size_t task_idx, TimePoint at) {
  if (config_.controller != nullptr) maybe_switch_mode();
  const auto& task = tasks_[task_idx];
  const auto& decision = decisions_of(cur_mode_)[task_idx];
  auto& tm = metrics_.per_task[task_idx];
  ++tm.released;
  obs::inc(released_counter_);
  const std::uint64_t job_id = ++job_counter_;
  trace_.record(now_, TraceKind::kRelease, task_idx, job_id);

  SubJob sj;
  sj.task = task_idx;
  sj.job_id = job_id;
  sj.job_deadline = at + task.deadline;
  sj.mode = cur_mode_;
  if (!decision.offloaded()) {
    sj.phase = Phase::kLocal;
    sj.abs_deadline = sj.job_deadline;
    sj.remaining = actual_exec(task.local_wcet);
  } else {
    sj.phase = Phase::kSetup;
    const core::SplitDeadlines split =
        config_.deadline_policy == DeadlinePolicy::kSplit
            ? core::split_deadlines(task, decision.response_time, decision.level)
            : core::naive_deadlines(task, decision.response_time);
    // Under fixed priority, the split sub-deadline is an EDF artifact:
    // dispatch ignores deadlines and only the job deadline is a contract,
    // so the setup phase carries the job deadline for miss accounting.
    sj.abs_deadline = config_.scheduler_policy == SchedulerPolicy::kEdf
                          ? at + split.d1
                          : sj.job_deadline;
    sj.remaining = actual_exec(task.setup_for_level(decision.level));
  }
  make_ready(sj);

  Duration gap = task.period;
  if (config_.release_policy == ReleasePolicy::kSporadic) {
    gap = gap + gap.scaled(rng_.uniform(0.0, config_.sporadic_slack));
  }
  return at + gap;
}

std::optional<Flight> JobScheduler::complete_running() {
  slice_armed_ = false;
  if (running_ == nullptr || running_->remaining.is_positive()) {
    throw std::logic_error("simulate: live slice-end without a finished job");
  }
  const SubJob& sj = *running_;
  ready_.erase(running_);
  running_ = nullptr;

  const auto& task = tasks_[sj.task];
  const auto& decision = decisions_of(sj.mode)[sj.task];
  auto& tm = metrics_.per_task[sj.task];
  if (sj.phase == Phase::kSetup) {
    if (now_ > sj.abs_deadline) note_miss(sj, false);
    ++tm.offload_attempts;
    trace_.record(now_, TraceKind::kSetupDone, sj.task, sj.job_id);
    Flight fl;
    fl.task = sj.task;
    fl.job_id = sj.job_id;
    fl.job_deadline = sj.job_deadline;
    fl.send = now_;
    fl.window = decision.response_time;
    fl.level = decision.level;
    if (sj.task < profile_.size() && decision.level < profile_[sj.task].size()) {
      fl.request = profile_[sj.task][decision.level];
    }
    fl.request.send_time = now_;
    fl.request.stream_id = sj.task;
    fl.mode = sj.mode;
    return fl;
  }

  // Local or second phase: the job is complete.
  ++tm.completed;
  const bool missed = now_ > sj.job_deadline;
  if (missed) note_miss(sj, true);
  trace_.record(now_, TraceKind::kJobComplete, sj.task, sj.job_id);
  if (missed) return std::nullopt;  // a late result earns nothing
  const double w = task.weight;
  if (sj.phase == Phase::kLocal) ++tm.local_runs;
  if (sj.phase == Phase::kLocal || sj.via_compensation) {
    tm.accrued_benefit += w * task.benefit.local_value();
  } else {
    tm.accrued_benefit +=
        config_.benefit_semantics == BenefitSemantics::kQualityValue
            ? w * task.benefit
                      .point(std::min(decision.level, task.benefit.size() - 1))
                      .value
            : w;
  }
  return std::nullopt;
}

void JobScheduler::note_miss(const SubJob& sj, bool final_phase) {
  ++metrics_.per_task[sj.task].deadline_misses;
  if (!miss_counters_.empty()) miss_counters_[sj.task]->inc();
  trace_.record(now_, TraceKind::kDeadlineMiss, sj.task, sj.job_id);
  if (config_.abort_on_deadline_miss) {
    throw std::logic_error("simulate: deadline miss for task '" +
                           tasks_[sj.task].name + "' at " + now_.to_string() +
                           (final_phase ? " (job deadline)" : " (sub-job deadline)"));
  }
}

void JobScheduler::resolve(const Flight& fl, bool timely) {
  auto& tm = metrics_.per_task[fl.task];
  if (timely) {
    ++tm.timely_results;
    if (!timely_counters_.empty()) timely_counters_[fl.task]->inc();
    trace_.record(now_, TraceKind::kResultTimely, fl.task, fl.job_id);
  } else {
    ++tm.compensations;
    if (!comp_counters_.empty()) comp_counters_[fl.task]->inc();
    trace_.record(now_, TraceKind::kTimerFired, fl.task, fl.job_id);
  }
  if (config_.controller != nullptr) {
    config_.controller->on_outcome(fl.task, timely, now_ - fl.send, now_);
  }

  const auto& task = tasks_[fl.task];
  SubJob sj;
  sj.task = fl.task;
  sj.job_id = fl.job_id;
  sj.phase = Phase::kSecond;
  sj.job_deadline = fl.job_deadline;
  sj.abs_deadline = fl.job_deadline;
  sj.mode = fl.mode;
  sj.via_compensation = !timely;
  sj.remaining = timely ? actual_exec(task.post_wcet)
                        : actual_exec(task.compensation_for_level(fl.level));
  // A zero-length sub-job still flows through dispatch: its slice end is
  // due at the current time.
  make_ready(sj);
}

SimResult JobScheduler::finish(TimePoint end) {
  if (cur_mode_ != 0) {
    metrics_.time_in_degraded_ns += (end - mode_since_).ns();
  }
  metrics_.end_time = end;
  metrics_.trace_truncated = trace_.truncated();
  return SimResult{std::move(metrics_), std::move(trace_)};
}

}  // namespace rt::sim
