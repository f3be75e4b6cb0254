#pragma once
// JobScheduler: the paper's per-job protocol (simulator.hpp) as one state
// machine, driven by both the reference simulator (reference_engine.cpp)
// and the real runtime (runtime/offload_runtime.cpp).
//
// The core owns what the protocol does: the sub-job pool and ready set
// (EDF over split deadlines, or deadline-monotonic fixed priority),
// execution-time draws, dispatch and preemption, the setup -> offload ->
// post-processing/compensation phases, miss and benefit accounting,
// mode switching at releases, the trace and per-task sink counters. A
// driver owns when things happen and how an offload travels: it moves the
// clock, fires releases at instants it picks, keeps the one slice-end
// timer armed through SliceTimer, transports each Flight handed back at
// setup completion and resolves it. Every driver event has one shape:
//
//   sched.advance(t);  release / complete_running / resolve;  sched.dispatch();
//
// Per-job arithmetic is the seed engine's (split_deadlines per release,
// benefit read from the task), independent of SimEngine's TaskCache, so
// the differential tests compare two computations.

#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <string_view>
#include <tuple>
#include <vector>

#include "rt/health.hpp"
#include "sim/simulator.hpp"

namespace rt::obs {
class Counter;
}  // namespace rt::obs

namespace rt::sim {

/// An offload leaving the client at setup completion.
struct Flight {
  std::size_t task = 0;
  std::uint64_t job_id = 0;
  TimePoint job_deadline;   ///< release + D
  TimePoint send;           ///< setup completion = request send instant
  Duration window;          ///< R: the compensation timer is due at send + R
  std::size_t level = 0;    ///< decision level the setup prepared
  server::Request request;  ///< profile shape; send_time and stream_id set
  std::uint8_t mode = 0;    ///< decision vector of the job's release
};

/// The single slice-end timer a driver keeps for the running sub-job.
class SliceTimer {
 public:
  virtual ~SliceTimer() = default;
  virtual void arm(TimePoint end) = 0;  ///< replaces any armed slice end
  virtual void disarm() = 0;
};

class JobScheduler {
 public:
  /// Validates like sim::simulate (same exceptions) and re-arms
  /// config.controller. With config.sink set, counts into
  /// "<prefix>.jobs_released" and "<prefix>.task.N.{timely,compensations,
  /// misses}". tasks, decisions, profile and slice must outlive it.
  JobScheduler(const core::TaskSet& tasks,
               const core::DecisionVector& decisions, const SimConfig& config,
               const RequestProfile& profile, std::string_view metric_prefix,
               SliceTimer& slice);
  // The ready set points into the pool, so a copy would alias it.
  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }
  /// The run's one random stream (execution, sporadic and server draws).
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] SimMetrics& metrics() { return metrics_; }
  [[nodiscard]] Trace& trace() { return trace_; }

  /// Moves the clock to `t`, charging the running sub-job the elapsed time.
  void advance(TimePoint t);
  /// Runs the head of the ready set; re-arms the slice timer on a change.
  void dispatch();
  /// Releases a job of `task` whose deadlines count from `at`; returns
  /// the next release instant.
  TimePoint release(std::size_t task, TimePoint at);
  /// Execution left on the running sub-job; zero when the CPU is idle.
  [[nodiscard]] Duration running_remaining() const {
    return running_ != nullptr ? running_->remaining : Duration::zero();
  }
  /// Completes the finished running sub-job; a setup returns its offload.
  std::optional<Flight> complete_running();
  /// A timely result releases post-processing, a fired timer compensation.
  void resolve(const Flight& flight, bool timely);
  /// Closes the run at `end` and hands over metrics and trace.
  SimResult finish(TimePoint end);

 private:
  enum class Phase { kLocal, kSetup, kSecond };

  struct SubJob {
    std::size_t task = 0;
    std::uint64_t job_id = 0;
    Phase phase = Phase::kLocal;
    TimePoint abs_deadline;  // of this sub-job
    TimePoint job_deadline;  // release + D
    Duration remaining;
    std::uint8_t mode = 0;   // decision vector at release (0 normal)
    bool via_compensation = false;
    std::uint64_t seq = 0;   // FIFO tie-break
    /// EDF: the absolute deadline in ns; fixed priority: the task's
    /// deadline-monotonic rank. Smaller runs first.
    std::int64_t priority_key = 0;
  };

  struct ReadyCmp {
    bool operator()(const SubJob* a, const SubJob* b) const {
      return std::tie(a->priority_key, a->seq) < std::tie(b->priority_key, b->seq);
    }
  };

  [[nodiscard]] const core::DecisionVector& decisions_of(std::uint8_t mode) const {
    return mode == 0 ? decisions_ : config_.controller->degraded_decisions();
  }
  Duration actual_exec(Duration wcet);
  void make_ready(SubJob sj);
  void maybe_switch_mode();
  void note_miss(const SubJob& sj, bool final_phase);

  const core::TaskSet& tasks_;
  const core::DecisionVector& decisions_;
  SimConfig config_;
  const RequestProfile& profile_;
  SliceTimer& slice_;
  Rng rng_;
  Trace trace_;
  SimMetrics metrics_;

  TimePoint now_;
  std::vector<std::int64_t> dm_rank_;
  std::deque<SubJob> pool_;  // stable addresses for ready-set pointers
  std::set<SubJob*, ReadyCmp> ready_;
  SubJob* running_ = nullptr;
  TimePoint dispatch_time_;
  bool slice_armed_ = false;
  std::uint64_t subjob_seq_ = 0;
  std::uint64_t job_counter_ = 0;

  std::uint8_t cur_mode_ = 0;  // decision vector new releases get
  TimePoint mode_since_;

  // Telemetry handles; all null (vectors empty) when config_.sink is null.
  obs::Counter* released_counter_ = nullptr;
  std::vector<obs::Counter*> timely_counters_;
  std::vector<obs::Counter*> comp_counters_;
  std::vector<obs::Counter*> miss_counters_;
};

}  // namespace rt::sim
