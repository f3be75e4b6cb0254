// Seed event engine (see reference_engine.hpp): the shared JobScheduler
// core driven by a std::priority_queue of events, with offload outcomes
// drawn from the in-process ResponseModel. Kept as the bit-identical
// oracle for the zero-allocation production engine; intentionally simple.

#include "sim/reference_engine.hpp"

#include <queue>
#include <tuple>
#include <unordered_map>

#include "obs/sink.hpp"
#include "obs/timer.hpp"
#include "sim/job_scheduler.hpp"

namespace rt::sim {

namespace {

enum class EventKind { kRelease, kSliceEnd, kOffloadArrival, kTimer };

struct Event {
  TimePoint time;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::kRelease;
  std::uint64_t arg = 0;  // task index, slice generation, or offload token
};

struct EventCmp {
  bool operator()(const Event& a, const Event& b) const {
    return std::tie(a.time, a.seq) > std::tie(b.time, b.seq);  // min-heap
  }
};

class Engine final : public SliceTimer {
 public:
  Engine(const core::TaskSet& tasks, const core::DecisionVector& decisions,
         server::ResponseModel& server, const SimConfig& config,
         const RequestProfile& profile)
      : sched_(tasks, decisions, config, profile, "sim", *this),
        server_(server), horizon_end_(TimePoint::zero() + config.horizon) {
    if (config.sink != nullptr) {
      auto& reg = config.sink->registry();
      events_counter_ = &reg.counter("sim.events");
      run_hist_ = &reg.histogram("sim.run_ns");
    }
  }

  SimResult run() {
    obs::ScopedTimer run_timer(run_hist_);
    for (std::size_t i = 0; i < sched_.metrics().per_task.size(); ++i) {
      push_event(TimePoint::zero(), EventKind::kRelease, i);
    }
    while (!events_.empty()) {
      const Event ev = events_.top();
      // Half-open horizon [0, H): events at exactly H belong to the next
      // window and are dropped.
      if (ev.time >= horizon_end_) break;
      events_.pop();
      obs::inc(events_counter_);
      sched_.advance(ev.time);
      handle(ev);
      sched_.dispatch();
    }
    return sched_.finish(horizon_end_);
  }

  // SliceTimer: a generation counter invalidates superseded slice ends.
  void arm(TimePoint end) override {
    ++slice_generation_;
    push_event(end, EventKind::kSliceEnd, slice_generation_);
  }
  void disarm() override { ++slice_generation_; }

 private:
  void push_event(TimePoint time, EventKind kind, std::uint64_t arg) {
    events_.push(Event{time, event_seq_++, kind, arg});
  }

  void handle(const Event& ev) {
    switch (ev.kind) {
      case EventKind::kRelease: {
        const auto task = static_cast<std::size_t>(ev.arg);
        push_event(sched_.release(task, sched_.now()), EventKind::kRelease, task);
        return;
      }
      case EventKind::kSliceEnd:
        if (ev.arg != slice_generation_) return;  // superseded by a dispatch
        if (auto flight = sched_.complete_running()) send(*flight);
        return;
      case EventKind::kOffloadArrival: return resolve(ev.arg, /*timely=*/true);
      case EventKind::kTimer: return resolve(ev.arg, /*timely=*/false);
    }
  }

  /// The request's response is drawn at send time: a timely draw queues
  /// its arrival, and the compensation timer is queued either way.
  void send(const Flight& flight) {
    const std::uint64_t token = ++token_counter_;
    in_flight_.emplace(token, flight);
    const Duration response = server_.sample(flight.request, sched_.rng());
    if (response != server::kNoResponse) {
      auto& tm = sched_.metrics().per_task[flight.task];
      tm.observed_response_ms.add(response.ms());
      if (response <= flight.window) {
        push_event(flight.send + response, EventKind::kOffloadArrival, token);
      } else {
        ++tm.late_results;
      }
    }
    push_event(flight.send + flight.window, EventKind::kTimer, token);
  }

  /// Whichever of arrival and timer pops first resolves the offload and
  /// retires its token, so the other finds nothing.
  void resolve(std::uint64_t token, bool timely) {
    auto it = in_flight_.find(token);
    if (it == in_flight_.end()) return;
    sched_.resolve(it->second, timely);
    in_flight_.erase(it);
  }

  JobScheduler sched_;
  server::ResponseModel& server_;
  TimePoint horizon_end_;
  std::priority_queue<Event, std::vector<Event>, EventCmp> events_;
  std::uint64_t slice_generation_ = 0;
  std::uint64_t event_seq_ = 0;
  std::uint64_t token_counter_ = 0;
  std::unordered_map<std::uint64_t, Flight> in_flight_;

  // Telemetry handles; null when config.sink is null.
  obs::Counter* events_counter_ = nullptr;
  obs::LogHistogram* run_hist_ = nullptr;
};

}  // namespace

SimResult simulate_reference(const core::TaskSet& tasks,
                             const core::DecisionVector& decisions,
                             server::ResponseModel& server,
                             const SimConfig& config,
                             const RequestProfile& profile) {
  Engine engine(tasks, decisions, server, config, profile);
  return engine.run();
}

}  // namespace rt::sim
