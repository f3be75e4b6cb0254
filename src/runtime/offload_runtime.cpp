// OffloadRuntime: a driver of the shared sim::JobScheduler core
// (sim/job_scheduler.hpp), the same core simulate_reference drives. Time
// comes from the epoll loop's timer wheel, dilated by time_scale, and each
// offload's outcome from a wire round trip to gpu_serverd racing the
// compensation timer. What stays here is what only a real run has: the
// clamp of measured time into [now, horizon], the slice re-arm when
// wall->protocol rounding leaves residue, late-reply classification, and
// the lifetime of in-flight entries.

#include "runtime/offload_runtime.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/wire.hpp"
#include "obs/sink.hpp"
#include "sim/job_scheduler.hpp"

namespace rt::runtime {

namespace {

using sim::TraceKind;

struct InFlight {
  sim::Flight flight;
  TimePoint send_wall;  // CLOCK_MONOTONIC send instant
  net::TimerId timer = net::kInvalidTimer;
  bool resolved = false;
};

/// The scheduler's config: the run's, with the runtime's sink and trace
/// capacity overrides applied.
sim::SimConfig scheduler_config(const sim::SimConfig& config,
                                const RuntimeOptions& options) {
  sim::SimConfig out = config;
  if (options.sink != nullptr) out.sink = options.sink;
  if (options.trace_capacity != 0) out.trace_capacity = options.trace_capacity;
  return out;
}

class Runtime final : public sim::SliceTimer {
 public:
  Runtime(const core::TaskSet& tasks, const core::DecisionVector& decisions,
          const sim::SimConfig& config, const sim::RequestProfile& profile,
          const RuntimeOptions& options)
      : options_(options),
        sink_(options.sink != nullptr ? options.sink : config.sink),
        loop_(net::EventLoopOptions{nullptr, Duration::microseconds(100),
                                    sink_}),
        sched_(tasks, decisions, scheduler_config(config, options), profile,
               "runtime", *this),
        horizon_end_(TimePoint::zero() + config.horizon),
        next_release_p_(tasks.size(), TimePoint::zero()) {
    if (sink_ != nullptr) {
      auto& reg = sink_->registry();
      rpc_latency_ns_ = &reg.histogram("runtime.rpc.latency_ns");
      rpc_sent_counter_ = &reg.counter("runtime.rpc.sent");
      rpc_replies_counter_ = &reg.counter("runtime.rpc.replies");
      rpc_late_counter_ = &reg.counter("runtime.rpc.late");
    }
  }

  RuntimeResult run() {
    connect();

    // Epoch with a small grace so the first releases (protocol time 0)
    // land in the wheel's future, not its past.
    epoch_ = loop_.now() + Duration::milliseconds(20);
    for (std::size_t i = 0; i < next_release_p_.size(); ++i) {
      schedule_release(i);
    }
    loop_.add_timer(wall_at(horizon_end_), [this]() { on_horizon(); });

    loop_.run();

    sim::SimResult measured = sched_.finish(horizon_end_);
    result_.metrics = std::move(measured.metrics);
    result_.trace = std::move(measured.trace);
    return std::move(result_);
  }

  // SliceTimer: one wheel timer, re-pointed at the running sub-job's end.
  void arm(TimePoint end) override {
    disarm();
    slice_timer_ = loop_.add_timer(wall_at(end), [this]() {
      on_event([this]() { on_slice_end(); });
    });
  }
  void disarm() override {
    if (slice_timer_ == net::kInvalidTimer) return;
    loop_.cancel_timer(slice_timer_);
    slice_timer_ = net::kInvalidTimer;
  }

 private:
  // ---- time dilation -------------------------------------------------

  [[nodiscard]] TimePoint wall_at(TimePoint protocol) const {
    return epoch_ + Duration(protocol.ns()).scaled(options_.time_scale);
  }
  [[nodiscard]] TimePoint protocol_now() const {
    return TimePoint::zero() +
           (loop_.now() - epoch_).scaled(1.0 / options_.time_scale);
  }

  // ---- transport -----------------------------------------------------

  void connect() {
    const int fd = net::tcp_connect(options_.server, options_.connect_timeout);
    net::WireOptions wire;
    wire.max_frame_bytes = options_.max_frame_bytes;
    conn_ = std::make_unique<net::Connection>(loop_, fd, wire, sink_);
    conn_->set_message_handler([this](std::string_view payload) {
      on_event([this, payload]() { on_response(payload); });
    });
    conn_->set_close_handler([this](const std::string& reason) {
      if (!stopping_ && result_.connection_error.empty()) {
        result_.connection_error = reason;
      }
    });
  }

  // ---- event plumbing ------------------------------------------------

  /// Every loop-driven callback funnels through here: move the core's
  /// clock to measured protocol time, kept monotone and clamped to the
  /// horizon, run the body, re-evaluate dispatch.
  template <typename Body>
  void on_event(Body body) {
    if (stopping_) return;
    TimePoint p = protocol_now();
    if (p > horizon_end_) p = horizon_end_;
    if (p < sched_.now()) p = sched_.now();
    sched_.advance(p);
    body();
    sched_.dispatch();
  }

  void on_horizon() {
    if (stopping_) return;
    sched_.advance(horizon_end_);
    stopping_ = true;
    loop_.stop();
  }

  void on_slice_end() {
    slice_timer_ = net::kInvalidTimer;
    const Duration residue = sched_.running_remaining();
    if (residue.is_positive()) {
      // Wall->protocol rounding left sub-tick residue; re-point the timer.
      arm(sched_.now() + residue);
      return;
    }
    if (auto flight = sched_.complete_running()) send_offload(*flight);
  }

  /// Releases are anchored at their intended protocol instants (k*T plus
  /// the sporadic draw), not at the measured instant the timer fired.
  void schedule_release(std::size_t task) {
    if (next_release_p_[task] >= horizon_end_) return;
    loop_.add_timer(wall_at(next_release_p_[task]), [this, task]() {
      on_event([this, task]() {
        next_release_p_[task] = sched_.release(task, next_release_p_[task]);
        schedule_release(task);
      });
    });
  }

  void send_offload(const sim::Flight& flight) {
    const std::uint64_t token = ++token_counter_;
    InFlight fl{flight, loop_.now()};

    net::OffloadRequest wire;
    wire.id = token;
    wire.task = static_cast<std::uint32_t>(flight.task);
    wire.level = static_cast<std::uint32_t>(flight.level);
    wire.send_protocol_ns = flight.send.ns();
    wire.send_wall_ns = fl.send_wall.ns();
    wire.compute_ns = flight.request.compute_time.ns();
    wire.payload_bytes = flight.request.payload_bytes;
    if (options_.payload_padding && options_.max_frame_bytes > 64) {
      wire.pad_bytes = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          flight.request.payload_bytes, options_.max_frame_bytes - 64));
    }

    ++result_.rpc_sent;
    obs::inc(rpc_sent_counter_);
    if (conn_ == nullptr || conn_->closed() ||
        !conn_->send(net::encode(wire))) {
      ++result_.send_failures;  // the compensation timer below saves the job
    }

    fl.timer = loop_.add_timer(
        wall_at(flight.send + flight.window), [this, token]() {
          on_event([this, token]() { on_comp_timer(token); });
        });
    in_flight_.emplace(token, fl);
  }

  void on_response(std::string_view payload) {
    net::OffloadResponse response;
    try {
      response = net::decode_response(payload);
    } catch (const net::WireError&) {
      ++result_.wire_errors;
      return;
    }
    ++result_.rpc_replies;
    obs::inc(rpc_replies_counter_);
    auto it = in_flight_.find(response.id);
    if (it == in_flight_.end()) return;  // stray (e.g. post-horizon) reply
    InFlight& fl = it->second;

    const Duration wall_latency = loop_.now() - fl.send_wall;
    obs::observe(rpc_latency_ns_, wall_latency.ns());
    auto& tm = sched_.metrics().per_task[fl.flight.task];
    tm.observed_response_ms.add(
        wall_latency.scaled(1.0 / options_.time_scale).ms());

    if (fl.resolved) {
      // The compensation timer already won the race.
      ++tm.late_results;
      ++result_.rpc_late_replies;
      obs::inc(rpc_late_counter_);
      sched_.trace().record(sched_.now(), TraceKind::kResultLate,
                            fl.flight.task, fl.flight.job_id);
    } else {
      loop_.cancel_timer(fl.timer);  // "cancel on timely reply"
      sched_.resolve(fl.flight, /*timely=*/true);
    }
    in_flight_.erase(it);
  }

  void on_comp_timer(std::uint64_t token) {
    auto it = in_flight_.find(token);
    if (it == in_flight_.end() || it->second.resolved) return;
    InFlight& fl = it->second;
    fl.resolved = true;
    fl.timer = net::kInvalidTimer;
    sched_.resolve(fl.flight, /*timely=*/false);
    // Entry survives (resolved) so a straggler reply classifies as late.
  }

  // ---- state ---------------------------------------------------------

  RuntimeOptions options_;
  obs::Sink* sink_;
  net::EventLoop loop_;
  sim::JobScheduler sched_;

  std::unique_ptr<net::Connection> conn_;

  TimePoint epoch_;
  TimePoint horizon_end_;
  bool stopping_ = false;

  std::vector<TimePoint> next_release_p_;  // intended k*T release cursor
  net::TimerId slice_timer_ = net::kInvalidTimer;
  std::uint64_t token_counter_ = 0;
  std::unordered_map<std::uint64_t, InFlight> in_flight_;

  RuntimeResult result_;  // transport counters; metrics/trace at the end

  obs::LogHistogram* rpc_latency_ns_ = nullptr;
  obs::Counter* rpc_sent_counter_ = nullptr;
  obs::Counter* rpc_replies_counter_ = nullptr;
  obs::Counter* rpc_late_counter_ = nullptr;
};

}  // namespace

Json RuntimeResult::rpc_json() const {
  Json::Object out;
  out["sent"] = Json(static_cast<std::int64_t>(rpc_sent));
  out["replies"] = Json(static_cast<std::int64_t>(rpc_replies));
  out["late_replies"] = Json(static_cast<std::int64_t>(rpc_late_replies));
  out["send_failures"] = Json(static_cast<std::int64_t>(send_failures));
  out["wire_errors"] = Json(static_cast<std::int64_t>(wire_errors));
  out["connection_error"] = Json(connection_error);
  return Json(std::move(out));
}

RuntimeResult run_offload_runtime(const core::TaskSet& tasks,
                                  const core::DecisionVector& decisions,
                                  const sim::SimConfig& config,
                                  const sim::RequestProfile& profile,
                                  const RuntimeOptions& options) {
  if (!(options.time_scale > 0.0)) {
    throw std::invalid_argument("runtime: time_scale must be > 0");
  }
  Runtime runtime(tasks, decisions, config, profile, options);
  return runtime.run();
}

}  // namespace rt::runtime
