#pragma once
// In-memory spans recorded by the benchmark around its calls into the
// rtoffload layers. Nothing inside the program is instrumented: every span
// wraps one public call made from the benchmark's own code.
//
// Two kinds of span:
//   * pipeline spans nest in time (a child runs inside its parent's
//     interval), exactly like a call stack;
//   * probe spans re-run a call that the program makes internally (the
//     case-study build inside spec::build_scenario, an MCKP solve inside
//     core::decide_offloading, one sweep cell inside exp::BatchRunner) in
//     isolation, after the pipeline call. A probe names the span it
//     explains as its parent and carries a weight: the share of its
//     duration that falls inside the parent's interval (1/workers for a
//     cell of a W-worker batch, 1 otherwise).
//
// Self time of a span s, in pipeline wall-time units:
//     self(s) = ew(s) * (dur(s) - sum over children c of w(c) * dur(c))
// with w(c) = 1 for pipeline children and ew(s) the product of the weights
// on the path from the root to s. The self times of one tree sum to the
// root's duration; the root's own self time is benchmark glue, time spent
// in no layer call.

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  int parent = -1;           ///< index into the recorder, -1 = root
  std::string scenario;      ///< one id per scenario report
  bool probe = false;
  double weight = 1.0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Steady-clock nanoseconds (the clock every span uses).
std::int64_t now_ns();

/// Self time of every span (see the header comment), index-aligned.
/// Parents must precede their children.
std::vector<double> self_times_ns(const std::vector<SpanRecord>& spans);

class SpanRecorder {
 public:
  /// Opens a span under the innermost open pipeline span (or, for a probe,
  /// under `explains`, which must be an already recorded span).
  int open(std::string name);
  int open_probe(std::string name, int explains, double weight);
  void close(int id);

  /// Scenario id stamped on every span opened from now on.
  void set_scenario(std::string id) { scenario_ = std::move(id); }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  [[nodiscard]] std::vector<double> self_ns() const { return self_times_ns(spans_); }
  [[nodiscard]] rt::Json to_json() const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;  ///< open pipeline spans, innermost last
  std::string scenario_;
};

/// RAII span; a null recorder records nothing and reads no clock.
class Span {
 public:
  Span(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder ? recorder->open(name) : -1) {}
  Span(SpanRecorder* recorder, const char* name, int explains, double weight)
      : recorder_(recorder),
        id_(recorder ? recorder->open_probe(name, explains, weight) : -1) {}
  ~Span() {
    if (recorder_ != nullptr) recorder_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench
