#include "spans.hpp"

#include <chrono>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::open(std::string name) {
  SpanRecord rec;
  rec.name = std::move(name);
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.scenario = scenario_;
  spans_.push_back(std::move(rec));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  spans_.back().start_ns = now_ns();
  return id;
}

int SpanRecorder::open_probe(std::string name, int explains, double weight) {
  if (explains < 0 || explains >= static_cast<int>(spans_.size())) {
    throw std::logic_error("open_probe: unknown span " + std::to_string(explains));
  }
  const int id = open(std::move(name));
  spans_[static_cast<std::size_t>(id)].parent = explains;
  spans_[static_cast<std::size_t>(id)].probe = true;
  spans_[static_cast<std::size_t>(id)].weight = weight;
  return id;
}

void SpanRecorder::close(int id) {
  const std::int64_t t = now_ns();
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("SpanRecorder::close: spans must close innermost first");
  }
  stack_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<double> self_times_ns(const std::vector<SpanRecord>& spans) {
  const std::size_t n = spans.size();
  std::vector<double> covered(n, 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] +=
          s.weight * static_cast<double>(s.duration_ns());
    }
  }
  // Parents are always recorded before their children, so one forward
  // pass resolves every effective weight.
  std::vector<double> ew(n, 1.0);
  std::vector<double> self(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans[i];
    ew[i] = s.weight *
            (s.parent >= 0 ? ew[static_cast<std::size_t>(s.parent)] : 1.0);
    self[i] = ew[i] * (static_cast<double>(s.duration_ns()) - covered[i]);
  }
  return self;
}

rt::Json SpanRecorder::to_json() const {
  rt::Json::Array arr;
  arr.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    rt::Json::Object o;
    o["id"] = static_cast<std::int64_t>(i);
    o["name"] = s.name;
    o["start_ns"] = s.start_ns;
    o["end_ns"] = s.end_ns;
    o["parent"] = static_cast<std::int64_t>(s.parent);
    o["scenario"] = s.scenario;
    o["probe"] = s.probe;
    o["weight"] = s.weight;
    arr.push_back(rt::Json(std::move(o)));
  }
  return rt::Json(std::move(arr));
}

}  // namespace perfbench
