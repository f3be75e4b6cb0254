// perfbench_harness: runs one rtoffload benchmark workload for a fixed
// time and prints, as its last stdout line, one JSON object
//   {"attempted": N, "correct": bool, "failed": N, "metrics": {...}}
// preceded by a provenance line. perfbench/run.py builds and drives it:
//
//   perfbench_harness --workload fig3-mc --seed 1 --seconds 10 --trace 0
//       [--specs perfbench/specs] [--digests perfbench/digests.json]
//       [--spans-out FILE] [--source ID]
//
// --trace 0 passes run untraced and report the end-to-end metrics;
// --trace 1 alternates untraced and traced passes and reports the
// per-layer metrics, the traced passes' overhead against the untraced
// ones, and (with --spans-out) writes every span as JSON.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "reduce.hpp"
#include "spans.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Iteration;
using rt::Json;

struct Args {
  std::string workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string specs = "perfbench/specs";
  std::string digests = "perfbench/digests.json";
  std::string spans_out;
  std::string source = "unresolved";
};

/// Untraced passes every run makes at least, so set-up has a median.
constexpr std::size_t kMinPasses = 3;
/// Traced passes a traced run makes at least, so that each self time that
/// subtracts a probe has a median and a spread across passes.
constexpr std::size_t kMinTracedPasses = 5;

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      const long long s = std::stoll(value);
      if (s < 0 || s > (1LL << 31)) throw std::invalid_argument("--seed out of range");
      a.seed = static_cast<std::uint64_t>(s);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      if (!(a.seconds > 0.0 && a.seconds <= 120.0)) {
        throw std::invalid_argument("--seconds must be in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace is 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--specs") {
      a.specs = value;
    } else if (flag == "--digests") {
      a.digests = value;
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else if (flag == "--source") {
      a.source = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

Json metric(double value, const char* unit) {
  Json::Object o;
  o["value"] = value;
  o["unit"] = unit;
  return Json(std::move(o));
}

/// The process's resident high-water mark (VmHWM). Unlike getrusage's
/// ru_maxrss it starts afresh at exec, so a parent's footprint before the
/// fork never shows up here.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

template <typename F>
double median_of(const std::vector<Iteration>& its, F field) {
  std::vector<double> v;
  v.reserve(its.size());
  for (const Iteration& it : its) v.push_back(field(it));
  return perfbench::median(std::move(v));
}

Json end_to_end_metrics(const std::vector<Iteration>& its) {
  Json::Object m;
  m["setup_s"] = metric(median_of(its, [](const Iteration& i) { return i.setup_s; }), "s");
  m["report_s"] = metric(median_of(its, [](const Iteration& i) { return i.report_s; }), "s");
  m["jobs_per_s"] = metric(
      median_of(its, [](const Iteration& i) {
        return static_cast<double>(i.jobs) / i.report_s;
      }),
      "1/s");
  m["peak_rss_mb"] = metric(peak_rss_mb(), "MB");
  return Json(std::move(m));
}

/// Span name -> per-layer metric; several spans may feed one metric. The
/// img and estimator spans time the benchmark's own re-run of the steps
/// inside casestudy::build_case_study, which the metric names say.
const std::vector<std::pair<const char*, const char*>>& layer_spans() {
  static const std::vector<std::pair<const char*, const char*>> table{
      {"spec.parse", "spec.parse_ms"},
      {"spec.build", "spec.build_ms"},
      {"casestudy.build", "casestudy.build_ms"},
      {"img.scene", "img.scene_rerun_ms"},
      {"img.round_trip", "img.round_trip_rerun_ms"},
      {"img.psnr", "img.psnr_rerun_ms"},
      {"server.estimate", "server.estimate_rerun_ms"},
      {"core.decide", "core.decide_ms"},
      {"core.pda", "core.pda_ms"},
      {"mckp.solve", "mckp.solve_ms"},
      {"sim.run", "sim.run_ms"},
      {"exp.run", "exp.self_ms"},
      {"exp.cell", "exp.self_ms"},
      {"runtime.loopback_start", "runtime.loopback_start_ms"},
      {"runtime.run", "runtime.run_ms"},
      {"runtime.stop", "runtime.stop_ms"},
      {"report.render", "report.render_ms"},
      {"report", "trace.glue_ms"},
  };
  return table;
}

/// Per-layer counters that are counts (the rest are ratios or times).
const char* counter_unit(const std::string& name) {
  static const std::map<std::string, const char*> units{
      {"img.bytes_computed", "B"},
      {"mckp.items", "count"},
      {"sim.ns_per_job", "ns"},
      {"rt.mode_changes", "count"},
      {"runtime.rpc_sent", "count"},
      {"runtime.rpc_replies", "count"},
      {"runtime.rpc_late_replies", "count"},
      {"runtime.send_failures", "count"},
      {"runtime.wire_errors", "count"},
      {"runtime.reply_margin_min_ms", "ms"},
      {"runtime.job_slack_min_ms", "ms"},
  };
  const auto it = units.find(name);
  return it == units.end() ? "ratio" : it->second;
}

/// Every per-layer counter name, so each workload reports the same set
/// (0 where a layer does no work on that workload).
const std::vector<std::string>& counter_names() {
  static const std::vector<std::string> names{
      "img.bytes_computed",       "mckp.items",
      "sim.ns_per_job",           "sim.compensation_share",
      "sim.all_timely_share",     "sim.fast_path_share",
      "exp.parallel_efficiency",
      "rt.mode_changes",          "runtime.wall_over_horizon",
      "runtime.rpc_sent",         "runtime.rpc_replies",
      "runtime.rpc_late_replies", "runtime.send_failures",
      "runtime.wire_errors",      "runtime.timely_rate",
      "runtime.reply_margin_min_ms", "runtime.job_slack_min_ms",
  };
  return names;
}

/// Real deadline misses summed over every pass, traced or not.
double real_deadline_misses(const std::vector<Iteration>& traced,
                            const std::vector<Iteration>& untraced) {
  double total = 0.0;
  for (const auto* group : {&traced, &untraced}) {
    for (const Iteration& it : *group) {
      const auto c = it.counters.find("runtime.deadline_misses");
      if (c != it.counters.end()) total += c->second;
    }
  }
  return total;
}

double pct_or_zero(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : rt::percentile(v, p);
}

/// The per-layer metric a span feeds, or null.
const char* layer_metric(const std::string& span) {
  for (const auto& [name, metric_name] : layer_spans()) {
    if (span == name) return metric_name;
  }
  return nullptr;
}

Json per_layer_metrics(const perfbench::SpanRecorder& rec,
                       const std::vector<std::string>& traced_ids,
                       const std::vector<Iteration>& traced,
                       const std::vector<Iteration>& untraced,
                       std::vector<std::string>& failures, Json::Object& unresolved) {
  // Self time per metric, per traced pass (summed over its documents).
  std::map<std::string, std::vector<double>> per_pass;
  std::vector<double> root_ms(traced_ids.size(), 0.0);
  const std::vector<double> self = rec.self_ns();
  for (std::size_t p = 0; p < traced_ids.size(); ++p) {
    std::map<std::string, double> sums;
    for (const auto& [span, name] : layer_spans()) sums[name] += 0.0;
    for (std::size_t i = 0; i < rec.spans().size(); ++i) {
      const perfbench::SpanRecord& s = rec.spans()[i];
      if (s.scenario.rfind(traced_ids[p] + "/", 0) != 0) continue;
      if (const char* name = layer_metric(s.name)) sums[name] += self[i] / 1e6;
      if (s.name == "report") root_ms[p] += static_cast<double>(s.duration_ns()) / 1e6;
    }
    for (const auto& [name, ms] : sums) per_pass[name].push_back(ms);
  }
  // A metric fed by a span with probe children subtracts separately timed
  // re-runs from the pipeline call. Where its spread across passes swamps
  // it, it reads 0 and its median and spread go to the provenance line.
  std::set<std::string> derived;
  for (const perfbench::SpanRecord& s : rec.spans()) {
    if (!s.probe) continue;
    if (const char* name = layer_metric(rec.spans()[static_cast<std::size_t>(s.parent)].name)) {
      derived.insert(name);
    }
  }
  Json::Object m;
  for (auto& [name, values] : per_pass) {
    const double mid = perfbench::median(values);
    if (derived.count(name) != 0 && !perfbench::self_time_resolved(values)) {
      Json::Object why;
      why["median_ms"] = mid;
      why["interquartile_range_ms"] =
          values.size() < 2 ? 0.0 : perfbench::interquartile_range(values);
      why["passes"] = static_cast<std::int64_t>(values.size());
      unresolved[name] = Json(std::move(why));
      m[name] = metric(0.0, "ms");
    } else {
      m[name] = metric(mid, "ms");
    }
  }
  m["trace.unresolved"] = metric(static_cast<double>(unresolved.size()), "count");
  for (const std::string& name : counter_names()) {
    std::vector<double> values;
    for (const Iteration& it : traced) {
      const auto c = it.counters.find(name);
      values.push_back(c == it.counters.end() ? 0.0 : c->second);
    }
    m[name] = metric(perfbench::median(values), counter_unit(name));
  }
  // A median would hide the rare real miss: report the run's total.
  m["runtime.deadline_misses"] =
      metric(real_deadline_misses(traced, untraced), "count");

  // Real-tier samples, pooled over every pass (traced or not: the
  // program runs the same path in both).
  std::vector<double> overhead;
  std::vector<double> slip;
  std::vector<double> rtt;
  for (const auto* group : {&traced, &untraced}) {
    for (const Iteration& it : *group) {
      overhead.insert(overhead.end(), it.overhead_us.begin(), it.overhead_us.end());
      slip.insert(slip.end(), it.timer_slip_us.begin(), it.timer_slip_us.end());
      rtt.insert(rtt.end(), it.rtt_us.begin(), it.rtt_us.end());
    }
  }
  const auto guarded = [&failures](const std::vector<double>& v, double p,
                                   const char* name) {
    if (!v.empty() && !perfbench::percentile_reportable(v.size(), p)) {
      failures.push_back(std::string(name) + ": " + std::to_string(v.size()) +
                         " samples leave fewer than ten beyond the percentile");
    }
    return pct_or_zero(v, p);
  };
  m["runtime.offload_overhead_p50_us"] =
      metric(guarded(overhead, 50.0, "runtime.offload_overhead_p50_us"), "us");
  m["runtime.offload_overhead_p90_us"] =
      metric(guarded(overhead, 90.0, "runtime.offload_overhead_p90_us"), "us");
  m["runtime.overhead_samples"] = metric(static_cast<double>(overhead.size()), "count");
  m["runtime.timer_slip_p50_us"] =
      metric(guarded(slip, 50.0, "runtime.timer_slip_p50_us"), "us");
  m["runtime.timer_slip_max_us"] =
      metric(slip.empty() ? 0.0 : *std::max_element(slip.begin(), slip.end()), "us");
  m["net.rtt_p50_us"] = metric(guarded(rtt, 50.0, "net.rtt_p50_us"), "us");
  m["net.rtt_p99_us"] = metric(guarded(rtt, 99.0, "net.rtt_p99_us"), "us");

  // Accounting: the traced report time, its overhead against the
  // untraced passes, and the share no layer span covers.
  const double traced_ms = perfbench::median(root_ms);
  const double untraced_ms =
      1e3 * median_of(untraced, [](const Iteration& i) { return i.report_s; });
  m["trace.report_ms"] = metric(traced_ms, "ms");
  m["trace.overhead_share"] = metric(traced_ms / untraced_ms - 1.0, "ratio");
  m["trace.glue_share"] =
      metric(m.at("trace.glue_ms").at("value").as_number() / traced_ms, "ratio");
  return Json(std::move(m));
}

Json load_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Json(Json::Object{});
  std::ostringstream buf;
  buf << in.rdbuf();
  return Json::parse(buf.str());
}

int run(const Args& args) {
  const std::unique_ptr<perfbench::Workload> workload =
      perfbench::make_workload(args.workload, args.specs, args.seed);

  std::vector<Iteration> untraced;
  std::vector<Iteration> traced;
  std::vector<std::string> traced_ids;
  perfbench::SpanRecorder recorder;
  // Reports are reduced to digests as each pass ends, so memory stays flat
  // however many passes a run makes.
  std::vector<std::pair<std::string, std::string>> first_digests;  // (document, digest)
  std::size_t differing_passes = 0;
  const std::int64_t start = perfbench::now_ns();
  for (std::size_t pass = 0;; ++pass) {
    const bool traced_pass = args.trace && pass % 2 == 1;
    const std::string id = args.workload + "#" + std::to_string(pass);
    Iteration it = workload->iterate(traced_pass ? &recorder : nullptr, id);
    std::vector<std::pair<std::string, std::string>> pass_digests;
    for (const auto& [doc, text] : it.reports) {
      pass_digests.emplace_back(doc, perfbench::fnv1a_hex(text));
    }
    it.reports = {};
    if (pass == 0) {
      first_digests = std::move(pass_digests);
    } else if (pass_digests != first_digests) {
      ++differing_passes;
    }
    if (traced_pass) {
      traced.push_back(std::move(it));
      traced_ids.push_back(id);
    } else {
      untraced.push_back(std::move(it));
    }
    const double elapsed = static_cast<double>(perfbench::now_ns() - start) / 1e9;
    if (elapsed >= args.seconds && untraced.size() >= kMinPasses &&
        (!args.trace || traced.size() >= kMinTracedPasses)) {
      break;
    }
  }

  // ---- correctness ----
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* group : {&untraced, &traced}) {
    for (const Iteration& it : *group) {
      attempted += it.operations;
      failed += it.failed_operations;
      failures.insert(failures.end(), it.failures.begin(), it.failures.end());
    }
  }
  Json::Object digests;
  for (const auto& [doc, digest] : first_digests) digests[doc] = digest;
  if (workload->deterministic()) {
    // Every pass, traced or not, must render the first pass's reports.
    if (differing_passes != 0) {
      failures.push_back(std::to_string(differing_passes) +
                         " passes render reports that differ from the first pass");
      failed += differing_passes;
    }
    if (args.seed == perfbench::kDefaultSeed) {
      const Json committed = load_digests(args.digests);
      for (const auto& [doc, digest] : digests) {
        const bool known = committed.contains(args.workload) &&
                           committed.at(args.workload).contains(doc);
        if (!known || committed.at(args.workload).at(doc) != digest) {
          failures.push_back(args.workload + " " + doc + ": report digest " +
                             digest.as_string() +
                             (known ? " differs from the committed one"
                                    : " has no committed value"));
          ++failed;
        }
      }
    }
  }
  std::vector<std::string> final_failures;
  workload->final_checks(final_failures);
  failed += final_failures.size();
  failures.insert(failures.end(), final_failures.begin(), final_failures.end());

  Json::Object unresolved;
  Json metrics = args.trace ? per_layer_metrics(recorder, traced_ids, traced, untraced,
                                                failures, unresolved)
                            : end_to_end_metrics(untraced);
  for (const std::string& f : failures) std::cerr << "check failed: " << f << "\n";
  failed = std::min(failed, attempted);
  if (!failures.empty() && failed == 0) failed = 1;

  if (!args.spans_out.empty() && args.trace) {
    std::ofstream out(args.spans_out);
    if (!out) throw std::runtime_error("cannot write '" + args.spans_out + "'");
    out << recorder.to_json().dump() << "\n";
  }

  Json::Object provenance;
  provenance["source"] = args.source;
  provenance["build_type"] = PERFBENCH_BUILD_TYPE;
  provenance["nproc"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  provenance["workload"] = args.workload;
  provenance["seed"] = static_cast<std::int64_t>(args.seed);
  provenance["seconds"] = args.seconds;
  provenance["trace"] = args.trace;
  provenance["passes"] = static_cast<std::int64_t>(untraced.size() + traced.size());
  Json::Array pass_report_s;
  for (const Iteration& it : untraced) pass_report_s.push_back(Json(it.report_s));
  provenance["untraced_report_s"] = Json(std::move(pass_report_s));
  if (args.workload == "runtime-faults") {
    provenance["real_deadline_misses"] = real_deadline_misses(traced, untraced);
  }
  Json::Object docs;
  for (const auto& [doc, hash] : workload->document_hashes()) docs[doc] = hash;
  provenance["normalized_documents_fnv1a"] = Json(std::move(docs));
  provenance["report_digests_fnv1a"] = Json(std::move(digests));
  if (args.trace) provenance["unresolved_self_times"] = Json(std::move(unresolved));
  std::cout << Json(Json::Object{{"provenance", Json(std::move(provenance))}}).dump()
            << "\n";

  Json::Object result;
  result["correct"] = failures.empty();
  result["attempted"] = static_cast<std::int64_t>(attempted);
  result["failed"] = static_cast<std::int64_t>(failed);
  result["metrics"] = std::move(metrics);
  std::cout << Json(std::move(result)).dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
