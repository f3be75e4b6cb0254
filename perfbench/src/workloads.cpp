#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "casestudy/case_study.hpp"
#include "core/odm.hpp"
#include "core/schedulability.hpp"
#include "core/serialization.hpp"
#include "exp/batch.hpp"
#include "img/image.hpp"
#include "img/quality.hpp"
#include "img/scale.hpp"
#include "mckp/solvers.hpp"
#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "reduce.hpp"
#include "rt/health.hpp"
#include "runtime/gpu_service.hpp"
#include "runtime/offload_runtime.hpp"
#include "runtime/oracle.hpp"
#include "server/estimator.hpp"
#include "server/gpu_server.hpp"
#include "server/response_model.hpp"
#include "sim/batch_engine.hpp"
#include "spec/grid.hpp"
#include "spec/scenario_doc.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using rt::Json;
namespace core = rt::core;
namespace sim = rt::sim;
namespace spec = rt::spec;

constexpr std::size_t kFig3Replications = 64;
constexpr unsigned kFig3Workers = 2;
constexpr std::size_t kFig3Cells = 18;
constexpr std::uint64_t kFig3ReleasesPerPass = 167'994;
constexpr std::size_t kFaultStackReplications = 2048;
constexpr double kTable1Objective = 252.96;
constexpr std::size_t kTable1Offloaded = 2;
/// Protocol-trace capacity of a real run (the command-line tool's value).
constexpr std::size_t kRuntimeTraceCapacity = std::size_t{1} << 16;
constexpr int kRttRounds = 2000;

struct Document {
  std::string name;
  std::string text;
};

Document read_document(const std::string& dir, const std::string& name) {
  const std::string path = dir + "/" + name + ".json";
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot read '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return {name, buf.str()};
}

/// The document's own seed at `dotted`, shifted by the benchmark seed.
spec::ScenarioDoc with_seed(const spec::ScenarioDoc& doc, const Json& section,
                            const char* key, const char* dotted,
                            std::uint64_t seed) {
  const double own = section.at(key).as_number();
  return spec::with_override(
      doc, dotted,
      Json(own + static_cast<double>(seed) - static_cast<double>(kDefaultSeed)));
}

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

// ---- rendering: the command-line tool's report layout --------------------

Json::Object odm_section(const core::TaskSet& tasks, const core::OdmResult& odm) {
  Json::Object report;
  report["feasible"] = odm.feasible;
  report["theorem3_density"] = odm.density;
  report["claimed_objective"] = odm.claimed_objective;
  report["lp_bound"] = odm.lp_bound;
  report["decisions"] = core::decisions_to_json(tasks, odm.decisions).at("decisions");
  return report;
}

Json::Array per_task_section(const core::TaskSet& tasks, const sim::SimMetrics& m) {
  Json::Array per_task;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const sim::TaskMetrics& t = m.per_task[i];
    Json::Object o;
    o["task"] = tasks[i].name;
    o["released"] = static_cast<std::int64_t>(t.released);
    o["timely"] = static_cast<std::int64_t>(t.timely_results);
    o["compensations"] = static_cast<std::int64_t>(t.compensations);
    o["misses"] = static_cast<std::int64_t>(t.deadline_misses);
    o["benefit"] = t.accrued_benefit;
    per_task.push_back(Json(std::move(o)));
  }
  return per_task;
}

Json simulation_section(const core::TaskSet& tasks, const sim::SimMetrics& m,
                        std::size_t replications) {
  Json::Object o;
  o["released"] = static_cast<std::int64_t>(m.total_released());
  o["completed"] = static_cast<std::int64_t>(m.total_completed());
  o["deadline_misses"] = static_cast<std::int64_t>(m.total_deadline_misses());
  o["timely_results"] = static_cast<std::int64_t>(m.total_timely_results());
  o["compensations"] = static_cast<std::int64_t>(m.total_compensations());
  o["total_benefit"] = m.total_benefit();
  o["cpu_utilization"] = m.cpu_utilization();
  o["trace_truncated"] = m.trace_truncated;
  if (replications > 1) o["replications"] = static_cast<std::int64_t>(replications);
  o["per_task"] = Json(per_task_section(tasks, m));
  return Json(std::move(o));
}

// ---- counting --------------------------------------------------------------

struct Totals {
  std::uint64_t released = 0;
  std::uint64_t attempts = 0;
  std::uint64_t timely = 0;
  std::uint64_t compensations = 0;
  std::uint64_t late = 0;
  std::uint64_t misses = 0;
  std::uint64_t mode_changes = 0;
  std::uint64_t replications = 0;
  std::uint64_t all_timely_replications = 0;
  /// Replications run by the batched engine, and how many of those its
  /// shared-skeleton fast path served.
  std::uint64_t batched = 0;
  std::uint64_t fast = 0;

  void add_engine(const sim::BatchSimEngine& engine, std::size_t runs) {
    batched += runs;
    fast += engine.stats().fast_replications;
  }

  void add(const sim::SimMetrics& m) {
    std::uint64_t comp = 0;
    std::uint64_t late_here = 0;
    for (const sim::TaskMetrics& t : m.per_task) {
      released += t.released;
      attempts += t.offload_attempts;
      timely += t.timely_results;
      comp += t.compensations;
      late_here += t.late_results;
      misses += t.deadline_misses;
    }
    compensations += comp;
    late += late_here;
    mode_changes += m.mode_changes;
    ++replications;
    if (comp == 0 && late_here == 0) ++all_timely_replications;
  }

  void write(std::map<std::string, double>& counters) const {
    counters["sim.compensation_share"] =
        attempts == 0 ? 0.0 : static_cast<double>(compensations) / static_cast<double>(attempts);
    counters["sim.all_timely_share"] =
        replications == 0 ? 0.0
                          : static_cast<double>(all_timely_replications) /
                                static_cast<double>(replications);
    counters["rt.mode_changes"] = static_cast<double>(mode_changes);
    counters["sim.fast_path_share"] =
        batched == 0 ? 0.0 : static_cast<double>(fast) / static_cast<double>(batched);
  }
};

bool same_outcome(const sim::SimMetrics& a, const sim::SimMetrics& b) {
  if (a.per_task.size() != b.per_task.size() || a.mode_changes != b.mode_changes ||
      a.cpu_busy_ns != b.cpu_busy_ns) {
    return false;
  }
  for (std::size_t i = 0; i < a.per_task.size(); ++i) {
    const sim::TaskMetrics& x = a.per_task[i];
    const sim::TaskMetrics& y = b.per_task[i];
    if (x.released != y.released || x.completed != y.completed ||
        x.deadline_misses != y.deadline_misses ||
        x.offload_attempts != y.offload_attempts ||
        x.timely_results != y.timely_results || x.compensations != y.compensations ||
        x.late_results != y.late_results || x.accrued_benefit != y.accrued_benefit) {
      return false;
    }
  }
  return true;
}

/// One replication to replay through the serial engine: the batched
/// engine promises bit-identical metrics under derive_seed(seed, r).
struct Replay {
  std::string label;
  core::TaskSet tasks;
  core::DecisionVector decisions;
  std::shared_ptr<const rt::server::ResponseModel> server;
  sim::SimConfig config;  ///< seed = the batch's base seed
  sim::RequestProfile profile;
  std::shared_ptr<const rt::health::ModeControllerConfig> controller;
  std::size_t replication = 0;
  sim::SimMetrics expected;

  [[nodiscard]] bool matches() const {
    sim::SimConfig cfg = config;
    cfg.seed = rt::derive_seed(config.seed, replication);
    std::optional<rt::health::ModeController> ctrl;
    cfg.controller = nullptr;
    if (controller != nullptr) {
      ctrl.emplace(*controller);
      cfg.controller = &*ctrl;
    }
    const std::unique_ptr<rt::server::ResponseModel> srv = server->clone();
    return same_outcome(sim::simulate(tasks, decisions, *srv, cfg, profile).metrics,
                        expected);
  }
};

void run_replays(const std::vector<Replay>& replays, std::vector<std::string>& failures) {
  for (const Replay& r : replays) {
    if (!r.matches()) {
      failures.push_back(r.label + ": replication " + std::to_string(r.replication) +
                         " differs from its serial-engine replay");
    }
  }
}

/// The MCKP solve the ODM makes, re-run in isolation as a probe of the
/// core.decide span `decide_id`. One unmeasured solve first warms the
/// caches the way the pipeline's own build step left them warm.
void mckp_probe(SpanRecorder* rec, int decide_id, const core::TaskSet& tasks,
                const core::OdmConfig& odm, Iteration& it) {
  const core::OdmInstance inst = core::build_odm_instance(tasks, odm);
  it.counters["mckp.items"] += static_cast<double>(inst.instance.total_items());
  (void)rt::mckp::solve(inst.instance, odm.solver, odm.profit_scale);
  Span probe(rec, "mckp.solve", decide_id, 1.0);
  (void)rt::mckp::solve(inst.instance, odm.solver, odm.profit_scale);
}

double span_ms(const SpanRecorder* rec, int id) {
  return static_cast<double>(rec->spans()[static_cast<std::size_t>(id)].duration_ns()) / 1e6;
}

// ---- fig3-mc ----------------------------------------------------------------

class Fig3Workload final : public Workload {
 public:
  Fig3Workload(const std::string& dir, std::uint64_t seed)
      : doc_(read_document(dir, "fig3")), seed_(seed) {
    doc_hashes_[doc_.name] = fnv1a_hex(prepare(nullptr).to_json().dump());
  }

  [[nodiscard]] bool deterministic() const override { return true; }

  Iteration iterate(SpanRecorder* rec, const std::string& scenario) override {
    Iteration it;
    if (rec != nullptr) rec->set_scenario(scenario + "/" + doc_.name);
    const std::int64_t t0 = now_ns();
    std::optional<Span> root;
    if (rec != nullptr) root.emplace(rec, "report");
    spec::BatchPlan plan;
    {
      const spec::ScenarioDoc doc = prepare(rec);
      Span build(rec, "spec.build");
      plan = spec::plan_batch(doc);
      plan.batch.jobs = kFig3Workers;
    }
    const std::int64_t t1 = now_ns();
    std::vector<rt::exp::ScenarioOutcome> outcomes;
    int exp_id = -1;
    {
      Span run(rec, "exp.run");
      exp_id = run.id();
      rt::exp::BatchRunner runner(plan.batch);
      outcomes = runner.run(plan.specs);
    }
    std::string text;
    {
      Span render(rec, "report.render");
      text = render_report(plan, outcomes);
    }
    root.reset();
    const std::int64_t t2 = now_ns();

    it.setup_s = seconds_between(t0, t1);
    it.report_s = seconds_between(t0, t2);
    it.reports.emplace_back(doc_.name, std::move(text));
    it.operations = 1;
    check(plan, outcomes, it);
    if (rec != nullptr) probe(rec, plan, outcomes, exp_id, it);
    if (replays_.empty()) remember(plan, outcomes);
    return it;
  }

  void final_checks(std::vector<std::string>& failures) override {
    run_replays(replays_, failures);
  }

 private:
  spec::ScenarioDoc prepare(SpanRecorder* rec) const {
    spec::ScenarioDoc doc;
    {
      Span parse(rec, "spec.parse");
      doc = spec::ScenarioDoc::parse_text(doc_.text);
    }
    Span build(rec, "spec.build");
    doc = spec::with_override(doc, "sim.replications",
                              Json(static_cast<double>(kFig3Replications)));
    return with_seed(doc, doc.sweep, "base_seed", "sweep.base_seed", seed_);
  }

  static std::string render_report(const spec::BatchPlan& plan,
                                   const std::vector<rt::exp::ScenarioOutcome>& outcomes) {
    Json::Array cells;
    for (const rt::exp::ScenarioOutcome& o : outcomes) {
      const core::TaskSet& tasks = plan.specs[o.index].tasks;
      Json::Object cell = odm_section(tasks, o.odm);
      cell["index"] = static_cast<std::int64_t>(o.index);
      cell["simulation"] = simulation_section(tasks, o.metrics, o.aggregate.replications);
      cell["aggregate"] = o.aggregate.to_json();
      cells.push_back(Json(std::move(cell)));
    }
    return Json(std::move(cells)).dump(2) + "\n";
  }

  static void check(const spec::BatchPlan& plan,
                    const std::vector<rt::exp::ScenarioOutcome>& outcomes, Iteration& it) {
    const auto fail = [&it](const std::string& what) {
      it.failures.push_back("fig3-mc: " + what);
    };
    if (outcomes.size() != kFig3Cells) {
      fail(std::to_string(outcomes.size()) + " cells, expected " + std::to_string(kFig3Cells));
    }
    std::uint64_t released = 0;
    for (const rt::exp::ScenarioOutcome& o : outcomes) {
      if (!o.odm.feasible) fail("cell " + std::to_string(o.index) + " infeasible");
      if (o.aggregate.replications != kFig3Replications) {
        fail("cell " + std::to_string(o.index) + " ran " +
             std::to_string(o.aggregate.replications) + " replications");
      }
      if (o.aggregate.deadline_misses.stats.max() != 0.0) {
        fail("cell " + std::to_string(o.index) + " missed deadlines");
      }
      released += o.metrics.total_released();
    }
    if (released != kFig3ReleasesPerPass) {
      fail(std::to_string(released) + " releases per pass, expected " +
           std::to_string(kFig3ReleasesPerPass));
    }
    // Periodic releases do not depend on the draws: every replication
    // releases what replication 0 did.
    if (plan.specs.empty() ||
        plan.specs.front().sim.release_policy != sim::ReleasePolicy::kPeriodic) {
      fail("releases are not periodic");
    }
    it.jobs = released * kFig3Replications;
    if (!it.failures.empty()) it.failed_operations = 1;
  }

  /// Each cell re-run on one thread: core.decide and sim.run under an
  /// exp.cell probe weighted 1/workers, then the MCKP solves.
  void probe(SpanRecorder* rec, const spec::BatchPlan& plan,
             const std::vector<rt::exp::ScenarioOutcome>& outcomes, int exp_id,
             Iteration& it) const {
    const double share = 1.0 / static_cast<double>(plan.batch.jobs);
    sim::BatchSimEngine engine;
    Totals totals;
    double cells_ms = 0.0;
    double sim_ms = 0.0;
    std::vector<int> decide_ids;
    std::vector<int> cell_ids;
    for (std::size_t i = 0; i < plan.specs.size(); ++i) {
      const rt::exp::ScenarioSpec& cell = plan.specs[i];
      Span cell_span(rec, "exp.cell", exp_id, share);
      cell_ids.push_back(cell_span.id());
      core::OdmResult odm;
      {
        Span decide(rec, "core.decide");
        decide_ids.push_back(decide.id());
        odm = core::decide_offloading(cell.tasks, cell.odm);
      }
      sim::BatchResult res;
      int run_id = -1;
      {
        Span run(rec, "sim.run");
        run_id = run.id();
        sim::SimConfig cfg = cell.sim;
        cfg.seed = rt::exp::scenario_seed(plan.batch.base_seed, i);
        res = engine.run(cell.tasks, odm.decisions, *cell.server, cfg,
                         cell.replications, cell.profile);
      }
      totals.add_engine(engine, cell.replications);
      sim_ms += span_ms(rec, run_id);
      for (const sim::SimMetrics& m : res.per_replication) totals.add(m);
      if (!same_outcome(res.per_replication.front(), outcomes[i].metrics)) {
        it.failures.push_back("fig3-mc: probe of cell " + std::to_string(i) +
                              " differs from the batch runner");
      }
    }
    for (const int id : cell_ids) cells_ms += span_ms(rec, id);
    for (std::size_t i = 0; i < plan.specs.size(); ++i) {
      mckp_probe(rec, decide_ids[i], plan.specs[i].tasks, plan.specs[i].odm, it);
    }
    totals.write(it.counters);
    it.counters["sim.ns_per_job"] = sim_ms * 1e6 / static_cast<double>(totals.released);
    it.counters["exp.parallel_efficiency"] =
        cells_ms / (static_cast<double>(plan.batch.jobs) * span_ms(rec, exp_id));
  }

  void remember(const spec::BatchPlan& plan,
                const std::vector<rt::exp::ScenarioOutcome>& outcomes) {
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      Replay r;
      r.label = "fig3-mc cell " + std::to_string(i);
      r.tasks = plan.specs[i].tasks;
      r.decisions = outcomes[i].decisions;
      r.server = plan.specs[i].server;
      r.config = plan.specs[i].sim;
      r.config.seed = rt::exp::scenario_seed(plan.batch.base_seed, i);
      r.profile = plan.specs[i].profile;
      r.expected = outcomes[i].metrics;
      replays_.push_back(std::move(r));
    }
  }

  Document doc_;
  std::uint64_t seed_;
  std::vector<Replay> replays_;
};

// ---- single-scenario documents: casestudy and fault-stack ------------------

/// A sweep-free document run the way `rtoffload_cli --spec` runs it:
/// build, decide, (exact PDA,) simulate serially or K-replicated, render.
class ScenarioWorkload final : public Workload {
 public:
  ScenarioWorkload(std::string label, const std::string& dir,
                   const std::vector<std::string>& names, std::size_t replications,
                   std::uint64_t seed)
      : label_(std::move(label)), replications_(replications), seed_(seed) {
    for (const std::string& name : names) {
      docs_.push_back(read_document(dir, name));
      doc_hashes_[name] = fnv1a_hex(prepare(docs_.back(), nullptr).to_json().dump());
    }
  }

  [[nodiscard]] bool deterministic() const override { return true; }

  Iteration iterate(SpanRecorder* rec, const std::string& scenario) override {
    Iteration it;
    Totals totals;
    for (const Document& d : docs_) {
      if (rec != nullptr) rec->set_scenario(scenario + "/" + d.name);
      try {
        run_document(d, rec, it, totals);
      } catch (const std::exception& e) {
        it.failures.push_back(label_ + " " + d.name + ": " + e.what());
        ++it.failed_operations;
      }
      ++it.operations;
    }
    it.jobs = totals.released;
    totals.write(it.counters);
    return it;
  }

  void final_checks(std::vector<std::string>& failures) override {
    run_replays(replays_, failures);
  }

 private:
  spec::ScenarioDoc prepare(const Document& d, SpanRecorder* rec) const {
    spec::ScenarioDoc doc;
    {
      Span parse(rec, "spec.parse");
      doc = spec::ScenarioDoc::parse_text(d.text);
    }
    Span build(rec, "spec.build");
    if (replications_ > 1) {
      doc = spec::with_override(doc, "sim.replications",
                                Json(static_cast<double>(replications_)));
    }
    return with_seed(doc, doc.sim, "seed", "sim.seed", seed_);
  }

  void run_document(const Document& d, SpanRecorder* rec, Iteration& it, Totals& totals) {
    const std::int64_t t0 = now_ns();
    std::optional<Span> root;
    if (rec != nullptr) root.emplace(rec, "report");
    spec::ScenarioDoc doc;
    spec::BuiltScenario built;
    int build_id = -1;
    {
      doc = prepare(d, rec);
      Span build(rec, "spec.build");
      build_id = build.id();
      built = spec::build_scenario(doc);
    }
    const std::int64_t t1 = now_ns();

    core::OdmResult odm;
    int decide_id = -1;
    {
      Span decide(rec, "core.decide");
      decide_id = decide.id();
      odm = core::decide_offloading(built.tasks, built.odm);
    }
    std::optional<core::PdaResult> pda;
    if (built.exact_pda) {
      Span span(rec, "core.pda");
      pda = core::pda_feasible(built.tasks, odm.decisions);
    }
    std::optional<sim::SimMetrics> rep0;
    sim::BatchResult batch;
    if (built.server != nullptr) {
      std::optional<rt::health::ModeController> controller;
      sim::SimConfig cfg = built.sim;
      if (built.controller != nullptr) {
        controller.emplace(*built.controller);
        cfg.controller = &*controller;
      }
      Span run(rec, "sim.run");
      if (built.replications > 1) {
        sim::BatchSimEngine engine;
        batch = engine.run(built.tasks, odm.decisions, *built.server, cfg,
                           built.replications, built.profile);
        totals.add_engine(engine, built.replications);
        rep0 = batch.per_replication.front();
      } else {
        rep0 = sim::simulate(built.tasks, odm.decisions, *built.server, cfg,
                             built.profile)
                   .metrics;
      }
    }
    std::string text;
    {
      Span render(rec, "report.render");
      Json::Object report = odm_section(built.tasks, odm);
      if (pda.has_value()) {
        Json::Object o;
        o["feasible"] = pda->feasible;
        o["horizon_ms"] = pda->horizon.ms();
        report["exact_pda"] = Json(std::move(o));
      }
      if (rep0.has_value()) {
        report["simulation"] = simulation_section(built.tasks, *rep0, built.replications);
        if (built.replications > 1) report["aggregate"] = batch.aggregate.to_json();
        if (built.controller != nullptr) {
          Json::Object adaptive;
          adaptive["mode_changes"] = static_cast<std::int64_t>(rep0->mode_changes);
          adaptive["time_in_degraded_ms"] =
              static_cast<double>(rep0->time_in_degraded_ns) / 1e6;
          report["adaptive"] = Json(std::move(adaptive));
        }
      }
      text = Json(std::move(report)).dump(2) + "\n";
    }
    root.reset();
    const std::int64_t t2 = now_ns();
    it.setup_s += seconds_between(t0, t1);
    it.report_s += seconds_between(t0, t2);
    it.reports.emplace_back(d.name, std::move(text));

    // ---- invariants ----
    const std::size_t before = it.failures.size();
    const auto fail = [&](const std::string& what) {
      it.failures.push_back(label_ + " " + d.name + ": " + what);
    };
    if (!odm.feasible) fail("ODM decision infeasible");
    if (pda.has_value() && !pda->feasible) fail("exact PDA rejects the decision");
    if (d.name == "table1") {
      std::size_t offloaded = 0;
      for (const core::Decision& dec : odm.decisions) offloaded += dec.offloaded() ? 1 : 0;
      if (std::abs(odm.claimed_objective - kTable1Objective) > 0.005) {
        fail("claimed objective " + std::to_string(odm.claimed_objective) +
             ", expected 252.96");
      }
      if (offloaded != kTable1Offloaded) {
        fail(std::to_string(offloaded) + " tasks offloaded, expected 2");
      }
    }
    Totals doc_totals;
    if (built.replications > 1) {
      for (const sim::SimMetrics& m : batch.per_replication) doc_totals.add(m);
    } else if (rep0.has_value()) {
      doc_totals.add(*rep0);
    }
    if (rep0.has_value()) {
      if (doc_totals.released == 0) fail("no job released");
      if (doc_totals.misses != 0) {
        fail(std::to_string(doc_totals.misses) + " deadline misses");
      }
      if (replications_ > 1 && doc_totals.compensations == 0) {
        fail("no compensation: the fault path is not exercised");
      }
      if (built.controller != nullptr && replications_ > 1 &&
          doc_totals.mode_changes == 0) {
        fail("the mode controller never switched");
      }
    }
    if (it.failures.size() != before) ++it.failed_operations;
    for (const sim::SimMetrics& m : batch.per_replication) totals.add(m);
    if (built.replications <= 1 && rep0.has_value()) totals.add(*rep0);

    if (rec != nullptr) {
      if (doc.workload.at("type").as_string() == "case-study") {
        casestudy_probe(rec, build_id, doc.workload, it);
      }
      mckp_probe(rec, decide_id, built.tasks, built.odm, it);
    }
    if (built.replications > 1 && remembered_.insert(d.name).second) {
      const std::shared_ptr<const rt::server::ResponseModel> server(
          std::move(built.server));
      for (const std::size_t r : {std::size_t{0}, built.replications - 1}) {
        Replay replay;
        replay.label = label_ + " " + d.name;
        replay.tasks = built.tasks;
        replay.decisions = odm.decisions;
        replay.server = server;
        replay.config = built.sim;
        replay.profile = built.profile;
        replay.controller = built.controller;
        replay.replication = r;
        replay.expected = batch.per_replication[r];
        replays_.push_back(std::move(replay));
      }
    }
  }

  /// casestudy::build_case_study re-run alone (explaining spec.build),
  /// then its image and estimator calls re-run one by one (explaining the
  /// case-study build), each checked against the study it built. Those
  /// calls sit in a private loop of the build, so this replays a copy of
  /// that loop: its spans time the copy, not the build's own calls.
  void casestudy_probe(SpanRecorder* rec, int build_id, const Json& workload,
                       Iteration& it) const {
    namespace img = rt::img;
    rt::casestudy::CaseStudyConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(workload.at("seed").as_number());
    cfg.percentile = workload.at("percentile").as_number();
    rt::casestudy::CaseStudy study;
    int study_id = -1;
    {
      Span span(rec, "casestudy.build", build_id, 1.0);
      study_id = span.id();
      study = rt::casestudy::build_case_study(cfg);
    }
    const auto bytes = [](const img::Image& im) {
      return static_cast<double>(im.size() * sizeof(float));
    };
    double computed = 0.0;
    const int w = cfg.image_width;
    const int h = cfg.image_height;
    for (std::size_t idx = 0; idx < study.tasks.size(); ++idx) {
      const img::TaskKind kind = study.tasks[idx].kind;
      const std::uint64_t seed = cfg.seed + idx;
      img::Image scene;
      {
        Span span(rec, "img.scene", study_id, 1.0);
        switch (kind) {
          case img::TaskKind::kStereoVision: {
            img::StereoPair pair = img::make_stereo_pair(w, h, seed);
            computed += bytes(pair.left) + bytes(pair.right);
            scene = std::move(pair.left);
            break;
          }
          case img::TaskKind::kMotionDetection: {
            img::MotionPair pair = img::make_motion_pair(w, h, seed);
            computed += bytes(pair.frame0) + bytes(pair.frame1);
            scene = std::move(pair.frame0);
            break;
          }
          default: {
            img::SceneSpec scene_spec;
            scene_spec.seed = seed;
            scene = img::make_scene(w, h, scene_spec);
            computed += bytes(scene);
          }
        }
      }
      for (int level = 1; level <= cfg.num_levels; ++level) {
        img::Image back;
        {
          Span span(rec, "img.round_trip", study_id, 1.0);
          back = img::round_trip(scene, level, cfg.num_levels);
        }
        // Read the source, write and re-read the level image, write the result.
        computed += bytes(scene) + bytes(back) +
                    2.0 * static_cast<double>(
                              img::level_payload_bytes(w, h, level, cfg.num_levels) *
                              sizeof(float));
        double value = 0.0;
        {
          Span span(rec, "img.psnr", study_id, 1.0);
          value = img::psnr(scene, back);
        }
        computed += bytes(scene) + bytes(back);
        if (value != study.tasks[idx].psnr[static_cast<std::size_t>(level - 1)]) {
          it.failures.push_back("casestudy probe: PSNR of task " + std::to_string(idx) +
                                " level " + std::to_string(level) +
                                " differs from the case study");
        }
      }
    }
    it.counters["img.bytes_computed"] += computed;

    // The Benefit & Response Time Estimator, call for call.
    auto server = rt::server::make_scenario_server(cfg.estimation_scenario, cfg.seed ^ 0xE57ull);
    rt::Rng sample_rng(cfg.seed ^ 0x5A11ull);
    for (std::size_t idx = 0; idx < study.tasks.size(); ++idx) {
      const rt::casestudy::CaseStudyTask& cst = study.tasks[idx];
      std::vector<rt::Duration> estimated;
      rt::Duration prev = rt::Duration::zero();
      for (int level = 2; level <= cfg.num_levels; ++level) {
        rt::server::Request probe;
        probe.payload_bytes = img::level_payload_bytes(w, h, level, cfg.num_levels);
        probe.compute_time = cfg.exec_model.gpu_exec(cst.kind, probe.payload_bytes);
        probe.stream_id = idx;
        server->reset();
        rt::Duration r;
        {
          Span span(rec, "server.estimate", study_id, 1.0);
          const std::vector<rt::Duration> samples = rt::server::collect_response_samples(
              *server, probe, cst.task.period, cfg.samples_per_level, sample_rng);
          r = rt::server::response_percentile(samples, cfg.percentile);
        }
        if (r == rt::server::kNoResponse) continue;
        if (r <= prev) r = prev + rt::Duration::microseconds(1);
        prev = r;
        estimated.push_back(r);
      }
      bool same = estimated.size() + 1 == cst.task.benefit.size();
      for (std::size_t j = 0; same && j < estimated.size(); ++j) {
        same = estimated[j] == cst.task.benefit.point(j + 1).response_time;
      }
      if (!same) {
        it.failures.push_back("casestudy probe: estimated responses of task " +
                              std::to_string(idx) + " differ from the case study");
      }
    }
  }

  std::string label_;
  std::size_t replications_;
  std::uint64_t seed_;
  std::vector<Document> docs_;
  std::set<std::string> remembered_;  ///< documents whose replays are queued
  std::vector<Replay> replays_;
};

// ---- runtime-faults ---------------------------------------------------------

/// Closed-loop sequential RPCs over net::Connection to a loopback daemon
/// that replies at once: the transport's round trip without the model.
std::vector<double> rtt_probe(int rounds) {
  rt::runtime::LoopbackGpuServer daemon(
      std::make_unique<rt::server::FixedResponse>(rt::Duration::zero()), 1);
  std::vector<double> rtt_us;
  {
    rt::net::EventLoop loop;
    rt::net::Connection connection(
        loop, rt::net::tcp_connect(daemon.address(), rt::Duration::seconds(5)));
    std::uint64_t replies = 0;
    connection.set_message_handler([&replies](std::string_view) { ++replies; });
    rtt_us.reserve(static_cast<std::size_t>(rounds));
    for (int i = 1; i <= rounds && !connection.closed(); ++i) {
      rt::net::OffloadRequest request;
      request.id = static_cast<std::uint64_t>(i);
      const std::int64_t sent = now_ns();
      request.send_wall_ns = loop.now().ns();
      connection.send(rt::net::encode(request));
      while (replies < static_cast<std::uint64_t>(i) && !connection.closed()) {
        loop.run_once(rt::Duration::milliseconds(5));
      }
      rtt_us.push_back(static_cast<double>(now_ns() - sent) / 1e3);
    }
  }
  daemon.stop();
  if (rtt_us.size() != static_cast<std::size_t>(rounds)) {
    throw std::runtime_error("rtt probe: connection closed after " +
                             std::to_string(rtt_us.size()) + " round trips");
  }
  return rtt_us;
}

class RuntimeWorkload final : public Workload {
 public:
  RuntimeWorkload(const std::string& dir, std::uint64_t seed)
      : doc_(read_document(dir, "runtime_faults")), seed_(seed) {
    const spec::ScenarioDoc doc = prepare(nullptr);
    doc_hashes_[doc_.name] = fnv1a_hex(doc.to_json().dump());
    if (doc.server.at("type").as_string() != "fixed") {
      throw std::invalid_argument("runtime-faults needs a 'fixed' server model");
    }
    service_time_ = rt::Duration::from_ms(doc.server.at("response_ms").as_number());
    predict(doc);
  }

  [[nodiscard]] bool deterministic() const override { return false; }

  Iteration iterate(SpanRecorder* rec, const std::string& scenario) override {
    Iteration it;
    if (rec != nullptr) rec->set_scenario(scenario + "/" + doc_.name);
    try {
      run(rec, it);
    } catch (const std::exception& e) {
      it.failures.push_back("runtime-faults: " + std::string(e.what()));
      ++it.failed_operations;
    }
    ++it.operations;
    if (rec != nullptr) {
      rec->set_scenario(scenario + "/net");
      Span span(rec, "net.rtt_probe");
      it.rtt_us = rtt_probe(kRttRounds);
    }
    return it;
  }

  void final_checks(std::vector<std::string>&) override {}

 private:
  spec::ScenarioDoc prepare(SpanRecorder* rec) const {
    spec::ScenarioDoc doc;
    {
      Span parse(rec, "spec.parse");
      doc = spec::ScenarioDoc::parse_text(doc_.text);
    }
    Span build(rec, "spec.build");
    return with_seed(doc, doc.sim, "seed", "sim.seed", seed_);
  }

  /// The oracle's prediction: pooled simulated rates over the oracle's
  /// replication count (runtime/oracle.hpp).
  void predict(const spec::ScenarioDoc& doc) {
    const spec::BuiltScenario built = spec::build_scenario(doc);
    const core::OdmResult odm = core::decide_offloading(built.tasks, built.odm);
    sim::SimConfig cfg = built.sim;
    std::optional<rt::health::ModeController> controller;
    if (built.controller != nullptr) {
      controller.emplace(*built.controller);
      cfg.controller = &*controller;
    }
    sim::BatchSimEngine engine;
    const sim::BatchResult res =
        engine.run(built.tasks, odm.decisions, *built.server, cfg,
                   oracle_.sim_replications, built.profile);
    for (const sim::SimMetrics& m : res.per_replication) predicted_.add(m);
  }

  /// |measured - predicted| within z * se + slack, se the binomial
  /// standard error over both sides' trials (the oracle's band).
  bool within_band(std::uint64_t sim_num, std::uint64_t sim_den, std::uint64_t real_num,
                   std::uint64_t real_den, double& measured, double& predicted) const {
    measured = static_cast<double>(real_num) / static_cast<double>(real_den);
    predicted = static_cast<double>(sim_num) / static_cast<double>(sim_den);
    const double p = std::clamp(predicted, 0.0, 1.0);
    const double se = std::sqrt(p * (1.0 - p) *
                                (1.0 / static_cast<double>(real_den) +
                                 1.0 / static_cast<double>(sim_den)));
    return std::abs(measured - predicted) <= oracle_.z * se + oracle_.slack;
  }

  void run(SpanRecorder* rec, Iteration& it) {
    const std::int64_t t0 = now_ns();
    std::optional<Span> root;
    if (rec != nullptr) root.emplace(rec, "report");
    spec::ScenarioDoc doc;
    spec::BuiltScenario built;
    {
      doc = prepare(rec);
      Span build(rec, "spec.build");
      built = spec::build_scenario(doc);
    }
    std::optional<rt::runtime::LoopbackGpuServer> daemon;
    {
      Span span(rec, "runtime.loopback_start");
      rt::runtime::GpuServiceOptions service_options;
      service_options.apply_spec_section(doc.runtime);
      daemon.emplace(built.server->clone(), rt::derive_seed(built.sim.seed, 0x6775),
                     service_options);
    }
    const std::int64_t t1 = now_ns();
    core::OdmResult odm;
    int decide_id = -1;
    {
      Span decide(rec, "core.decide");
      decide_id = decide.id();
      odm = core::decide_offloading(built.tasks, built.odm);
    }
    rt::runtime::RuntimeOptions options;
    options.apply_spec_section(doc.runtime);
    options.server = daemon->address();
    options.trace_capacity = kRuntimeTraceCapacity;
    sim::SimConfig cfg = built.sim;
    std::optional<rt::health::ModeController> controller;
    if (built.controller != nullptr) {
      controller.emplace(*built.controller);
      cfg.controller = &*controller;
    }
    rt::runtime::RuntimeResult result;
    int run_id = -1;
    {
      Span span(rec, "runtime.run");
      run_id = span.id();
      result = rt::runtime::run_offload_runtime(built.tasks, odm.decisions, cfg,
                                                built.profile, options);
    }
    {
      Span span(rec, "runtime.stop");
      daemon->stop();
    }
    std::string text;
    {
      Span render(rec, "report.render");
      Json::Object report = odm_section(built.tasks, odm);
      report.erase("lp_bound");
      const sim::SimMetrics& m = result.metrics;
      Json::Object o;
      o["released"] = static_cast<std::int64_t>(m.total_released());
      o["completed"] = static_cast<std::int64_t>(m.total_completed());
      o["deadline_misses"] = static_cast<std::int64_t>(m.total_deadline_misses());
      o["timely_results"] = static_cast<std::int64_t>(m.total_timely_results());
      o["compensations"] = static_cast<std::int64_t>(m.total_compensations());
      o["total_benefit"] = m.total_benefit();
      o["cpu_utilization"] = m.cpu_utilization();
      o["rpc"] = result.rpc_json();
      o["per_task"] = Json(per_task_section(built.tasks, m));
      report["runtime"] = Json(std::move(o));
      text = Json(std::move(report)).dump(2) + "\n";
    }
    root.reset();
    const std::int64_t t2 = now_ns();
    it.setup_s = seconds_between(t0, t1);
    it.report_s = seconds_between(t0, t2);
    it.reports.emplace_back(doc_.name, std::move(text));

    // ---- invariants and the oracle band ----
    // The report and every offload RPC are operations; an RPC fails on a
    // send failure, a wire error or a lost connection. Real deadline
    // misses come from wall-clock stalls of the host, so they differ from
    // run to run: they are counted in runtime.deadline_misses and held to
    // the oracle band below, not counted as failed operations.
    Totals real;
    real.add(result.metrics);
    it.jobs = real.released;
    it.operations += 1 + result.rpc_sent;
    it.failed_operations += result.send_failures + result.wire_errors +
                            (result.connection_error.empty() ? 0 : 1);
    const std::size_t before = it.failures.size();
    const auto fail = [&it](const std::string& what) {
      it.failures.push_back("runtime-faults: " + what);
    };
    if (!odm.feasible) fail("ODM decision infeasible");
    if (!result.connection_error.empty()) fail("connection: " + result.connection_error);
    if (result.send_failures + result.wire_errors != 0) fail("RPC send or wire errors");
    // The oracle cross-check: real miss, timely and compensation rates
    // within the band around the simulator's prediction.
    it.counters["runtime.deadline_misses"] = static_cast<double>(real.misses);
    double measured = 0.0;
    double predicted = 0.0;
    if (!within_band(predicted_.misses, predicted_.released, real.misses, real.released,
                     measured, predicted)) {
      fail(std::to_string(real.misses) + " deadline misses, outside the oracle band");
    }
    const std::uint64_t k = oracle_.sim_replications;
    if (real.released * k != predicted_.released) {
      fail(std::to_string(real.released) + " releases, simulator predicts " +
           std::to_string(predicted_.released / k));
    }
    if (real.attempts == 0) {
      fail("no offload attempted");
    } else {
      if (!within_band(predicted_.timely, predicted_.attempts, real.timely, real.attempts,
                       measured, predicted)) {
        fail("timely rate " + std::to_string(measured) + " outside the oracle band of " +
             std::to_string(predicted));
      }
      it.counters["runtime.timely_rate"] = measured;
      if (!within_band(predicted_.compensations, predicted_.attempts, real.compensations,
                       real.attempts, measured, predicted)) {
        fail("compensation rate " + std::to_string(measured) +
             " outside the oracle band of " + std::to_string(predicted));
      }
    }
    if (it.failures.size() != before && it.failed_operations == 0) ++it.failed_operations;

    const ProtocolStats stats = reduce_protocol_trace(
        result.trace, built.tasks, odm.decisions, service_time_, options.time_scale);
    it.overhead_us = stats.overhead_us;
    it.timer_slip_us = stats.timer_slip_us;
    it.counters["runtime.reply_margin_min_ms"] = stats.reply_margin_min_ms;
    it.counters["runtime.job_slack_min_ms"] = stats.job_slack_min_ms;
    it.counters["runtime.rpc_sent"] = static_cast<double>(result.rpc_sent);
    it.counters["runtime.rpc_replies"] = static_cast<double>(result.rpc_replies);
    it.counters["runtime.rpc_late_replies"] = static_cast<double>(result.rpc_late_replies);
    it.counters["runtime.send_failures"] = static_cast<double>(result.send_failures);
    it.counters["runtime.wire_errors"] = static_cast<double>(result.wire_errors);
    real.write(it.counters);

    if (rec != nullptr) {
      it.counters["runtime.wall_over_horizon"] =
          span_ms(rec, run_id) / (built.sim.horizon.ms() * options.time_scale);
      mckp_probe(rec, decide_id, built.tasks, built.odm, it);
    }
  }

  Document doc_;
  std::uint64_t seed_;
  rt::Duration service_time_;
  rt::runtime::OracleConfig oracle_;
  Totals predicted_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& specs_dir,
                                        std::uint64_t seed) {
  if (name == "fig3-mc") return std::make_unique<Fig3Workload>(specs_dir, seed);
  if (name == "casestudy") {
    return std::make_unique<ScenarioWorkload>(
        "casestudy", specs_dir, std::vector<std::string>{"table1", "fig2_casestudy"}, 1,
        seed);
  }
  if (name == "fault-stack") {
    return std::make_unique<ScenarioWorkload>(
        "fault-stack", specs_dir,
        std::vector<std::string>{"composed_stack", "adaptive_outage"},
        kFaultStackReplications, seed);
  }
  if (name == "runtime-faults") return std::make_unique<RuntimeWorkload>(specs_dir, seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench
