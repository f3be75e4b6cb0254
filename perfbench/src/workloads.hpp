#pragma once
// The benchmark's four workloads. Each one reads checked-in scenario
// documents as text and drives them through the same public calls the
// command-line tool makes, from document text to a rendered report:
//
//   fig3-mc         fig3.json, 64 replications per cell, 2 BatchRunner
//                   workers (spec -> exp -> core/mckp -> sim)
//   casestudy       table1.json then fig2_casestudy.json (spec -> casestudy
//                   -> img/server -> core/mckp -> sim)
//   fault-stack     composed_stack.json and adaptive_outage.json, 2048
//                   replications each on the batched engine (server
//                   wrappers, rt mode controller)
//   runtime-faults  runtime_faults.json over real TCP against an in-process
//                   LoopbackGpuServer (runtime, net)
//
// The benchmark seed replaces only the simulation seeds (sim.seed, or
// sweep.base_seed for a grid) through spec::with_override, as
// document seed + (seed - kDefaultSeed); the task sets stay the paper's.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// The seed whose report digests are committed; it keeps every
/// document's own simulation seed.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// What one pass over a workload's documents produced.
struct Iteration {
  double setup_s = 0.0;   ///< document text to ready-to-run scenarios
  double report_s = 0.0;  ///< document text to rendered reports
  /// (document, rendered report), in document order.
  std::vector<std::pair<std::string, std::string>> reports;
  std::uint64_t jobs = 0;        ///< job releases, simulated or real
  std::uint64_t operations = 0;  ///< scenario reports and offload RPCs
  std::uint64_t failed_operations = 0;
  std::vector<std::string> failures;  ///< one line per violated check
  /// Per-layer counts and ratios measured where the work happens.
  std::map<std::string, double> counters;
  /// Real tier only: samples pooled by the caller across iterations.
  std::vector<double> overhead_us;
  std::vector<double> timer_slip_us;
  std::vector<double> rtt_us;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// True when the same seed gives byte-identical reports on every run.
  [[nodiscard]] virtual bool deterministic() const = 0;

  /// Sets up, runs and renders every document once. With a recorder the
  /// pass records spans (one scenario id per document, prefixed by
  /// `scenario`) and runs its probes after the pipeline; without one it
  /// reads only the two clocks that bound set-up and report.
  virtual Iteration iterate(SpanRecorder* recorder, const std::string& scenario) = 0;

  /// Checks made once per run, outside every timed region (differential
  /// replays, oracle prediction). Appends to `failures`.
  virtual void final_checks(std::vector<std::string>& failures) = 0;

  /// FNV-1a hash of each normalized document after the seed override.
  [[nodiscard]] const std::map<std::string, std::string>& document_hashes() const {
    return doc_hashes_;
  }

 protected:
  std::map<std::string, std::string> doc_hashes_;
};

/// Throws std::invalid_argument for an unknown name or an unreadable
/// document.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& specs_dir,
                                        std::uint64_t seed);

/// 64-bit FNV-1a of `text`, as 16 lower-case hex digits.
std::string fnv1a_hex(const std::string& text);

}  // namespace perfbench
