#pragma once
// The seed event engine, kept as a correctness oracle.
//
// `simulate_reference` is the pre-optimization implementation of
// sim::simulate: the shared protocol core (job_scheduler.hpp, which the
// real runtime drives too) under a std::priority_queue of events. The
// production engine (engine.hpp) replaces every one of its structures with
// allocation-free equivalents but must stay bit-identical:
// tests/sim/determinism_test.cpp runs both engines over a randomized
// config grid and compares metrics and traces event by event, and
// bench/bench_sim_perf.cpp uses this engine as the speedup baseline.
//
// Do not "optimize" this path; its value is that it stays the simple,
// obviously-correct version of the semantics documented in simulator.hpp.

#include "sim/simulator.hpp"

namespace rt::sim {

/// Same contract as sim::simulate, seed implementation.
SimResult simulate_reference(const core::TaskSet& tasks,
                             const core::DecisionVector& decisions,
                             server::ResponseModel& server,
                             const SimConfig& config,
                             const RequestProfile& profile = {});

}  // namespace rt::sim
