#pragma once
// Machine-readable bench summaries: one schema for every suite, so perf
// tracking can diff BENCH_*.json files without scraping stdout.
//
//   {
//     "git_describe": "v0-42-gabc1234",
//     "benchmarks": [
//       {"name": ...,
//        "config":  {"iterations": ..., "threads": ...},
//        "metrics": {"wall_ms": ..., "throughput": ..., <counters>...}},
//       ...
//     ]
//   }
//
// google-benchmark suites get this for free via json_summary_gbench.hpp's
// run_with_json_summary(); hand-rolled harnesses (e.g. bench_adaptive)
// build their own config/metrics objects and call write_json_summary().

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>

#include "util/json.hpp"

namespace rtbench {

#ifndef RTOFFLOAD_SOURCE_DIR
#define RTOFFLOAD_SOURCE_DIR "."
#endif

/// `git describe --tags --always --dirty` of the source tree the bench was
/// built from (RTOFFLOAD_SOURCE_DIR, baked in by bench/CMakeLists.txt), so
/// every summary records which revision produced it wherever it runs;
/// "unknown" outside a checkout (e.g. an extracted release tarball).
inline std::string git_describe() {
  const std::string command = std::string("git -C '") + RTOFFLOAD_SOURCE_DIR +
                              "' describe --tags --always --dirty 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  std::string out;
  char buf[128];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

/// Writes the common summary envelope around caller-built benchmark
/// entries; each entry should be {"name", "config", "metrics"}.
inline void write_json_summary(const std::string& path,
                               rt::Json::Array benchmarks) {
  rt::Json::Object root;
  root["git_describe"] = git_describe();
  root["benchmarks"] = rt::Json(std::move(benchmarks));
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write bench summary '" << path << "'\n";
    return;
  }
  out << rt::Json(std::move(root)).dump(2) << "\n";
  std::cerr << "bench summary written to " << path << "\n";
}

/// Convenience for single-entry hand-rolled suites.
inline void write_json_summary(const std::string& path, std::string name,
                               rt::Json config, rt::Json metrics) {
  rt::Json::Object entry;
  entry["name"] = std::move(name);
  entry["config"] = std::move(config);
  entry["metrics"] = std::move(metrics);
  rt::Json::Array benchmarks;
  benchmarks.push_back(rt::Json(std::move(entry)));
  write_json_summary(path, std::move(benchmarks));
}

}  // namespace rtbench
