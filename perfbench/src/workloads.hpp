#pragma once
// The benchmark's four closed-loop workloads (see DESIGN.md for why each
// exists and which layers it loads).

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where traced runs write their Chrome trace; empty = not written.
  std::string out_dir;
  // Expected digest of the fixed-seed reference wave; empty = none recorded.
  std::string reference_digest;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  int attempted = 0;
  int failed = 0;
  // End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  // Human-readable ledger: digests, per-lane breakdown, failure reasons.
  std::vector<std::string> notes;
};

const std::vector<std::string>& workload_names();

// Runs one workload end to end. Throws std::invalid_argument for an
// unknown workload name.
Outcome run_workload(const Options& opt);

}  // namespace perfbench
