// The repository benchmark program (run through run.py).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>] [--reference-digest <hex>]
//
// Prints a human-readable ledger, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. Exit code 0 when the run completed (correct or not); 2 on bad
// arguments or an error before a result exists.

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s>\n"
               "                 --trace <0|1> [--out-dir <dir>]\n"
               "                 [--commit <id>] [--reference-digest <hex>]\n"
               "workloads:");
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string commit = "unknown";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
      const std::string value = argv[++i];
      if (key == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (key == "--out-dir") {
        opt.out_dir = value;
      } else if (key == "--commit") {
        commit = value;
      } else if (key == "--reference-digest") {
        opt.reference_digest = value;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed numeric argument");
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(opt);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  bool finite = true;
  for (const perfbench::Metric& m : out.metrics) {
    finite = finite && std::isfinite(m.value);
  }
  const bool correct = out.failed == 0 && finite && out.attempted > 0;

  std::string metrics = "{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    metrics += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
               number(value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  metrics += "}";
  const std::string host = perfbench::host_fingerprint_json(commit);
  std::string notes = "[";
  for (std::size_t i = 0; i < out.notes.size(); ++i) {
    notes += (i ? ", \"" : "\"") + json_escape(out.notes[i]) + "\"";
  }
  notes += "]";

  if (!opt.out_dir.empty()) {
    std::ofstream file(opt.out_dir + "/" + opt.workload + "-s" +
                       std::to_string(opt.seed) + "-t" +
                       (opt.trace ? "1" : "0") + ".json");
    file << "{\"workload\": \"" << json_escape(opt.workload)
         << "\", \"seed\": " << opt.seed
         << ", \"trace\": " << (opt.trace ? 1 : 0)
         << ", \"seconds\": " << number(opt.seconds) << ", \"host\": " << host
         << ", \"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << out.attempted
         << ", \"failed\": " << out.failed << ", \"metrics\": " << metrics
         << ", \"notes\": " << notes << "}\n";
  }

  std::printf("workload %s seed %llu trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  std::printf("host %s\n", host.c_str());
  for (const std::string& n : out.notes) std::printf("  %s\n", n.c_str());
  for (const perfbench::Metric& m : out.metrics) {
    std::printf("  %-34s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", out.attempted, out.failed, metrics.c_str());
  return 0;
}
