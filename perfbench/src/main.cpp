// vdx_perfbench: the repository's performance benchmark (see NOTES.md).
//
//   vdx_perfbench --workload stream|serve|settle --seed N --seconds S
//                 --trace 0|1 --trace-file PATH --work-dir DIR
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Any breach of the
// correctness gate exits non-zero without printing a result. perfbench/run.py
// builds this binary and turns a traced run's span file into the per-layer
// metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag{argv[i]};
    if (i + 1 >= argc) throw std::invalid_argument{"missing value for " + std::string{flag}};
    const std::string value{argv[++i]};
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-file") {
      options.trace_file = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      throw std::invalid_argument{"unknown flag " + std::string{flag}};
    }
  }
  if (!(options.seconds > 0.0)) throw std::invalid_argument{"--seconds must be > 0"};
  if (options.trace && options.trace_file.empty()) {
    throw std::invalid_argument{"--trace 1 needs --trace-file"};
  }
  if (options.work_dir.empty()) throw std::invalid_argument{"--work-dir is required"};
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Options options = parse(argc, argv);
    perfbench::RunResult result;
    if (options.workload == "stream") {
      result = perfbench::run_stream(options);
    } else if (options.workload == "serve" || options.workload == "settle") {
      result = perfbench::run_serving(options, options.workload == "settle");
    } else {
      throw std::invalid_argument{"unknown workload '" + options.workload + "'"};
    }
    std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    const char* sep = "";
    for (const auto& [name, metric] : result.metrics) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(),
                  metric.value, metric.unit.c_str());
      sep = ", ";
    }
    std::printf("}}\n");
    return 0;
  } catch (const perfbench::GateError& error) {
    std::fprintf(stderr, "correctness gate failed: %s\n", error.what());
    return 3;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
