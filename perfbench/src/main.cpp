// perfbench: the repository benchmark. Runs one workload closed-loop in
// one process and prints every metric with its unit; the last line of
// standard output is one JSON object (correct, attempted, failed, metrics).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//   perfbench --list-metrics
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "netbase/log.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <file>]\n"
               "       perfbench --list-metrics\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const auto& [name, unit] : perfbench::end_to_end_metric_names())
        std::printf("end_to_end %s %s\n", name.c_str(), unit.c_str());
      for (const auto& [name, unit] : perfbench::per_layer_metric_names())
        std::printf("per_layer %s %s\n", name.c_str(), unit.c_str());
      for (const auto& name : perfbench::workload_names())
        std::printf("workload %s\n", name.c_str());
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options.seconds <= 0) return usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
    } else if (arg == "--spans") {
      options.spans_path = value;
    } else {
      return usage();
    }
  }
  if (options.workload.empty()) return usage();
  peering::Logger::global().set_threshold(peering::LogLevel::kError);
  return perfbench::run(options);
}
