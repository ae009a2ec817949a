// Entry point of the benchmark binary:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// Prints progress and tail latencies on stderr, and as the last line of
// stdout one JSON object {correct, attempted, failed, metrics}. Exits
// non-zero on bad arguments or a workload that could not run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "qbe_semantic|vec_read|hot_rw --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n");
  return 2;
}

void PrintJson(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(cfg.seconds > 0.0)) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      cfg.trace = value == "1";
    } else if (flag == "--trace-dir") {
      cfg.trace_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload) return Usage();

  RunResult result;
  if (cfg.workload == "qbe_semantic") {
    RunQbeSemantic(cfg, &result);
  } else if (cfg.workload == "vec_read") {
    RunVecRead(cfg, &result);
  } else if (cfg.workload == "hot_rw") {
    RunHotRw(cfg, &result);
  } else {
    return Usage();
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "no operation was attempted\n");
    return 1;
  }
  PrintJson(result);
  return 0;
}
